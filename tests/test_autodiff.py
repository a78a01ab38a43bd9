import math

import numpy as np
import pytest

from fimlab import autodiff as ad


def scalar_param(tape, x):
    return ad.parameter(tape, np.asarray(float(x)))


# --- forward values ---------------------------------------------------------


def test_log_softmax_symmetric():
    tape = ad.Tape()
    z = ad.constant(tape, np.array([0.0, 0.0]))
    out = ad.log_softmax(z)
    assert np.allclose(out.data, [-math.log(2)] * 2, atol=1e-15)


def test_log_softmax_no_overflow():
    tape = ad.Tape()
    z = ad.constant(tape, np.array([1000.0, 0.0]))
    out = ad.log_softmax(z)
    assert np.all(np.isfinite(out.data))
    assert out.data[0] == pytest.approx(0.0, abs=1e-12)
    assert out.data[1] == pytest.approx(-1000.0, abs=1e-12)


def test_gather_log_softmax_scalar_oracle():
    tape = ad.Tape()
    z = ad.constant(tape, np.array([1.0, 2.0, 3.0]))
    picked = ad.gather(ad.log_softmax(z), 2)
    expected = 3.0 - math.log(math.e + math.e**2 + math.e**3)
    assert float(picked.data) == pytest.approx(expected, abs=1e-12)


def test_shape_mismatch_rejected_at_record_time():
    tape = ad.Tape()
    a = ad.constant(tape, np.ones((2, 3)))
    b = ad.constant(tape, np.ones((3, 3)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.mul(a, b)
    c = ad.constant(tape, np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.matmul(a, c)


def test_cross_tape_operands_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = ad.constant(t1, np.ones(2))
    b = ad.constant(t2, np.ones(2))
    with pytest.raises(ValueError):
        ad.add(a, b)


# --- backward ---------------------------------------------------------------


def test_backward_quadratic():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([1.0, 2.0]))
    loss = ad.wsum(ad.mul(theta, theta), np.ones(2))
    g = ad.gradient(loss)
    assert np.array_equal(g, [2.0, 4.0])


def test_backward_rejects_nonscalar_root():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ad.backward(ad.mul(theta, theta))


def test_stop_gradient_forward_identity_and_zero_adjoint():
    tape = ad.Tape()
    theta = scalar_param(tape, 3.0)
    frozen = ad.stop_gradient(theta)
    assert np.array_equal(frozen.data, theta.data)

    # d/dtheta [stop(theta) * theta] = stop(theta) = 3, not 6
    prod = ad.mul(frozen, theta)
    g = ad.gradient(ad.total(prod))
    assert np.array_equal(g, [3.0])


def test_stop_gradient_kills_any_path():
    tape = ad.Tape()
    theta = scalar_param(tape, 0.7)
    inner = ad.exp(ad.mul(theta, theta))
    out = ad.total(ad.stop_gradient(inner))
    g = ad.gradient(out)
    assert np.array_equal(g, [0.0])  # exactly zero, not merely small


def test_constants_never_receive_gradient():
    tape = ad.Tape()
    c = ad.constant(tape, np.array([1.0, 2.0]))
    theta = ad.parameter(tape, np.array([3.0, 4.0]))
    loss = ad.total(ad.mul(c, theta))
    grads = ad.backward(loss)
    assert set(grads) == {theta.idx}


def test_gradient_covers_unused_parameters_with_zeros():
    tape = ad.Tape()
    used = ad.parameter(tape, np.array([2.0]))
    unused = ad.parameter(tape, np.array([5.0, 6.0]))
    g = ad.gradient(ad.total(ad.mul(used, used)))
    assert np.array_equal(g, [4.0, 0.0, 0.0])


def test_bias_add_adjoint_reduces_rows():
    tape = ad.Tape()
    H = ad.parameter(tape, np.arange(6.0).reshape(3, 2))
    b = ad.parameter(tape, np.array([1.0, -1.0]))
    out = ad.total(ad.add(H, b))
    grads = ad.backward(out)
    assert np.array_equal(grads[b.idx], [3.0, 3.0])
    assert np.array_equal(grads[H.idx], np.ones((3, 2)))


def test_adjoint_linearity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)

    def build(theta):
        tape = ad.Tape()
        th = ad.parameter(tape, theta)
        f = ad.total(ad.tanh(ad.mul(th, th)))
        g = ad.wsum(ad.exp(th), x)
        return f, g, th

    theta = rng.normal(size=4)
    a, b = 0.7, -2.5
    f, g, _ = build(theta)
    gf = ad.gradient(f)
    gg = ad.gradient(g)
    f2, g2, _ = build(theta)
    combo = ad.add(ad.scale(f2, a), ad.scale(g2, b))
    gc = ad.gradient(combo)
    assert np.max(np.abs(gc - (a * gf + b * gg))) <= 1e-12


def test_replay_is_bit_exact():
    rng = np.random.default_rng(1)
    tape = ad.Tape()
    W = ad.parameter(tape, rng.normal(size=(3, 4)))
    X = ad.constant(tape, rng.normal(size=(5, 3)))
    b = ad.parameter(tape, rng.normal(size=4))
    out = ad.log_softmax(ad.tanh(ad.add(ad.matmul(X, W), b)))
    ad.total(out)
    assert tape.replay() is True


def test_backward_counter_increments():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([1.0, 1.0]))
    loss = ad.total(ad.mul(theta, theta))
    assert tape.backward_calls == 0
    ad.backward(loss)
    ad.backward(loss)
    assert tape.backward_calls == 2


def test_backward_from_many_threads_on_shared_tape():
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(11)
    tape = ad.Tape()
    W = ad.parameter(tape, rng.normal(size=(4, 3)))
    X = ad.constant(tape, rng.normal(size=(8, 4)))
    out = ad.total(ad.tanh(ad.matmul(X, W)))
    reference = ad.gradient(out)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: ad.gradient(out), range(64)))
    for g in results:
        assert np.array_equal(g, reference)
    assert tape.backward_calls == 65


# --- grad_check against central differences -----------------------------------


def test_grad_check_quadratic():
    def f(theta):
        tape = ad.Tape()
        th = ad.parameter(tape, theta)
        return ad.wsum(ad.mul(th, th), np.ones(theta.size))

    assert ad.grad_check(f, np.array([0.3, -1.2, 2.0])) <= 1e-10


def test_grad_check_constant_function():
    def f(theta):
        tape = ad.Tape()
        ad.parameter(tape, theta)
        return ad.constant(tape, np.asarray(4.0))

    assert ad.grad_check(f, np.array([1.0, 2.0])) == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_grad_check_mixed_ops(seed):
    # fixed seeds: an adversarial search could always find a coordinate whose
    # gradient is small enough (~1e-5) for FD roundoff to exceed 1e-6 relative
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 2))
    w = rng.normal(size=(3, 5))

    def f(theta):
        tape = ad.Tape()
        W = ad.parameter(tape, theta[:10].reshape(2, 5))
        b = ad.parameter(tape, theta[10:])
        h = ad.tanh(ad.add(ad.matmul(ad.constant(tape, x), W), b))
        return ad.wsum(ad.log_softmax(h), w)

    theta = rng.normal(size=15)
    assert ad.grad_check(f, theta) <= 1e-6


def test_grad_check_three_layer_network_at_small_step():
    # explicit step of 1e-5 on random three-layer networks; seeds avoid
    # coordinates whose gradients are so small (~1e-5) that FD cancellation
    # roundoff alone exceeds the relative target
    for seed in range(2, 12):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3))
        w = rng.normal(size=(2, 2))

        def f(theta):
            tape = ad.Tape()
            W1 = ad.parameter(tape, theta[:12].reshape(3, 4))
            b1 = ad.parameter(tape, theta[12:16])
            W2 = ad.parameter(tape, theta[16:24].reshape(4, 2))
            b2 = ad.parameter(tape, theta[24:])
            h = ad.tanh(ad.add(ad.matmul(ad.constant(tape, x), W1), b1))
            z = ad.add(ad.matmul(h, W2), b2)
            return ad.wsum(ad.log_softmax(z), w)

        theta = rng.normal(size=26)
        assert ad.grad_check(f, theta, step=1e-5) <= 1e-6


def test_grad_check_relu_sqrt_clip_exp():
    rng = np.random.default_rng(7)

    def f(theta):
        tape = ad.Tape()
        th = ad.parameter(tape, theta)
        pos = ad.exp(th)  # strictly positive, clip inactive
        path = ad.sqrt(ad.clip(pos, 1e-30, 1e30))
        return ad.total(ad.add(ad.relu(th), path))

    theta = rng.normal(size=6) + 0.1  # keep relu away from its kink
    assert ad.grad_check(f, theta) <= 1e-6


def test_sqrt_rejects_negative():
    tape = ad.Tape()
    v = ad.constant(tape, np.array([-1.0]))
    with pytest.raises(ValueError):
        ad.sqrt(v)


def test_batch_matmul_rows_match_single_rows_bitwise():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(16, 7))
    W = rng.normal(size=(7, 9))
    tape = ad.Tape()
    full = ad.matmul(ad.constant(tape, X), ad.constant(tape, W)).data
    for i in range(16):
        t = ad.Tape()
        row = ad.matmul(ad.constant(t, X[i : i + 1]), ad.constant(t, W)).data
        assert np.array_equal(full[i : i + 1], row)


# --- the rule table, op by op -------------------------------------------------

_W6 = np.array([0.9, -1.3, 0.4, 1.1, -0.6, 0.7])
_W23 = _W6.reshape(2, 3)

# op -> (parameter shapes, scalar built from those parameter leaves).  Each
# scalar has the op on its gradient path; keys must match the rule table.
# The wsum and total cases keep their op off the root, whose adjoint is 1.
RULE_CASES = {
    "add": (((2, 3), (2, 3), (3,)), lambda A, B, b: ad.wsum(ad.add(ad.add(A, B), b), _W23)),
    "mul": (((2, 3), (2, 3)), lambda A, B: ad.wsum(ad.mul(A, B), _W23)),
    "matmul": (((2, 3), (3, 2)), lambda A, B: ad.wsum(ad.matmul(A, B), _W23[:, :2])),
    "scale": (((6,),), lambda a: ad.wsum(ad.mul(ad.scale(a, -1.7), a), _W6)),
    "tanh": (((6,),), lambda a: ad.wsum(ad.tanh(a), _W6)),
    "relu": (((6,),), lambda a: ad.wsum(ad.relu(a), _W6)),
    "exp": (((6,),), lambda a: ad.wsum(ad.exp(a), _W6)),
    "sqrt": (((6,),), lambda a: ad.wsum(ad.sqrt(ad.mul(a, a)), _W6)),
    "clip": (((6,),), lambda a: ad.wsum(ad.clip(a, -0.6, 0.6), _W6)),
    "log_softmax": (((2, 3),), lambda A: ad.wsum(ad.log_softmax(A), _W23)),
    "wsum": (((6,),), lambda a: ad.total(ad.tanh(ad.wsum(ad.mul(a, a), _W6)))),
    "total": (((6,),), lambda a: ad.wsum(ad.tanh(ad.total(ad.mul(a, a))), -2.5)),
    "gather": (
        ((2, 3), (3,)),
        lambda A, a: ad.add(ad.wsum(ad.gather(A, [2, 0]), _W6[:2]), ad.gather(a, 1)),
    ),
    "stop": (((6,),), lambda a: ad.total(ad.mul(ad.stop_gradient(a), a))),
}

# ops whose adjoint is known exactly, as a function of theta
EXACT_ADJOINTS = {
    "gather": lambda theta: np.array([0, 0, _W6[0], _W6[1], 0, 0, 0, 1, 0], dtype=np.float64),
    "stop": lambda theta: theta,  # d/da [stop(a) * a] = stop(a), not 2a
}


@pytest.mark.parametrize("op", sorted(ad._RULES))
def test_rule_table_op_replays_and_differentiates(op):
    shapes, build = RULE_CASES[op]
    sizes = [math.prod(s) for s in shapes]
    # alternating signs, |theta| in [0.2, 1.5]: both relu branches, both
    # clip bounds, and away from the relu kink and sqrt's zero
    n = sum(sizes)
    theta = np.random.default_rng(4).uniform(0.2, 1.5, size=n) * (-1.0) ** np.arange(n)

    def f(th):
        tape = ad.Tape()
        parts = np.split(th, np.cumsum(sizes)[:-1])
        return build(*(ad.parameter(tape, p.reshape(s)) for p, s in zip(parts, shapes)))

    root = f(theta)
    assert op in {node.op for node in root.tape.nodes}
    assert root.tape.replay() is True
    if op in EXACT_ADJOINTS:
        assert np.array_equal(ad.gradient(root), EXACT_ADJOINTS[op](theta))
    else:
        assert ad.grad_check(f, theta) <= 1e-6
