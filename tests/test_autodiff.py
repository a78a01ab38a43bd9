import math

import numpy as np
import pytest

from fimlab import autodiff as ad
from fimlab import estimators as est
from fimlab.network import NetworkSpec, forward_logits, init_params, unflatten

from helpers import replay


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
    z = ad.constant(tape, np.array([[1.0, 2.0, 3.0]]))
    picked = ad.gather(ad.log_softmax(z), [2])
    expected = 3.0 - math.log(math.e + math.e**2 + math.e**3)
    assert float(picked.data[0]) == pytest.approx(expected, abs=1e-12)


def test_shape_mismatch_rejected_at_record_time():
    tape = ad.Tape()
    a = ad.constant(tape, np.ones((2, 3)))
    b = ad.constant(tape, np.ones((3, 3)))
    with pytest.raises(ValueError):
        ad.add(a, b)
    with pytest.raises(ValueError):
        ad.wsum(a, np.ones((3, 3)))
    c = ad.constant(tape, np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.matmul(a, c)


def test_gather_refuses_non_integral_indices():
    tape = ad.Tape()
    A = ad.constant(tape, np.arange(6.0).reshape(2, 3))
    a = ad.constant(tape, np.arange(3.0))
    for operand, bad, message in (
        (A, [0.7, 1.9], "gather index 0.7 is not an integer"),
        (A, [1.0, np.nan], "gather index nan is not an integer"),
        (A, np.array([True, False]), "gather index True is not an integer"),  # a mask, not 1 and 0
        (A, [0.0, np.inf], "gather index out of range"),  # inf is integral, and out of any range
        (A, [1], "gather on a matrix needs one index per row"),
        (a, [1, 2, 0], "gather expects a 2-D operand"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ad.gather(operand, bad)
    assert np.array_equal(ad.gather(A, [2.0, 0.0]).data, [2.0, 3.0])


def test_cross_tape_operands_rejected():
    t1, t2 = ad.Tape(), ad.Tape()
    a = ad.constant(t1, np.ones(2))
    b = ad.constant(t2, np.ones(2))
    with pytest.raises(ValueError):
        ad.add(a, b)


# --- backward ---------------------------------------------------------------


def test_backward_quadratic():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([[1.0, 2.0], [3.0, 4.0]]))
    loss = ad.total(ad.matmul(theta, theta))
    g = ad.gradient(loss)
    # d sum(T T) / dT = 1 1^T T^T + T^T 1 1^T: row sums of T across, column sums down
    assert np.array_equal(g, [7.0, 11.0, 9.0, 13.0])


def test_backward_rejects_nonscalar_root():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ad.backward(ad.tanh(theta))


def test_seeded_sweep_rejects_a_mismatched_adjoint():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([1.0, 2.0]))
    out = ad.tanh(theta)
    with pytest.raises(ValueError, match="adjoint shape"):
        ad.backward(out, np.ones(3))
    with pytest.raises(ValueError, match="adjoint shape"):
        ad.gradient(ad.total(out), np.ones(2))
    with pytest.raises(ValueError, match="must be a scalar"):
        ad.gradient(out)
    assert tape.backward_calls == 0


def test_seeded_sweep_is_the_gradient_of_the_weighted_sum():
    rng = np.random.default_rng(4)
    tape = ad.Tape()
    theta = ad.parameter(tape, rng.normal(size=(2, 3)))
    out = ad.log_softmax(ad.tanh(theta))
    w = rng.normal(size=(2, 3))
    assert np.array_equal(ad.gradient(out, w), ad.gradient(ad.wsum(out, w)))
    assert tape.backward_calls == 2


def test_seeded_sweep_does_not_alias_the_adjoint():
    tape = ad.Tape()
    a = ad.parameter(tape, np.array([1.0, 2.0]))
    b = ad.parameter(tape, np.array([3.0, 4.0]))
    seed = np.array([5.0, 6.0])
    # a param root returns its seed; add passes one adjoint on to both parents
    for root, scale in ((a, [1.0, 0.0]), (ad.add(a, b), [1.0, 1.0]), (ad.add(a, a), [2.0, 0.0])):
        g = ad.backward(root, seed)
        assert g.tolist() == np.outer(scale, seed).ravel().tolist()  # a then b, in creation order
        assert not np.shares_memory(g, seed)


def test_constants_never_receive_gradient():
    tape = ad.Tape()
    c = ad.constant(tape, np.array([[1.0, 2.0]]))
    theta = ad.parameter(tape, np.array([[3.0], [4.0]]))
    loss = ad.total(ad.matmul(c, theta))
    assert np.array_equal(ad.backward(loss), [1.0, 2.0])  # theta's entries alone


def _spy_matmul_adjoints(monkeypatch):
    """Count the calls of each matmul adjoint rule: {"a": n, "b": n}."""
    forward, adjoint_a, adjoint_b = ad._RULES["matmul"]
    calls = {"a": 0, "b": 0}

    def spy(key, rule):
        def counted(*args):
            calls[key] += 1
            return rule(*args)
        return counted

    monkeypatch.setitem(ad._RULES, "matmul", (forward, spy("a", adjoint_a), spy("b", adjoint_b)))
    return calls


def test_sweep_forms_no_adjoint_for_a_constant_operand(monkeypatch):
    calls = _spy_matmul_adjoints(monkeypatch)
    tape = ad.Tape()
    X = ad.constant(tape, np.ones((4, 3)))
    W = ad.parameter(tape, np.ones((3, 2)))
    assert np.array_equal(ad.backward(ad.total(ad.matmul(X, W))), np.full(6, 4.0))
    assert calls == {"a": 0, "b": 1}
    # a two-layer forward: only the hidden layer's matmul needs its left adjoint
    net = NetworkSpec((3, 5, 2), "tanh")
    logits = forward_logits(net, init_params(net, np.random.default_rng(0)), np.ones((4, 3)))
    ad.backward(logits, np.ones((4, 2)))
    assert calls == {"a": 1, "b": 3}


def test_constant_root_starts_no_sweep_but_counts_one(monkeypatch):
    calls = _spy_matmul_adjoints(monkeypatch)
    tape = ad.Tape()
    W = ad.parameter(tape, np.ones((3, 2)))
    root = ad.total(ad.matmul(ad.constant(tape, np.ones((4, 3))), ad.constant(tape, np.ones((3, 2)))))
    assert np.array_equal(ad.backward(root), np.zeros(W.data.size))
    assert np.array_equal(ad.gradient(root), np.zeros(W.data.size))
    assert calls == {"a": 0, "b": 0}
    assert tape.backward_calls == 2


def test_gradient_covers_unused_parameters_with_zeros():
    tape = ad.Tape()
    used = ad.parameter(tape, np.array([[2.0]]))
    unused = ad.parameter(tape, np.array([5.0, 6.0]))
    g = ad.gradient(ad.total(ad.matmul(used, used)))
    assert np.array_equal(g, [4.0, 0.0, 0.0])


def test_bias_add_adjoint_reduces_rows():
    tape = ad.Tape()
    H = ad.parameter(tape, np.arange(6.0).reshape(3, 2))
    b = ad.parameter(tape, np.array([1.0, -1.0]))
    out = ad.total(ad.add(H, b))
    g = ad.backward(out)  # H's entries, then b's
    assert np.array_equal(g[6:], [3.0, 3.0])
    assert np.array_equal(g[:6], np.ones(6))


def test_adjoint_linearity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)

    def build(theta):
        tape = ad.Tape()
        th = ad.parameter(tape, theta)
        f = ad.total(ad.tanh(th))
        g = ad.wsum(ad.log_softmax(th), x)
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
    assert replay(tape) is True


def test_backward_counter_increments():
    tape = ad.Tape()
    theta = ad.parameter(tape, np.array([1.0, 1.0]))
    loss = ad.total(ad.tanh(theta))
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


def test_backward_from_many_threads_on_one_row_view():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(12)
    net = NetworkSpec((4, 6, 3), "tanh")
    lsm = ad.log_softmax(forward_logits(net, init_params(net, rng), rng.normal(size=(8, 4))))
    seeds = np.eye(3)[:, None, :]
    reference = [ad.gradient(next(ad.rows(lsm, [5])), e) for e in seeds]
    (view,) = ad.rows(lsm, [5])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda i: (i % 3, ad.gradient(view, seeds[i % 3])), range(64)))
    finally:
        sys.setswitchinterval(interval)
    for y, g in results:
        assert np.array_equal(g, reference[y])
    assert view.tape.backward_calls == 64
    assert replay(view.tape) is True


# --- row views of a batched tape ---------------------------------------------------


@pytest.mark.parametrize("rows", (1, 7, 64))
@pytest.mark.parametrize("activation", ("tanh", "relu", "none"))
@pytest.mark.parametrize("log_softmax", (False, True))
def test_row_views_equal_per_sample_tapes_bitwise(activation, rows, log_softmax):
    rng = np.random.default_rng(rows)
    net = NetworkSpec((10, 32, 5), activation)
    theta = init_params(net, rng)
    X = rng.normal(size=(rows, 10))

    def forward(X):
        logits = forward_logits(net, theta, X)
        return ad.log_softmax(logits) if log_softmax else logits

    batch = forward(X)
    samples = [*range(rows), 0, rows - 1, rows // 2, 0]  # repeats, as Monte Carlo draws give
    for b, view in zip(samples, ad.rows(batch, samples), strict=True):
        alone = forward(X[b : b + 1])
        assert np.array_equal(view.data, alone.data)
        for e in np.eye(5)[:, None, :]:
            assert np.array_equal(ad.gradient(view, e), ad.gradient(alone, e))
        assert replay(view.tape) is True
    assert batch.tape.backward_calls == 0  # every sweep ran on a view, a one-row batch's too


def test_row_view_shares_the_parameter_leaves_and_holds_row_views():
    rng = np.random.default_rng(13)
    net = NetworkSpec((3, 4, 2), "tanh")
    logits = forward_logits(net, init_params(net, rng), rng.normal(size=(5, 3)))
    view, other = ad.rows(logits, [2, 4])
    assert view.idx == logits.idx and len(view.tape.nodes) == len(logits.tape.nodes)
    assert view.tape._param_at == logits.tape._param_at
    for mine, theirs in zip(view.tape.nodes, logits.tape.nodes):
        if theirs.op == "param":
            assert mine is theirs
        else:
            assert mine.value.base is not None and np.shares_memory(mine.value, theirs.value)
            assert np.array_equal(mine.value, theirs.value[2:3])
            if theirs.op == "tanh":  # the row of the factor the batch formed, not one formed again
                assert np.shares_memory(mine.factor, theirs.factor)
                assert np.array_equal(mine.factor, theirs.factor[2:3])
            else:
                assert mine.factor is theirs.factor is None
    # the batch root's one plan, formed by rows() for every view
    assert view.tape._plans[view.idx] is other.tape._plans[other.idx] is logits.tape._plans[logits.idx]


def test_rows_gives_each_index_a_view_of_its_own():
    rng = np.random.default_rng(14)
    net = NetworkSpec((3, 4, 2), "tanh")
    logits = forward_logits(net, init_params(net, rng), rng.normal(size=(5, 3)))
    first, again, other = ad.rows(logits, np.array([2, 2, 4]))  # a repeat, as Monte Carlo draws give
    assert first.tape is not again.tape
    ad.gradient(first, np.ones((1, 2)))
    assert (first.tape.backward_calls, again.tape.backward_calls) == (1, 0)
    assert np.array_equal(first.data, again.data) and np.array_equal(other.data, logits.data[4:])
    assert list(ad.rows(logits, range(0))) == []
    ad.parameter(first.tape, np.ones(3))  # a parameter pushed onto one view stays on it
    assert again.tape._param_at == logits.tape._param_at
    fresh = next(ad.rows(logits, [2]))
    assert np.array_equal(ad.gradient(again, np.ones((1, 2))), ad.gradient(fresh, np.ones((1, 2))))


def _count_factors(monkeypatch):
    """Count the local factors formed, by op: {op: n}."""
    calls = dict.fromkeys(ad._FACTORS, 0)

    def spy(op, form):
        def counted(*args):
            calls[op] += 1
            return form(*args)
        return counted

    for op, form in list(ad._FACTORS.items()):
        monkeypatch.setitem(ad._FACTORS, op, spy(op, form))
    return calls


def _record_sweeps(monkeypatch):
    """Record every reverse sweep as (adjoint, gradient), in order."""
    sweeps = []
    backward = ad.backward

    def recorded(root, adjoint=None):
        g = backward(root, adjoint)
        sweeps.append((adjoint, g))
        return g

    monkeypatch.setattr(ad, "backward", recorded)
    return sweeps


@pytest.mark.parametrize("activation", ("tanh", "relu", "none"))
def test_each_factor_is_formed_once_per_node_and_every_sweep_keeps_its_bits(monkeypatch, activation):
    rng = np.random.default_rng(17)
    B, C = 6, 4
    net = NetworkSpec((5, 7, C), activation)
    theta = init_params(net, rng)
    X = rng.normal(size=(B, 5))

    def logits(X):
        return forward_logits(net, theta, X)

    def lsm(X):
        return ad.log_softmax(forward_logits(net, theta, X))

    calls = [  # (the call, its tape's forward, the forward each of its sweeps must match)
        (lambda: est._jacobian_stack(net, theta, X), logits, [logits(X[b : b + 1]) for b in range(B) for _ in range(C)]),
        (lambda: est.exact_fim_definition(net, theta, X, "diagonal"), lsm,
         [lsm(X[b : b + 1]) for b in range(B) for _ in range(C)]),
        (lambda: est.hutchinson_fim(net, theta, X, rng=np.random.default_rng(3), n_probes=8, storage="diagonal"),
         logits, [logits(X)] * 8),
    ]
    for call, forward, fresh in calls:
        formed = _count_factors(monkeypatch)
        sweeps = _record_sweeps(monkeypatch)
        call()
        monkeypatch.undo()
        # one factor per node that has one: formed with the forward, never by a sweep
        nodes = forward(X).tape.nodes
        assert formed == {op: sum(node.op == op for node in nodes) for op in ad._FACTORS}
        assert len(sweeps) == len(fresh)
        for (seed, g), root in zip(sweeps, fresh):
            assert np.array_equal(g, ad.backward(root, seed))


def test_a_node_pushed_onto_a_view_gets_a_plan_of_its_own():
    rng = np.random.default_rng(18)
    net = NetworkSpec((3, 4, 2), "relu")
    theta = init_params(net, rng)
    X = rng.normal(size=(5, 3))
    logits = forward_logits(net, theta, X)
    view, other = ad.rows(logits, [3, 1])
    mine = ad.log_softmax(view)
    theirs = ad.log_softmax(logits)  # the batch pushes a node under the same id
    assert mine.idx == theirs.idx
    alone = ad.log_softmax(forward_logits(net, theta, X[3:4]))
    for e in np.eye(2)[:, None, :]:
        assert np.array_equal(ad.gradient(mine, e), ad.gradient(alone, e))
    ad.gradient(theirs, np.ones((5, 2)))
    plans = [tape._plans for tape in (view.tape, other.tape, logits.tape)]
    assert plans[0][view.idx] is plans[1][other.idx] is plans[2][logits.idx]
    assert plans[0][mine.idx] is not plans[2][theirs.idx] and mine.idx not in plans[1]
    assert replay(view.tape) is True


def _batch(tape, rows=4):
    return ad.constant(tape, np.arange(3.0 * rows).reshape(rows, 3))


@pytest.mark.parametrize("build, message", [
    (lambda t, W: ad.gather(ad.log_softmax(ad.matmul(_batch(t), W)), [0, 1, 1, 0]), "the root, a gather node"),
    # a gathered column added as a bias is no batch of rows either
    (lambda t, W: ad.add(ad.matmul(_batch(t), ad.parameter(t, np.ones((3, 4)))),
                         ad.gather(ad.matmul(_batch(t), W), [0, 1, 1, 0])), "a gather node of shape"),
    (lambda t, W: ad.wsum(ad.matmul(_batch(t), W), np.ones((4, 2))), "the root, a wsum node"),
    (lambda t, W: ad.total(ad.matmul(_batch(t), W)), "the root, a total node"),
    # a right operand that is no parameter: a constant, or another batch of rows
    (lambda t, W: ad.matmul(_batch(t, 3), ad.constant(t, np.ones((3, 2)))), "a matmul whose right operand"),
    (lambda t, W: ad.matmul(ad.tanh(ad.matmul(_batch(t), ad.parameter(t, np.ones((3, 4))))),
                            ad.tanh(ad.matmul(_batch(t), W))), "a matmul whose right operand"),
    # a parameter that is itself a batch of rows: each row would sweep the whole leaf
    (lambda t, W: ad.add(ad.matmul(_batch(t), W), ad.parameter(t, np.ones((4, 2)))), "a parameter that enters add"),
    (lambda t, W: ad.matmul(ad.parameter(t, np.ones((4, 3))), W), "a parameter that enters matmul"),
    (lambda t, W: ad.tanh(ad.parameter(t, np.ones((4, 3)))), "a parameter that enters tanh"),
], ids=["gather", "gather-bias", "wsum", "total", "matmul-const", "matmul-batch",
        "param-add", "param-matmul-left", "param-tanh"])
def test_row_refuses_a_tape_that_mixes_rows(build, message):
    tape = ad.Tape()
    root = build(tape, ad.parameter(tape, np.ones((3, 2))))
    for samples in ([0], []):  # refused at the call, whatever the rows asked for
        with pytest.raises(ValueError, match=f"^row: {message}"):
            ad.rows(root, samples)


def test_row_refuses_a_row_out_of_range():
    tape = ad.Tape()
    root = ad.tanh(ad.matmul(_batch(tape), ad.parameter(tape, np.ones((3, 2)))))
    for b in (-1, 4, 99):
        with pytest.raises(ValueError, match="out of range"):
            ad.rows(root, [0, b])  # refused at the call, before any view is made
    assert np.array_equal(next(ad.rows(root, [3])).data, root.data[3:])


# --- flat gradients ------------------------------------------------------------


def test_gradient_is_one_fresh_flat_vector():
    tape = ad.Tape()
    a = ad.parameter(tape, np.array([1.0, 2.0]))
    unused = ad.parameter(tape, np.ones((2, 2)))
    b = ad.parameter(tape, np.array([3.0, 4.0]))
    seed = np.array([5.0, 6.0])
    for root, want in ((ad.add(a, a), [10, 12, 0, 0, 0, 0, 0, 0]), (a, [5, 6, 0, 0, 0, 0, 0, 0]),
                       (ad.add(a, b), [5, 6, 0, 0, 0, 0, 5, 6])):
        g = ad.gradient(root, seed)
        assert np.array_equal(g, want)
        assert not any(np.shares_memory(g, x) for x in [seed, *(node.value for node in tape.nodes)])
    assert ad.gradient(ad.total(unused)).tolist() == [0, 0, 1, 1, 1, 1, 0, 0]


def test_backward_adjoints_view_the_gradient_vector():
    # each parameter's adjoint is a slice of the one vector backward() returns
    rng = np.random.default_rng(16)
    net = NetworkSpec((3, 4, 2), "relu")
    theta = init_params(net, rng)
    X = rng.normal(size=(5, 3))
    (view,) = ad.rows(forward_logits(net, theta, X), [1])
    flat = ad.backward(view, np.array([[0.5, -2.0]]))
    assert flat.shape == (net.dim,)
    assert np.array_equal(flat, ad.gradient(view, np.array([[0.5, -2.0]])))
    weights, biases = unflatten(net, flat)
    assert all(g.base is flat for g in (*weights, *biases))
    # the last layer's adjoints, by hand: dz/dW1 = h^T seed, dz/db1 = seed
    W, b = unflatten(net, theta)
    h = np.maximum(X[1:2] @ W[0] + b[0], 0.0)
    assert np.allclose(weights[1], h.T @ np.array([[0.5, -2.0]]), rtol=1e-14, atol=0)
    assert np.array_equal(biases[1], [0.5, -2.0])


# --- grad_check against central differences -----------------------------------


def test_grad_check_quadratic():
    def f(theta):
        tape = ad.Tape()
        th = ad.parameter(tape, theta.reshape(2, 2))
        return ad.total(ad.matmul(th, th))

    assert ad.grad_check(f, np.array([0.3, -1.2, 2.0, 0.7])) <= 1e-10


def test_grad_check_constant_function():
    def f(theta):
        tape = ad.Tape()
        ad.parameter(tape, theta)
        return ad.constant(tape, np.asarray(4.0))

    assert ad.grad_check(f, np.array([1.0, 2.0])) == 0.0


def _linear(theta):
    return ad.wsum(ad.parameter(ad.Tape(), theta), np.array([2.0, -0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["difference", "gradient"])
def test_grad_check_fails_on_a_non_finite_entry(monkeypatch, where, bad):
    # a NaN error must not be dropped by the maximum, which would score 0.0, a pass
    theta0 = np.array([0.3, -1.2])
    f = _linear
    if where == "difference":
        def f(theta):
            value = _linear(theta)
            if np.array_equal(theta, theta0):
                return value
            return ad.add(value, ad.constant(value.tape, np.asarray(bad)))
    else:
        monkeypatch.setattr(ad, "gradient", lambda root: np.array([bad, -0.5]))
    assert not math.isfinite(ad.grad_check(f, theta0))


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


def test_grad_check_relu_log_softmax():
    rng = np.random.default_rng(7)

    def f(theta):
        tape = ad.Tape()
        th = ad.parameter(tape, theta)
        return ad.wsum(ad.add(ad.relu(th), ad.log_softmax(th)), np.linspace(-1.0, 1.5, 6))

    theta = rng.normal(size=6) + 0.1  # keep relu away from its kink
    assert ad.grad_check(f, theta) <= 1e-6


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


def _einsum_reference_sweep(root, seed):
    """{param id: adjoint} by a plain reverse walk that forms every adjoint,
    constants' included, with the matmul adjoints through einsum."""
    nodes = root.tape.nodes
    adj = {root.idx: np.asarray(seed, dtype=np.float64)}
    grads = {}
    for i in range(root.idx, -1, -1):
        g = adj.pop(i, None)
        node = nodes[i]
        if g is None or node.op == "const":
            continue
        if node.op == "param":
            grads[i] = g
            continue
        values = [nodes[j].value for j in node.parents]
        if node.op == "matmul":
            a, b = values
            deltas = (np.einsum("ik,jk->ij", g, b, optimize=False), np.einsum("ij,ik->jk", a, g, optimize=False))
        else:
            deltas = [rule(node, g, *values) for rule in ad._RULES[node.op][1:]]
        for j, delta in zip(node.parents, deltas):
            adj[j] = adj[j] + delta if j in adj else delta
    return grads


@pytest.mark.parametrize("rows", (1, 64, 512))
@pytest.mark.parametrize("activation", ("tanh", "relu", "none"))
def test_blas_sweep_matches_an_einsum_reference_sweep(activation, rows):
    rng = np.random.default_rng(rows)
    net = NetworkSpec((10, 32, 5), activation)
    theta = init_params(net, rng)
    X = rng.normal(size=(rows, 10))
    logits = forward_logits(net, theta, X)
    lsm = ad.log_softmax(logits)
    labels = rng.integers(5, size=rows)
    p = np.exp(lsm.data)
    one_hot = np.zeros((rows, 5))
    one_hot[:, 2] = 1.0
    sweeps = [
        (ad.total(ad.gather(lsm, labels)), None),  # scalar root, seeded with 1
        (lsm, one_hot),  # one Jacobian row per sample
        (logits, np.sqrt(p) * rng.choice([-1.0, 1.0], size=(rows, 5))),  # a probe's seed
    ]
    for root, seed in sweeps:
        flat = ad.backward(root, seed)
        reference = _einsum_reference_sweep(root, 1.0 if seed is None else seed)
        params = [i for i, node in enumerate(root.tape.nodes) if node.op == "param"]
        assert sorted(reference) == params
        at = 0
        for i in params:  # the flat vector holds each parameter's adjoint in creation order
            ref = reference[i]
            assert np.max(np.abs(flat[at : at + ref.size] - ref.ravel())) <= 1e-14 * np.max(np.abs(ref))
            at += ref.size
        assert at == flat.size


# --- the rule table, op by op -------------------------------------------------

_W6 = np.array([0.9, -1.3, 0.4, 1.1, -0.6, 0.7])
_W23 = _W6.reshape(2, 3)

# op -> (parameter shapes, scalar built from those parameter leaves).  Each
# scalar has the op on its gradient path; keys must match the rule table.
# The wsum and total cases keep their op off the root, whose adjoint is 1.
RULE_CASES = {
    "add": (((2, 3), (2, 3), (3,)), lambda A, B, b: ad.wsum(ad.add(ad.add(A, B), b), _W23)),
    "matmul": (((2, 3), (3, 2)), lambda A, B: ad.wsum(ad.matmul(A, B), _W23[:, :2])),
    "scale": (((6,),), lambda a: ad.wsum(ad.tanh(ad.scale(a, -1.7)), _W6)),
    "tanh": (((6,),), lambda a: ad.wsum(ad.tanh(a), _W6)),
    "relu": (((6,),), lambda a: ad.wsum(ad.relu(a), _W6)),
    "log_softmax": (((2, 3),), lambda A: ad.wsum(ad.log_softmax(A), _W23)),
    "wsum": (((6,),), lambda a: ad.total(ad.tanh(ad.wsum(ad.tanh(a), _W6)))),
    "total": (((6,),), lambda a: ad.wsum(ad.tanh(ad.total(ad.tanh(a))), -2.5)),
    "gather": (((2, 3),), lambda A: ad.wsum(ad.gather(A, [2, 0]), _W6[:2])),
}

# ops whose adjoint is known exactly, as a function of theta
EXACT_ADJOINTS = {
    "gather": lambda theta: np.array([0, 0, _W6[0], _W6[1], 0, 0], dtype=np.float64),
}


def test_rule_cases_cover_exactly_the_rule_table():
    assert set(RULE_CASES) == set(ad._RULES)
    assert set(EXACT_ADJOINTS) <= set(ad._RULES)


@pytest.mark.parametrize("op", sorted(ad._RULES))
def test_rule_table_op_replays_and_differentiates(op):
    shapes, build = RULE_CASES[op]
    sizes = [math.prod(s) for s in shapes]
    # alternating signs, |theta| in [0.2, 1.5]: both relu branches, and away
    # from the relu kink
    n = sum(sizes)
    theta = np.random.default_rng(4).uniform(0.2, 1.5, size=n) * (-1.0) ** np.arange(n)

    def f(th):
        tape = ad.Tape()
        parts = np.split(th, np.cumsum(sizes)[:-1])
        return build(*(ad.parameter(tape, p.reshape(s)) for p, s in zip(parts, shapes)))

    root = f(theta)
    assert op in {node.op for node in root.tape.nodes}
    assert replay(root.tape) is True
    if op in EXACT_ADJOINTS:
        assert np.array_equal(ad.gradient(root), EXACT_ADJOINTS[op](theta))
    else:
        assert ad.grad_check(f, theta) <= 1e-6
