import copy
import itertools
import json
import re

import numpy as np
import pytest

from fimlab import autodiff as ad
from fimlab import estimators as est
from fimlab.bounds import pullback_bounds, tightness_report
from fimlab.network import NetworkSpec, flatten, forward_logits, init_params, softmax, unflatten
from fimlab.simplex import simplex_matrix, spectrum

from helpers import (
    enumeration_diag_moments, enumeration_mean, jacobian_and_logits, loglik_gradients, random_instance,
    sample_label, validate,
)


def scalar_binary_model():
    """One input feeding two logits; at theta = 0 this is a fair coin."""
    net = NetworkSpec((1, 2), "none")
    return net, np.zeros(net.dim)


# --- seeded reverse sweeps ------------------------------------------------------


@pytest.mark.parametrize("activation", ["tanh", "relu", "none"])
@pytest.mark.parametrize("C", [2, 4, 10])
def test_seeded_sweeps_equal_gather_total_roots_bitwise(activation, C):
    # a one-hot adjoint is what gather + total fed back, so every row is the same bits
    rng = np.random.default_rng(C)
    net = NetworkSpec((3, 5, C), activation)
    theta = init_params(net, rng)
    x = rng.normal(size=(1, 3))
    logits = forward_logits(net, theta, x)
    lsm = ad.log_softmax(logits)
    for i, e_i in enumerate(np.eye(C)[:, None, :]):
        seeded = ad.gradient(logits, e_i)
        rooted = ad.gradient(ad.total(ad.gather(logits, np.array([i]))))
        assert seeded.tobytes() == rooted.tobytes()
        seeded = ad.gradient(lsm, e_i)
        rooted = ad.gradient(ad.total(ad.gather(lsm, np.array([i]))))
        assert seeded.tobytes() == rooted.tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu", "none"])
@pytest.mark.parametrize("shape, rows", [((3, 5, 4), 7), ((16, 16, 50), 5), ((20, 80, 5), 9)],
                         ids=["3-5-4", "16-16-50", "20-80-5"])
def test_jacobian_stack_equals_the_per_sample_oracle_bitwise(activation, shape, rows):
    # row invariance: each sample's Jacobian from a row view of one batched
    # forward is the bits of a forward and sweeps of that sample alone
    rng = np.random.default_rng(rows)
    net = NetworkSpec(shape, activation)
    theta = init_params(net, rng)
    X = rng.normal(size=(rows, net.n_inputs))
    J, fwd, passes = est._jacobian_stack(net, theta, X)
    z = fwd.logits.data
    oracle_J, oracle_z = (np.stack(parts) for parts in zip(*(jacobian_and_logits(net, theta, x) for x in X)))
    assert J.tobytes() == oracle_J.tobytes()
    assert z.tobytes() == oracle_z.tobytes()
    assert passes == rows * net.n_classes


@pytest.mark.parametrize("C", [2, 4, 10])
def test_per_sample_sweeps_push_no_node(monkeypatch, C):
    rng = np.random.default_rng(C)
    net = NetworkSpec((3, 5, C), "tanh")
    theta = init_params(net, rng)
    x = rng.normal(size=3)
    forward_nodes = len(forward_logits(net, theta, x[None, :]).tape.nodes)
    tapes = []
    real = ad.Tape.__init__

    def init(self):  # keep every tape the call makes
        real(self)
        tapes.append(self)

    monkeypatch.setattr(ad.Tape, "__init__", init)
    # the one-row forward's tape is never swept; its row view gets the C sweeps
    est._jacobian_stack(net, theta, x[None, :])
    assert [(len(t.nodes), t.backward_calls) for t in tapes] == [(forward_nodes, 0), (forward_nodes, C)]


# --- exact oracles ------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("storage", est.STORAGES)
def test_validate_refuses_a_non_finite_entry(storage, bad):
    # NaN passed the symmetry test and eigvalsh; an infinity warned, then passed
    for at in ((0, 0), (1, 2)):
        values = np.eye(3)
        values[at] = values[at[::-1]] = bad
        estimate = est.FimEstimate("efim", storage, values if storage == "dense" else values[at[0]], "sum")
        with pytest.raises(ValueError, match=f"^{storage} estimate has a non-finite entry"):
            validate(estimate)


@pytest.mark.parametrize("storage, values, message", [
    ("diagonal", [1.0, -1e-9, 2.0], "diagonal estimate has a negative entry"),
    ("dense", [[1.0, 0.5], [0.4, 1.0]], "dense estimate is not symmetric"),
    ("dense", [[1.0, 2.0], [2.0, 1.0]], "dense estimate is not positive semidefinite"),  # eigenvalue -1
])
def test_validate_refuses_a_broken_invariant(storage, values, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        validate(est.FimEstimate("efim", storage, values, "sum"))


def test_exact_fim_scalar_model_quarter_x_squared():
    net, theta = scalar_binary_model()
    x = 2.0
    F = est.exact_fim_definition(net, theta, np.array([[x]]))
    # the first-logit weight coordinate carries x^2 p(1-p) = x^2 / 4
    assert F.values[0, 0] == pytest.approx(x * x / 4.0, abs=1e-14)


def test_exact_fim_zero_jacobian_rows():
    net = NetworkSpec((2, 3), "none")
    rng = np.random.default_rng(0)
    theta = init_params(net, rng)
    F = est.exact_fim_definition(net, theta, np.zeros((1, 2)))
    weight_rows = F.values[: 6, :]  # x = 0 kills every weight derivative
    assert np.array_equal(weight_rows, np.zeros_like(weight_rows))
    assert np.array_equal(F.values[:, :6], np.zeros((F.dim, 6)))


@pytest.mark.parametrize(
    "layers,act", [((2, 3), "none"), ((3, 5, 4), "tanh"), ((2, 6, 2), "relu")]
)
def test_definition_equals_pullback(layers, act):
    rng = np.random.default_rng(42)
    net, theta, X = random_instance(rng, layers, act, n_samples=3)
    a = est.exact_fim_definition(net, theta, X)
    b = est.exact_fim_pullback(net, theta, X)
    assert np.linalg.norm(a.values - b.values) <= 1e-10
    validate(a)
    validate(b)


def test_pullback_saturated_probabilities_vanish():
    net = NetworkSpec((1, 3), "none")
    W = np.array([[40.0, 0.0, -40.0]])
    theta = flatten(net, [W], [np.zeros(3)])
    X = np.array([[1.0]])
    F = est.exact_fim_pullback(net, theta, X)

    J, _ = jacobian_and_logits(net, theta, X[0])
    assert np.linalg.norm(F.values) <= 1e-10 * np.sum(J * J)


def test_pullback_binary_reduces_to_row_difference():
    rng = np.random.default_rng(1)
    net, theta, X = random_instance(rng, (3, 2), "none", n_samples=2)
    expected = np.zeros((net.dim, net.dim))
    for x in X:
        J, z = jacobian_and_logits(net, theta, x)
        p = softmax(z)
        d = J[0] - J[1]
        expected += p[0] * p[1] * np.outer(d, d)
    F = est.exact_fim_pullback(net, theta, X)
    assert np.linalg.norm(F.values - expected) <= 1e-12


def test_diagonal_storage_matches_dense_diagonal():
    rng = np.random.default_rng(2)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=2)
    dense = est.exact_fim_pullback(net, theta, X, storage="dense")
    diag = est.exact_fim_pullback(net, theta, X, storage="diagonal")
    assert np.allclose(diag.values, np.diag(dense.values), atol=1e-12)


def test_dense_cap_enforced():
    net = NetworkSpec((70, 70), "none")  # 4970 parameters
    theta = np.zeros(net.dim)
    with pytest.raises(ValueError):
        est.exact_fim_definition(net, theta, np.zeros((1, 70)), storage="dense")


# --- empirical FIM -------------------------------------------------------------


def test_efim_symmetric_binary_equals_exact():
    net, theta = scalar_binary_model()
    X = np.array([[1.0], [-2.0], [0.5]])
    for labels in ([0, 0, 0], [1, 0, 1]):
        F = est.efim(net, theta, X, np.array(labels))
        exact = est.exact_fim_definition(net, theta, X)
        assert np.linalg.norm(F.values - exact.values) <= 1e-14


def test_efim_two_routes_agree():
    rng = np.random.default_rng(3)
    net, theta, X = random_instance(rng, (2, 5, 3), "tanh", n_samples=4)
    labels = rng.integers(3, size=4)
    F = est.efim(net, theta, X, labels)
    expected = np.zeros((net.dim, net.dim))
    for x, y in zip(X, labels):
        J, z = jacobian_and_logits(net, theta, x)
        p = softmax(z)
        r = -p
        r[y] += 1.0
        expected += J.T @ np.outer(r, r) @ J
    assert np.max(np.abs(F.values - expected)) <= 1e-12


def test_efim_exhaustive_label_mean_is_exact():
    rng = np.random.default_rng(4)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    probs = [loglik_gradients(net, theta, x)[0] for x in X]
    mean = np.zeros((net.dim, net.dim))
    for assignment in itertools.product(range(3), repeat=2):
        weight = probs[0][assignment[0]] * probs[1][assignment[1]]
        mean += weight * est.efim(net, theta, X, np.array(assignment)).values
    exact = est.exact_fim_definition(net, theta, X)
    assert np.max(np.abs(mean - exact.values)) <= 1e-12


def test_efim_rejects_bad_labels():
    net, theta = scalar_binary_model()
    with pytest.raises(ValueError):
        est.efim(net, theta, np.array([[1.0]]), np.array([2]))


@pytest.mark.parametrize("labels, message", [
    ([0.7, 1.9], "label 0.7 is not an integer"),
    ([1.0, np.nan], "label nan is not an integer"),
    (["0", "1"], "label '0' is not an integer"),
    ([0.0, np.inf], "label out of range"),
    (np.array([True, False]), "label True is not an integer"),  # a mask, not labels 1 and 0
])
def test_efim_refuses_labels_that_are_not_integers(labels, message):
    net, theta = scalar_binary_model()
    with pytest.raises(ValueError, match=f"^{message}$"):
        est.efim(net, theta, np.array([[1.0], [2.0]]), labels)


def test_integral_float_labels_are_the_integer_labels():
    rng = np.random.default_rng(37)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=3)
    want = est.efim(net, theta, X, np.array([2, 0, 1]))
    assert np.array_equal(est.efim(net, theta, X, [2.0, 0.0, 1.0]).values, want.values)


# --- Monte Carlo ----------------------------------------------------------------


class _ScriptedRng:
    """Stands in for a Generator: returns queued integers and uniforms."""

    def __init__(self, integers, uniforms):
        self._integers = list(integers)
        self._uniforms = list(uniforms)

    def integers(self, n):
        return self._integers.pop(0)

    def uniform(self):
        return self._uniforms.pop(0)


def test_mc_exhaustive_expectation_is_exact_over_sample_count():
    rng = np.random.default_rng(5)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    mean = np.zeros((net.dim, net.dim))
    for i, x in enumerate(X):
        p, _ = loglik_gradients(net, theta, x)
        cum = np.cumsum(p)
        for y in range(3):
            u = cum[y] - p[y] / 2.0  # lands inside label y's bin
            draw = est.mc_fim(net, theta, X, m=1, rng=_ScriptedRng([i], [u]))
            mean += (p[y] / X.shape[0]) * draw.values
    exact = est.exact_fim_definition(net, theta, X)
    assert draw.normalization == "mean"
    assert np.max(np.abs(mean - exact.values / X.shape[0])) <= 1e-12


# biases of a 1-3 linear net, and uniforms at the edges of its label bins (cdf: their ends)
_MC_LABEL_CASES = {
    # the rounded cumulative sum ends below 1: a uniform at or past it takes the last label
    "short-total": ([0.0, 1.0, 2.0], lambda cdf: [np.nextafter(1.0, 0.0), cdf[2], 0.5, cdf[0]]),
    # exp underflows to an exact 0, whose empty bin no uniform lands in
    "zero-entry": ([0.0, -1000.0, 1.0], lambda cdf: [0.0, cdf[0], np.nextafter(cdf[0], 0.0), 0.5]),
}


@pytest.mark.parametrize("case", list(_MC_LABEL_CASES))
def test_mc_labels_are_the_per_draw_oracle(case):
    bias, edges = _MC_LABEL_CASES[case]
    net = NetworkSpec((1, 3), "none")
    theta = flatten(net, [np.zeros((1, 3))], [np.array(bias)])
    X = np.zeros((2, 1))
    p = np.exp(ad.log_softmax(forward_logits(net, theta, X)).data)
    uniforms = edges(np.cumsum(p[0]))
    m = len(uniforms)
    rows = [t % 2 for t in range(m)]
    oracle = _ScriptedRng([], uniforms)
    labels = [sample_label(p[b], oracle) for b in rows]
    if case == "short-total":
        assert np.cumsum(p[0])[-1] < 1.0 and labels[:2] == [2, 2]
    else:
        assert p[0, 1] == 0.0 and labels == [0, 2, 0, 2]
    got = est.mc_fim(net, theta, X, m, _ScriptedRng(rows, uniforms))
    want = est.efim(net, theta, X[rows], labels).values / m
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("X, rng, message", [
    (np.empty((0, 2)), np.random.default_rng(0), "need at least one row of X to draw from"),  # was numpy's "high <= 0"
    (np.ones((2, 2)), None, "need an rng to draw x and y from"),  # was an AttributeError
])
def test_mc_refuses_nothing_to_draw_before_any_work(monkeypatch, X, rng, message):
    net, theta, _ = random_instance(np.random.default_rng(8), (2, 3), "none", n_samples=2)

    def refuse(*args, **kwargs):
        raise AssertionError("no forward pass may run before the draws are known to be possible")

    monkeypatch.setattr(est, "forward_logits", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        est.mc_fim(net, theta, X, 3, rng)


def test_mc_concentrates_with_many_draws():
    # biased coin: per-draw first-coordinate values are ((1-p)x)^2 w.p. p and
    # (p x)^2 otherwise, giving a hand-computable draw variance
    net, _ = scalar_binary_model()
    theta = np.array([0.3, 0.0, 0.0, 0.0])
    x = 2.0
    X = np.array([[x]])
    p = 1.0 / (1.0 + np.exp(-0.3 * x))  # softmax pair reduces to a sigmoid
    truth = est.exact_fim_definition(net, theta, X).values[0, 0]
    assert truth == pytest.approx(p * (1 - p) * x * x, abs=1e-12)
    second = x**4 * p * (1 - p) * ((1 - p) ** 3 + p**3)
    var_draw = second - truth**2
    m = 4096
    draw = est.mc_fim(net, theta, X, m=m, rng=np.random.default_rng(6))
    assert abs(draw.values[0, 0] - truth) <= 3 * np.sqrt(var_draw / m)


def test_mc_deterministic_when_output_saturated():
    net = NetworkSpec((1, 2), "none")
    theta = flatten(net, [np.array([[40.0, -40.0]])], [np.zeros(2)])
    X = np.array([[1.0]])
    a = est.mc_fim(net, theta, X, m=3, rng=np.random.default_rng(1))
    b = est.mc_fim(net, theta, X, m=3, rng=np.random.default_rng(2))
    assert np.array_equal(a.values, b.values)


# --- probes -----------------------------------------------------------------------


def test_rademacher_probe_statistics():
    rng = np.random.default_rng(7)
    probe = est.sample_probe((10**5,), "rademacher", rng)
    assert set(np.unique(probe.entries)) == {-1.0, 1.0}
    assert abs(probe.entries.mean()) <= 0.02


def test_probe_replay_with_fixed_seed():
    a = est.sample_probe((64,), "rademacher", np.random.default_rng(123))
    b = est.sample_probe((64,), "rademacher", np.random.default_rng(123))
    assert np.array_equal(a.entries, b.entries)


def test_gaussian_probe_variance():
    probe = est.sample_probe((10**5,), "gaussian", np.random.default_rng(8))
    assert abs(probe.entries.var() - 1.0) <= 0.05


def test_probe_validation():
    with pytest.raises(ValueError):
        est.ProbeVector(np.array([0.5, 1.0]), "rademacher")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="gaussian probe entries must be finite"):
            est.ProbeVector(np.array([0.5, bad]), "gaussian")
    with pytest.raises(ValueError):
        est.sample_probe((4,), "uniform", np.random.default_rng(0))
    with pytest.raises(ValueError, match="^unknown probe distribution 'uniform'$"):
        est.ProbeVector(np.ones(2), "uniform")


# --- probe estimators: unbiasedness by enumeration ---------------------------------


def test_full_enumeration_matches_exact():
    rng = np.random.default_rng(9)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    mean = enumeration_mean(net, theta, X, "full")
    exact = est.exact_fim_definition(net, theta, X)
    assert np.max(np.abs(mean - exact.values)) <= 1e-10


def test_sqrt_enumeration_matches_exact():
    rng = np.random.default_rng(10)
    net, theta, X = random_instance(rng, (2, 5, 3), "tanh", n_samples=2)
    mean = enumeration_mean(net, theta, X, "sqrt")
    exact = est.exact_fim_definition(net, theta, X)
    assert np.max(np.abs(mean - exact.values)) <= 1e-10


def test_diag_enumeration_matches_upper_bound():
    rng = np.random.default_rng(11)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    mean = enumeration_mean(net, theta, X, "diag")
    bp = pullback_bounds(net, theta, X, k=1)
    assert np.max(np.abs(mean - bp.upper)) <= 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_lowrank_enumeration_matches_lower_bound(k):
    rng = np.random.default_rng(13)
    net, theta, X = random_instance(rng, (2, 4), "none", n_samples=2)
    mean = enumeration_mean(net, theta, X, "lowrank", k=k, eigen="full")
    bp = pullback_bounds(net, theta, X, k=k)
    assert np.max(np.abs(mean - bp.lower)) <= 1e-10


def test_expectation_sandwich_across_variants():
    # the exact expectations order themselves: E[lowrank] <= F <= E[diag]
    rng = np.random.default_rng(30)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    F = est.exact_fim_definition(net, theta, X).values
    low = enumeration_mean(net, theta, X, "lowrank", k=1, eigen="full")
    up = enumeration_mean(net, theta, X, "diag")
    assert np.linalg.eigvalsh(F - low)[0] >= -1e-10
    assert np.linalg.eigvalsh(up - F)[0] >= -1e-10


def test_gaussian_probe_unbiasedness_by_clt():
    # the probe gradient is linear in the probe; validate that surrogate
    # against the estimator, then average 1e5 Gaussian draws and require the
    # mean to sit within 3 CLT standard errors of the exact diagonal
    rng = np.random.default_rng(31)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    B, C = X.shape[0], net.n_classes
    G = np.empty((B * C, net.dim))
    for i, x in enumerate(X):
        p, rows = loglik_gradients(net, theta, x)
        G[i * C:(i + 1) * C] = np.sqrt(p)[:, None] * rows
    for _ in range(3):
        probe = est.sample_probe((B, C), "gaussian", rng)
        direct = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
        assert np.max(np.abs(direct - probe.entries.ravel() @ G)) <= 1e-12
    n = 10**5
    draws = (rng.normal(size=(n, B * C)) @ G) ** 2
    mean = draws.mean(axis=0)
    truth = est.exact_fim_definition(net, theta, X, storage="diagonal").values
    stderr = np.sqrt(2.0 * truth**2 / n)
    live = truth > 1e-12
    assert np.all(np.abs(mean[live] - truth[live]) <= 3.0 * stderr[live])


def test_sqrt_outputs_are_bitwise_the_full_outputs():
    # d(2 sqrt(p_y))/dz = sqrt(p_y) (e_y - p): the sqrt scalar's logit adjoint is
    # the full core's, so for the same probe or rng every output has the same bits
    rng = np.random.default_rng(14)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=2)
    for storage in est.STORAGES:
        for n in (1, 3):
            e = {v: est.hutchinson_fim(net, theta, X, v, rng=np.random.default_rng(n), n_probes=n,
                                       storage=storage) for v in ("full", "sqrt")}
            assert e["sqrt"].values.tobytes() == e["full"].values.tobytes()
            assert e["sqrt"].meta == e["full"].meta
    for dist in est.PROBE_DISTS:
        probe = est.sample_probe((2, 3), dist, rng)
        g = {v: est.hutchinson_gradient(net, theta, X, v, probe=probe) for v in ("full", "sqrt")}
        assert g["sqrt"].tobytes() == g["full"].tobytes()
        var = {v: est.empirical_probe_variance(net, theta, X, v, n_trials=4, rng=np.random.default_rng(5),
                                               dist=dist) for v in ("full", "sqrt")}
        assert var["sqrt"].tobytes() == var["full"].tobytes()
        closed = {v: est.variance_closed_form(net, theta, X, v, dist=dist) for v in ("full", "sqrt")}
        for key in ("fim_diag", "var_closed", "cv"):
            assert getattr(closed["sqrt"], key).tobytes() == getattr(closed["full"], key).tobytes()


def test_full_gradient_matches_per_term_differentiation():
    net, theta = scalar_binary_model()
    theta = theta + 0.1
    X = np.array([[1.5], [-0.4]])
    probe = est.sample_probe((2, 2), "rademacher", np.random.default_rng(15))
    g = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
    expected = np.zeros_like(g)
    for i, x in enumerate(X):
        p, G = loglik_gradients(net, theta, x)
        for y in range(2):
            expected += np.sqrt(p[y]) * probe.entries[i, y] * G[y]
    assert np.max(np.abs(g - expected)) <= 1e-12


def test_diag_full_centering_relation():
    # with zeta = p the two scalars share coefficients; the log-partition
    # centers the gradient: g_full = g_diag - sum_x (sum_y sqrt(p) xi) J^T p
    rng = np.random.default_rng(16)
    net, theta, X = random_instance(rng, (3, 4), "none", n_samples=2)
    probe = est.sample_probe((2, 4), "rademacher", rng)
    g_full = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
    g_diag = est.hutchinson_gradient(net, theta, X, "diag", probe=probe)
    correction = np.zeros_like(g_full)
    for i, x in enumerate(X):
        J, z = jacobian_and_logits(net, theta, x)
        p = softmax(z)
        correction += float(np.sqrt(p) @ probe.entries[i]) * (J.T @ p)
    assert np.max(np.abs(g_full - (g_diag - correction))) <= 1e-12


def test_probe_estimator_extreme_saturation_is_finite():
    net = NetworkSpec((1, 3), "none")
    theta = flatten(net, [np.array([[80.0, 0.0, -80.0]])], [np.zeros(3)])
    X = np.array([[1.0]])
    for variant in ("full", "diag", "sqrt"):
        estimate = est.hutchinson_fim(
            net, theta, X, variant, rng=np.random.default_rng(0), storage="diagonal"
        )
        assert np.all(np.isfinite(estimate.values))
        assert np.all(estimate.values >= 0)


def test_one_backward_pass_per_probe():
    rng = np.random.default_rng(17)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=4)
    for variant, kwargs in (
        ("full", {}),
        ("diag", {}),
        ("lowrank", {"k": 1}),
        ("sqrt", {}),
    ):
        single = est.hutchinson_fim(net, theta, X, variant, rng=rng, **kwargs)
        assert single.meta["backward_passes"] == 1
    multi = est.hutchinson_fim(net, theta, X, "full", rng=rng, n_probes=5)
    assert multi.meta["backward_passes"] == 5
    assert multi.meta["probe_count"] == 5


def test_probe_argument_validation():
    rng = np.random.default_rng(18)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    probe = est.sample_probe((2, 3), "rademacher", rng)
    with pytest.raises(ValueError):
        est.hutchinson_fim(net, theta, X, "full", probe=probe, n_probes=2)
    with pytest.raises(ValueError):
        est.hutchinson_fim(net, theta, X, "lowrank", probe=probe, k=1)  # wrong shape
    with pytest.raises(ValueError):
        est.hutchinson_fim(net, theta, X, "lowrank", rng=rng, k=3)  # k > C-1
    with pytest.raises(ValueError):
        est.hutchinson_fim(net, theta, X, "banana", rng=rng)
    with pytest.raises(ValueError):
        est.hutchinson_fim(net, theta, X, "full")  # no probe, no rng


@pytest.mark.parametrize("call", [est.hutchinson_gradient, est.hutchinson_fim])
def test_lowrank_power_route_without_rng_fails_before_the_forward_pass(monkeypatch, call):
    rng = np.random.default_rng(43)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=2)
    probe = est.sample_probe((2, 1), "rademacher", rng)
    call(net, theta, X, "lowrank", probe=probe, rng=rng)

    def refuse(*args, **kwargs):
        raise AssertionError("no forward pass may run before the rng is checked")

    monkeypatch.setattr(est, "forward_logits", refuse)
    # the advice names only rng, which both calls take; hutchinson_gradient takes no eigen
    with pytest.raises(ValueError, match=r"^the k = 1 power route draws its start vectors from rng; pass rng$"):
        call(net, theta, X, "lowrank", probe=probe)


@pytest.mark.parametrize("k", [1, 2])
def test_batched_eigh_route_matches_per_sample_eigenpairs(k):
    P = np.random.default_rng(3).dirichlet(np.ones(4), size=6)
    lams, vecs = est._lowrank_eigenpairs(P, k, "full", None)
    for b, p in enumerate(P):
        dec = spectrum(simplex_matrix(p))
        assert np.allclose(lams[b], dec.eigenvalues[-k:], rtol=0, atol=1e-15)
        assert np.allclose(vecs[b], dec.eigenvectors[:, -k:].T, rtol=0, atol=1e-15)


def test_unknown_eigen_route_is_rejected():
    rng = np.random.default_rng(18)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    with pytest.raises(ValueError, match="eigenpair route"):
        est.hutchinson_fim(net, theta, X, "lowrank", rng=rng, eigen="bogus")


@pytest.mark.parametrize("k,eigen,route", [(1, "power", "power"), (1, "full", "full"),
                                           (2, "power", "full"), (2, "full", "full")])
def test_meta_eigen_names_the_route_taken(monkeypatch, k, eigen, route):
    rng = np.random.default_rng(18)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    calls = []
    original = est.top_eigenpair
    monkeypatch.setattr(est, "top_eigenpair", lambda *a, **kw: calls.append(1) or original(*a, **kw))
    estimate = est.hutchinson_fim(net, theta, X, "lowrank", rng=rng, k=k, eigen=eigen)
    assert estimate.meta["eigen"] == route
    assert len(calls) == (X.shape[0] if route == "power" else 0)


def test_diagonal_probe_estimates_are_nonnegative():
    rng = np.random.default_rng(19)
    net, theta, X = random_instance(rng, (2, 5, 3), "tanh", n_samples=3)
    for variant in ("full", "diag", "lowrank", "sqrt"):
        e = est.hutchinson_fim(net, theta, X, variant, rng=rng, storage="diagonal")
        assert np.all(e.values >= 0)


# --- closed-form variances -----------------------------------------------------------


def test_full_variance_matches_enumeration():
    rng = np.random.default_rng(20)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    mean, var = enumeration_diag_moments(net, theta, X, "full")
    report = est.variance_closed_form(net, theta, X, "full", "rademacher")
    assert np.max(np.abs(var - report.var_closed)) <= 1e-10
    assert np.max(np.abs(mean - report.fim_diag)) <= 1e-12
    finite = report.cv[np.isfinite(report.cv)]
    assert np.all(finite <= np.sqrt(2.0) + 1e-12)
    assert np.all(report.var_closed <= 2.0 * report.fim_diag**2 + 1e-12)


def test_diag_variance_matches_enumeration():
    rng = np.random.default_rng(21)
    net, theta, X = random_instance(rng, (3, 3), "none", n_samples=2)
    mean, var = enumeration_diag_moments(net, theta, X, "diag")
    report = est.variance_closed_form(net, theta, X, "diag", "rademacher")
    assert np.max(np.abs(var - report.var_closed)) <= 1e-10
    assert np.max(np.abs(mean - report.fim_diag)) <= 1e-12


def test_lowrank_variance_matches_enumeration():
    rng = np.random.default_rng(22)
    net, theta, X = random_instance(rng, (2, 4), "none", n_samples=3)
    for k in (1, 2, 3):  # every rank in [1, C-1]
        mean, var = enumeration_diag_moments(net, theta, X, "lowrank", k=k, eigen="full")
        report = est.variance_closed_form(net, theta, X, "lowrank", "rademacher", k=k)
        assert np.max(np.abs(var - report.var_closed)) <= 1e-10
        assert np.max(np.abs(mean - report.fim_diag)) <= 1e-12


@pytest.mark.parametrize("variant", ["diag", "lowrank"])
def test_rademacher_variance_is_never_negative(variant):
    # One sample through a linear net: each coordinate carries a single
    # (sample, class) or (sample, eigenvector) term, so the exact variance is
    # 0 and 2 T^2 - 2 Q is round-off of either sign before the clamp.
    net = NetworkSpec((2, 5), "none")
    for seed in range(6):
        rng = np.random.default_rng(seed)
        theta = 2.0 * init_params(net, rng)
        X = rng.normal(size=(1, 2))
        report = est.variance_closed_form(net, theta, X, variant, "rademacher")
        assert np.min(report.var_closed) >= 0.0
        assert np.max(report.var_closed) <= 1e-12 * np.max(report.fim_diag) ** 2


@pytest.mark.parametrize("variant, stacks", [("full", 2), ("diag", 1)])
def test_closed_form_variance_squares_its_rows_in_place(variant, stacks):
    # the (B, C, dim) Jacobian stack, the full core's rows R (the diag core's
    # rows are the stack itself), and no third stack for their squares
    import tracemalloc

    rng = np.random.default_rng(27)
    net, theta, X = random_instance(rng, (16, 16, 50), "tanh", n_samples=16)
    stack_bytes = 8 * 16 * net.n_classes * net.dim  # 7.2 MB
    tracemalloc.start()
    try:
        est.variance_closed_form(net, theta, X, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= stacks * stack_bytes + 2**20


def test_gaussian_variance_simulation_sanity():
    rng = np.random.default_rng(23)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    report = est.variance_closed_form(net, theta, X, "full", "gaussian")
    assert np.allclose(report.var_closed, 2.0 * report.fim_diag**2, atol=1e-15)
    emp = est.empirical_probe_variance(
        net, theta, X, "full", n_trials=3000, rng=rng, dist="gaussian"
    )
    i = int(np.argmax(report.fim_diag))
    assert emp[i] == pytest.approx(report.var_closed[i], rel=0.35)


@pytest.mark.parametrize("n_trials", [0, 1])
def test_empirical_variance_needs_two_trials(n_trials):
    rng = np.random.default_rng(25)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=1)
    with pytest.raises(ValueError, match="at least 2 trials"):
        est.empirical_probe_variance(net, theta, X, "full", n_trials=n_trials, rng=rng)


@pytest.mark.parametrize("variant", ["full", "diag", "lowrank", "sqrt"])
@pytest.mark.parametrize("option", [{"eigen": "bogus"}, {"dist": "bogus"}])
def test_unknown_weights_and_eigen_rejected_for_every_variant(variant, option):
    # hutchinson_fim alone takes an eigenpair route, the variances alone a probe distribution
    rng = np.random.default_rng(26)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    named = repr(*option.values())
    if "eigen" in option:
        calls = [lambda: est.hutchinson_fim(net, theta, X, variant, rng=rng, **option)]
    else:
        calls = [lambda: est.variance_closed_form(net, theta, X, variant, **option),
                 lambda: est.empirical_probe_variance(net, theta, X, variant, 2, rng, **option)]
    for call in calls:
        with pytest.raises(ValueError, match=named):
            call()


def test_variance_rejects_unsupported():
    rng = np.random.default_rng(24)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=1)
    with pytest.raises(ValueError, match="unknown variant 'kfac'"):
        est.variance_closed_form(net, theta, X, "kfac")
    with pytest.raises(ValueError, match="rank parameter"):
        est.variance_closed_form(net, theta, X, "lowrank", k=net.n_classes)


# --- trace, serialization ---------------------------------------------------------


def test_trace_enumeration_matches_exact_trace():
    rng = np.random.default_rng(25)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    total = 0.0
    count = 0
    for probe in (
        est.ProbeVector(np.array(bits).reshape(2, 3), "rademacher")
        for bits in itertools.product((-1.0, 1.0), repeat=6)
    ):
        g = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
        total += g @ g
        count += 1
    exact = est.exact_fim_definition(net, theta, X)
    assert total / count == pytest.approx(float(np.trace(exact.values)), abs=1e-10)


def test_trace_zero_for_insensitive_network():
    net = NetworkSpec((2, 3), "none")
    theta = np.zeros(net.dim)
    g = est.hutchinson_gradient(
        net, theta, np.zeros((1, 2)), "full",
        probe=est.sample_probe((1, 3), "rademacher", np.random.default_rng(0)),
    )
    # x = 0 and uniform p: weight grads vanish and bias grads cancel the mean,
    # so only rounding noise survives
    assert g @ g <= 1e-28


def test_probe_averaging_variance_drops_like_one_over_j():
    rng = np.random.default_rng(26)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    report = est.variance_closed_form(net, theta, X, "full", "rademacher")
    J = 16
    trials = 300
    draws = np.empty((trials, net.dim))
    for t in range(trials):
        e = est.hutchinson_fim(net, theta, X, "full", rng=rng, n_probes=J, storage="diagonal")
        draws[t] = e.values
    emp = draws.var(axis=0, ddof=1)
    cap = 2.0 * report.fim_diag**2 / J
    i = int(np.argmax(report.fim_diag))
    assert emp[i] <= cap[i] * 1.5  # sampling slack


def test_accumulated_probes_recover_rank():
    rng = np.random.default_rng(27)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    exact = est.exact_fim_definition(net, theta, X)
    target_rank = int(np.sum(np.linalg.eigvalsh(exact.values) > 1e-10))
    for seed in range(20):
        r = np.random.default_rng(seed)
        e = est.hutchinson_fim(net, theta, X, "full", rng=r, n_probes=net.dim)
        rank = int(np.sum(np.linalg.eigvalsh(e.values) > 1e-10))
        assert rank >= min(net.dim, target_rank)


def test_serialization_preserves_extreme_values(tmp_path):
    # denormals, huge magnitudes, negative zero: the payload is raw bits
    values = np.array([0.0, -0.0, 5e-324, 1e308, 1e-300, 0.1 + 0.2])
    e = est.FimEstimate("exact_def", "diagonal", values, "sum", {"seed": 1})
    path = tmp_path / "extreme.fim"
    est.save_estimate(e, path)
    loaded = est.load_estimate(path)
    assert np.array_equal(loaded.values, values)
    assert np.signbit(loaded.values[1])


def test_estimate_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(28)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    for storage in ("dense", "diagonal"):
        e = est.hutchinson_fim(net, theta, X, "full", rng=rng, storage=storage)
        e.meta.update(seed=7, dataset_id="blobs")
        path = tmp_path / f"{storage}.fim"
        est.save_estimate(e, path)
        loaded = est.load_estimate(path)
        assert np.array_equal(loaded.values, e.values)
        assert loaded.kind == e.kind
        assert loaded.storage == storage
        assert loaded.normalization == "sum"
        assert loaded.meta["seed"] == 7
        assert loaded.meta["dataset_id"] == "blobs"
        assert loaded.meta["probe_count"] == 1


# --- the blocked Gram accumulation ---------------------------------------------


GRAM_M = 5  # Monte Carlo draws
GRAM_PROBES = 3
# the probe names, plus the sqrt variant the library still runs under its own kind
GRAM_PROBES_BY_KIND = {**est.PROBE_VARIANTS, "hutch_sqrt": "sqrt"}
GRAM_KINDS = ("exact", "efim", "mc", *GRAM_PROBES_BY_KIND)


def _outer_loop(terms, dim, storage):
    """Test-local reference: the sum of weighted np.outer terms, one at a time."""
    acc = np.zeros((dim, dim))
    for w, g in terms:
        acc += w * np.outer(g, g)
    return acc if storage == "dense" else np.diag(acc).copy()


def _reference_terms(kind, net, theta, X, labels, seed):
    """(weight, gradient) terms of each estimator, drawn as it draws them."""
    if kind == "exact":
        terms = []
        for x in X:
            p, G = loglik_gradients(net, theta, x)
            terms += zip(p, G)
        return terms
    if kind == "efim":
        return [(1.0, loglik_gradients(net, theta, x)[1][y]) for x, y in zip(X, labels)]
    rng = np.random.default_rng(seed)
    if kind == "mc":
        terms = []
        for _ in range(GRAM_M):
            p, G = loglik_gradients(net, theta, X[int(rng.integers(X.shape[0]))])
            terms.append((1.0 / GRAM_M, G[sample_label(p, rng)]))
        return terms
    if kind == "hutch_lowrank":
        # the first probe, then the one core (its power route draws start vectors), then the
        # later probes; every probe's sweep goes through the same eigenpairs
        probe = est.sample_probe((X.shape[0], 1), "rademacher", rng)
        core_rng = copy.deepcopy(rng)
        terms = [(1.0 / GRAM_PROBES, est.hutchinson_gradient(net, theta, X, "lowrank", probe=probe, rng=rng))]
        for _ in range(GRAM_PROBES - 1):
            probe = est.sample_probe((X.shape[0], 1), "rademacher", rng)
            g = est.hutchinson_gradient(net, theta, X, "lowrank", probe=probe, rng=copy.deepcopy(core_rng))
            terms.append((1.0 / GRAM_PROBES, g))
        return terms
    return [(1.0 / GRAM_PROBES, est.hutchinson_gradient(net, theta, X, GRAM_PROBES_BY_KIND[kind], rng=rng))
            for _ in range(GRAM_PROBES)]


def _run_estimator(kind, net, theta, X, labels, seed, storage):
    if kind == "exact":
        return est.exact_fim_definition(net, theta, X, storage)
    if kind == "efim":
        return est.efim(net, theta, X, labels, storage)
    rng = np.random.default_rng(seed)
    if kind == "mc":
        return est.mc_fim(net, theta, X, GRAM_M, rng, storage)
    return est.hutchinson_fim(net, theta, X, GRAM_PROBES_BY_KIND[kind], rng=rng,
                              n_probes=GRAM_PROBES, storage=storage)


@pytest.mark.parametrize("block_rows", [None, 2, 3], ids=["one-block", "2-row-blocks", "3-row-blocks"])
@pytest.mark.parametrize("act", ["tanh", "relu"])
@pytest.mark.parametrize("kind", GRAM_KINDS)
def test_gram_accumulation_equals_outer_product_loop(monkeypatch, kind, act, block_rows):
    rng = np.random.default_rng(31)
    net, theta, X = random_instance(rng, (3, 5, 4), act, n_samples=4)
    labels = np.array([0, 3, 1, 1])
    if block_rows is not None:
        monkeypatch.setattr(est, "GRAM_BLOCK_FLOATS", block_rows * net.dim)
    want = _reference_terms(kind, net, theta, X, labels, seed=5)
    for storage in ("dense", "diagonal"):
        got = _run_estimator(kind, net, theta, X, labels, 5, storage)
        ref = _outer_loop(want, net.dim, storage)
        assert got.values.shape == ref.shape
        assert np.max(np.abs(got.values - ref)) <= 1e-12 * np.max(np.abs(ref))
        if storage == "dense":
            validate(got)


@pytest.mark.parametrize("variant", list(est.HUTCH_KINDS))
def test_single_probe_estimate_is_bitwise_the_outer_product(variant):
    rng = np.random.default_rng(32)
    net, theta, X = random_instance(rng, (3, 6, 4), "tanh", n_samples=3)
    probe = est.sample_probe((3, 1) if variant == "lowrank" else (3, 4), "rademacher", rng)
    g = est.hutchinson_gradient(net, theta, X, variant, probe=probe, rng=np.random.default_rng(1))
    for storage, want in (("dense", np.outer(g, g)), ("diagonal", g * g)):
        got = est.hutchinson_fim(net, theta, X, variant, probe=probe,
                                 rng=np.random.default_rng(1), storage=storage)
        assert np.array_equal(got.values, want)


def _one_row_estimate(kind, net, theta, X, storage):
    """The estimate of `kind` that sums one row: efim on X[:1], one Monte Carlo draw, one probe."""
    if kind == "efim":
        return est.efim(net, theta, X[:1], [2], storage)
    if kind == "mc":
        return est.mc_fim(net, theta, X, 1, np.random.default_rng(5), storage)
    return est.hutchinson_fim(net, theta, X, GRAM_PROBES_BY_KIND[kind], rng=np.random.default_rng(5),
                              n_probes=1, storage=storage)


@pytest.mark.parametrize("act", ["tanh", "relu"])
@pytest.mark.parametrize("kind", ("efim", "mc", *GRAM_PROBES_BY_KIND))
def test_one_row_estimates_are_bitwise_the_blocked_sum(kind, act):
    # a one-row estimate skips the accumulator; the blocked sum's zeros + K = 1 product
    # + add rounds each entry once too, so the bits are the same
    rng = np.random.default_rng(41)
    net, theta, X = random_instance(rng, (3, 6, 4), act, n_samples=3)
    # the first draw or probe is the one a one-row estimate takes, at weight 1
    g = _reference_terms(kind, net, theta, X[:1] if kind == "efim" else X, [2], seed=5)[0][1]
    G, w = g[None, :], np.ones(1)
    for storage, want in (("dense", np.zeros((net.dim, net.dim)) + np.dot(G.T * w, G)),
                          ("diagonal", np.zeros(net.dim) + np.dot(w, np.square(G)))):
        got = _one_row_estimate(kind, net, theta, X, storage)
        assert got.meta["backward_passes"] == 1
        assert np.array_equal(got.values, want)


@pytest.mark.parametrize("kind", ["efim", "mc", "hutch"])
def test_one_row_dense_estimate_holds_one_dim_by_dim_array(kind):
    import tracemalloc

    rng = np.random.default_rng(42)
    net, theta, X = random_instance(rng, (20, 40, 5), "tanh", n_samples=4)
    assert net.dim >= 1000
    tracemalloc.start()
    try:
        result = _one_row_estimate(kind, net, theta, X, "dense")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.values.shape == (net.dim, net.dim)
    assert peak < 1.2 * 8 * net.dim**2


def test_monte_carlo_never_holds_a_stack_of_all_draws():
    import tracemalloc

    rng = np.random.default_rng(33)
    net, theta, X = random_instance(rng, (20, 40, 5), "tanh", n_samples=8)
    m = 4096
    stack_bytes = 8 * m * net.dim  # 34 MB for the 1045 parameters
    tracemalloc.start()
    try:
        result = est.mc_fim(net, theta, X, m, rng, storage="diagonal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.meta["backward_passes"] == m
    assert peak <= 8 * est.GRAM_BLOCK_FLOATS + 2**20  # one block plus small change
    assert peak < stack_bytes / 3


# --- one probe pipeline: checks, forward pass and core once per call ------------


@pytest.mark.parametrize("variant", list(est.HUTCH_KINDS))
def test_probe_estimates_run_one_forward_pass_and_one_core(monkeypatch, variant):
    rng = np.random.default_rng(38)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=3)
    calls = {"forward": 0, "core": 0, "eigenpairs": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(est, "forward_logits", counted("forward", est.forward_logits))
    monkeypatch.setattr(est, "_core", counted("core", est._core))
    monkeypatch.setattr(est, "_lowrank_eigenpairs", counted("eigenpairs", est._lowrank_eigenpairs))
    once = {"forward": 1, "core": 1, "eigenpairs": int(variant == "lowrank")}
    est.hutchinson_fim(net, theta, X, variant, rng=rng, n_probes=5)
    assert calls == once
    calls.update(dict.fromkeys(calls, 0))
    est.empirical_probe_variance(net, theta, X, variant, n_trials=6, rng=rng)
    assert calls == once


def test_per_sample_estimates_run_one_forward_pass(monkeypatch):
    # every sample is swept on a row view of one batched forward; mc draws m > n
    # rows from the forward it takes its labels from, so it runs one, not 1 + m
    rng = np.random.default_rng(40)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=3)
    calls = []
    real = est.forward_logits
    monkeypatch.setattr(est, "forward_logits", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for call in (
        lambda: est.exact_fim_definition(net, theta, X),
        lambda: est.exact_fim_pullback(net, theta, X),
        lambda: est.efim(net, theta, X, [0, 2, 1]),
        lambda: est.mc_fim(net, theta, X, 7, rng),
        lambda: est.variance_closed_form(net, theta, X),
    ):
        calls.clear()
        call()
        assert len(calls) == 1


def test_per_sample_estimates_check_their_tape_once(monkeypatch):
    # one batched tape per call, checked once by ad.rows, which views all of its rows
    from fimlab import bounds

    rng = np.random.default_rng(41)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=3)
    calls = []
    real = ad.rows
    monkeypatch.setattr(ad, "rows", lambda root, samples: calls.append(list(samples)) or real(root, samples))
    for call, samples in (
        (lambda: est.exact_fim_definition(net, theta, X), 3),
        (lambda: est.exact_fim_pullback(net, theta, X), 3),
        (lambda: est.efim(net, theta, X, [0, 2, 1]), 3),
        (lambda: est.mc_fim(net, theta, X, 7, rng), 7),
        (lambda: est.variance_closed_form(net, theta, X), 3),
        (lambda: bounds.trace_bounds(net, theta, X), 3),
    ):
        calls.clear()
        call()
        assert [len(s) for s in calls] == [samples]


@pytest.mark.parametrize("variant, eigen", [("full", "power"), ("diag", "power"), ("sqrt", "power"),
                                            ("lowrank", "full")])
def test_multi_probe_estimate_is_bitwise_the_per_probe_loop(variant, eigen):
    # where no core draws from the rng, one tape swept n times gives the bits of
    # n single-probe calls, each with its own forward pass and core
    rng = np.random.default_rng(39)
    net, theta, X = random_instance(rng, (3, 5, 4), "relu", n_samples=5)
    n, dim = 4, net.dim
    for storage in ("dense", "diagonal"):
        got = est.hutchinson_fim(net, theta, X, variant, rng=np.random.default_rng(3), n_probes=n,
                                 k=2, eigen=eigen, storage=storage)
        draw = np.random.default_rng(3)
        shape = (X.shape[0], 2 if variant == "lowrank" else net.n_classes)
        rows = ((1.0 / n, next(est._probe_gradients(net, theta, X, variant, 1, est.sample_probe(
            shape, "rademacher", draw), None, "rademacher", 2, eigen)[2])) for _ in range(n))
        assert np.array_equal(got.values, est._gram(rows, n, dim, storage))


def test_power_route_probes_share_one_set_of_eigenpairs(monkeypatch):
    rng = np.random.default_rng(40)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=3)
    seen = []
    original = est._lowrank_eigenpairs
    monkeypatch.setattr(est, "_lowrank_eigenpairs", lambda *a: seen.append(original(*a)) or seen[-1])
    n = 3
    got = est.hutchinson_fim(net, theta, X, "lowrank", rng=np.random.default_rng(4), n_probes=n)
    assert len(seen) == 1 and got.meta["eigen"] == "power"
    lams, V = seen[0]
    # every probe's gradient, rebuilt from the one set of eigenpairs by the per-sample Jacobians
    J, _, _ = est._jacobian_stack(net, theta, X)
    draw = np.random.default_rng(4)
    xis = [est.sample_probe((3, 1), "rademacher", draw).entries]
    original(est.softmax(forward_logits(net, theta, X).data), 1, "power", draw)  # the core's draws
    xis += [est.sample_probe((3, 1), "rademacher", draw).entries for _ in range(n - 1)]
    want = np.zeros((net.dim, net.dim))
    for xi in xis:
        g = np.einsum("bc,bcd->d", np.einsum("bk,bkc->bc", np.sqrt(lams) * xi, V), J)
        want += np.outer(g, g) / n
    assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))


def test_empirical_variance_is_bitwise_a_per_trial_estimate_loop():
    rng = np.random.default_rng(41)
    net, theta, X = random_instance(rng, (3, 4, 3), "tanh", n_samples=4)
    for variant in est.HUTCH_KINDS:
        got = est.empirical_probe_variance(net, theta, X, variant, n_trials=5, rng=np.random.default_rng(6))
        draw = np.random.default_rng(6)
        trials = [est.hutchinson_fim(net, theta, X, variant, rng=draw, eigen="full", storage="diagonal").values
                  for _ in range(5)]
        assert np.array_equal(got, np.var(trials, axis=0, ddof=1))


@pytest.mark.parametrize("variant", ["full", "sqrt"])
def test_seeded_probe_sweep_equals_the_traced_probe_scalar_bitwise(variant):
    rng = np.random.default_rng(42)
    net, theta, X = random_instance(rng, (3, 5, 4), "tanh", n_samples=3)
    probe = est.sample_probe((3, 4), "rademacher", rng)
    logits = forward_logits(net, theta, X)
    core = est._core(variant, logits.data)
    h = ad.wsum(logits, core.logit_weights(np.sqrt(core.w) * probe.entries))
    g = est.hutchinson_gradient(net, theta, X, variant, probe=probe)
    assert np.array_equal(g, ad.gradient(h))
    if variant == "sqrt":
        # the paper's scalar 2 sum sqrt(p) xi has the logit gradient sum xi sqrt(p) (e_y - p),
        # that of sum xi sqrt(p) log p with sqrt(p) held off the tape: an independent
        # route through the log-softmax rule, so it is held to round-off, not bitwise
        paper = ad.wsum(ad.log_softmax(logits), probe.entries * np.sqrt(softmax(logits.data)))
        assert np.max(np.abs(g - ad.gradient(paper))) <= 1e-12 * np.max(np.abs(g))


# --- backward passes counted on the tapes ---------------------------------------


def test_backward_passes_are_counted_and_survive_a_round_trip(tmp_path):
    rng = np.random.default_rng(34)
    net, theta, X = random_instance(rng, (2, 5, 3), "tanh", n_samples=4)
    n, C, m = X.shape[0], net.n_classes, 7
    cases = {
        "exact_def": (est.exact_fim_definition(net, theta, X), n * C),
        "exact_pullback": (est.exact_fim_pullback(net, theta, X, "diagonal"), n * C),
        "efim": (est.efim(net, theta, X, [0, 2, 1, 0]), n),
        "mc": (est.mc_fim(net, theta, X, m, rng, "diagonal"), m),
    }
    for kind, (estimate, passes) in cases.items():
        assert estimate.kind == kind
        assert estimate.meta["backward_passes"] == passes
        path = tmp_path / f"{kind}.fim"
        est.save_estimate(estimate, path)
        assert est.load_estimate(path).meta == estimate.meta


def test_backward_passes_come_from_the_tapes(monkeypatch):
    from fimlab import autodiff

    rng = np.random.default_rng(35)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    real = autodiff.Tape.__init__

    def init(self):  # every tape starts with one pass already on its counter
        real(self)
        self.backward_calls = 1

    monkeypatch.setattr(autodiff.Tape, "__init__", init)
    assert est.exact_fim_definition(net, theta, X).meta["backward_passes"] == 2 * 3 + 2
    assert est.exact_fim_pullback(net, theta, X).meta["backward_passes"] == 2 * 3 + 2
    assert est.efim(net, theta, X, [0, 1]).meta["backward_passes"] == 2 + 2
    assert est.mc_fim(net, theta, X, 3, rng).meta["backward_passes"] == 3 + 3
    for variant in est.HUTCH_KINDS:  # one tape, one sweep per probe
        estimate = est.hutchinson_fim(net, theta, X, variant, rng=rng, n_probes=4, k=1)
        assert estimate.meta["backward_passes"] == 4 + 1


def test_counted_sweeps_equal_meta_and_the_closed_form(monkeypatch):
    from fimlab import harness

    rng = np.random.default_rng(37)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=5)
    n, C, m = X.shape[0], net.n_classes, 6
    sweeps = []
    real = ad.backward
    monkeypatch.setattr(ad, "backward", lambda *a, **kw: sweeps.append(1) or real(*a, **kw))
    calls = {
        "exact_def": (lambda: est.exact_fim_definition(net, theta, X, "diagonal"), n * C),
        "exact_pullback": (lambda: est.exact_fim_pullback(net, theta, X), n * C),
        "efim": (lambda: est.efim(net, theta, X, [0, 2, 1, 1, 0]), n),
        "mc": (lambda: est.mc_fim(net, theta, X, m, rng), m),
    }
    for variant in est.HUTCH_KINDS:
        for n_probes in (1, 3):
            calls[f"{variant}.{n_probes}"] = (
                lambda v=variant, k=n_probes: est.hutchinson_fim(net, theta, X, v, rng=rng, n_probes=k), n_probes)
    for name, (call, closed_form) in calls.items():
        sweeps.clear()
        passes = call().meta["backward_passes"]
        assert (len(sweeps), passes) == (closed_form, closed_form), name

    cfg = harness.BenchConfig(batch_size=4, n_batches=2)
    X, labels = rng.normal(size=(8, 2)), rng.integers(0, C, size=8)
    sweeps.clear()
    rows = harness.run_bench(net, theta, X, labels, cfg)
    per_batch = {"efim": cfg.batch_size}  # a probe estimate: one sweep per batch
    for row in rows:
        assert row.backward_passes == cfg.n_batches * per_batch.get(row.estimator, 1), row.estimator
    assert len(sweeps) == 8 * C + sum(row.backward_passes for row in rows)  # the exact truth, then the rows


INTEGER_ARGS = {
    "mc_fim.m": lambda net, theta, X, v: est.mc_fim(net, theta, X, v, np.random.default_rng(0)),
    "hutchinson_fim.n_probes": lambda net, theta, X, v: est.hutchinson_fim(
        net, theta, X, rng=np.random.default_rng(0), n_probes=v),
    "empirical_probe_variance.n_trials": lambda net, theta, X, v: est.empirical_probe_variance(
        net, theta, X, "full", v, np.random.default_rng(0)),
    "hutchinson_fim.k": lambda net, theta, X, v: est.hutchinson_fim(
        net, theta, X, "lowrank", rng=np.random.default_rng(0), k=v),
    "variance_closed_form.k": lambda net, theta, X, v: est.variance_closed_form(net, theta, X, "lowrank", k=v),
    "pullback_bounds.k": lambda net, theta, X, v: pullback_bounds(net, theta, X, v),
    "tightness_report.k": lambda net, theta, X, v: tightness_report(net, theta, X, k=v),
}


@pytest.mark.parametrize("entry, message", [
    ("mc_fim.m", "need at least one draw"),
    ("hutchinson_fim.n_probes", "need at least one probe"),
])
def test_a_count_below_one_is_refused_before_any_work(monkeypatch, entry, message):
    net, theta, X = random_instance(np.random.default_rng(39), (2, 4, 4), "tanh", n_samples=3)

    def refuse(*args, **kwargs):
        raise AssertionError("no forward pass may run before the count is checked")

    monkeypatch.setattr(est, "forward_logits", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        INTEGER_ARGS[entry](net, theta, X, 0)


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0), "2"])
@pytest.mark.parametrize("entry", list(INTEGER_ARGS))
def test_integer_arguments_fail_at_the_boundary(monkeypatch, entry, value):
    call = INTEGER_ARGS[entry]
    rng = np.random.default_rng(39)
    net, theta, X = random_instance(rng, (2, 4, 4), "tanh", n_samples=3)
    call(net, theta, X, np.int64(2))  # any integer type runs
    name = entry.split(".")[1]

    def refuse(*args, **kwargs):
        raise AssertionError("no forward pass may run before the arguments are checked")

    monkeypatch.setattr(est, "forward_logits", refuse)
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {re.escape(repr(value))}$"):
        call(net, theta, X, value)


def test_an_integer_type_rank_is_recorded_as_an_int(tmp_path):
    # the checked int is the k recorded; a raw np.int64 made save_estimate refuse the
    # estimate and the tightness report's to_json raise TypeError
    rng = np.random.default_rng(40)
    net, theta, X = random_instance(rng, (2, 4, 4), "tanh", n_samples=3)
    k = np.int64(2)
    path = tmp_path / "e.fim"
    est.save_estimate(est.hutchinson_fim(net, theta, X, "lowrank", rng=rng, k=k), path)
    assert type(est.load_estimate(path).meta["k"]) is int
    assert type(pullback_bounds(net, theta, X, k).k) is int
    assert json.loads(tightness_report(net, theta, X, k=k).to_json())["k"] == 2


# --- the input boundary: one table of entry points ------------------------------


def _entry_points():
    from fimlab import bounds

    rng = np.random.default_rng
    return {
        "exact_fim_definition": lambda net, theta, X: est.exact_fim_definition(net, theta, X),
        "exact_fim_pullback": lambda net, theta, X: est.exact_fim_pullback(net, theta, X),
        "efim": lambda net, theta, X: est.efim(net, theta, X, [0, 1]),
        "mc_fim": lambda net, theta, X: est.mc_fim(net, theta, X, 2, rng(0)),
        "hutchinson_gradient": lambda net, theta, X: est.hutchinson_gradient(net, theta, X, rng=rng(0)),
        "hutchinson_fim": lambda net, theta, X: est.hutchinson_fim(net, theta, X, rng=rng(0)),
        "hutchinson_fim.diag": lambda net, theta, X: est.hutchinson_fim(net, theta, X, "diag", rng=rng(0)),
        "hutchinson_fim.lowrank": lambda net, theta, X: est.hutchinson_fim(net, theta, X, "lowrank", rng=rng(0)),
        "variance_closed_form": lambda net, theta, X: est.variance_closed_form(net, theta, X),
        "empirical_probe_variance": lambda net, theta, X: est.empirical_probe_variance(net, theta, X, "full", 2, rng(0)),
        "pullback_bounds": lambda net, theta, X: bounds.pullback_bounds(net, theta, X, 1),
        "trace_bounds": lambda net, theta, X: bounds.trace_bounds(net, theta, X),
        "tightness_report": lambda net, theta, X: bounds.tightness_report(net, theta, X),
    }


def _refuse_the_forward(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("no forward pass may run on input the boundary refuses")

    monkeypatch.setattr(est, "forward_logits", refuse)


@pytest.mark.parametrize("entry", list(_entry_points()))
def test_one_class_net_is_refused_before_the_forward_pass(monkeypatch, entry):
    # every score of a lone class is 0, so a categorical estimate would be all zero;
    # trace_bounds returned TraceBounds(0, 0, 0, 10.2) on a 3-4-1 net
    net, theta, X = random_instance(np.random.default_rng(42), (2, 1), "none", n_samples=2)
    _refuse_the_forward(monkeypatch)
    with pytest.raises(ValueError, match="^categorical estimators need at least 2 classes$"):
        _entry_points()[entry](net, theta, X)


@pytest.mark.parametrize("entry", list(_entry_points()))
def test_non_finite_input_is_rejected_by_name(monkeypatch, entry):
    call = _entry_points()[entry]
    rng = np.random.default_rng(36)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=2)
    call(net, theta, X)  # finite input runs
    _refuse_the_forward(monkeypatch)
    bad_theta = theta.copy()
    bad_theta[3] = np.nan
    with pytest.raises(ValueError, match=r"^theta has a non-finite entry"):
        call(net, bad_theta, X)
    bad_X = X.copy()
    bad_X[1, 0] = np.inf
    with pytest.raises(ValueError, match=r"^X has a non-finite entry"):
        call(net, theta, bad_X)


@pytest.mark.parametrize("entry", list(_entry_points()))
def test_finite_input_whose_logits_overflow_is_rejected_by_name(entry):
    # the estimates were all NaN, and the low-rank probe and the certificates failed on
    # messages that did not name the cause; an overflow warning fails the suite too
    net = NetworkSpec((2, 3), "none")
    with pytest.raises(ValueError, match=r"^the logits have a non-finite entry \(NaN or infinity\): "
                                         r"the forward pass of this finite theta and X overflows$"):
        _entry_points()[entry](net, np.full(net.dim, 1e300), np.full((2, 2), 1e10))
