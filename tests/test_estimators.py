import itertools

import numpy as np
import pytest

from fimlab import estimators as est
from fimlab.bounds import pullback_bounds
from fimlab.network import NetworkSpec, flatten, init_params, unflatten
from fimlab.simplex import simplex_matrix

from helpers import enumeration_diag_moments, enumeration_mean, random_instance


def scalar_binary_model():
    """One input feeding two logits; at theta = 0 this is a fair coin."""
    net = NetworkSpec((1, 2), "none")
    return net, np.zeros(net.dim)


# --- exact oracles ------------------------------------------------------------


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
    a.validate()
    b.validate()


def test_pullback_saturated_probabilities_vanish():
    net = NetworkSpec((1, 3), "none")
    W = np.array([[40.0, 0.0, -40.0]])
    theta = flatten(net, [W], [np.zeros(3)])
    X = np.array([[1.0]])
    F = est.exact_fim_pullback(net, theta, X)
    from fimlab.estimators import jacobian_and_logits

    J, _ = jacobian_and_logits(net, theta, X[0])
    assert np.linalg.norm(F.values) <= 1e-10 * np.sum(J * J)


def test_pullback_binary_reduces_to_row_difference():
    rng = np.random.default_rng(1)
    net, theta, X = random_instance(rng, (3, 2), "none", n_samples=2)
    from fimlab.estimators import jacobian_and_logits
    from fimlab.network import softmax

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
    from fimlab.estimators import jacobian_and_logits
    from fimlab.network import softmax

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
    probs = [est.loglik_gradients(net, theta, x)[0] for x in X]
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
        p, _ = est.loglik_gradients(net, theta, x)
        cum = np.cumsum(p)
        for y in range(3):
            u = cum[y] - p[y] / 2.0  # lands inside label y's bin
            draw = est.mc_fim(net, theta, X, m=1, rng=_ScriptedRng([i], [u]))
            mean += (p[y] / X.shape[0]) * draw.values
    exact = est.exact_fim_definition(net, theta, X)
    assert draw.normalization == "mean"
    assert np.max(np.abs(mean - exact.values / X.shape[0])) <= 1e-12


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
    with pytest.raises(ValueError):
        est.sample_probe((4,), "uniform", np.random.default_rng(0))


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
    mean = enumeration_mean(net, theta, X, "diag", weights="p")
    bp = pullback_bounds(net, theta, X, k=1)
    assert np.max(np.abs(mean - bp.upper)) <= 1e-10


def test_diag_bernoulli_enumeration_matches_hypercube_pullback():
    rng = np.random.default_rng(12)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    mean = enumeration_mean(net, theta, X, "diag", weights="bernoulli")
    from fimlab.estimators import _sigmoid, jacobian_and_logits

    expected = np.zeros((net.dim, net.dim))
    for x in X:
        J, z = jacobian_and_logits(net, theta, x)
        s = _sigmoid(z)
        expected += J.T @ ((s * (1 - s))[:, None] * J)
    assert np.max(np.abs(mean - expected)) <= 1e-10


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
    up = enumeration_mean(net, theta, X, "diag", weights="p")
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
        p, rows = est.loglik_gradients(net, theta, x)
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


def test_full_and_sqrt_gradients_coincide_on_shared_probes():
    # d sqrt(p)/dtheta = (sqrt(p)/2) dl/dtheta, so both scalars have the same
    # gradient; the sqrt form just avoids stop-gradient and clamping.
    rng = np.random.default_rng(14)
    net, theta, X = random_instance(rng, (2, 4, 3), "tanh", n_samples=2)
    probe = est.sample_probe((2, 3), "rademacher", rng)
    g1 = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
    g2 = est.hutchinson_gradient(net, theta, X, "sqrt", probe=probe)
    assert np.max(np.abs(g1 - g2)) <= 1e-12


def test_full_gradient_matches_per_term_differentiation():
    net, theta = scalar_binary_model()
    theta = theta + 0.1
    X = np.array([[1.5], [-0.4]])
    probe = est.sample_probe((2, 2), "rademacher", np.random.default_rng(15))
    g = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
    expected = np.zeros_like(g)
    for i, x in enumerate(X):
        p, G = est.loglik_gradients(net, theta, x)
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
    g_diag = est.hutchinson_gradient(net, theta, X, "diag", probe=probe, weights="p")
    from fimlab.estimators import jacobian_and_logits
    from fimlab.network import softmax

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
    mean, var = enumeration_diag_moments(net, theta, X, "diag", weights="p")
    report = est.variance_closed_form(net, theta, X, "diag", "rademacher")
    assert np.max(np.abs(var - report.var_closed)) <= 1e-10
    assert np.max(np.abs(mean - report.fim_diag)) <= 1e-12


def test_lowrank_variance_matches_enumeration():
    rng = np.random.default_rng(22)
    net, theta, X = random_instance(rng, (2, 4), "none", n_samples=3)
    mean, var = enumeration_diag_moments(net, theta, X, "lowrank", k=1, eigen="full")
    report = est.variance_closed_form(net, theta, X, "lowrank", "rademacher")
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


def test_variance_rejects_unsupported():
    rng = np.random.default_rng(24)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=1)
    with pytest.raises(ValueError):
        est.variance_closed_form(net, theta, X, "sqrt")
    with pytest.raises(ValueError):
        est.variance_closed_form(net, theta, X, "lowrank", k=2)


# --- trace, EMA, serialization ---------------------------------------------------------


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
        total += est.trace_estimate(g)
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
    assert est.trace_estimate(g) <= 1e-28

def test_trace_single_parameter_is_first_diagonal():
    g = np.array([1.7])
    assert est.trace_estimate(g) == pytest.approx(1.7**2)


def test_ema_zero_decay_returns_new():
    a = est.FimEstimate("hutch_full", "diagonal", np.ones(3), "sum", {"probe_count": 1})
    b = est.FimEstimate("hutch_full", "diagonal", np.full(3, 5.0), "sum", {"probe_count": 1})
    out = est.ema_update(a, b, beta=0.0)
    assert np.array_equal(out.values, b.values)
    assert out.meta["probe_count"] == 2


def test_ema_validates_inputs():
    a = est.FimEstimate("hutch_full", "diagonal", np.ones(3), "sum", {})
    b = est.FimEstimate("hutch_full", "dense", np.eye(3), "sum", {})
    with pytest.raises(ValueError):
        est.ema_update(a, b, 0.5)
    c = est.FimEstimate("mc", "diagonal", np.ones(3), "mean", {})
    with pytest.raises(ValueError):
        est.ema_update(a, c, 0.5)
    with pytest.raises(ValueError):
        est.ema_update(a, a, 1.0)


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
        e = est.hutchinson_fim(
            net, theta, X, "full", rng=rng, storage=storage, seed=7, dataset_id="blobs"
        )
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
