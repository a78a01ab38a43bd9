import json
import warnings

import numpy as np
import pytest

from fimlab import bounds
from fimlab import estimators as est
from fimlab.bounds import (
    loewner_margin,
    pullback_bounds,
    tightness_report,
    trace_bounds,
)
from fimlab.harness import SyntheticTask, gen_task
from fimlab.network import NetworkSpec, flatten, init_params, softmax

from helpers import jacobian_and_logits, qr_tightness_report, random_instance


def exact(net, theta, X):
    return est.exact_fim_pullback(net, theta, X).values


def instances(seed, count, class_range=(2, 3, 5), max_dim=50):
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        C = int(rng.choice(class_range))
        d = int(rng.integers(1, 4))
        if rng.uniform() < 0.5:
            layers, act = (d, C), "none"
        else:
            h = int(rng.integers(2, 5))
            layers, act = (d, h, C), "tanh"
        net = NetworkSpec(layers, act)
        if net.dim > max_dim:
            continue
        theta = init_params(net, rng)
        X = rng.normal(size=(int(rng.integers(1, 4)), d))
        made += 1
        yield net, theta, X


# --- sandwich ------------------------------------------------------------------


def test_sandwich_holds_on_random_instances():
    for net, theta, X in instances(0, 40):
        F = exact(net, theta, X)
        k = np.random.default_rng(1).integers(1, net.n_classes)
        bp = pullback_bounds(net, theta, X, k=int(k))
        assert loewner_margin(bp.lower, F) >= -1e-10
        assert loewner_margin(F, bp.upper) >= -1e-10
        assert loewner_margin(np.zeros_like(F), bp.lower) >= -1e-10
        assert loewner_margin(np.zeros_like(F), bp.upper) >= -1e-10


def test_full_rank_parameter_recovers_fim_exactly():
    rng = np.random.default_rng(2)
    net, theta, X = random_instance(rng, (2, 4), "none", n_samples=3)
    bp = pullback_bounds(net, theta, X, k=net.n_classes - 1)
    assert np.max(np.abs(bp.lower - exact(net, theta, X))) <= 1e-12


def test_lower_bound_rank_capped():
    rng = np.random.default_rng(3)
    net, theta, X = random_instance(rng, (3, 8, 5), "tanh", n_samples=2)
    for k in (1, 2):
        bp = pullback_bounds(net, theta, X, k=k)
        rank = int(np.sum(np.linalg.eigvalsh(bp.lower) > 1e-10))
        assert rank <= k * X.shape[0]


def test_lower_bound_monotone_in_k():
    for net, theta, X in instances(4, 15, class_range=(3, 5)):
        previous = None
        for k in range(1, net.n_classes):
            bp = pullback_bounds(net, theta, X, k=k)
            if previous is not None:
                assert loewner_margin(previous, bp.lower) >= -1e-10
            previous = bp.lower


def test_pullback_bounds_refuse_a_net_above_the_dense_cap_before_the_forward_pass(monkeypatch):
    # a 64-64-2 net has dim 4290: the two dim x dim bounds took 294 MB, where the dense
    # estimates and loewner_margin refused
    def refuse(*args, **kwargs):
        raise AssertionError("no forward pass may run above the dense cap")

    net = NetworkSpec((64, 64, 2), "tanh")
    assert net.dim == 4290 > est.DENSE_DIM_CAP
    monkeypatch.setattr(est, "forward_logits", refuse)
    with pytest.raises(ValueError, match=f"^dense storage capped at dim {est.DENSE_DIM_CAP}, got 4290$"):
        pullback_bounds(net, np.zeros(net.dim), np.zeros((1, 64)), k=1)


def test_rank_parameter_validated():
    rng = np.random.default_rng(5)
    net, theta, X = random_instance(rng, (2, 3), "none")
    with pytest.raises(ValueError):
        pullback_bounds(net, theta, X, k=0)
    with pytest.raises(ValueError):
        pullback_bounds(net, theta, X, k=3)


# --- trace chain ------------------------------------------------------------------


def test_trace_chain_ordering():
    for net, theta, X in instances(6, 30):
        tb = trace_bounds(net, theta, X)
        assert tb.lower <= tb.vn_lower + 1e-10
        assert tb.vn_lower <= tb.trace + 1e-10
        assert tb.trace <= tb.upper + 1e-10
        F = exact(net, theta, X)
        assert tb.trace == pytest.approx(float(np.trace(F)), abs=1e-10)


def test_trace_chain_scalar_model():
    # one input, two logits: every lower quantity equals p(1-p) * 2(x^2+1)
    net = NetworkSpec((1, 2), "none")
    theta = np.zeros(net.dim)
    x = 1.7
    tb = trace_bounds(net, theta, np.array([[x]]))
    per_sample = 0.25 * 2.0 * (x * x + 1.0)
    assert tb.lower == pytest.approx(per_sample, abs=1e-12)
    assert tb.vn_lower == pytest.approx(per_sample, abs=1e-12)
    assert tb.trace == pytest.approx(per_sample, abs=1e-12)
    assert tb.upper == pytest.approx(x * x + 1.0, abs=1e-12)


def test_trace_lower_quantities_vanish_at_saturation():
    # near one-hot output the information-weighted quantities collapse; the
    # probability-weighted upper bound keeps the predicted row's norm
    net = NetworkSpec((1, 3), "none")
    theta = flatten(net, [np.array([[40.0, 0.0, -40.0]])], [np.zeros(3)])
    tb = trace_bounds(net, theta, np.array([[1.0]]))
    assert tb.lower <= 1e-10
    assert tb.vn_lower <= 1e-10
    assert tb.trace <= 1e-10
    assert tb.upper >= 1.0  # |dz_yhat/dtheta|^2 survives


# --- tightness report ----------------------------------------------------------------


def test_upper_gap_chain():
    for net, theta, X in instances(7, 25):
        rep = tightness_report(net, theta, X, k=1)
        assert rep.upper_gap_lhs <= rep.upper_gap + 1e-10
        assert rep.upper_gap <= rep.upper_gap_rhs + 1e-10


def test_lower_gap_chain_and_relaxation():
    for net, theta, X in instances(8, 25, class_range=(3, 5)):
        for k in range(1, net.n_classes):
            rep = tightness_report(net, theta, X, k=k)
            assert rep.lower_gap <= rep.lower_gap_rhs + 1e-10
            assert rep.lower_gap_rhs <= rep.lower_gap_rhs_relaxed + 1e-10


def test_lower_rhs_usually_below_upper_rhs():
    # a qualitative comparison, monitored rather than enforced
    flagged = 0
    total = 0
    for net, theta, X in instances(9, 25, class_range=(3, 5)):
        rep = tightness_report(net, theta, X, k=1)
        total += 1
        if rep.lower_gap_rhs > rep.upper_gap_rhs + 1e-12:
            flagged += 1
    if flagged:
        warnings.warn(f"lower-bound RHS exceeded upper-bound RHS on {flagged}/{total} instances")
    assert flagged <= total // 2


def test_near_onehot_favors_lower_bound():
    # saturated logits: the lower-bound error bound vanishes while the
    # upper-bound error keeps a floor from the predicted row
    net = NetworkSpec((1, 3), "none")
    theta = flatten(net, [np.array([[20.0, 0.0, -20.0]])], [np.zeros(3)])
    X = np.array([[1.0]])
    rep = tightness_report(net, theta, X, k=1)
    assert rep.lower_gap_rhs <= 1e-6
    assert rep.upper_gap_lhs >= 0.5


def test_lower_rhs_decreases_monotonically_with_margin():
    net = NetworkSpec((1, 4), "none")
    X = np.array([[1.0]])
    values = []
    for margin in (2.0, 5.0, 10.0, 20.0):
        W = np.array([[margin, 0.0, -margin, -2 * margin]])
        theta = flatten(net, [W], [np.zeros(4)])
        rep = tightness_report(net, theta, X, k=1)
        values.append(rep.lower_gap_rhs)
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] <= 1e-6


def test_efim_bound_holds_for_every_label_assignment():
    import itertools

    rng = np.random.default_rng(10)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    bound = tightness_report(net, theta, X, k=1).efim_gap_bound
    for labels in itertools.product(range(3), repeat=2):
        rep = tightness_report(net, theta, X, k=1, labels=np.array(labels))
        assert rep.efim_gap <= bound + 1e-10
        assert rep.efim_gap_bound == pytest.approx(bound)


def test_efim_bound_binary_symmetric_coefficient():
    # at the symmetric binary point |p|^2 = 1/2, the bound is 1.5 sum sigma_max^2
    net = NetworkSpec((2, 2), "none")
    theta = np.zeros(net.dim)
    X = np.random.default_rng(11).normal(size=(3, 2))
    rep = tightness_report(net, theta, X, k=1, labels=np.zeros(3, dtype=int))
    sigma_sq = []
    for x in X:
        J, _ = jacobian_and_logits(net, theta, x)
        sigma_sq.append(np.linalg.eigvalsh(J @ J.T)[-1])
    assert rep.efim_gap_bound == pytest.approx(1.5 * float(np.sum(sigma_sq)), abs=1e-10)


def test_adversarial_floor_achieved_per_sample():
    for net, theta, X in instances(12, 25):
        rep = tightness_report(net, theta, X, k=1)
        for err, floor in zip(rep.adversarial_errors, rep.adversarial_floors):
            assert err >= floor - 1e-10


def test_report_rejects_labels_of_the_wrong_length():
    rng = np.random.default_rng(19)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=3)
    with pytest.raises(ValueError):
        tightness_report(net, theta, X, k=1, labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        tightness_report(net, theta, X, k=1, labels=np.array([0, 1, 2, 0]))
    with pytest.raises(ValueError):
        tightness_report(net, theta, X, k=1, labels=np.array([0, 1, 3]))


def test_report_refuses_zero_samples():
    # numpy used to fail inside with "cannot reshape array of size 0 into shape (0,5)"
    net, theta, X = random_instance(np.random.default_rng(19), (2, 3), "none", n_samples=3)
    with pytest.raises(ValueError, match="at least one sample"):
        tightness_report(net, theta, X[:0], k=1)


def test_report_refuses_labels_that_are_not_integers():
    rng = np.random.default_rng(19)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    for labels, first in (([0.7, 1.9], "0.7"), (np.array([True, False]), "True")):
        with pytest.raises(ValueError, match=f"^label {first} is not an integer$"):
            tightness_report(net, theta, X, k=1, labels=labels)


def _dense_gaps(net, theta, X, k, labels):
    """The report's gaps from dim x dim matrices, norms by numpy directly."""
    fim = upper = lower = efim = 0.0
    for x, y in zip(X, labels):
        J, z = jacobian_and_logits(net, theta, x)
        p = softmax(z)
        core = np.diag(p) - np.outer(p, p)
        lam, V = np.linalg.eigh(core)
        top = V[:, net.n_classes - k:]
        fim = fim + J.T @ core @ J
        upper = upper + J.T @ np.diag(p) @ J
        lower = lower + J.T @ (top * lam[net.n_classes - k:]) @ top.T @ J
        R = np.eye(net.n_classes) - p  # row c is e_c - p
        efim = efim + J.T @ np.outer(R[y], R[y]) @ J
    return {
        "upper_gap": np.linalg.norm(upper - fim),
        "lower_gap": np.linalg.norm(lower - fim),
        "efim_gap": np.max(np.abs(np.linalg.eigvalsh(fim - efim))),
        "scale": np.linalg.norm(upper),
    }


def _dense_label_errors(net, theta, X):
    """Per sample and label, the spectral norm of J^T (core - r r^T) J, r = e_y - p."""
    per_label = []
    for x in X:
        J, z = jacobian_and_logits(net, theta, x)
        p = softmax(z)
        core = np.diag(p) - np.outer(p, p)
        per_label.append([np.max(np.abs(np.linalg.eigvalsh(J.T @ (core - np.outer(r, r)) @ J)))
                          for r in np.eye(net.n_classes) - p])
    return np.array(per_label)


@pytest.mark.parametrize("layers, act, n_samples, theta_scale", [
    pytest.param((2, 3), "none", 5, 2.0, id="layers0-none-5"),  # B C = 15 > dim = 9
    pytest.param((2, 3, 4), "tanh", 8, 2.0, id="layers1-tanh-8"),  # B C = 32 > dim = 25
    pytest.param((3, 4, 10), "tanh", 2, 2.0, id="layers2-tanh-2"),  # C = 10, B C = 20 < dim = 66
    pytest.param((2, 10), "none", 4, 2.0, id="layers3-none-4"),  # C = 10, B C = 40 > dim = 30
    pytest.param((3, 8, 50), "tanh", 2, 2.0, id="C50-tanh-2"),  # secular route, B C = 100 < dim = 482
    pytest.param((3, 8, 50), "tanh", 2, 20.0, id="C50-tanh-2-saturated"),
    pytest.param((2, 3, 4), "tanh", 8, 20.0, id="layers1-tanh-8-saturated"),
])
def test_report_norms_equal_dense_matrix_norms(layers, act, n_samples, theta_scale):
    rng = np.random.default_rng(20)
    net, theta, X = random_instance(rng, layers, act, n_samples=n_samples)
    theta = theta_scale * theta  # spread the probabilities away from uniform
    labels = rng.integers(net.n_classes, size=n_samples)
    want_labels = _dense_label_errors(net, theta, X)
    for k in range(1, net.n_classes - 1):
        rep = tightness_report(net, theta, X, k=k, labels=labels)
        want = _dense_gaps(net, theta, X, k, labels)
        tol = 1e-12 * want["scale"]
        for key in ("upper_gap", "lower_gap", "efim_gap"):
            assert getattr(rep, key) == pytest.approx(want[key], rel=1e-12, abs=tol)
        got = np.array(rep.per_label_errors)
        assert np.allclose(got, want_labels, rtol=1e-12, atol=tol)
        assert rep.adversarial_labels == _lowest_worst_labels(got)
        assert rep.adversarial_errors == tuple(np.max(got, axis=1))


@pytest.mark.parametrize("layers, act, n_samples, repeat, route", [
    pytest.param((2, 3, 4), "tanh", 8, False, None, id="BC-above-dim"),  # B C = 32 > dim = 25
    pytest.param((2, 3, 4), "tanh", 5, False, None, id="BC-near-dim"),  # S = J^T at B C = 0.8 dim
    pytest.param((3, 5, 4), "tanh", 6, True, None, id="repeated-sample"),  # rank K <= 20 < B C = 24 < dim
    pytest.param((3, 6, 5), "relu", 4, False, None, id="relu"),
    pytest.param((3, 8, 50), "tanh", 2, False, "stack", id="C50-stack"),
    pytest.param((3, 8, 50), "tanh", 2, False, "secular", id="C50-secular"),
])
def test_report_matches_the_qr_reference(monkeypatch, layers, act, n_samples, repeat, route):
    rng = np.random.default_rng(24)
    net, theta, X = random_instance(rng, layers, act, n_samples=n_samples)
    theta = 2.0 * theta
    if repeat:
        X[3] = X[1]
    C = net.n_classes
    work = n_samples * C**4  # B C^4
    if route is not None:
        monkeypatch.setattr(bounds, "_SECULAR_MIN_WORK", work if route == "secular" else work + 1)
    labels = rng.integers(C, size=n_samples)
    for k in sorted({1, C - 2}):
        rep = tightness_report(net, theta, X, k=k, labels=labels)
        want = qr_tightness_report(net, theta, X, k, labels)
        assert rep.adversarial_labels == want.pop("adversarial_labels")
        assert rep.k == want.pop("k")
        scale = want["upper_gap_rhs"]
        for key, value in want.items():
            assert np.allclose(getattr(rep, key), value, rtol=1e-12, atol=1e-12 * scale), key


def _lowest_worst_labels(errs):
    """Per sample, the lowest label whose error is within 1e-12 (relative) of the largest."""
    return tuple(min(y for y, e in enumerate(row) if max(row) - e <= 1e-12 * max(row)) for row in errs)


def test_tied_adversarial_labels_agree_across_routes(monkeypatch):
    # a saturated C = 24 head: several labels tie in exact arithmetic; a plain argmax
    # reported (7, 5) on the secular route and (2, 5) on the stack route
    net, theta, X = random_instance(np.random.default_rng(20), (5, 24), "none", 2)
    theta = 20.0 * theta
    got = {}
    work = 2 * 24**4  # B C^4
    for route, cut in (("secular", work), ("stack", work + 1)):
        monkeypatch.setattr(bounds, "_SECULAR_MIN_WORK", cut)
        rep = tightness_report(net, theta, X, k=1)
        assert rep.adversarial_labels == _lowest_worst_labels(rep.per_label_errors)
        got[route] = rep.adversarial_labels
    assert got == {"secular": (0, 3), "stack": (0, 3)}


@pytest.mark.parametrize("C", [23, 24])
def test_label_error_routes_agree_at_the_crossover(monkeypatch, C):
    # one sample switches routes between C = 23 and 24; each route is forced here on three
    assert 23**4 < bounds._SECULAR_MIN_WORK <= 24**4
    rng = np.random.default_rng(21)
    net, theta, X = random_instance(rng, (3, 6, C), "tanh", n_samples=3)
    theta = 2.0 * theta
    errs = {}
    work = 3 * C**4  # B C^4
    for route, cut in (("stack", work + 1), ("secular", work)):
        monkeypatch.setattr(bounds, "_SECULAR_MIN_WORK", cut)
        errs[route] = np.array(tightness_report(net, theta, X, k=1).per_label_errors)
    scale = np.max(errs["stack"])
    assert np.allclose(errs["secular"], errs["stack"], rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("C, secular", [(16, False), (20, True)])
def test_label_error_route_follows_samples_and_classes(monkeypatch, C, secular):
    # 4 C^4 lies below 24^4 at C = 16 and above it at C = 20; a rule on C alone
    # took the stack route at both, although the solver is the faster at C = 20
    calls = []
    real = bounds._secular_extremes

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bounds, "_secular_extremes", spy)
    net, theta, X = random_instance(np.random.default_rng(23), (3, 6, C), "tanh", n_samples=4)
    tightness_report(net, theta, X, k=1)
    assert bool(calls) == secular


def test_label_errors_form_no_matrix_per_label(monkeypatch):
    # at C = 50 the eigensolvers get a few C x C matrices per sample (the core, the
    # Jacobian Gram, A_x = R_x core R_x^T, at B = 1 the efim gap's), not one per label;
    # at B = 1 the stacked Gram K = J J^T is C x C too: its one eigh and the eigvalsh of
    # the two margins' gaps, S A S^T for the C x C root S of K, add three
    C = 50
    received = []
    for name in ("eigvalsh", "eigh"):
        real = getattr(np.linalg, name)

        def spy(a, *args, _real=real, **kwargs):
            if np.shape(a)[-2:] == (C, C):
                received.append(int(np.prod(np.shape(a)[:-2])))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    rng = np.random.default_rng(22)
    for B in (1, 3):
        net, theta, X = random_instance(rng, (3, 8, C), "tanh", n_samples=B)
        received.clear()
        tightness_report(net, theta, X, k=1, labels=np.zeros(B, dtype=int))
        assert 0 < sum(received) <= 4 * B + 3


def test_report_serializes_to_json():
    rng = np.random.default_rng(13)
    net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
    rep = tightness_report(net, theta, X, k=1, labels=np.array([0, 1]))
    payload = json.loads(rep.to_json())
    assert payload["k"] == 1
    assert len(payload["adversarial_labels"]) == 2
    assert payload["efim_gap"] <= payload["efim_gap_bound"] + 1e-10


# --- margin and norm primitives ----------------------------------------------------


def test_margin_identical_matrices():
    A = np.random.default_rng(14).normal(size=(5, 5))
    A = A + A.T
    assert loewner_margin(A, A) == pytest.approx(0.0, abs=1e-15)


def test_margin_identity_shift():
    A = np.random.default_rng(15).normal(size=(4, 4))
    A = A + A.T
    assert loewner_margin(A, A + np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_margin_constructed_psd_difference():
    rng = np.random.default_rng(16)
    A = rng.normal(size=(6, 6))
    A = A @ A.T
    Q = rng.normal(size=(6, 2))
    assert loewner_margin(A, A + Q @ Q.T) >= -1e-12


def test_margin_rejects_bad_shapes():
    with pytest.raises(ValueError):
        loewner_margin(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        loewner_margin(np.zeros((2, 2)), np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_margin_rejects_non_finite_entries(bad):
    B = np.eye(3)
    B[1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        loewner_margin(np.zeros((3, 3)), B)
    with pytest.raises(ValueError, match="finite"):
        loewner_margin(B, np.eye(3))


def test_margin_rejects_an_overflowing_difference():
    A = np.full((3, 3), 1e308)  # finite, but B - A = -2e308 is not
    with pytest.raises(ValueError, match="overflows"):
        loewner_margin(A, -A)


def test_margin_cap_is_checked_before_the_difference(monkeypatch):
    monkeypatch.setattr(bounds, "DENSE_DIM_CAP", 4)
    A = np.zeros((5, 5))
    B = np.zeros((5, 5))
    B[0, 1] = 1.0  # asymmetric: a check after B - A would report that first
    with pytest.raises(ValueError, match="capped at dim 4"):
        loewner_margin(A, B)


def test_margin_is_exact_on_a_dim_965_sandwich():
    # untrained 10-60-5 tanh net on 64 blobs: every true margin is round-off,
    # and an iteration that converges from below reads it as up to +3.6e-4
    net = NetworkSpec((10, 60, 5), "tanh")
    theta = init_params(net, np.random.default_rng(0))
    X, _ = gen_task(SyntheticTask("blobs", 64, 0, dim=10, n_classes=5))
    assert net.dim == 965
    bp = pullback_bounds(net, theta, X, 1)
    F = exact(net, theta, X)
    tol = 1e-12 * np.max(np.abs(F))
    for A, B in ((bp.lower, F), (np.zeros_like(F), bp.lower), (F, bp.upper)):
        assert loewner_margin(A, B) == pytest.approx(np.linalg.eigvalsh(B - A)[0], abs=tol)


@pytest.mark.parametrize("layers, act, n_samples, root", [
    pytest.param((3, 6, 4), "tanh", 2, "eigh", id="tanh-eigh"),  # B C = 8 < 0.6 dim = 31.2
    pytest.param((3, 6, 4), "tanh", 64, "JT", id="tanh-JT"),  # B C = 256 > dim = 52
    pytest.param((3, 6, 5), "relu", 2, "eigh", id="relu-eigh"),  # B C = 10 < 35.4
    pytest.param((3, 6, 5), "relu", 8, "JT", id="relu-JT"),  # 35.4 <= B C = 40 < dim = 59
    pytest.param((4, 6), "none", 2, "eigh", id="linear-eigh"),  # B C = 12 < 18
    pytest.param((4, 6), "none", 5, "JT", id="linear-JT"),  # B C = 30 = dim
    pytest.param((4, 6), "none", 40, "JT", id="linear-JT-40"),  # B C = 240 > dim = 30
])
def test_report_margins_equal_the_dense_margins(layers, act, n_samples, root):
    rng = np.random.default_rng(25)
    net, theta, X = random_instance(rng, layers, act, n_samples=n_samples)
    theta = 2.0 * theta
    C = net.n_classes
    assert (n_samples * C >= bounds._JT_ROOT_MIN_FILL * net.dim) == (root == "JT")
    F = exact(net, theta, X)
    for k in (1, C - 1):
        rep = tightness_report(net, theta, X, k=k)
        bp = pullback_bounds(net, theta, X, k=k)
        tol = 1e-12 * rep.trace_upper
        assert rep.lower_margin == pytest.approx(loewner_margin(bp.lower, F), abs=tol)
        assert rep.upper_margin == pytest.approx(loewner_margin(F, bp.upper), abs=tol)
        # one constant added to every output bias moves no probability: F and F - lower are
        # singular along it; p p^T is not, and on these instances the upper gap is definite
        # once B >= dim, so a margin held at 0 fails there
        assert rep.lower_margin <= tol
        assert (rep.upper_margin > 1e3 * tol) == (n_samples >= net.dim)


def test_margin_large_dimension_power_path():
    rng = np.random.default_rng(17)
    n = 600  # past the size that once switched the margin to a power iteration
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = np.concatenate([[-2.0], np.linspace(0.0, 3.0, n - 1)])
    D = (Q * eigs) @ Q.T
    margin = loewner_margin(np.zeros((n, n)), D)
    assert margin == pytest.approx(-2.0, abs=1e-6)
