import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fimlab import simplex
from fimlab.simplex import (
    _secular_extremes,
    _canonical_sign,
    ProbVector,
    empirical_fim_variance,
    empirical_simplex_fim,
    envelope_errors,
    hypercube_fim,
    lambda_max_bracket,
    order_stats,
    simplex_fim,
    spectrum,
    top_eigenpair,
)

from helpers import charpoly_eigs, dirichlet


def probs(C, min_mass=1e-3):
    """Hypothesis strategy: a valid probability vector of length C."""
    return arrays(
        np.float64, (C,), elements=st.floats(min_value=min_mass, max_value=1.0)
    ).map(lambda v: v / v.sum())


# --- construction and validation -------------------------------------------


def test_simplex_fim_binary_symmetric():
    f = simplex_fim([0.5, 0.5])
    assert np.allclose(f.matrix, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_simplex_fim_uniform_three():
    f = simplex_fim([1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(np.diag(f.matrix), 2 / 9, atol=1e-15)
    off = f.matrix[~np.eye(3, dtype=bool)]
    assert np.allclose(off, -1 / 9, atol=1e-15)


def test_simplex_fim_hand_evaluated():
    # diag(p) - p p^T at p = (0.25, 0.75), entry by entry
    f = simplex_fim([0.25, 0.75])
    expected = np.array([[0.25 - 0.0625, -0.1875], [-0.1875, 0.75 - 0.5625]])
    assert np.array_equal(f.matrix, expected)


@pytest.mark.parametrize(
    "bad", [[0.5, 0.6], [-0.1, 1.1], [0.5, 0.5, 0.1], [1.0], [0.3, np.nan, 0.7]]
)
def test_simplex_rejects_invalid_points(bad):
    with pytest.raises(ValueError):
        simplex_fim(bad)


def test_hypercube_examples():
    assert np.allclose(hypercube_fim([0.5, 0.5]).matrix, np.diag([0.25, 0.25]))
    assert np.allclose(hypercube_fim([0.0, 1.0]).matrix, np.zeros((2, 2)))
    f = hypercube_fim([0.25, 0.75, 0.5])
    assert np.allclose(np.diag(f.matrix), [0.1875, 0.1875, 0.25])
    with pytest.raises(ValueError):
        hypercube_fim([0.5, 1.2])


@pytest.mark.parametrize("matrix, kind, message", [
    (np.ones(3), "diag", r"expected a square matrix, got shape \(3,\)"),
    (np.eye(2), "gaussian", "unknown kind 'gaussian'"),
    (np.array([[1.0, 0.5], [0.4, 1.0]]), "hypercube", "matrix is not symmetric"),
    (np.eye(2), "simplex", "simplex FIM must annihilate the all-ones vector"),
])
def test_output_fim_refuses_a_broken_invariant(matrix, kind, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        simplex.OutputFim(matrix, kind)


@pytest.mark.parametrize("lower, upper, message", [
    (0.5, 0.4, r"bracket inverted: \[0.5, 0.4\]"),
    (-0.1, 0.5, r"bracket must lie inside \[0, 1\]"),
    (0.5, 1.5, r"bracket must lie inside \[0, 1\]"),
])
def test_spectrum_bracket_refuses_an_inverted_or_outside_bracket(lower, upper, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        simplex.SpectrumBracket(lower, upper)


# --- spectrum ----------------------------------------------------------------


def test_spectrum_uniform_three():
    dec = spectrum(simplex_fim([1 / 3, 1 / 3, 1 / 3]))
    assert np.allclose(dec.eigenvalues, [0.0, 1 / 3, 1 / 3], atol=1e-12)
    v1 = dec.eigenvectors[:, 0]
    assert np.allclose(np.abs(v1), 1 / np.sqrt(3), atol=1e-12)


def test_spectrum_binary():
    dec = spectrum(simplex_fim([0.5, 0.5]))
    assert np.allclose(dec.eigenvalues, [0.0, 0.5], atol=1e-14)


def test_spectrum_against_characteristic_polynomial():
    p = np.array([0.1, 0.2, 0.7])
    dec = spectrum(simplex_fim(p))
    ref = charpoly_eigs(np.diag(p) - np.outer(p, p))
    assert np.allclose(dec.eigenvalues, ref, atol=1e-10)
    assert abs(dec.eigenvalues[0]) <= 1e-12
    assert abs(dec.eigenvalues[1] + dec.eigenvalues[2] - 0.46) <= 1e-12


def test_spectrum_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        spectrum(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_canonical_sign_of_a_stack_matches_the_column_loop():
    V = np.random.default_rng(5).normal(size=(4, 3, 3))
    V[0, :, 1] = [0.5, -0.5, 0.1]  # a tie: the lowest index decides
    V[1, :, 2] = [-0.1, -0.9, 0.9]
    for b in range(4):
        expected = V[b].copy()
        for j in range(3):  # the column-by-column reference
            i = int(np.argmax(np.abs(expected[:, j])))
            if expected[i, j] < 0:
                expected[:, j] = -expected[:, j]
        assert np.array_equal(_canonical_sign(V)[b], expected)
        assert np.array_equal(_canonical_sign(V[b]), expected)


@settings(max_examples=60, deadline=None)
@given(probs(4))
def test_spectrum_reconstructs_and_is_orthonormal(p):
    dec = spectrum(simplex_fim(p))
    V = dec.eigenvectors
    assert np.allclose(V @ V.T, np.eye(4), atol=1e-10)
    M = np.diag(p) - np.outer(p, p)
    assert np.linalg.norm((V * dec.eigenvalues) @ V.T - M) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(probs(5))
def test_simplex_invariants(p):
    dec = spectrum(simplex_fim(p))
    w = dec.eigenvalues
    assert w[0] >= -1e-12  # psd
    assert abs(w[0]) <= 1e-12  # ones direction in the kernel
    assert abs(w.sum() - (1.0 - p @ p)) <= 1e-12  # trace identity


# --- top-eigenvalue bracket ----------------------------------------------------


def test_bracket_binary_tight():
    b = lambda_max_bracket([0.5, 0.5])
    assert b.lower == pytest.approx(0.5, abs=1e-15)
    assert b.upper == pytest.approx(0.5, abs=1e-15)


def test_bracket_uniform_tight():
    b = lambda_max_bracket([1 / 3, 1 / 3, 1 / 3])
    assert b.lower == pytest.approx(1 / 3, abs=1e-15)
    assert b.upper == pytest.approx(1 / 3, abs=1e-15)


def test_bracket_contains_lambda_max():
    p = [0.1, 0.2, 0.7]
    b = lambda_max_bracket(p)
    assert b.lower == pytest.approx(0.23, abs=1e-15)
    assert b.upper == pytest.approx(0.42, abs=1e-15)
    assert b.contains(spectrum(simplex_fim(p)).lambda_max)


def test_bracket_sweep_with_gap_claim():
    rng = np.random.default_rng(11)
    violations = []
    for C in (2, 3, 5, 10):
        for _ in range(200):
            p = dirichlet(rng, C)
            b = lambda_max_bracket(p)
            lam = spectrum(simplex_fim(p)).lambda_max
            assert b.contains(lam)
            q = order_stats(p)
            claim = min(q[-1] - q[-2], float(np.max(p * (1 - p))))
            if b.gap > claim + 1e-12:
                violations.append((C, p))
    # stated without proof upstream; asserted empirically, counterexamples flagged
    assert not violations, f"bracket-gap claim violated on {violations[:3]}"


def test_interlacing_and_envelope_order():
    rng = np.random.default_rng(5)
    for C in (2, 3, 6, 12):
        for _ in range(100):
            p = dirichlet(rng, C)
            dec = spectrum(simplex_fim(p))
            q = order_stats(p)
            w = dec.eigenvalues
            assert w[-2] <= q[-2] + 1e-10 and q[-2] <= w[-1] + 1e-10
            assert w[-1] <= q[-1] + 1e-10
            # diagonal upper envelope and rank-1 lower envelope
            M = np.diag(p) - np.outer(p, p)
            upper_margin = np.linalg.eigvalsh(np.diag(p) - M)[0]
            v = dec.top_vector
            lower_margin = np.linalg.eigvalsh(M - w[-1] * np.outer(v, v))[0]
            assert upper_margin >= -1e-12
            assert lower_margin >= -1e-10


# --- secular solver: extreme eigenvalues of diag(lam) - z z^T ----------------------


def _secular_error(lam, z):
    """Largest error of both ends against eigvalsh, relative to max|lam| + |z|^2."""
    lam, z = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(z, dtype=float))
    bottom, top = _secular_extremes(lam, z)
    want = np.linalg.eigvalsh(lam[..., :, None] * np.eye(lam.shape[-1]) - z[..., :, None] * z[..., None, :])
    scale = np.max(np.abs(lam), axis=-1) + np.sum(z * z, axis=-1)
    err = np.maximum(np.abs(bottom - want[..., 0]), np.abs(top - want[..., -1]))
    return float(np.max(err / np.where(scale > 0, scale, 1.0)))


@pytest.mark.parametrize("r", [1, 2, 5, 50])
def test_secular_extremes_match_eigvalsh(r):
    rng = np.random.default_rng(r)
    for scale in (1e-12, 1e-6, 1.0, 1e6):
        lam = np.sort(rng.normal(size=(64, r)), axis=1) * scale
        z = rng.normal(size=(64, r)) * np.sqrt(scale) * 10.0 ** rng.uniform(-3, 1, size=(64, 1))
        assert _secular_error(lam, z) <= 1e-12


def test_secular_extremes_broadcast_one_spectrum_over_many_updates():
    rng = np.random.default_rng(3)
    lam = np.sort(rng.normal(size=(4, 1, 6)), axis=-1)
    z = rng.normal(size=(4, 7, 6))
    bottom, top = _secular_extremes(lam, z)
    assert bottom.shape == top.shape == (4, 7)
    assert _secular_error(lam, z) <= 1e-12


def test_secular_extremes_of_a_zero_update_are_the_ends():
    lam = np.array([[-2.0, 0.5, 3.0], [1.0, 1.0, 1.0]])
    bottom, top = _secular_extremes(lam, np.zeros(3))
    assert np.array_equal(bottom, lam[:, 0]) and np.array_equal(top, lam[:, -1])


@pytest.mark.parametrize("zero", [[0], [2], [4], [0, 4], [1, 2, 3]])
def test_secular_extremes_deflate_zero_components(zero):
    rng = np.random.default_rng(len(zero))
    lam = np.sort(rng.normal(size=(32, 5)), axis=1)
    z = rng.normal(size=(32, 5))
    z[:, zero] = 0.0
    assert _secular_error(lam, z) <= 1e-12
    # a deflated end stays an eigenvalue: lam_r - z z^T keeps lam_r on top
    bottom, top = _secular_extremes(lam, z)
    if 4 in zero:
        assert np.array_equal(top, lam[:, -1])


def test_secular_extremes_deflate_a_component_below_rounding():
    # z_1 z_r = 1e-30 moves no eigenvalue by more than rounding against the scale 2:
    # deflated, it leaves the eigenvalues lam_1 = 0 and lam_r - z_r^2 = 0 exactly
    bottom, top = _secular_extremes([0.0, 1.0], [1e-30, 1.0])
    assert (bottom, top) == (0.0, 0.0)


def test_secular_extremes_on_the_kernel_row_of_a_label_error():
    # A = R core R^T has lam_1 = z_1 = 0 in exact arithmetic, since ones . (e_y - p) = 0
    rng = np.random.default_rng(8)
    for C in (3, 5, 50):
        p = dirichlet(rng, C)
        R = np.linalg.qr(rng.normal(size=(3 * C, C)), mode="r")
        lam, W = np.linalg.eigh(R @ (np.diag(p) - np.outer(p, p)) @ R.T)
        residuals = np.eye(C) - p
        z = residuals @ R.T @ W  # row y: W^T R (e_y - p)
        assert np.max(np.abs(z[:, 0])) <= 1e-12 * np.max(np.abs(z))
        bottom, top = _secular_extremes(lam, z)
        for y in range(C):
            M = R @ (np.diag(p) - np.outer(p, p) - np.outer(residuals[y], residuals[y])) @ R.T
            want = np.linalg.eigvalsh(M)
            scale = np.max(np.abs(lam)) + z[y] @ z[y]
            assert abs(bottom[y] - want[0]) <= 1e-12 * scale
            assert abs(top[y] - want[-1]) <= 1e-12 * scale


@pytest.mark.parametrize("where", ["top", "bottom", "all"])
def test_secular_extremes_on_repeated_eigenvalues(where):
    rng = np.random.default_rng(9)
    lam = np.sort(rng.normal(size=(32, 6)), axis=1)
    if where == "top":
        lam[:, 3:] = lam[:, -1:]
    elif where == "bottom":
        lam[:, :3] = lam[:, :1]
    else:
        lam[:] = lam[:, :1]
    z = rng.normal(size=(32, 6))
    assert _secular_error(lam, z) <= 1e-12


def test_secular_extremes_with_components_across_decades():
    # tiny, undeflated weights put roots next to poles: the hard case for the iteration
    rng = np.random.default_rng(10)
    for r in (2, 3, 8):
        lam = np.sort(rng.normal(size=(256, r)), axis=1)
        z = rng.normal(size=(256, r)) * 10.0 ** rng.uniform(-15, 0, size=(256, r))
        assert _secular_error(lam, z) <= 1e-12


@pytest.mark.parametrize("pmax", [0.5, 0.9, 1 - 1.4e-6])
def test_secular_top_root_is_the_simplex_lambda_max(pmax):
    # diag(p) - p p^T is the update with lam = z = p; 1 - 1.4e-6 is a confident sample
    rng = np.random.default_rng(12)
    for C in (2, 3, 5, 50):
        rest = dirichlet(rng, C - 1) * (1.0 - pmax)
        p = np.append(rest, 1.0 - rest.sum())
        q = order_stats(p)
        bottom, top = _secular_extremes(q, q)
        lam_max = spectrum(simplex_fim(p)).lambda_max
        assert abs(float(top) - lam_max) <= 1e-12 * 2.0
        assert lambda_max_bracket(p).contains(float(top))
        assert abs(float(bottom)) <= 1e-12 * 2.0  # the kernel: ones is in it


def test_secular_step_guard_raises_and_is_far_from_reached(monkeypatch):
    # the decades test's family over 40 seeds needs at most 10 steps; a start at gn / 2
    # that bisects toward a pole at hi needs 48.  The last input is a top root within
    # 1e-19 of the pole lam_1, where hi = lam_2 - lam_1 is itself a pole.
    cases = []
    for seed in range(40):
        for r in (2, 3, 8, 50):
            rng = np.random.default_rng(seed)
            lam = np.sort(rng.normal(size=(256, r)), axis=1)
            z = rng.normal(size=(256, r)) * 10.0 ** rng.uniform(-15, 0, size=(256, r))
            cases.append((lam, z))
    cases.append((np.array([-0.32547079112317423, 0.0]), np.sqrt([1.65e-20, 0.3655])))
    monkeypatch.setattr(simplex, "_SECULAR_MAX_STEPS", 16)  # a quarter of the guard
    assert max(_secular_error(lam, z) for lam, z in cases) <= 1e-12
    monkeypatch.setattr(simplex, "_SECULAR_MAX_STEPS", 1)
    lam, z = cases[13 * 4 + 2]  # seed 13, r = 8
    with pytest.raises(RuntimeError, match="did not converge in 1 steps"):
        _secular_extremes(lam, z)


# --- power iteration ------------------------------------------------------------


def test_top_eigenpair_binary():
    lam, v = top_eigenpair([0.5, 0.5], method="power", rng=np.random.default_rng(0))
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(np.abs(v), 1 / np.sqrt(2), atol=1e-12)


def test_top_eigenpair_degenerate_uses_residual():
    p = np.full(3, 1 / 3)
    lam, v = top_eigenpair(p, method="power", rng=np.random.default_rng(1))
    M = np.diag(p) - np.outer(p, p)
    assert lam == pytest.approx(1 / 3, abs=1e-10)
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8


def test_power_budget_matches_full_on_gapped_instances():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 10:
        p = dirichlet(rng, 10)
        dec = spectrum(simplex_fim(p))
        # the fixed default budget needs an eigenvalue ratio away from 1
        if dec.spectral_gap < 0.01 or dec.eigenvalues[-2] / dec.eigenvalues[-1] > 0.55:
            continue
        lam, v = top_eigenpair(p, method="power", rng=rng)
        assert abs(lam - dec.lambda_max) <= 1e-6
        checked += 1


def test_power_with_tolerance_converges_tightly():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = dirichlet(rng, 8)
        dec = spectrum(simplex_fim(p))
        if dec.spectral_gap < 0.01:
            continue
        lam, _ = top_eigenpair(p, method="power", iters=5000, tol=1e-14, rng=rng)
        assert abs(lam - dec.lambda_max) <= 1e-6


def test_top_eigenpair_full_delegates():
    p = [0.2, 0.3, 0.5]
    lam, v = top_eigenpair(p, method="full")
    dec = spectrum(simplex_fim(p))
    assert lam == dec.lambda_max
    assert np.allclose(v, dec.top_vector)


def test_power_requires_rng_and_budget():
    with pytest.raises(ValueError):
        top_eigenpair([0.5, 0.5], method="power")
    with pytest.raises(ValueError):
        top_eigenpair([0.5, 0.5], method="power", iters=0, rng=np.random.default_rng(0))


# --- envelopes -------------------------------------------------------------------


def test_envelope_binary():
    assert envelope_errors([0.5, 0.5]).diag_error == pytest.approx(0.5, abs=1e-15)


def test_envelope_uniform_floor():
    env = envelope_errors([1 / 3, 1 / 3, 1 / 3])
    assert env.diag_error == pytest.approx(1 / 3, abs=1e-15)


def test_envelope_rank1_bound_near_onehot():
    p = [0.98, 0.01, 0.01]
    env = envelope_errors(p)
    assert env.rank1_error_bound == pytest.approx(0.01, abs=1e-15)
    dec = spectrum(simplex_fim(p))
    realized = np.sqrt(np.sum(dec.eigenvalues[:-1] ** 2))
    assert realized <= env.rank1_error_bound + 1e-12


def test_envelope_random_sweep():
    rng = np.random.default_rng(9)
    for C in (2, 3, 5, 10):
        for _ in range(100):
            p = dirichlet(rng, C)
            env = envelope_errors(p)
            assert env.diag_error == pytest.approx(float(p @ p), abs=1e-12)
            assert env.diag_error >= 1.0 / C - 1e-12
            dec = spectrum(simplex_fim(p))
            realized = np.sqrt(np.sum(dec.eigenvalues[:-1] ** 2))
            assert realized <= env.rank1_error_bound + 1e-10


# --- single-label estimates --------------------------------------------------------


def test_empirical_fim_symmetric_binary_is_exact():
    r = empirical_simplex_fim([0.5, 0.5], 0)
    assert np.allclose(r, simplex_fim([0.5, 0.5]).matrix, atol=1e-15)


def test_empirical_fim_exhaustive_expectation():
    rng = np.random.default_rng(12)
    for C in (2, 4, 7):
        p = dirichlet(rng, C)
        mean = sum(p[y] * empirical_simplex_fim(p, y) for y in range(C))
        assert np.max(np.abs(mean - simplex_fim(p).matrix)) <= 1e-14


def test_empirical_fim_is_rank_one():
    r = empirical_simplex_fim([0.2, 0.3, 0.5], 1)
    s = np.linalg.svd(r, compute_uv=False)
    assert s[1] <= 1e-12


def test_empirical_fim_adversarial_floor():
    p = np.array([0.1, 0.2, 0.7])
    y = int(np.argmin(p))  # the least likely label
    err = np.linalg.norm(empirical_simplex_fim(p, y) - simplex_fim(p).matrix)
    floor = 2 * float(p @ p) - 2 * float(np.min(p))
    assert floor == pytest.approx(0.88, abs=1e-15)
    assert err >= floor - 1e-12


def test_empirical_fim_rejects_bad_label():
    with pytest.raises(ValueError):
        empirical_simplex_fim([0.5, 0.5], 2)
    with pytest.raises(ValueError):
        empirical_simplex_fim([0.5, 0.5], -1)


# --- label variance ------------------------------------------------------------------


def test_variance_fair_coin_diagonal_is_zero():
    var = empirical_fim_variance([0.5, 0.5])
    assert var[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert var[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_variance_hand_value():
    var = empirical_fim_variance([0.25, 0.75])
    assert var[0, 0] == pytest.approx(0.046875, abs=1e-15)


def test_variance_matches_exhaustive():
    rng = np.random.default_rng(21)
    for C in (2, 3, 6, 10):
        for _ in range(30):
            p = dirichlet(rng, C)
            fim = simplex_fim(p).matrix
            exhaustive = sum(
                p[y] * (empirical_simplex_fim(p, y) - fim) ** 2 for y in range(C)
            )
            var = empirical_fim_variance(p)
            assert np.max(np.abs(var - exhaustive)) <= 1e-12
            assert np.max(var) <= 1 / 16 + 1e-14


def test_variance_cv_diverges_for_vanishing_mass():
    cvs = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-6):
        p = np.array([eps, 1.0 - eps])
        info = p[0] * (1 - p[0])
        cvs.append(np.sqrt(empirical_fim_variance(p)[0, 0]) / info)
    assert all(a < b for a, b in zip(cvs, cvs[1:]))
    assert cvs[-1] > 100.0


# --- misc --------------------------------------------------------------------------


def test_order_stats_stable_on_ties():
    p = np.array([0.25, 0.5, 0.25])
    q = order_stats(p)
    assert np.array_equal(q, [0.25, 0.25, 0.5])


def test_boundary_probabilities_allowed():
    p = ProbVector(np.array([0.0, 0.3, 0.7]))
    dec = spectrum(simplex_fim(p))
    assert dec.eigenvalues[0] >= -1e-12
    assert abs(dec.eigenvalues.sum() - (1 - p.values @ p.values)) <= 1e-12
    assert lambda_max_bracket(p).contains(dec.lambda_max)
