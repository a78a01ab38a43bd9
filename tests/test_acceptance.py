"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from fimlab import estimators as est
from fimlab.bounds import loewner_margin, pullback_bounds, tightness_report
from fimlab.harness import SyntheticTask, cv_demo, gen_task, relmae, train_sgd
from fimlab.network import NetworkSpec, flatten, init_params
from fimlab.simplex import (
    envelope_errors,
    lambda_max_bracket,
    order_stats,
    simplex_fim,
    simplex_matrix,
    spectrum,
    top_eigenpair,
)

from helpers import enumeration_diag_moments, enumeration_mean, loglik_gradients, random_instance


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


# --- shared Dirichlet sweep (criteria 1-3) -------------------------------------

SWEEP_CLASSES = (2, 3, 5, 10, 50)
SWEEP_PER_CLASS = 2000


@dataclass
class _SweepEntry:
    p: np.ndarray
    eigenvalues: np.ndarray
    top_vector: np.ndarray


_sweep_cache = {}


def spectral_sweep():
    """10^4 Dirichlet draws with their simplex-FIM spectra, built once."""
    if "data" not in _sweep_cache:
        rng = np.random.default_rng(20240817)
        start = time.perf_counter()
        entries = []
        for C in SWEEP_CLASSES:
            for _ in range(SWEEP_PER_CLASS):
                p = rng.dirichlet(np.ones(C))
                dec = spectrum(simplex_fim(p))
                entries.append(_SweepEntry(p, dec.eigenvalues, dec.top_vector))
        _sweep_cache["data"] = entries
        _sweep_cache["elapsed"] = time.perf_counter() - start
    return _sweep_cache["data"], _sweep_cache["elapsed"]


def test_criterion_1_core_spectral_suite():
    with criterion(1, "Dirichlet sweep: kernel, trace identity, bracket containment"):
        entries, elapsed = spectral_sweep()
        assert len(entries) == len(SWEEP_CLASSES) * SWEEP_PER_CLASS
        check_start = time.perf_counter()
        for e in entries:
            w = e.eigenvalues
            assert abs(w[0]) <= 1e-10
            assert abs(w.sum() - (1.0 - e.p @ e.p)) <= 1e-10
            b = lambda_max_bracket(e.p)
            assert b.contains(w[-1])
        total = elapsed + (time.perf_counter() - check_start)
        assert total < 30.0, f"spectral sweep took {total:.1f}s"


def test_criterion_2_envelope_suite():
    with criterion(2, "Loewner envelope margins and envelope error bounds"):
        entries, _ = spectral_sweep()
        for e in entries:
            p = e.p
            M = simplex_matrix(p)
            upper_margin = float(np.linalg.eigvalsh(np.diag(p) - M)[0])
            assert upper_margin >= -1e-10
            lam, v = e.eigenvalues[-1], e.top_vector
            lower_margin = float(np.linalg.eigvalsh(M - lam * np.outer(v, v))[0])
            assert lower_margin >= -1e-10
            env = envelope_errors(p)
            realized_diag = float(np.linalg.norm(np.diag(p) - M))
            assert abs(env.diag_error - realized_diag) <= 1e-12
            assert abs(env.diag_error - float(p @ p)) <= 1e-12
            assert env.diag_error >= 1.0 / p.size - 1e-12
            realized_rank1 = float(np.sqrt(np.sum(e.eigenvalues[:-1] ** 2)))
            assert realized_rank1 <= env.rank1_error_bound + 1e-10


def test_criterion_3_empirical_core_suite():
    with criterion(3, "label-variance formula exact; adversarial floor achieved"):
        from fimlab.simplex import empirical_fim_variance

        entries, _ = spectral_sweep()
        for e in entries:
            p = e.p
            C = p.size
            M = simplex_matrix(p)
            E = np.eye(C) - p[None, :]  # row y holds e_y - p
            R = np.einsum("yi,yj->yij", E, E)
            dev = R - M[None, :, :]
            exhaustive = np.einsum("y,yij->ij", p, dev**2)
            assert np.max(np.abs(empirical_fim_variance(p) - exhaustive)) <= 1e-12
            errs = np.sqrt(np.einsum("yij->y", dev**2))
            q = order_stats(p)
            floor = 1.0 + float(p @ p) - float(e.eigenvalues[-1]) - 2.0 * float(q[0])
            assert float(errs.max()) >= floor - 1e-10


def test_criterion_4_oracle_equality():
    with criterion(4, "definition and pullback ground truths agree to 1e-10"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            C = int(rng.integers(2, 7))
            d = int(rng.integers(1, 7))
            if rng.uniform() < 0.5:
                net = NetworkSpec((d, C), "none")
            else:
                h = int(rng.integers(4, 24))
                net = NetworkSpec((d, h, C), str(rng.choice(["tanh", "relu"])))
            if net.dim > 200:
                continue
            theta = init_params(net, rng)
            X = rng.normal(size=(int(rng.integers(1, 5)), d))
            a = est.exact_fim_definition(net, theta, X)
            b = est.exact_fim_pullback(net, theta, X)
            assert np.linalg.norm(a.values - b.values) <= 1e-10


def test_criterion_5_hutchinson_unbiasedness():
    with criterion(5, "exhaustive probe means reproduce each variant's target"):
        start = time.perf_counter()
        rng = np.random.default_rng(5)

        # full and sqrt target the exact FIM; include the C|D| = 14 limit case
        for layers, act, B in (((2, 3), "none", 2), ((2, 7), "none", 2)):
            net, theta, X = random_instance(rng, layers, act, n_samples=B)
            target = est.exact_fim_definition(net, theta, X).values
            for variant in ("full", "sqrt"):
                mean = enumeration_mean(net, theta, X, variant)
                assert np.max(np.abs(mean - target)) <= 1e-10

        # diagonal-weight variant targets the probability-weighted upper bound
        net, theta, X = random_instance(rng, (3, 3), "none", n_samples=2)
        upper = pullback_bounds(net, theta, X, k=1).upper
        mean = enumeration_mean(net, theta, X, "diag")
        assert np.max(np.abs(mean - upper)) <= 1e-10

        # low-rank variants target the rank-k lower bound
        net, theta, X = random_instance(rng, (2, 4), "none", n_samples=3)
        for k in (1, 2):
            lower = pullback_bounds(net, theta, X, k=k).lower
            mean = enumeration_mean(net, theta, X, "lowrank", k=k, eigen="full")
            assert np.max(np.abs(mean - lower)) <= 1e-10

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_6_variance_formulas():
    with criterion(6, "closed-form variances exact; CV capped; Gaussian law at 1e6 draws"):
        rng = np.random.default_rng(6)

        # Rademacher closed forms vs exhaustive enumeration (C|D| <= 12)
        cases = [
            ("full", {}, (2, 3), 2),
            ("full", {}, (2, 2), 3),
            ("diag", {}, (3, 3), 2),
            ("lowrank", {"k": 1, "eigen": "full"}, (2, 4), 3),
        ]
        for variant, kwargs, layers, B in cases:
            net, theta, X = random_instance(rng, layers, "none", n_samples=B)
            mean, var = enumeration_diag_moments(net, theta, X, variant, **kwargs)
            report = est.variance_closed_form(
                net, theta, X, variant, "rademacher", **{k: v for k, v in kwargs.items() if k != "eigen"}
            )
            assert np.max(np.abs(var - report.var_closed)) <= 1e-10
            assert np.max(np.abs(mean - report.fim_diag)) <= 1e-10
            finite = report.cv[np.isfinite(report.cv)]
            assert np.all(finite <= np.sqrt(2.0) + 1e-12)

        # Gaussian variance law by simulation: the probe gradient is linear in
        # the probe, g = G^T xi; validate that surrogate against the real
        # estimator on a few probes, then drive it with 1e6 Gaussian draws.
        net, theta, X = random_instance(rng, (2, 3), "none", n_samples=2)
        B, C = X.shape[0], net.n_classes
        G = np.empty((B * C, net.dim))
        for i, x in enumerate(X):
            p, rows = loglik_gradients(net, theta, x)
            G[i * C:(i + 1) * C] = np.sqrt(p)[:, None] * rows
        for _ in range(5):
            probe = est.sample_probe((B, C), "gaussian", rng)
            direct = est.hutchinson_gradient(net, theta, X, "full", probe=probe)
            assert np.max(np.abs(direct - probe.entries.ravel() @ G)) <= 1e-12
        report = est.variance_closed_form(net, theta, X, "full", "gaussian")
        xi = rng.normal(size=(10**6, B * C))
        draws = (xi @ G) ** 2
        emp = draws.var(axis=0, ddof=1)
        live = report.fim_diag > 1e-12
        ratio = emp[live] / report.var_closed[live]
        assert np.max(np.abs(ratio - 1.0)) <= 0.03


def test_criterion_7_bounds_suite():
    with criterion(7, "sandwich, trace chain, gap chains, label bounds on 200 instances"):
        rng = np.random.default_rng(7)
        margins_done = 0
        while margins_done < 200:
            C = int(rng.choice([2, 3, 5, 10]))
            d = int(rng.integers(1, 4))
            if rng.uniform() < 0.5:
                net = NetworkSpec((d, C), "none")
            else:
                net = NetworkSpec((d, int(rng.integers(2, 5)), C), "tanh")
            if net.dim > 50:
                continue
            theta = init_params(net, rng)
            B = int(rng.choice([1, 2, 4]))
            X = rng.normal(size=(B, d))
            k = int(rng.integers(1, C))

            F = est.exact_fim_pullback(net, theta, X).values
            bp = pullback_bounds(net, theta, X, k=k)
            assert loewner_margin(bp.lower, F) >= -1e-10
            assert loewner_margin(F, bp.upper) >= -1e-10

            rep = tightness_report(net, theta, X, k=k)
            assert rep.trace_lower <= rep.trace_mid + 1e-10
            assert rep.trace_mid <= rep.trace_value + 1e-10
            assert rep.trace_value <= rep.trace_upper + 1e-10
            assert rep.upper_gap_lhs <= rep.upper_gap + 1e-10
            assert rep.upper_gap <= rep.upper_gap_rhs + 1e-10
            assert rep.lower_gap <= rep.lower_gap_rhs + 1e-10
            assert rep.lower_gap_rhs <= rep.lower_gap_rhs_relaxed + 1e-10

            # label-error bound for every per-sample label choice, plus every
            # full assignment when the assignment space is small
            for errs, bound in zip(rep.per_label_errors, rep.per_sample_efim_bounds):
                assert max(errs) <= bound + 1e-10
            if C**B <= 32:
                import itertools

                for labels in itertools.product(range(C), repeat=B):
                    r = tightness_report(net, theta, X, k=k, labels=np.array(labels))
                    assert r.efim_gap <= r.efim_gap_bound + 1e-10

            for err, floor in zip(rep.adversarial_errors, rep.adversarial_floors):
                assert err >= floor - 1e-10
            margins_done += 1

        # the lower-bound error certificate collapses as outputs saturate
        net = NetworkSpec((1, 4), "none")
        X = np.array([[1.0]])
        values = []
        for margin in (2.0, 5.0, 10.0, 20.0):
            W = np.array([[margin, 0.0, -margin, -2 * margin]])
            theta = flatten(net, [W], [np.zeros(4)])
            values.append(tightness_report(net, theta, X, k=1).lower_gap_rhs)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1e-6


def test_criterion_8_gradient_integrity():
    with criterion(8, "grad_check <= 1e-6 on 100 seeds x 3 architectures incl. probe scalar"):
        from fimlab import autodiff as ad
        from fimlab.network import forward_logits

        architectures = (
            NetworkSpec((1, 2), "none"),
            NetworkSpec((3, 3), "none"),
            NetworkSpec((3, 16, 3), "tanh"),
        )
        for seed in range(100):
            rng = np.random.default_rng(seed)
            net = architectures[seed % 3]
            X = rng.normal(size=(2, net.n_inputs))
            labels = rng.integers(net.n_classes, size=2)
            probe = est.sample_probe((2, net.n_classes), "rademacher", rng)
            theta0 = init_params(net, rng)

            def loss_fn(theta):
                logits = forward_logits(net, theta, X)
                lsm = ad.log_softmax(logits)
                return ad.scale(ad.total(ad.gather(lsm, labels)), -0.5)

            assert ad.grad_check(loss_fn, theta0) <= 1e-6

            # Stop-gradient declares the sqrt-probability coefficients
            # constant, so the matching finite-difference oracle holds them
            # at their base-point values while the likelihood moves...
            base_logits = forward_logits(net, theta0, X).data
            shifted = np.exp(base_logits - base_logits.max(axis=1, keepdims=True))
            base_p = shifted / shifted.sum(axis=1, keepdims=True)
            weights = np.sqrt(np.clip(base_p, 1e-30, 1.0)) * probe.entries

            def frozen_probe_fn(theta):
                logits = forward_logits(net, theta, X)
                return ad.wsum(ad.log_softmax(logits), weights)

            assert ad.grad_check(frozen_probe_fn, theta0) <= 1e-6

            # ... and the live tape with stop_gradient must produce exactly
            # the gradient of that frozen-coefficient function
            live = est.hutchinson_gradient(net, theta0, X, "full", probe=probe)
            frozen = ad.gradient(frozen_probe_fn(theta0))
            assert np.max(np.abs(live - frozen)) <= 1e-14


def test_criterion_9_heavy_tail_pathology():
    with criterion(9, "moment ratio 3(nu-2)/(nu-4) within 5% at 1e6 samples; CV grows"):
        cvs = []
        for nu, expected in ((4.5, 15.0), (6.0, 6.0), (12.0, 3.75)):
            rng = np.random.default_rng(9)
            report = cv_demo(nu, m=4, trials=10**5, rng=rng)
            assert report.ratio_formula == pytest.approx(expected, abs=1e-12)
            assert abs(report.ratio_importance - expected) / expected <= 0.05
            cvs.append(report.cv_empirical)
        assert cvs[0] > cvs[1] > cvs[2]


def test_criterion_10_relmae_trend():
    with criterion(10, "64-probe average beats the empirical FIM on >= 18/20 seeds"):
        wins = 0
        for seed in range(20):
            task = SyntheticTask(
                "blobs", n_samples=64, seed=seed, dim=10, n_classes=5, separation=2.0
            )
            X, labels = gen_task(task)
            net = NetworkSpec((10, 32, 5), "tanh")
            theta = train_sgd(net, (X, labels), steps=400, lr=0.2, seed=task.seed).theta
            truth = est.exact_fim_definition(net, theta, X, storage="diagonal")
            empirical = est.efim(net, theta, X, labels, storage="diagonal")
            single = est.hutchinson_fim(
                net, theta, X, "full", rng=np.random.default_rng(10_000 + seed),
                storage="diagonal",
            )
            assert single.meta["backward_passes"] == 1  # one backward per batch
            averaged = est.hutchinson_fim(
                net, theta, X, "full", rng=np.random.default_rng(20_000 + seed),
                n_probes=64, storage="diagonal",
            )
            assert averaged.meta["backward_passes"] == 64
            if relmae(averaged, truth) < relmae(empirical, truth):
                wins += 1
        assert wins >= 18, f"probe averaging won only {wins}/20 seeds"


def test_criterion_11_power_iteration():
    with criterion(11, "power iteration matches dense eigensolver; degenerate residual"):
        rng = np.random.default_rng(11)
        checked = 0
        for C in (3, 5, 10, 50):
            for _ in range(80):
                p = rng.dirichlet(np.ones(C))
                dec = spectrum(simplex_fim(p))
                if dec.spectral_gap < 0.01:
                    continue
                # budget sized for the worst admissible eigenvalue ratio at
                # this gap; the default 30-step budget is a cost choice, not
                # an accuracy guarantee
                lam, _ = top_eigenpair(p, iters=4000, tol=1e-14, rng=rng)
                assert abs(lam - dec.lambda_max) <= 1e-6
                checked += 1
        assert checked >= 200

        for C in (3, 10):
            p = np.full(C, 1.0 / C)  # fully degenerate top eigenspace
            lam, v = top_eigenpair(p, rng=rng)
            M = simplex_matrix(p)
            assert np.linalg.norm(M @ v - lam * v) <= 1e-8
