import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fimlab import estimators as est
from fimlab.harness import (
    BenchConfig,
    SyntheticTask,
    TrainingDiverged,
    accuracy,
    cv_demo,
    gen_task,
    histogram,
    relmae,
    run_bench,
    train_sgd,
)
from fimlab.network import NetworkSpec, init_params

from helpers import enumeration_mean


def blobs(seed=0, n=128, d=2, C=3, separation=2.0):
    return SyntheticTask("blobs", n_samples=n, seed=seed, dim=d, n_classes=C, separation=separation)


# --- task generation ------------------------------------------------------------


def test_same_seed_same_dataset():
    X1, y1 = gen_task(blobs(seed=7))
    X2, y2 = gen_task(blobs(seed=7))
    assert np.array_equal(X1, X2)
    assert np.array_equal(y1, y2)
    X3, _ = gen_task(blobs(seed=8))
    assert not np.array_equal(X1, X3)


def test_zero_separation_trains_to_chance():
    task = blobs(seed=1, n=512, d=2, C=2, separation=0.0)
    X, labels = gen_task(task)
    net = NetworkSpec((2, 2), "none")
    res = train_sgd(net, task, steps=300, lr=0.2)
    assert accuracy(net, res.theta, X, labels) <= 0.65


def test_student_t_second_moment():
    task = SyntheticTask("student_t", n_samples=10**6, seed=2, nu=5.0)
    X, labels = gen_task(task)
    assert labels is None
    assert X.shape == (10**6, 1)
    assert float(np.mean(X**2)) == pytest.approx(5.0 / 3.0, rel=0.1)


def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask("moons", n_samples=10, seed=0)
    with pytest.raises(ValueError):
        SyntheticTask("student_t", n_samples=10, seed=0, nu=0.0)
    with pytest.raises(ValueError):
        SyntheticTask("blobs", n_samples=10, seed=0, n_classes=1)


# --- training --------------------------------------------------------------------


def test_zero_steps_returns_initialization():
    task = blobs(seed=3)
    net = NetworkSpec((2, 4, 3), "tanh")
    res = train_sgd(net, task, steps=0, lr=0.1)
    assert np.array_equal(res.theta, init_params(net, np.random.default_rng(task.seed)))
    assert res.losses.size == 0


def test_separable_blobs_reach_high_accuracy():
    task = blobs(seed=4, n=256, d=2, C=3, separation=3.0)
    X, labels = gen_task(task)
    net = NetworkSpec((2, 16, 3), "tanh")
    res = train_sgd(net, task, steps=500, lr=0.3)
    assert accuracy(net, res.theta, X, labels) >= 0.95


def test_loss_nonincreasing_over_averaged_windows():
    task = blobs(seed=5, n=256, d=2, C=3, separation=2.0)
    net = NetworkSpec((2, 8, 3), "tanh")
    res = train_sgd(net, task, steps=400, lr=0.2)
    windows = res.losses.reshape(-1, 50).mean(axis=1)
    assert np.all(np.diff(windows) <= 1e-9)


def test_divergence_is_reported():
    # softmax gradients are bounded, so blowing up takes an lr at the float64
    # ceiling plus persistently misclassified (overlapping) classes
    task = blobs(seed=6, n=64, d=2, C=2, separation=0.0)
    net = NetworkSpec((2, 2), "none")
    with pytest.warns(RuntimeWarning):
        with pytest.raises(TrainingDiverged):
            train_sgd(net, task, steps=10, lr=1e308)


# --- RelMAE ------------------------------------------------------------------------


def _diag(values, normalization="sum"):
    return est.FimEstimate("exact_def", "diagonal", np.asarray(values, float), normalization, {})


def test_relmae_zero_for_identical():
    truth = _diag([1.0, 2.0, 3.0])
    assert relmae(truth, truth) == 0.0


def test_relmae_doubling_is_one():
    truth = _diag([1.0, 0.5, 2.0])
    doubled = _diag([2.0, 1.0, 4.0])
    assert relmae(doubled, truth) == pytest.approx(1.0, abs=1e-9)


def test_relmae_rejects_mismatches():
    truth = _diag([1.0, 2.0])
    with pytest.raises(ValueError):
        relmae(_diag([1.0, 2.0], normalization="mean"), truth)
    with pytest.raises(ValueError):
        relmae(_diag([1.0, 2.0, 3.0]), truth)
    dense = est.FimEstimate("exact_def", "dense", np.eye(2), "sum", {})
    with pytest.raises(ValueError):
        relmae(dense, truth)
    with pytest.raises(ValueError):
        relmae(truth, truth, eps=0.0)


def test_exhaustive_probe_mean_has_zero_relmae():
    rng = np.random.default_rng(8)
    net = NetworkSpec((2, 3), "none")
    theta = init_params(net, rng)
    X = rng.normal(size=(2, 2))
    mean = enumeration_mean(net, theta, X, "full", storage="diagonal")
    truth = est.exact_fim_definition(net, theta, X, storage="diagonal")
    assert relmae(_diag(mean), truth) <= 1e-9


def test_lowrank_mean_beats_diag_mean_near_onehot():
    # with saturated logits the low-rank target tracks the FIM diagonal far
    # better than the probability-weighted diagonal target
    for seed in range(10):
        r = np.random.default_rng(seed)
        net = NetworkSpec((3, 4), "none")
        theta = init_params(net, r)
        X = r.normal(size=(3, 3))
        W = theta[:12].reshape(3, 4)
        margin = float(np.max(np.abs(X @ W)))
        theta = theta * (10.0 / max(margin, 1e-9))  # push logits to ~10
        truth = est.exact_fim_definition(net, theta, X, storage="diagonal")
        lr_diag = est.variance_closed_form(net, theta, X, "lowrank").fim_diag
        dg_diag = est.variance_closed_form(net, theta, X, "diag").fim_diag
        assert relmae(_diag(lr_diag), truth) < relmae(_diag(dg_diag), truth)


# --- CV pathology demo -----------------------------------------------------------------


def test_cv_demo_formula_values():
    rng = np.random.default_rng(10)
    r12 = cv_demo(12.0, m=16, trials=100, rng=rng, importance_samples=10**4)
    assert r12.ratio_formula == pytest.approx(3.75)
    rng = np.random.default_rng(11)
    r45 = cv_demo(4.5, m=16, trials=100, rng=rng, importance_samples=10**4)
    assert r45.ratio_formula == pytest.approx(15.0)
    assert r45.cv_predicted == pytest.approx(np.sqrt(14.0 / 16.0))


def test_cv_demo_importance_sampling_hits_formula():
    for nu, expect in ((4.5, 15.0), (6.0, 6.0), (12.0, 3.75)):
        rng = np.random.default_rng(12)
        rep = cv_demo(nu, m=8, trials=10, rng=rng, importance_samples=10**5)
        assert rep.ratio_importance == pytest.approx(expect, rel=0.05)


def test_cv_grows_as_tail_heavens():
    rng = np.random.default_rng(13)
    heavy = cv_demo(4.5, m=4, trials=20000, rng=rng, importance_samples=10**3)
    rng = np.random.default_rng(13)
    light = cv_demo(12.0, m=4, trials=20000, rng=rng, importance_samples=10**3)
    assert heavy.cv_empirical > light.cv_empirical


def test_cv_demo_rejects_small_nu():
    with pytest.raises(ValueError):
        cv_demo(4.0, m=4, trials=4, rng=np.random.default_rng(0))


# --- histograms -----------------------------------------------------------------------


def test_histogram_all_zero():
    rep = histogram(_diag(np.zeros(40)))
    assert rep.zero_atom == 40
    assert rep.zeta == 1.0
    assert rep.total == 40
    assert np.isnan(rep.median)


def test_histogram_single_value():
    rep = histogram(_diag([0.0, 0.125, 0.0]))
    assert rep.zero_atom == 2
    assert rep.median == pytest.approx(0.125)
    assert rep.p95 == pytest.approx(0.125)
    assert rep.counts.sum() == 1


def test_histogram_zero_atom_fraction_exact():
    values = np.concatenate([np.zeros(30), np.logspace(-8, -1, 70)])
    rep = histogram(_diag(values))
    assert rep.zeta == pytest.approx(0.30)
    assert rep.counts.sum() + rep.zero_atom == 100
    assert rep.bin_edges.size == 51
    assert np.all(np.diff(np.log10(rep.bin_edges)) > 0)
    assert rep.mean == pytest.approx(values.mean())


def test_histogram_requires_diagonal():
    with pytest.raises(ValueError):
        histogram(est.FimEstimate("exact_def", "dense", np.eye(2), "sum", {}))


@settings(max_examples=60, deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(min_value=1, max_value=80),
        elements=st.one_of(
            st.just(0.0), st.floats(min_value=1e-290, max_value=1e3)
        ),
    )
)
def test_histogram_accounts_for_every_entry(values):
    rep = histogram(_diag(values))
    assert rep.total == values.size
    assert rep.counts.sum() + rep.zero_atom == values.size
    assert 0.0 <= rep.zeta <= 1.0


# --- bench -----------------------------------------------------------------------------


def bench_setup(seed=0):
    task = blobs(seed=seed, n=64, d=3, C=3, separation=2.0)
    X, labels = gen_task(task)
    net = NetworkSpec((3, 3), "none")
    theta = train_sgd(net, task, steps=60, lr=0.2).theta
    return net, theta, X, labels


def test_bench_rows_and_backward_passes():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=4, estimators=("efim", "hutch", "hutch_sqrt"), seed=3)
    rows = run_bench(net, theta, X, labels, cfg)
    by_name = {r.estimator: r for r in rows}
    assert set(by_name) == {"efim", "hutch", "hutch_sqrt"}
    assert by_name["hutch"].backward_passes == 4  # one probe per batch
    assert by_name["efim"].backward_passes == 64  # one per sample
    assert by_name["efim"].speedup_vs_efim == pytest.approx(1.0)
    for row in rows:
        assert np.isfinite(row.relmae)
        assert row.relmae >= 0.0


def test_bench_reproducible_estimates():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=4, estimators=("hutch", "hutch_lowrank"), seed=9)
    a = run_bench(net, theta, X, labels, cfg)
    b = run_bench(net, theta, X, labels, cfg)
    for ra, rb in zip(a, b):
        assert ra.estimator == rb.estimator
        assert ra.relmae == rb.relmae  # bit-identical given (config, seed)


def test_bench_requires_enough_samples():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=64, n_batches=4)
    with pytest.raises(ValueError):
        run_bench(net, theta, X, labels, cfg)


def test_bench_rejects_unknown_estimator():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=2, estimators=("kfac",))
    with pytest.raises(ValueError):
        run_bench(net, theta, X, labels, cfg)


@pytest.mark.parametrize("name", est.PROBE_VARIANTS)
def test_every_probe_name_runs_through_bench(name):
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=2, estimators=(name,), seed=5)
    rows = run_bench(net, theta, X, labels, cfg)
    assert [r.estimator for r in rows] == ["efim", name]
    assert rows[1].backward_passes == 2  # one probe per batch
    assert np.isfinite(rows[1].relmae)


def test_bench_rejects_dropped_rank2_name():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=2, estimators=("hutch_lowrank2",))
    with pytest.raises(ValueError, match="unknown bench estimator"):
        run_bench(net, theta, X, labels, cfg)
