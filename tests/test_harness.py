import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fimlab import estimators as est
from fimlab import harness
from fimlab.harness import (
    BenchConfig,
    SyntheticTask,
    TrainingDiverged,
    cv_demo,
    gen_task,
    histogram,
    relmae,
    run_bench,
    train_sgd,
)
from fimlab.network import NetworkSpec, forward_logits, init_params

from helpers import enumeration_mean


def accuracy(net, theta, X, labels):
    """Share of samples whose largest logit is their label."""
    return float(np.mean(np.argmax(forward_logits(net, theta, X).data, axis=1) == labels))


def blobs(seed=0, n=128, d=2, C=3, separation=2.0):
    return SyntheticTask("blobs", n_samples=n, seed=seed, dim=d, n_classes=C, separation=separation)


def train(net, task, steps, lr):
    """train_sgd on the task's data from the task's seed."""
    return train_sgd(net, gen_task(task), steps, lr, seed=task.seed)


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
    res = train(net, task, steps=300, lr=0.2)
    assert accuracy(net, res.theta, X, labels) <= 0.65


def test_task_validation():
    with pytest.raises(ValueError):
        SyntheticTask("moons", n_samples=10, seed=0)
    with pytest.raises(ValueError):
        SyntheticTask("blobs", n_samples=10, seed=0, n_classes=1)


@pytest.mark.parametrize("field, value, message", [
    ("n_samples", 0, "n_samples must be at least 1, got 0"),
    ("seed", -1, "seed must be at least 0, got -1"),
    ("dim", 0, "dim must be at least 1, got 0"),
    ("n_classes", 1, "n_classes must be at least 2, got 1"),
    ("separation", float("nan"), "separation must be finite and nonnegative, got nan"),  # gave an all-NaN X
    ("separation", float("inf"), "separation must be finite and nonnegative, got inf"),
    ("separation", -1.0, "separation must be finite and nonnegative, got -1.0"),
], ids=["n_samples", "seed", "dim", "n_classes", "separation-nan", "separation-inf", "separation-negative"])
def test_task_refuses_a_field_out_of_range_by_name(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SyntheticTask("blobs", **{"n_samples": 10, "seed": 0, field: value})


# --- training --------------------------------------------------------------------


def test_zero_steps_returns_initialization():
    task = blobs(seed=3)
    net = NetworkSpec((2, 4, 3), "tanh")
    res = train(net, task, steps=0, lr=0.1)
    assert np.array_equal(res.theta, init_params(net, np.random.default_rng(task.seed)))
    assert res.losses.size == 0


def test_separable_blobs_reach_high_accuracy():
    task = blobs(seed=4, n=256, d=2, C=3, separation=3.0)
    X, labels = gen_task(task)
    net = NetworkSpec((2, 16, 3), "tanh")
    res = train(net, task, steps=500, lr=0.3)
    assert accuracy(net, res.theta, X, labels) >= 0.95


def test_loss_nonincreasing_over_averaged_windows():
    task = blobs(seed=5, n=256, d=2, C=3, separation=2.0)
    net = NetworkSpec((2, 8, 3), "tanh")
    res = train(net, task, steps=400, lr=0.2)
    windows = res.losses.reshape(-1, 50).mean(axis=1)
    assert np.all(np.diff(windows) <= 1e-9)


def test_divergence_is_reported():
    # softmax gradients are bounded, so blowing up takes an lr at the float64
    # ceiling plus persistently misclassified (overlapping) classes
    task = blobs(seed=6, n=64, d=2, C=2, separation=0.0)
    net = NetworkSpec((2, 2), "none")
    # the overflow behind it shows as the loss: a RuntimeWarning would fail the suite
    with pytest.raises(TrainingDiverged, match="^loss became inf at step 1$"):
        train(net, task, steps=10, lr=1e308)


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
    r12 = cv_demo(12.0, m=16, trials=100, rng=rng)
    assert r12.ratio_formula == pytest.approx(3.75)
    rng = np.random.default_rng(11)
    r45 = cv_demo(4.5, m=16, trials=100, rng=rng)
    assert r45.ratio_formula == pytest.approx(15.0)
    assert r45.cv_predicted == pytest.approx(np.sqrt(14.0 / 16.0))


def test_cv_demo_importance_sampling_hits_formula():
    for nu, expect in ((4.5, 15.0), (6.0, 6.0), (12.0, 3.75)):
        rng = np.random.default_rng(12)
        rep = cv_demo(nu, m=8, trials=10, rng=rng)
        assert rep.ratio_importance == pytest.approx(expect, rel=0.05)


def test_cv_grows_as_tail_heavens():
    rng = np.random.default_rng(13)
    heavy = cv_demo(4.5, m=4, trials=20000, rng=rng)
    rng = np.random.default_rng(13)
    light = cv_demo(12.0, m=4, trials=20000, rng=rng)
    assert heavy.cv_empirical > light.cv_empirical


def test_cv_demo_rejects_small_nu():
    with pytest.raises(ValueError):
        cv_demo(4.0, m=4, trials=4, rng=np.random.default_rng(0))


def test_cv_demo_refuses_nu_where_the_importance_check_has_infinite_variance():
    # x^8 f^2 / q falls like |x|^(7 + 0.5 - 2 nu): integrable only above nu = 4 + 0.5 / 2
    with pytest.raises(ValueError, match="nu must exceed 4.25: .* proposal with 0.5 degrees"):
        cv_demo(4.25, m=4, trials=4, rng=np.random.default_rng(0))
    report = cv_demo(4.26, m=4, trials=4, rng=np.random.default_rng(0))
    assert report.ratio_formula == pytest.approx(3.0 * 2.26 / 0.26)


def test_cv_demo_refuses_nu_where_the_log_normalizer_cancels():
    # lgamma((nu+1)/2) - lgamma(nu/2) is off by about eps (nu/2) ln(nu/2): 5e-10 at 1e6
    for nu in (np.nextafter(1e6, np.inf), 1e12, 1e16, 1e308, np.inf, np.nan):
        with pytest.raises(ValueError, match="^nu must be at most 1e\\+06, got "):
            cv_demo(nu, m=4, trials=4, rng=np.random.default_rng(0))
    report = cv_demo(1e6, m=4, trials=4, rng=np.random.default_rng(0))
    assert abs(report.ratio_importance - 3.0) <= 0.05 * 3.0


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_histogram_refuses_a_non_finite_entry(bad):
    # a NaN used to count in the zero atom, an infinity to warn
    with pytest.raises(ValueError, match="non-finite entry"):
        histogram(_diag([bad, 2.0, 3.0]))


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
    theta = train(net, task, steps=60, lr=0.2).theta
    return net, theta, X, labels


def test_bench_rows_and_backward_passes():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=4, seed=3)
    rows = run_bench(net, theta, X, labels, cfg)
    by_name = {r.estimator: r for r in rows}
    assert list(by_name) == ["efim", *est.PROBE_VARIANTS]
    assert by_name["hutch"].backward_passes == 4  # one probe per batch
    assert by_name["efim"].backward_passes == 64  # one per sample
    for row in rows:
        assert np.isfinite(row.relmae)
        assert row.relmae >= 0.0


def test_bench_reproducible_estimates():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=16, n_batches=4, seed=9)
    a = run_bench(net, theta, X, labels, cfg)
    b = run_bench(net, theta, X, labels, cfg)
    for ra, rb in zip(a, b):
        assert ra.estimator == rb.estimator
        assert ra.relmae == rb.relmae  # bit-identical given (config, seed)


def test_bench_requires_enough_samples():
    net, theta, X, labels = bench_setup()
    cfg = BenchConfig(batch_size=64, n_batches=4)
    with pytest.raises(ValueError, match=r"^n_samples = 64 is below batch_size \* n_batches = 64 \* 4 = 256$"):
        run_bench(net, theta, X, labels, cfg)


def test_bench_rejects_unlabeled_data_before_the_truth(monkeypatch):
    net, theta, X, _ = bench_setup()

    def refuse(*args, **kwargs):
        raise AssertionError("the exact truth must not be computed for unlabeled data")

    monkeypatch.setattr(est, "exact_fim_definition", refuse)
    cfg = BenchConfig(batch_size=16, n_batches=2)
    with pytest.raises(ValueError, match="needs labels"):
        run_bench(net, theta, X, None, cfg)


def test_bench_refuses_labels_that_are_not_integers(monkeypatch):
    net, theta, X, labels = bench_setup()

    def refuse(*args, **kwargs):
        raise AssertionError("the exact truth must not be computed for bad labels")

    monkeypatch.setattr(est, "exact_fim_definition", refuse)
    cfg = BenchConfig(batch_size=16, n_batches=2)
    bad = labels.astype(np.float64)
    bad[5] = 1.5
    with pytest.raises(ValueError, match=r"^label 1.5 is not an integer$"):
        run_bench(net, theta, X, bad, cfg)


def test_training_refuses_labels_that_are_not_integers():
    net = NetworkSpec((1, 2), "none")
    with pytest.raises(ValueError, match="^label 0.7 is not an integer$"):
        train_sgd(net, (np.array([[1.0], [2.0]]), [0.7, 1.0]), steps=1, lr=0.1, seed=0)


@pytest.mark.parametrize("task, steps, seed, message", [
    ((np.array([[1.0], [2.0]]), [0, 1]), -1, 0, "steps must be nonnegative"),
    ((np.array([[1.0], [2.0]]), [0]), 1, 0, "need exactly one label per sample"),
    ((np.array([[1.0], [2.0]]), None), 1, 0, "training needs labels"),
    ((np.array([[1.0], [2.0]]), [0, 1]), 1, None, "seed must be an integer, got None"),  # trained unseeded
    ((np.array([[1.0], [np.nan]]), [0, 1]), 1, 0,
     r"X has a non-finite entry \(NaN or infinity\)"),  # was "loss became nan at step 0"
])
def test_training_refuses_what_it_cannot_run(monkeypatch, task, steps, seed, message):
    def refuse(*args, **kwargs):
        raise AssertionError("no initialization may be drawn before the arguments are checked")

    monkeypatch.setattr(harness, "init_params", refuse)
    with pytest.raises(ValueError, match=f"^{message}$"):
        train_sgd(NetworkSpec((1, 2), "none"), task, steps=steps, lr=0.1, seed=seed)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -0.1])
def test_training_refuses_an_lr_that_is_not_positive_and_finite(monkeypatch, lr):
    # nan ran one full step and then raised TrainingDiverged("loss became nan at step 1")
    data = (np.ones((2, 1)), [0, 1])
    assert train_sgd(NetworkSpec((1, 2), "none"), data, steps=0, lr=lr, seed=0).losses.size == 0  # unused

    def refuse(*args, **kwargs):
        raise AssertionError("no step may run before lr is checked")

    monkeypatch.setattr(harness, "forward_logits", refuse)
    with pytest.raises(ValueError, match=f"^lr must be positive and finite, got {lr!r}$"):
        train_sgd(NetworkSpec((1, 2), "none"), data, steps=2, lr=lr, seed=0)


# integer arguments outside the estimators (tests/test_estimators.py has theirs):
# each refuses a float, a bool or a string by name, before any work
HARNESS_INTEGER_ARGS = {
    "SyntheticTask.n_samples": lambda v: SyntheticTask("blobs", n_samples=v, seed=0),  # 2.5 reached numpy
    "SyntheticTask.seed": lambda v: SyntheticTask("blobs", n_samples=2, seed=v),
    "SyntheticTask.dim": lambda v: SyntheticTask("blobs", n_samples=2, seed=0, dim=v),
    "SyntheticTask.n_classes": lambda v: SyntheticTask("blobs", n_samples=2, seed=0, n_classes=v),
    "train_sgd.steps": lambda v: train_sgd(NetworkSpec((1, 2), "none"), (np.ones((2, 1)), [0, 1]), v, 0.1, seed=0),
    "train_sgd.seed": lambda v: train_sgd(NetworkSpec((1, 2), "none"), (np.ones((2, 1)), [0, 1]), 1, 0.1, seed=v),
    "NetworkSpec.layer_sizes[0]": lambda v: NetworkSpec((v, 3), "none"),  # (2.7, 3) became (2, 3)
    "BenchConfig.batch_size": lambda v: BenchConfig(batch_size=v),
    "BenchConfig.n_batches": lambda v: BenchConfig(n_batches=v),
    "BenchConfig.seed": lambda v: BenchConfig(seed=v),
    "cv_demo.m": lambda v: cv_demo(12.0, m=v, trials=2, rng=np.random.default_rng(0)),
    "cv_demo.trials": lambda v: cv_demo(12.0, m=2, trials=v, rng=np.random.default_rng(0)),
}


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0), "2"])
@pytest.mark.parametrize("entry", list(HARNESS_INTEGER_ARGS))
def test_harness_integer_arguments_fail_by_name(monkeypatch, entry, value):
    call = HARNESS_INTEGER_ARGS[entry]
    monkeypatch.setattr(harness, "IMPORTANCE_SAMPLES", 10)  # cv_demo's million draws
    call(np.int64(2))  # any integer type runs
    name = entry.split(".")[1]

    def refuse(*args, **kwargs):
        raise AssertionError("no work may start before the arguments are checked")

    monkeypatch.setattr(harness, "init_params", refuse)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer, got {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name", est.PROBE_VARIANTS)
def test_every_probe_name_runs_through_bench(name):
    net, theta, X, labels = bench_setup()
    rows = run_bench(net, theta, X, labels, BenchConfig(batch_size=16, n_batches=2, seed=5))
    row = next(r for r in rows if r.estimator == name)
    assert row.backward_passes == 2  # one probe per batch
    assert np.isfinite(row.relmae)
