"""Synthetic tasks, a small trainer, and the estimator evaluation protocol.

Tasks are Gaussian class blobs (supervised, labels from the generating
class) or heavy-tailed scalar inputs from a Student-t distribution.  The
trainer is plain full-batch gradient descent on the mean cross-entropy,
deterministic given the task seed.  Evaluation compares diagonal FIM
estimates against the exact diagonal via the relative mean absolute error
RelMAE = mean_i |est_ii - F_ii| / (F_ii + eps), batch by batch with one
fresh probe per batch, and reports wall-clock speed relative to the
empirical FIM.

The coefficient-of-variation demo simulates the naive scalar Monte Carlo
estimate (1/4m) sum x^2 under Student-t inputs: its CV scales with
sqrt(E(x^4)/E(x^2)^2 - 1), and the moment ratio 3(nu-2)/(nu-4) blows up as
nu approaches 4.  Because the naive 4th-moment average itself has unusable
variance near nu = 4, the demo verifies the ratio with an unbiased
importance-sampling estimate under a heavier-tailed proposal, and reports
the naive estimate alongside for contrast.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .autodiff import gather, gradient, log_softmax, scale, total
from .network import NetworkSpec, forward_logits, init_params

__all__ = [
    "SyntheticTask",
    "BenchConfig",
    "BenchRow",
    "HistogramReport",
    "TrainResult",
    "TrainingDiverged",
    "CvReport",
    "gen_task",
    "train_sgd",
    "relmae",
    "cv_demo",
    "histogram",
    "run_bench",
]

ZERO_ATOM_THRESHOLD = 1e-300


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class SyntheticTask:
    """Reproducible synthetic dataset description."""

    generator: str  # "blobs" | "student_t"
    n_samples: int
    seed: int
    dim: int = 2
    n_classes: int = 2
    separation: float = 2.0
    nu: float = 5.0

    def __post_init__(self):
        if self.generator not in ("blobs", "student_t"):
            raise ValueError(f"unknown generator {self.generator!r}")
        if self.n_samples < 1:
            raise ValueError("need at least one sample")
        if self.generator == "blobs" and (self.dim < 1 or self.n_classes < 2):
            raise ValueError("blobs need dim >= 1 and at least 2 classes")
        if self.generator == "student_t" and self.nu <= 0:
            raise ValueError("degrees of freedom must be positive")


def gen_task(task: SyntheticTask) -> tuple[np.ndarray, np.ndarray | None]:
    """Deterministic dataset for a task spec; blobs come labeled.

    Blob class means are i.i.d. Gaussian rescaled so the closest pair of
    means sits exactly `separation` apart (unit-variance noise per class), so
    the separation knob bounds class overlap instead of just the radius.
    """
    rng = np.random.default_rng(task.seed)
    if task.generator == "student_t":
        X = rng.standard_t(task.nu, size=(task.n_samples, 1))
        return X, None
    means = rng.normal(size=(task.n_classes, task.dim))
    gaps = [
        np.linalg.norm(means[i] - means[j])
        for i in range(task.n_classes)
        for j in range(i + 1, task.n_classes)
    ]
    means *= task.separation / max(min(gaps), 1e-12)
    labels = rng.integers(task.n_classes, size=task.n_samples)
    X = means[labels] + rng.normal(size=(task.n_samples, task.dim))
    return X, labels


@dataclass
class TrainResult:
    theta: np.ndarray
    losses: np.ndarray  # mean cross-entropy per step, length = steps


def train_sgd(
    net: NetworkSpec,
    task: SyntheticTask | tuple,
    steps: int,
    lr: float,
    seed: int | None = None,
) -> TrainResult:
    """Full-batch gradient descent on mean cross-entropy.

    steps=0 returns the (seeded) initialization untouched: the random-head
    regime.  Raises TrainingDiverged if the loss stops being finite.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if isinstance(task, SyntheticTask):
        X, labels = gen_task(task)
        seed = task.seed if seed is None else seed
    else:
        X, labels = task
        if seed is None:
            raise ValueError("an explicit seed is needed with a raw dataset")
    if labels is None:
        raise ValueError("training needs labels")
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    theta = init_params(net, np.random.default_rng(seed))
    losses = np.empty(steps)
    B = X.shape[0]
    for t in range(steps):
        logits = forward_logits(net, theta, X)
        lsm = log_softmax(logits)
        loss = scale(total(gather(lsm, labels)), -1.0 / B)
        value = float(loss.data)
        if not math.isfinite(value):
            raise TrainingDiverged(f"loss became {value} at step {t}")
        losses[t] = value
        theta = theta - lr * gradient(loss)
    return TrainResult(theta=theta, losses=losses)


def accuracy(net: NetworkSpec, theta, X, labels) -> float:
    logits = forward_logits(net, theta, X).data
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def relmae(estimate: est.FimEstimate, truth: est.FimEstimate, eps: float = 1e-12) -> float:
    """Relative mean absolute error of a diagonal estimate against truth.

    mean_i |est_ii - F_ii| / (F_ii + eps).  Both estimates must be diagonal,
    equal-dimensional, and carry the same sum/mean normalization flag.
    """
    if eps <= 0:
        raise ValueError("the stabilizer must be positive")
    if estimate.storage != "diagonal" or truth.storage != "diagonal":
        raise ValueError("RelMAE compares diagonal estimates")
    if estimate.dim != truth.dim:
        raise ValueError("dimension mismatch")
    if estimate.normalization != truth.normalization:
        raise ValueError(
            f"normalization mismatch: {estimate.normalization} vs {truth.normalization}"
        )
    return float(np.mean(np.abs(estimate.values - truth.values) / (truth.values + eps)))


# --- Student-t coefficient-of-variation pathology ---------------------------


def _t_logpdf(x: np.ndarray, nu: float) -> np.ndarray:
    return (
        math.lgamma((nu + 1.0) / 2.0)
        - math.lgamma(nu / 2.0)
        - 0.5 * math.log(nu * math.pi)
        - (nu + 1.0) / 2.0 * np.log1p(x * x / nu)
    )


@dataclass
class CvReport:
    nu: float
    m: int
    trials: int
    ratio_formula: float  # 3(nu-2)/(nu-4)
    ratio_naive: float  # plain moment ratio over the pooled draws
    ratio_importance: float  # unbiased importance-sampling verification
    cv_empirical: float  # Std/mean of the simulated estimator
    cv_predicted: float  # sqrt((ratio - 1)/m)


def cv_demo(
    nu: float,
    m: int,
    trials: int,
    rng: np.random.Generator,
    importance_samples: int = 10**6,
    proposal_nu: float = 0.5,
) -> CvReport:
    """Simulate the scalar Monte Carlo FIM estimate under Student-t inputs.

    Each trial draws m inputs and forms (1/4m) sum x^2; the report gives the
    empirical CV over trials next to sqrt((r-1)/m) where r = E(x^4)/E(x^2)^2.
    Needs nu > 4 or the estimator variance does not exist.
    """
    if nu <= 4:
        raise ValueError("the fourth moment requires nu > 4")
    if m < 1 or trials < 1:
        raise ValueError("need at least one draw and one trial")
    ratio_formula = 3.0 * (nu - 2.0) / (nu - 4.0)

    draws = rng.standard_t(nu, size=(trials, m))
    estimates = np.mean(draws**2, axis=1) / 4.0
    cv_empirical = float(np.std(estimates, ddof=1) / np.mean(estimates)) if trials > 1 else float("nan")
    pooled = draws.ravel()
    ratio_naive = float(np.mean(pooled**4) / np.mean(pooled**2) ** 2)

    # The naive ratio has infinite estimator variance for nu <= 8, so verify
    # the formula by importance sampling under a much heavier-tailed proposal:
    # x^8 f(x)^2 / q(x) stays integrable, giving finite-variance estimates of
    # both moments from the same weighted draws.
    u = rng.standard_t(proposal_nu, size=importance_samples)
    w = np.exp(_t_logpdf(u, nu) - _t_logpdf(u, proposal_nu))
    m4 = float(np.mean(u**4 * w))
    m2 = float(np.mean(u**2 * w))
    ratio_importance = m4 / m2**2

    return CvReport(
        nu=nu,
        m=m,
        trials=trials,
        ratio_formula=ratio_formula,
        ratio_naive=ratio_naive,
        ratio_importance=ratio_importance,
        cv_empirical=cv_empirical,
        cv_predicted=math.sqrt((ratio_formula - 1.0) / m),
    )


# --- diagonal histograms -----------------------------------------------------


@dataclass
class HistogramReport:
    """Log-axis histogram of diagonal entries with an explicit zero atom."""

    bin_edges: np.ndarray  # length n_bins + 1, positive, increasing
    counts: np.ndarray  # length n_bins
    zero_atom: int  # entries at (numerical) zero
    zeta: float  # zero_atom / total
    mean: float  # over all entries, zeros included
    median: float  # of strictly positive entries (nan if none)
    p95: float  # of strictly positive entries (nan if none)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.zero_atom


def histogram(estimate: est.FimEstimate, n_bins: int = 50) -> HistogramReport:
    """Bin a diagonal estimate on a log10 axis, counting zeros separately.

    Entries at or below 1e-300 land in the zero atom.  Bins span the observed
    positive range; a degenerate single-value range widens by half a decade
    on each side so the histogram stays well-formed.
    """
    if estimate.storage != "diagonal":
        raise ValueError("histograms need diagonal storage")
    values = estimate.values
    positive = values[values > ZERO_ATOM_THRESHOLD]
    zero_atom = int(values.size - positive.size)
    if positive.size == 0:
        edges = np.logspace(-300.0, -299.0, n_bins + 1)
        return HistogramReport(
            bin_edges=edges,
            counts=np.zeros(n_bins, dtype=np.int64),
            zero_atom=zero_atom,
            zeta=1.0 if values.size else float("nan"),
            mean=float(values.mean()) if values.size else float("nan"),
            median=float("nan"),
            p95=float("nan"),
        )
    lo = math.log10(float(positive.min()))
    hi = math.log10(float(positive.max()))
    if hi - lo < 1e-12:
        lo -= 0.5
        hi += 0.5
    edges = np.logspace(lo, hi, n_bins + 1)
    edges[0] = min(edges[0], float(positive.min()))  # guard round-off at ends
    edges[-1] = max(edges[-1], float(positive.max()))
    counts, _ = np.histogram(positive, bins=edges)
    return HistogramReport(
        bin_edges=edges,
        counts=counts.astype(np.int64),
        zero_atom=zero_atom,
        zeta=zero_atom / values.size,
        mean=float(values.mean()),
        median=float(np.median(positive)),
        p95=float(np.percentile(positive, 95)),
    )


# --- batch benchmark ----------------------------------------------------------


@dataclass(frozen=True)
class BenchConfig:
    """Batch protocol for comparing diagonal estimators against exact truth."""

    batch_size: int = 64
    n_batches: int = 8
    estimators: tuple[str, ...] = ("efim", *est.PROBE_VARIANTS)
    epsilon: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.n_batches < 1:
            raise ValueError("batch size and batch count must be positive")
        if self.epsilon <= 0:
            raise ValueError("the stabilizer must be positive")


@dataclass
class BenchRow:
    estimator: str
    relmae: float
    seconds: float
    speedup_vs_efim: float
    backward_passes: int


def _batches(X, labels, cfg: BenchConfig):
    for j in range(cfg.n_batches):
        sel = slice(j * cfg.batch_size, (j + 1) * cfg.batch_size)
        yield X[sel], (labels[sel] if labels is not None else None)


def run_bench(net: NetworkSpec, theta, X, labels, cfg: BenchConfig) -> list[BenchRow]:
    """RelMAE and speed of each configured estimator on a batched dataset.

    Ground truth is the exact diagonal FIM summed over all batches.  Probe
    estimators draw one fresh probe per batch from a per-batch child seed, so
    the whole table is reproducible from (config, seed).  Speed is normalized
    to the empirical FIM, which is also always timed.  Each configured name
    is "efim" or a probe name of estimators.PROBE_VARIANTS; others are rejected.
    """
    X = np.asarray(X, dtype=np.float64)
    needed = cfg.batch_size * cfg.n_batches
    if X.shape[0] < needed:
        raise ValueError(f"need {needed} samples, got {X.shape[0]}")
    X = X[:needed]
    labels = np.asarray(labels, dtype=np.intp)[:needed] if labels is not None else None
    names = list(dict.fromkeys(["efim", *cfg.estimators]))
    for name in names:
        if name != "efim" and name not in est.PROBE_VARIANTS:
            raise ValueError(f"unknown bench estimator {name!r}")

    truth = np.zeros(net.dim)
    for xb, _ in _batches(X, labels, cfg):
        truth += est.exact_fim_definition(net, theta, xb, storage="diagonal").values
    truth_est = est.FimEstimate("exact_def", "diagonal", truth, "sum", {})

    timings: dict[str, float] = {}
    rows: dict[str, BenchRow] = {}
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(names))
    for name, seq in zip(names, seeds):
        batch_rngs = [np.random.default_rng(s) for s in seq.spawn(cfg.n_batches)]
        diag = np.zeros(net.dim)
        passes = 0
        start = time.perf_counter()
        for (xb, yb), rng in zip(_batches(X, labels, cfg), batch_rngs):
            if name == "efim":
                if yb is None:
                    raise ValueError("the empirical FIM needs labels")
                part = est.efim(net, theta, xb, yb, storage="diagonal")
                passes += xb.shape[0]
            else:
                part = est.hutchinson_fim(
                    net, theta, xb, est.PROBE_VARIANTS[name], rng=rng, storage="diagonal"
                )
                passes += part.meta["backward_passes"]
            diag += part.values
        elapsed = time.perf_counter() - start
        timings[name] = elapsed
        combined = est.FimEstimate(name, "diagonal", diag, "sum", {"seed": cfg.seed})
        rows[name] = BenchRow(
            estimator=name,
            relmae=relmae(combined, truth_est, cfg.epsilon),
            seconds=elapsed,
            speedup_vs_efim=0.0,
            backward_passes=passes,
        )
    base = timings["efim"]
    for row in rows.values():
        row.speedup_vs_efim = base / row.seconds if row.seconds > 0 else float("inf")
    return list(rows.values())
