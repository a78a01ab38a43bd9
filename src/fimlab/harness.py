"""Synthetic tasks, a small trainer, and the estimator evaluation protocol.

Tasks are Gaussian class blobs, labeled by their generating class.  The
trainer is plain full-batch gradient descent on the mean cross-entropy,
deterministic given the task seed.  Evaluation compares diagonal FIM
estimates against the exact diagonal via the relative mean absolute error
RelMAE = mean_i |est_ii - F_ii| / (F_ii + eps), batch by batch with one
fresh probe per batch, and counts each estimator's backward passes; wall
time is the layered benchmark's to measure (perfbench/).

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
from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .autodiff import _check_int, gather, gradient, log_softmax, scale, total
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
RELMAE_EPS = 1e-12  # the RelMAE stabilizer
HISTOGRAM_BINS = 50
PROPOSAL_NU = 0.5  # degrees of freedom of cv_demo's Student-t proposal
IMPORTANCE_SAMPLES = 10**6  # cv_demo's draws from that proposal
GENERATORS = ("blobs",)  # the one tuple of task generators


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class SyntheticTask:
    """Reproducible synthetic dataset description."""

    generator: str  # "blobs"
    n_samples: int
    seed: int
    dim: int = 2
    n_classes: int = 2
    separation: float = 2.0

    def __post_init__(self):
        if self.generator not in GENERATORS:
            raise ValueError(f"unknown generator {self.generator!r}")
        for name, least in (("n_samples", 1), ("seed", 0), ("dim", 1), ("n_classes", 2)):
            if _check_int(getattr(self, name), name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)!r}")
        if not 0 <= self.separation < math.inf:  # 0 puts every class mean at the origin
            raise ValueError(f"separation must be finite and nonnegative, got {self.separation!r}")


def gen_task(task: SyntheticTask) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic labeled dataset for a task spec.

    Blob class means are i.i.d. Gaussian rescaled so the closest pair of
    means sits exactly `separation` apart (unit-variance noise per class), so
    the separation knob bounds class overlap instead of just the radius.
    """
    rng = np.random.default_rng(task.seed)
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


def train_sgd(net: NetworkSpec, data: tuple, steps: int, lr: float, seed: int) -> TrainResult:
    """Full-batch gradient descent on mean cross-entropy over data = (X, labels),
    from the initialization seeded by `seed`.

    steps=0 returns that initialization untouched: the random-head regime.
    steps and seed must be integers, X finite and, when steps > 0, lr
    finite and positive: each is refused by name before any work.  Raises
    TrainingDiverged, and warns of no overflow, if the loss stops being finite.
    """
    steps = _check_int(steps, "steps")
    seed = _check_int(seed, "seed")  # None would train from an unseeded init
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps > 0 and not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr!r}")
    X, labels = data
    if labels is None:
        raise ValueError("training needs labels")
    X = np.asarray(X, dtype=np.float64)
    est._check_finite(X, "X")
    labels = est._check_labels(labels, X.shape[0], net.n_classes)
    theta = init_params(net, np.random.default_rng(seed))
    losses = np.empty(steps)
    B = X.shape[0]
    # an overflow either saturates a tanh or makes the loss non-finite, which is
    # checked each step; the estimators refuse a non-finite theta.  The errstate
    # wraps the whole loop: entering one per step slows every step.
    with np.errstate(over="ignore", invalid="ignore"):
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


def relmae(estimate: est.FimEstimate, truth: est.FimEstimate) -> float:
    """Relative mean absolute error of a diagonal estimate against truth.

    mean_i |est_ii - F_ii| / (F_ii + RELMAE_EPS).  Both estimates must be
    diagonal, equal-dimensional, and carry the same sum/mean normalization
    flag.
    """
    if estimate.storage != "diagonal" or truth.storage != "diagonal":
        raise ValueError("RelMAE compares diagonal estimates")
    if estimate.dim != truth.dim:
        raise ValueError("dimension mismatch")
    if estimate.normalization != truth.normalization:
        raise ValueError(f"normalization mismatch: {estimate.normalization} vs {truth.normalization}")
    return float(np.mean(np.abs(estimate.values - truth.values) / (truth.values + RELMAE_EPS)))


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


def cv_demo(nu: float, m: int, trials: int, rng: np.random.Generator) -> CvReport:
    """Simulate the scalar Monte Carlo FIM estimate under Student-t inputs.

    Each trial draws m inputs and forms (1/4m) sum x^2; the report gives the
    empirical CV over trials next to sqrt((r-1)/m) where r = E(x^4)/E(x^2)^2.
    The estimator variance needs nu > 4, and the importance check needs
    nu > 4 + PROPOSAL_NU / 2 = 4.25 (see below); a smaller nu is refused.
    So is a nu above 1e6, NaN or infinity: the importance weights' log
    normalizer lgamma((nu+1)/2) - lgamma(nu/2) cancels, with an error of
    about eps (nu/2) ln(nu/2), 5e-10 at 1e6 and 2e-4 at 1e12.
    """
    limit, top = 4.0 + PROPOSAL_NU / 2.0, 1e6
    if nu <= limit:
        raise ValueError(f"nu must exceed {limit:g}: at or below it the importance check under the "
                         f"Student-t proposal with {PROPOSAL_NU:g} degrees of freedom has infinite variance")
    if not nu <= top:
        raise ValueError(f"nu must be at most {top:g}, got {nu!r}: above it the Student-t log normalizer "
                         "lgamma((nu+1)/2) - lgamma(nu/2) loses its digits")
    m, trials = _check_int(m, "m"), _check_int(trials, "trials")
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
    # x^8 f(x)^2 / q(x) falls like |x|^(7 + PROPOSAL_NU - 2 nu), so it stays
    # integrable for nu > 4 + PROPOSAL_NU / 2, the limit checked above, giving
    # finite-variance estimates of both moments from the same weighted draws.
    u = rng.standard_t(PROPOSAL_NU, size=IMPORTANCE_SAMPLES)
    w = np.exp(_t_logpdf(u, nu) - _t_logpdf(u, PROPOSAL_NU))
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

    bin_edges: np.ndarray  # length HISTOGRAM_BINS + 1, positive, increasing
    counts: np.ndarray  # length HISTOGRAM_BINS
    zero_atom: int  # entries at (numerical) zero
    zeta: float  # zero_atom / total
    mean: float  # over all entries, zeros included
    median: float  # of strictly positive entries (nan if none)
    p95: float  # of strictly positive entries (nan if none)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + self.zero_atom


def histogram(estimate: est.FimEstimate) -> HistogramReport:
    """Bin a diagonal estimate on a log10 axis, counting zeros separately.

    Entries at or below 1e-300 land in the zero atom.  HISTOGRAM_BINS bins
    span the observed positive range; a degenerate single-value range widens
    by half a decade on each side so the histogram stays well-formed.  A NaN
    or infinity in the estimate raises ValueError.
    """
    if estimate.storage != "diagonal":
        raise ValueError("histograms need diagonal storage")
    values = estimate.values
    if not np.isfinite(values).all():  # a NaN would count as a zero, an infinity span no bins
        raise ValueError("the estimate has a non-finite entry (NaN or infinity)")
    positive = values[values > ZERO_ATOM_THRESHOLD]
    zero_atom = int(values.size - positive.size)
    if positive.size == 0:
        edges = np.logspace(-300.0, -299.0, HISTOGRAM_BINS + 1)
        return HistogramReport(
            bin_edges=edges,
            counts=np.zeros(HISTOGRAM_BINS, dtype=np.int64),
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
    edges = np.logspace(lo, hi, HISTOGRAM_BINS + 1)
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
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "n_batches", "seed"):
            _check_int(getattr(self, name), name)
        if self.batch_size < 1 or self.n_batches < 1:
            raise ValueError("batch size and batch count must be positive")


@dataclass
class BenchRow:
    estimator: str
    relmae: float
    backward_passes: int


def _check_sample_count(n_samples: int, cfg: BenchConfig, where: str = "") -> int:
    """batch_size * n_batches, once n_samples covers it; else ValueError naming the three after `where`."""
    needed = cfg.batch_size * cfg.n_batches
    if n_samples < needed:
        raise ValueError(f"{where}n_samples = {n_samples} is below batch_size * n_batches = "
                         f"{cfg.batch_size} * {cfg.n_batches} = {needed}")
    return needed


def _batches(X, labels, cfg: BenchConfig):
    for j in range(cfg.n_batches):
        sel = slice(j * cfg.batch_size, (j + 1) * cfg.batch_size)
        yield X[sel], labels[sel]


def run_bench(net: NetworkSpec, theta, X, labels, cfg: BenchConfig) -> list[BenchRow]:
    """RelMAE and backward passes of each bench estimator on a batched dataset.

    Ground truth is the exact diagonal FIM summed over all batches.  The
    rows are the empirical FIM, the baseline, then each probe name of
    estimators.PROBE_VARIANTS in order.  Probe estimators draw one fresh
    probe per batch from a per-batch child seed, so the whole table is
    reproducible from (config, seed).
    """
    X = np.asarray(X, dtype=np.float64)
    needed = _check_sample_count(X.shape[0], cfg)
    if labels is None:
        raise ValueError("the empirical FIM needs labels")
    X = X[:needed]
    labels = est._check_labels(np.asarray(labels)[:needed], needed, net.n_classes)
    names = ["efim", *est.PROBE_VARIANTS]

    truth = np.zeros(net.dim)
    for xb, _ in _batches(X, labels, cfg):
        truth += est.exact_fim_definition(net, theta, xb, storage="diagonal").values
    truth_est = est.FimEstimate("exact_def", "diagonal", truth, "sum", {})

    rows = []
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(names))
    for name, seq in zip(names, seeds):
        batch_rngs = [np.random.default_rng(s) for s in seq.spawn(cfg.n_batches)]
        diag = np.zeros(net.dim)
        passes = 0
        for (xb, yb), rng in zip(_batches(X, labels, cfg), batch_rngs):
            if name == "efim":
                part = est.efim(net, theta, xb, yb, storage="diagonal")
            else:
                part = est.hutchinson_fim(
                    net, theta, xb, est.PROBE_VARIANTS[name], rng=rng, storage="diagonal"
                )
            passes += part.meta["backward_passes"]
            diag += part.values
        combined = est.FimEstimate(name, "diagonal", diag, "sum", {"seed": cfg.seed})
        rows.append(BenchRow(name, relmae(combined, truth_est), passes))
    return rows
