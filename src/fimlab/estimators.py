"""Fisher information estimators for classifier networks.

Ground truth comes in two independently computed forms: the defining sum
sum_x sum_y p(y|x) (dl/dtheta)(dl/dtheta)^T, and the pullback form
sum_x J^T (diag(p) - p p^T) J through the per-sample Jacobian.  Alongside
them: the empirical FIM at observed labels, the label-resampling Monte Carlo
estimate, and a family of single-backward-pass probe estimators.  Every
per-sample row (Jacobian, score, efim or Monte Carlo row) comes from one
routine, `_sample_sweeps`: one batched forward per call (logits or
log-softmax), checked once and viewed one row per sample by `autodiff.rows`;
one reverse sweep per one-hot seed (every class, or one given class) adds
no node to the tape.  The Monte Carlo estimate takes all its draws first,
x then y per draw, from one batched forward pass, and then sweeps the drawn
rows of that same forward.

Each probe variant writes its C x C core once (`_core`), as weights w (B, r)
and output-space rows m_r with core = sum_r w_r m_r m_r^T: w = p with rows
e_y - p (full and sqrt), w = p with rows e_y (diag), or the top-k
eigenpairs of diag(p) - p p^T (lowrank).  One pipeline
(`_probe_gradients`) serves the probe gradient, the probe estimate and the
empirical variance: one forward pass and one core per call, then one reverse
sweep per probe, seeded at the logits with M^T (sqrt(w) xi) for random signs
(or Gaussians) xi.  The weights come off the tape from the forward values,
so a probe gradient g needs no stop-gradient and no clamp; E[g g^T] =
sum_x J_x^T core_x J_x, and g . g is unbiased for its trace.  The paper's
sqrt-probe scalar 2 sum_y sqrt(p_y) xi_y is the full core under another
name, because d(2 sqrt(p_y))/dz = sqrt(p_y) (e_y - p): its logit gradient
sum_y xi_y sqrt(p_y) (e_y - p) is the full core's seed, so
`variant="sqrt"` gives bitwise the full variant's outputs (kind hutch_sqrt)
and is no estimator name of its own.  The same rows R = M J give the exact
pullback and both Loewner bounds (one Gram product sum w R R^T each) and
the closed-form variances (sums of w R^2 and w^2 R^4).  PROBE_VARIANTS,
STORAGES and PROBE_DISTS are the one table of each set of names; the CLI
and the bench harness accept exactly those.

Every estimate but the pullback is a weighted sum of score outer products,
sum_i w_i g_i g_i^T = G^T diag(w) G (`_gram`).  A sum of one row (one
probe, one `efim` sample, one Monte Carlo draw) is written once as the
outer product w g g^T (diagonal: w g*g).  Longer sums stream their rows
into a block of at most GRAM_BLOCK_FLOATS floats, and each block is added
by one Gram product G^T diag(w) G (for diagonal storage its diagonal,
w . (G * G)).  Weights: p(y|x) for the definition, 1 for the empirical FIM,
1/m for the Monte Carlo estimate and 1/n_probes for the probe average.

Sum-vs-mean conventions are explicit: exact, empirical and probe estimators
sum over the dataset, the Monte Carlo estimator averages over uniformly
resampled inputs, and every estimate carries a `normalization` flag so the
two can never be compared silently.  Each estimate records the backward
passes counted on its tapes in meta["backward_passes"].  The estimators,
the closed-form variances and the bounds all take their input through one
boundary, `_checked_forward`, which refuses bad input by name in one order
and then runs the one forward, refusing logits that overflow.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .network import NetworkSpec, forward_logits, softmax
from .simplex import _canonical_sign, simplex_matrix, top_eigenpair

__all__ = [
    "DENSE_DIM_CAP",
    "FimEstimate",
    "ProbeVector",
    "VarianceReport",
    "exact_fim_definition",
    "exact_fim_pullback",
    "efim",
    "mc_fim",
    "sample_probe",
    "hutchinson_fim",
    "hutchinson_gradient",
    "variance_closed_form",
    "empirical_probe_variance",
    "save_estimate",
    "load_estimate",
    "read_header",
]

DENSE_DIM_CAP = 4096
# float64 entries in the block of gradient rows that one Gram product adds up (8 MB)
GRAM_BLOCK_FLOATS = 2**20

# probe estimator name -> hutchinson_fim variant; estimates are kind "hutch_<variant>".
# The probe functions also take "sqrt", the full core under its own kind (module docstring).
PROBE_VARIANTS = {"hutch": "full", "hutch_diag": "diag", "hutch_lowrank": "lowrank"}
HUTCH_KINDS = {variant: f"hutch_{variant}" for variant in (*PROBE_VARIANTS.values(), "sqrt")}
# the one tuple each of estimate storages and probe distributions; the CLI offers these
STORAGES = ("diagonal", "dense")
PROBE_DISTS = ("rademacher", "gaussian")

# estimate files: version of the header written by save_estimate, and payload dtype
ESTIMATE_FORMAT = 1
PAYLOAD_DTYPE = np.dtype("<f8")


@dataclass
class FimEstimate:
    """A dense or diagonal FIM estimate plus estimator metadata."""

    kind: str
    storage: str  # "dense" | "diagonal"
    values: np.ndarray
    normalization: str  # "sum" | "mean"
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.storage not in STORAGES:
            raise ValueError(f"unknown storage {self.storage!r}")
        if self.normalization not in ("sum", "mean"):
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.storage == "dense" and (
            self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]
        ):
            raise ValueError("dense storage needs a square matrix")
        if self.storage == "diagonal" and self.values.ndim != 1:
            raise ValueError("diagonal storage needs a vector")

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def diagonal(self) -> np.ndarray:
        return np.diag(self.values) if self.storage == "dense" else self.values


@dataclass(frozen=True)
class ProbeVector:
    """Random sign/Gaussian probe, one entry per (sample, class) or (sample, rank)."""

    entries: np.ndarray
    dist: str  # "rademacher" | "gaussian"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if self.dist not in PROBE_DISTS:
            raise ValueError(f"unknown probe distribution {self.dist!r}")
        if self.dist == "rademacher" and not np.all(np.abs(e) == 1.0):
            raise ValueError("rademacher probe entries must be +-1")
        if self.dist == "gaussian" and not np.isfinite(e).all():
            raise ValueError("gaussian probe entries must be finite")
        object.__setattr__(self, "entries", e)


def sample_probe(shape, dist: str, rng: np.random.Generator) -> ProbeVector:
    """Fresh independent probe entries of the given shape."""
    if dist not in PROBE_DISTS:
        raise ValueError(f"unknown probe distribution {dist!r}")
    if dist == "rademacher":
        entries = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    else:
        entries = rng.normal(size=shape)
    return ProbeVector(entries=entries, dist=dist)


class _Forward(NamedTuple):
    X: np.ndarray  # (B, d) float64
    logits: ad.Value  # (B, C), every entry finite
    labels: np.ndarray | None  # (B,) intp, where given
    rank: int | None  # where given


def _checked_forward(net: NetworkSpec, theta, X, *, storage=None, rank=None, labels=None, before=None) -> _Forward:
    """The one input boundary of the estimators, the variances and the bounds.

    Bad input raises ValueError naming it, in this order: fewer than 2
    classes, whose scores are all 0; an unknown storage, or a dense one above
    DENSE_DIM_CAP; a rank outside [1, C-1]; a NaN or infinity in theta, then
    in X, which would make the whole result NaN; labels that are not one
    integer in [0, C) per row.  `before(X, rank)` then does what the caller
    alone must do before the forward.  The one forward runs under one
    errstate, and logits that overflow (theta 1e300 against X 1e10) are
    refused too.
    """
    C = net.n_classes
    if C < 2:
        raise ValueError("categorical estimators need at least 2 classes")
    if storage is not None and storage not in STORAGES:
        raise ValueError(f"unknown storage {storage!r}")
    if storage == "dense" and net.dim > DENSE_DIM_CAP:
        raise ValueError(f"dense storage capped at dim {DENSE_DIM_CAP}, got {net.dim}")
    if rank is not None:
        rank = ad._check_int(rank, "k")
        if not 1 <= rank <= C - 1:
            raise ValueError(f"rank parameter must be in [1, {C - 1}], got {rank}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    _check_finite(theta, "theta")
    _check_finite(X, "X")
    if labels is not None:
        labels = _check_labels(labels, X.shape[0], C)
    if before is not None:
        before(X, rank)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = forward_logits(net, theta, X)
    if not np.isfinite(logits.data).all():
        raise ValueError("the logits have a non-finite entry (NaN or infinity): "
                         "the forward pass of this finite theta and X overflows")
    return _Forward(X, logits, labels, rank)


def _check_finite(values, name: str) -> None:
    if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
        raise ValueError(f"{name} has a non-finite entry (NaN or infinity)")


def _check_labels(labels, n_samples: int, C: int) -> np.ndarray:
    """The labels as intp, once they are n_samples integers in [0, C); 0.7 is refused, not cut to 0."""
    y = np.asarray(labels)
    if y.shape != (n_samples,):
        raise ValueError("need exactly one label per sample")
    ad._check_integral(y, "label")
    if np.any(y < 0) or np.any(y >= C):
        raise ValueError("label out of range")
    return y.astype(np.intp)


def _gram(rows, n_rows: int, dim: int, storage: str) -> np.ndarray:
    """sum of w g g^T (dense) or w g*g (diagonal) over the (w, g) pairs of `rows`.

    One row (one probe, one `efim` sample, one Monte Carlo draw) is its own
    term, written once: outer(w g, g), or w g*g.  Each entry rounds once, as
    the blocked sum's product does, so the values are the same bits; only an
    off-diagonal -0.0 (from a zero coordinate of g) is no longer turned into
    +0.0 by an add.  More rows are copied into a block of
    min(n_rows, GRAM_BLOCK_FLOATS // dim) rows, and each block is added into
    one zero-initialised accumulator by a single product: G^T diag(w) G, or
    w . (G * G) for the diagonal.  A lone block of several rows is added too
    rather than returned: returning the product itself made the large fresh
    arrays of the call after it slower to fill (`pullback_s` 1.27x on the
    benchmark's dense_2k workload, where `exact_def` sums 5 rows).
    """
    if n_rows == 1:
        ((w, g),) = rows  # drains the generator, so its pass counting completes
        return np.multiply.outer(w * g, g) if storage == "dense" else w * np.square(g)
    acc = np.zeros((dim, dim)) if storage == "dense" else np.zeros(dim)
    size = max(1, min(n_rows, GRAM_BLOCK_FLOATS // dim))
    w = np.empty(size)
    G = np.empty((size, dim))
    filled = 0
    for weight, g in rows:
        w[filled] = weight
        G[filled] = g
        filled += 1
        if filled == size:
            _add_block(acc, w, G, storage)
            filled = 0
    if filled:
        _add_block(acc, w[:filled], G[:filled], storage)
    return acc


def _add_block(acc: np.ndarray, w: np.ndarray, G: np.ndarray, storage: str) -> None:
    # np.dot, not @: same BLAS result, but faster on one-row blocks (dim x dim
    # outer products) and on small ones (less call overhead)
    if storage == "dense":
        acc += np.dot(G.T * w, G)
    else:
        acc += np.dot(w, np.square(G, out=G))  # the block is refilled after this


def _sample_sweeps(root: ad.Value, samples, classes=None):
    """Per sample b = samples[t] of the batched root: (its gradient rows, the backward
    passes on b's tape).

    Every per-sample row comes from here.  The root is the (B, C) logits or
    log-softmax of one batched forward pass; each sample sweeps its own row
    view of it (`ad.rows`), one reverse sweep per one-hot seed, for every
    class or for classes[t] alone.  A seed adds no node to the tape; the
    passes are read off the view's counter.
    """
    seeds = np.eye(root.data.shape[1])[:, None, :]  # seeds[y] is e_y for a (1, C) row
    for t, r in enumerate(ad.rows(root, samples)):
        if classes is None:
            rows = [ad.gradient(r, e) for e in seeds]
        else:
            rows = [ad.gradient(r, seeds[classes[t]])]
        yield rows, r.tape.backward_calls


def _jacobian_stack(net: NetworkSpec, theta, X, **checks) -> tuple[np.ndarray, _Forward, int]:
    """(J, forward, passes): J (B, C, dim) from the `_checked_forward` that the
    checks go to, that forward, and the backward passes on the tapes.  The
    pullback, the closed-form variances and the bounds all start here."""
    fwd = _checked_forward(net, theta, X, **checks)
    J = np.empty((fwd.X.shape[0], net.n_classes, net.dim))
    passes = 0
    for b, (rows, n) in enumerate(_sample_sweeps(fwd.logits, range(len(J)))):
        J[b] = rows
        passes += n
    return J, fwd, passes


def _score_gram(lsm: ad.Value, samples, n_rows: int, dim: int, storage: str, classes=None, weight=1.0):
    """(`_gram` of the scores of the samples, rows of the batched log-softmax lsm, and the backward
    passes on their tapes): with classes, one row of the given weight per sample; without, every
    class's row, weighted by p(y|x), the row of lsm's factor exp(lsm) that the forward formed."""
    passes = 0
    p = lsm.tape.nodes[lsm.idx].factor

    def rows():
        nonlocal passes
        for b, (G, n) in zip(samples, _sample_sweeps(lsm, samples, classes)):
            passes += n
            if classes is None:
                yield from zip(p[b], G)
            else:
                yield weight, G[0]

    acc = _gram(rows(), n_rows, dim, storage)
    return acc, passes


def exact_fim_definition(net: NetworkSpec, theta, X, storage: str = "dense") -> FimEstimate:
    """Ground truth by the definition: sum_x sum_y p(y|x) g_xy g_xy^T."""
    X, logits, _, _ = _checked_forward(net, theta, X, storage=storage)
    lsm = ad.log_softmax(logits)
    acc, passes = _score_gram(lsm, range(X.shape[0]), X.shape[0] * net.n_classes, net.dim, storage)
    meta = {"n_samples": X.shape[0], "backward_passes": passes}
    return FimEstimate("exact_def", storage, acc, "sum", meta)


def exact_fim_pullback(net: NetworkSpec, theta, X, storage: str = "dense") -> FimEstimate:
    """Ground truth through the Jacobian: sum_x J^T (diag(p) - p p^T) J."""
    J, fwd, passes = _jacobian_stack(net, theta, X, storage=storage)
    acc = _core("full", fwd.logits.data).gram(J, storage)
    meta = {"n_samples": J.shape[0], "backward_passes": passes}
    return FimEstimate("exact_pullback", storage, acc, "sum", meta)


def efim(net: NetworkSpec, theta, X, labels, storage: str = "dense") -> FimEstimate:
    """Empirical FIM at observed labels: sum over (x, y) of g_xy g_xy^T."""
    if labels is None:
        raise ValueError("the empirical FIM needs labels")
    X, logits, labels, _ = _checked_forward(net, theta, X, storage=storage, labels=labels)
    lsm = ad.log_softmax(logits)
    acc, passes = _score_gram(lsm, range(X.shape[0]), X.shape[0], net.dim, storage, labels)
    meta = {"n_samples": X.shape[0], "backward_passes": passes}
    return FimEstimate("efim", storage, acc, "sum", meta)


def mc_fim(
    net: NetworkSpec, theta, X, m: int, rng: np.random.Generator, storage: str = "dense"
) -> FimEstimate:
    """Monte Carlo estimate: average of g g^T at x drawn uniformly, y ~ p(y|x).

    Mean-normalized: its expectation is the exact FIM divided by the number
    of samples in X.  Every draw is taken first, x then y per draw, from one
    batched forward pass; y inverts one cumulative sum per row of its
    probabilities, taken once for the batch.  Then each draw sweeps its row of
    that forward (`ad.rows`), so the m draws run no forward of their own and
    are never stacked.
    """
    m = ad._check_int(m, "m")
    if m < 1:
        raise ValueError("need at least one draw")
    if rng is None:
        raise ValueError("need an rng to draw x and y from")

    def before(X, _):
        if X.shape[0] == 0:
            raise ValueError("need at least one row of X to draw from")

    X, logits, _, _ = _checked_forward(net, theta, X, storage=storage, before=before)
    lsm = ad.log_softmax(logits)
    cdf = np.cumsum(lsm.tape.nodes[lsm.idx].factor, axis=1)  # of p = exp(lsm), formed with the forward
    top = cdf.shape[1] - 1  # a uniform at or above a row's rounded total takes the last label
    rows = np.empty(m, dtype=np.intp)
    labels = np.empty(m, dtype=np.intp)
    for t in range(m):
        rows[t] = b = rng.integers(X.shape[0])
        labels[t] = min(int(np.searchsorted(cdf[b], rng.uniform(), side="right")), top)
    acc, passes = _score_gram(lsm, rows, m, net.dim, storage, labels, 1.0 / m)
    meta = {"n_samples": X.shape[0], "probe_count": m, "backward_passes": passes}
    return FimEstimate("mc", storage, acc, "mean", meta)


def _check_probe_args(variant: str, eigen: str, dist: str) -> None:
    """Reject an unknown variant, eigenpair route or probe distribution, whatever the variant."""
    if eigen not in ("power", "full"):
        raise ValueError(f"unknown eigenpair route {eigen!r}; expected 'power' or 'full'")
    if variant not in HUTCH_KINDS:
        raise ValueError(f"unknown variant {variant!r}")
    if dist not in PROBE_DISTS:
        raise ValueError(f"unknown probe distribution {dist!r}")


def _eigen_route(eigen: str, k: int) -> str:
    """The route the low-rank eigenpairs take: "power" serves k = 1 only, "full" (eigh) any k."""
    return eigen if k == 1 else "full"


def _lowrank_eigenpairs(
    probs: np.ndarray, k: int, eigen: str, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of the simplex FIM per sample, (lams (B,k), vecs (B,k,C)): a
    power iteration per sample (route "power") or one batched eigh ("full")."""
    B, C = probs.shape
    if _eigen_route(eigen, k) == "power":
        lams = np.empty((B, 1))
        vecs = np.empty((B, 1, C))
        for b in range(B):
            lams[b, 0], vecs[b, 0] = top_eigenpair(probs[b], rng=rng)
        return lams, vecs
    w, V = np.linalg.eigh(simplex_matrix(probs))
    return w[:, C - k:], _canonical_sign(V[:, :, C - k:]).swapaxes(1, 2)


class _Core(NamedTuple):
    """A probe variant's C x C core per sample, sum_r w_r m_r m_r^T; M stacks the rows m_r."""

    w: np.ndarray  # (B, r) weights
    p: np.ndarray | None = None  # full: rows e_r - p
    V: np.ndarray | None = None  # lowrank: rows V[b] (k, C); with neither, rows e_r (diag)

    def rows(self, Y: np.ndarray) -> np.ndarray:
        """M Y (B, r, n) for a stack Y (B, C, n); the diagonal core's is Y itself."""
        if self.V is not None:
            return self.V @ Y
        return Y if self.p is None else Y - np.einsum("bc,bcd->bd", self.p, Y)[:, None, :]

    def logit_weights(self, c: np.ndarray) -> np.ndarray:
        """M^T c (B, C) for coefficients c (B, r)."""
        if self.V is not None:
            return np.einsum("bk,bkc->bc", c, self.V)
        return c if self.p is None else c - self.p * np.sum(c, axis=1, keepdims=True)

    def gram(self, J: np.ndarray, storage: str) -> np.ndarray:
        """sum over samples and rows of w R R^T with R = M J, or its diagonal."""
        R = self.rows(J).reshape(-1, J.shape[2])
        w = self.w.ravel()
        if storage == "dense":
            # two operands: U^T U on one buffer (U = sqrt(w) R) takes BLAS syrk, which
            # ran 2.7x slower on 10 rows at dim 2085 (2-core x86 VM, one BLAS thread)
            return (R.T * w) @ R
        return np.einsum("r,rd,rd->d", w, R, R)


def _core(variant: str, z: np.ndarray, *, k: int = 1, eigen: str = "full",
          rng: np.random.Generator | None = None) -> _Core:
    """The core of a probe variant at logits z (B, C); "sqrt" takes the full core.

    `eigen` is checked by the public callers (`_check_probe_args`), and k
    by `_checked_forward`.
    """
    p = softmax(z)
    if variant in ("full", "sqrt"):
        return _Core(p, p=p)
    if variant == "diag":
        return _Core(p)
    lams, V = _lowrank_eigenpairs(p, k, eigen, rng)
    return _Core(lams, V=V)


def _probe_gradients(net: NetworkSpec, theta, X, variant: str, n: int, probe: ProbeVector | None,
                     rng: np.random.Generator | None, dist: str, k: int, eigen: str, storage: str | None = None):
    """(tape, k, gradients): the checks, one forward pass and one core, then n probe
    gradients; k is the checked rank (an int) for the low-rank variant.

    The first probe (or the given one) is taken before the forward and the
    core, whose power route draws from the same rng (so that route needs an
    rng even with a given probe); later probes are drawn as the generator
    runs.  Each gradient is one reverse sweep of the one tape, seeded at the
    logits with M^T (sqrt(w) xi) from the core.
    """
    _check_probe_args(variant, eigen, dist)
    lowrank = variant == "lowrank"

    def before(X, k):
        nonlocal probe
        shape = (X.shape[0], k if lowrank else net.n_classes)
        if probe is None:
            if rng is None:
                raise ValueError("need a probe or an rng to draw one")
            probe = sample_probe(shape, dist, rng)
        if probe.entries.shape != shape:
            raise ValueError(f"probe shape {probe.entries.shape} != expected {shape}")
        if rng is None and lowrank and _eigen_route(eigen, k) == "power":
            raise ValueError("the k = 1 power route draws its start vectors from rng; pass rng")

    _, logits, _, k = _checked_forward(net, theta, X, storage=storage, rank=k if lowrank else None, before=before)
    core = _core(variant, logits.data, k=k, eigen=eigen, rng=rng)
    sqrt_w = np.sqrt(np.maximum(core.w, 0.0))  # round-off can leave a low-rank eigenvalue at -1e-17

    def gradients():
        xi = probe.entries
        for i in range(n):
            if i:
                xi = sample_probe(xi.shape, dist, rng).entries
            yield ad.gradient(logits, core.logit_weights(sqrt_w * xi))

    return logits.tape, k, gradients()


def hutchinson_gradient(
    net: NetworkSpec, theta, X, variant: str = "full", *, probe: ProbeVector | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Gradient of the probe scalar h for one probe; exactly one backward pass.

    h weights the logits by M^T (sqrt(w) xi), from the variant's core
    (`_core`) at the forward values; only the logits carry gradient.  h
    itself is never recorded: its adjoint seeds the sweep.  Without a given
    probe it draws a Rademacher one; the low-rank core is the rank-1 one, by
    power iteration, as `hutchinson_fim`'s defaults give.
    """
    return next(_probe_gradients(net, theta, X, variant, 1, probe, rng, "rademacher", 1, "power")[2])


def hutchinson_fim(
    net: NetworkSpec, theta, X, variant: str = "full", *, rng: np.random.Generator | None = None,
    probe: ProbeVector | None = None, n_probes: int = 1, k: int = 1, eigen: str = "power",
    storage: str = "dense",
) -> FimEstimate:
    """Probe estimate of the FIM (or of its diagonal/low-rank targets).

    Averages `n_probes` independent rank-1 estimates g g^T, each from a fresh
    Rademacher probe and one reverse sweep of a single forward tape, all
    through one core (on the power route, one set of low-rank eigenpairs);
    pass an explicit `probe`, Rademacher or Gaussian, to pin the randomness
    (then n_probes must be 1; the power route still draws its start vectors
    from rng, and eigen="full" needs none).  The tape's backward-pass counter
    is recorded in meta["backward_passes"].
    """
    n_probes = ad._check_int(n_probes, "n_probes")
    if probe is not None and n_probes != 1:
        raise ValueError("an explicit probe fixes n_probes = 1")
    if n_probes < 1:
        raise ValueError("need at least one probe")
    tape, k, grads = _probe_gradients(net, theta, X, variant, n_probes, probe, rng, "rademacher", k, eigen, storage)
    acc = _gram(((1.0 / n_probes, g) for g in grads), n_probes, net.dim, storage)
    meta = {
        "probe_count": n_probes,
        "probe_dist": probe.dist if probe is not None else "rademacher",
        "backward_passes": tape.backward_calls,
    }
    if variant == "lowrank":
        meta["k"] = k
        meta["eigen"] = _eigen_route(eigen, k)
    if variant == "diag":
        meta["weights"] = "p"  # the core's weights w = p, kept so hutch_diag headers keep their bytes
    return FimEstimate(HUTCH_KINDS[variant], storage, acc, "sum", meta)


@dataclass
class VarianceReport:
    """Closed-form per-coordinate variance of a probe estimator's diagonal."""

    variant: str
    dist: str
    fim_diag: np.ndarray  # the estimator's target diagonal
    var_closed: np.ndarray
    cv: np.ndarray  # sqrt(var)/target, nan where the target vanishes


def variance_closed_form(
    net: NetworkSpec,
    theta,
    X,
    variant: str = "full",
    dist: str = "rademacher",
    k: int = 1,
) -> VarianceReport:
    """Exact variance of the diagonal of a single-probe estimate.

    With the variant's core weights w and rows R = M J (dl_xy/dth_i for
    full, dz_y/dth_i for diag, v_r . dz/dth_i for lowrank), the target
    diagonal is T_ii = sum_{x,r} w R_ri^2.  Gaussian probes give
    Var = 2 T_ii^2; Rademacher probes subtract the fourth-moment excess,
    Var = 2 T_ii^2 - 2 sum_{x,r} w^2 R_ri^4.  The low-rank variant takes
    any rank k in [1, C-1].
    """
    _check_probe_args(variant, "full", dist)
    J, fwd, _ = _jacobian_stack(net, theta, X, rank=k if variant == "lowrank" else None)
    core = _core(variant, fwd.logits.data, k=fwd.rank)
    R2 = core.rows(J)
    np.square(R2, out=R2)  # R's own buffer; the diag core's is J, not used after this
    target = np.einsum("br,brd->d", core.w, R2)
    quartic = np.einsum("br,brd->d", core.w**2, np.square(R2, out=R2))
    if dist == "gaussian":
        var = 2.0 * target**2
    else:  # round-off can leave a true 0 slightly negative
        var = np.maximum(2.0 * target**2 - 2.0 * quartic, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(target > 0, np.sqrt(var) / target, np.nan)
    return VarianceReport(variant=variant, dist=dist, fim_diag=target, var_closed=var, cv=cv)


def empirical_probe_variance(
    net: NetworkSpec, theta, X, variant: str, n_trials: int, rng: np.random.Generator,
    dist: str = "rademacher", k: int = 1,
) -> np.ndarray:
    """Sample variance of the diagonal estimate g * g over n_trials independent
    probes, all through one forward pass and one core: the exact (eigh)
    low-rank eigenpairs, as in `variance_closed_form`."""
    n_trials = ad._check_int(n_trials, "n_trials")
    if n_trials < 2:
        raise ValueError(f"a sample variance needs at least 2 trials, got {n_trials}")
    _, _, grads = _probe_gradients(net, theta, X, variant, n_trials, None, rng, dist, k, "full")
    draws = np.empty((n_trials, net.dim))
    for t, g in enumerate(grads):
        np.square(g, out=draws[t])
    return draws.var(axis=0, ddof=1)


def save_estimate(est: FimEstimate, path) -> None:
    """One JSON header line, then the little-endian float64 payload.

    The header holds the format version, kind, storage, normalization, shape
    and the whole meta dict; a meta value JSON cannot hold exactly raises
    ValueError naming its key.  The payload is the array's own buffer,
    written without a copy (C-ordered float64 needs no conversion).
    """
    header = {
        "format": ESTIMATE_FORMAT,
        "kind": est.kind,
        "storage": est.storage,
        "normalization": est.normalization,
        "shape": est.values.shape,
        "meta": est.meta,
    }
    line = _header_line(header)
    payload = np.ascontiguousarray(est.values, dtype=PAYLOAD_DTYPE)
    with open(path, "wb") as fh:
        fh.write(line)
        fh.write(payload)  # the buffer protocol hands over the array's bytes


def _header_line(header: dict) -> bytes:
    """The JSON header line; its meta must read back equal, or ValueError.

    NaN, numpy integers, tuples and non-string keys would be refused or
    silently changed by JSON, so they are rejected here by key.
    """
    meta = header["meta"]
    try:
        text = json.dumps(header, allow_nan=False)
        if json.loads(text)["meta"] == meta:
            return text.encode("utf-8") + b"\n"
    except (TypeError, ValueError):
        pass
    for key, value in meta.items():
        try:
            exact = isinstance(key, str) and json.loads(json.dumps(value, allow_nan=False)) == value
        except (TypeError, ValueError):
            exact = False
        if not exact:
            raise ValueError(
                f"estimate meta key {key!r}: a {type(value).__name__} value cannot be stored in JSON exactly"
            )
    raise ValueError("the estimate header cannot be stored in JSON exactly")


def read_header(path) -> dict:
    """The header of an estimate file, as written; the payload is not read."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def _read_header(fh, path) -> tuple[dict, int]:
    """(header, its length in bytes with the newline) from the file's first line."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise ValueError(f"{path}: no newline ends the header line ({len(line)} bytes, no payload)")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}: the header line is not JSON ({exc})") from None
    if type(header) is not dict:
        raise ValueError(f"{path}: the header line is not a JSON object")
    version = header.get("format")
    if type(version) is not int or version != ESTIMATE_FORMAT:  # true and 1.0 equal 1, but are no format
        raise ValueError(f"{path}: unknown estimate format {version!r} (this reader knows {ESTIMATE_FORMAT})")
    return header, len(line)


def load_estimate(path) -> FimEstimate:
    """Read a file written by save_estimate; a header without "format" is refused.

    The payload length is checked against the header's shape before the one
    float64 array is allocated, and read straight into it; a truncated or
    padded payload raises ValueError with both byte counts.  Every bad
    header raises ValueError naming the file.
    """
    with open(path, "rb") as fh:
        header, offset = _read_header(fh, path)
        shape = header.get("shape")
        if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape):
            raise ValueError(f"{path}: bad shape {shape!r} in the header")
        expected = 8 * math.prod(shape)
        actual = os.fstat(fh.fileno()).st_size - offset
        if actual == expected:  # a short read (the file shrank meanwhile) fails the check below
            values = np.empty(shape, dtype=PAYLOAD_DTYPE)
            actual = fh.readinto(values)
    if actual != expected:
        problem = "truncated" if actual < expected else "padded"
        raise ValueError(f"{path}: {problem} payload: {actual} bytes, shape {shape} needs {expected}")
    try:
        meta = header["meta"]
        if type(header["kind"]) is not str:
            raise ValueError(f"kind {header['kind']!r} is not a string")
        if type(meta) is not dict:
            raise ValueError(f"meta {meta!r} is not a JSON object")
        return FimEstimate(header["kind"], header["storage"], values, header["normalization"], meta)
    except KeyError as exc:
        raise ValueError(f"{path}: the header has no {exc.args[0]!r}") from None
    except ValueError as exc:  # the header's kind, meta, storage or normalization, or a shape they refuse
        raise ValueError(f"{path}: {exc}") from None
