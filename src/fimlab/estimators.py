"""Fisher information estimators for classifier networks.

Ground truth comes in two independently computed forms: the defining sum
sum_x sum_y p(y|x) (dl/dtheta)(dl/dtheta)^T, and the pullback form
sum_x J^T (diag(p) - p p^T) J through the per-sample Jacobian.  Alongside
them: the empirical FIM at observed labels, the label-resampling Monte Carlo
estimate, and a family of single-backward-pass probe estimators built from a
randomly sign-flipped scalar

    h = sum over (sample, class) of  coeff * value * xi

whose gradient g gives the rank-1 estimate g g^T.  Variants differ in what
plays coeff/value: sqrt(p)~ with the log-likelihood (unbiased for the FIM),
sqrt(zeta)~ with raw logits (diagonal-core target), top eigenpairs of the
simplex FIM with logits (low-rank target), or 2*sqrt(p) carrying gradient
(an equivalent unbiased form that needs no stop-gradient and no clamping).
The ~ marks coefficients frozen by stop_gradient; only the likelihood or the
logits carry gradient.  Each probe costs exactly one backward pass, counted
on the tape and reported in the estimate metadata.  PROBE_VARIANTS is the
one table of their names (hutch, hutch_diag, hutch_lowrank, hutch_sqrt);
the CLI and the bench harness accept exactly those.

Sum-vs-mean conventions are explicit: exact, empirical and probe estimators
sum over the dataset, the Monte Carlo estimator averages over uniformly
resampled inputs, and every estimate carries a `normalization` flag so the
two can never be compared silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .network import NetworkSpec, as_flat, forward_logits, softmax
from .simplex import simplex_matrix, symeig, top_eigenpair

__all__ = [
    "DENSE_DIM_CAP",
    "FimEstimate",
    "ProbeVector",
    "VarianceReport",
    "exact_fim_definition",
    "exact_fim_pullback",
    "loglik_gradients",
    "jacobian_and_logits",
    "efim",
    "mc_fim",
    "sample_probe",
    "hutchinson_fim",
    "hutchinson_gradient",
    "variance_closed_form",
    "empirical_probe_variance",
    "trace_estimate",
    "ema_update",
    "save_estimate",
    "load_estimate",
]

DENSE_DIM_CAP = 4096
CLAMP_FLOOR = 1e-30

# probe estimator name -> hutchinson_fim variant; estimates are kind "hutch_<variant>"
PROBE_VARIANTS = {
    "hutch": "full",
    "hutch_diag": "diag",
    "hutch_lowrank": "lowrank",
    "hutch_sqrt": "sqrt",
}
HUTCH_KINDS = {variant: f"hutch_{variant}" for variant in PROBE_VARIANTS.values()}


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
        if self.storage not in ("dense", "diagonal"):
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

    def validate(self, psd_tol: float = 1e-10, sym_tol: float = 1e-12) -> None:
        """Check the symmetry/psd invariants; raises on violation."""
        if self.storage == "diagonal":
            if np.min(self.values, initial=0.0) < -1e-12:
                raise ValueError("diagonal estimate has a negative entry")
            return
        m = self.values
        if np.max(np.abs(m - m.T), initial=0.0) > sym_tol * max(1.0, np.max(np.abs(m))):
            raise ValueError("dense estimate is not symmetric")
        if float(np.linalg.eigvalsh((m + m.T) / 2.0)[0]) < -psd_tol:
            raise ValueError("dense estimate is not positive semidefinite")


@dataclass(frozen=True)
class ProbeVector:
    """Random sign/Gaussian probe, one entry per (sample, class) or (sample, rank)."""

    entries: np.ndarray
    dist: str  # "rademacher" | "gaussian"

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if self.dist not in ("rademacher", "gaussian"):
            raise ValueError(f"unknown probe distribution {self.dist!r}")
        if self.dist == "rademacher" and not np.all(np.abs(e) == 1.0):
            raise ValueError("rademacher probe entries must be +-1")
        object.__setattr__(self, "entries", e)


def sample_probe(shape, dist: str, rng: np.random.Generator) -> ProbeVector:
    """Fresh independent probe entries of the given shape."""
    if dist == "rademacher":
        entries = rng.integers(0, 2, size=shape).astype(np.float64) * 2.0 - 1.0
    elif dist == "gaussian":
        entries = rng.normal(size=shape)
    else:
        raise ValueError(f"unknown probe distribution {dist!r}")
    return ProbeVector(entries=entries, dist=dist)


def _check_dense(storage: str, dim: int):
    if storage == "dense" and dim > DENSE_DIM_CAP:
        raise ValueError(f"dense storage capped at dim {DENSE_DIM_CAP}, got {dim}")
    if storage not in ("dense", "diagonal"):
        raise ValueError(f"unknown storage {storage!r}")


def _accumulator(storage: str, dim: int) -> np.ndarray:
    return np.zeros((dim, dim)) if storage == "dense" else np.zeros(dim)


def _rank1(acc: np.ndarray, g: np.ndarray, weight: float, storage: str):
    if storage == "dense":
        acc += weight * np.outer(g, g)
    else:
        acc += weight * g * g


def loglik_gradients(net: NetworkSpec, theta, x) -> tuple[np.ndarray, np.ndarray]:
    """(p, G) for one sample: G[y] = d log p(y|x) / d theta.  C backward passes."""
    logits = forward_logits(net, theta, np.asarray(x, dtype=np.float64)[None, :])
    lsm = ad.log_softmax(logits)
    p = np.exp(lsm.data[0])
    C = net.n_classes
    G = np.empty((C, as_flat(theta).size))
    for y in range(C):
        ly = ad.total(ad.gather(lsm, np.array([y])))
        G[y] = ad.gradient(ly)
    return p, G


def jacobian_and_logits(net: NetworkSpec, theta, x) -> tuple[np.ndarray, np.ndarray]:
    """(J, z) for one sample: J[i] = dz_i/dtheta.  C backward passes."""
    logits = forward_logits(net, theta, np.asarray(x, dtype=np.float64)[None, :])
    C = net.n_classes
    J = np.empty((C, as_flat(theta).size))
    for i in range(C):
        J[i] = ad.gradient(ad.total(ad.gather(logits, np.array([i]))))
    return J, logits.data[0]


def _jacobian_stack(net: NetworkSpec, theta, X) -> tuple[np.ndarray, np.ndarray]:
    """(J, z) stacked over samples: J (B, C, dim) and logits z (B, C).

    One jacobian_and_logits call, so C backward passes, per sample; the
    pullback, the closed-form variances and the bounds all start here.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    J = np.empty((X.shape[0], net.n_classes, as_flat(theta).size))
    z = np.empty((X.shape[0], net.n_classes))
    for b, x in enumerate(X):
        J[b], z[b] = jacobian_and_logits(net, theta, x)
    return J, z


def exact_fim_definition(net: NetworkSpec, theta, X, storage: str = "dense") -> FimEstimate:
    """Ground truth by the definition: sum_x sum_y p(y|x) g_xy g_xy^T."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if net.n_classes < 2:
        raise ValueError("categorical estimators need at least 2 classes")
    dim = net.dim
    _check_dense(storage, dim)
    acc = _accumulator(storage, dim)
    for x in X:
        p, G = loglik_gradients(net, theta, x)
        for y in range(net.n_classes):
            _rank1(acc, G[y], float(p[y]), storage)
    return FimEstimate("exact_def", storage, acc, "sum", {"n_samples": X.shape[0]})


def exact_fim_pullback(net: NetworkSpec, theta, X, storage: str = "dense") -> FimEstimate:
    """Ground truth through the Jacobian: sum_x J^T (diag(p) - p p^T) J."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if net.n_classes < 2:
        raise ValueError("categorical estimators need at least 2 classes")
    dim = net.dim
    _check_dense(storage, dim)
    J, z = _jacobian_stack(net, theta, X)
    K = simplex_matrix(softmax(z)) @ J  # (B, C, dim): core times Jacobian, per sample
    if storage == "dense":
        acc = J.reshape(-1, dim).T @ K.reshape(-1, dim)
    else:
        acc = np.einsum("bcd,bcd->d", J, K)
    return FimEstimate("exact_pullback", storage, acc, "sum", {"n_samples": X.shape[0]})


def efim(net: NetworkSpec, theta, X, labels, storage: str = "dense") -> FimEstimate:
    """Empirical FIM at observed labels: sum over (x, y) of g_xy g_xy^T."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (X.shape[0],):
        raise ValueError("need exactly one label per sample")
    if np.any(labels < 0) or np.any(labels >= net.n_classes):
        raise ValueError("label out of range")
    dim = net.dim
    _check_dense(storage, dim)
    acc = _accumulator(storage, dim)
    for x, y in zip(X, labels):
        logits = forward_logits(net, theta, x[None, :])
        lsm = ad.log_softmax(logits)
        g = ad.gradient(ad.total(ad.gather(lsm, np.array([int(y)]))))
        _rank1(acc, g, 1.0, storage)
    return FimEstimate("efim", storage, acc, "sum", {"n_samples": X.shape[0]})


def _sample_label(p: np.ndarray, rng: np.random.Generator) -> int:
    return int(np.searchsorted(np.cumsum(p), rng.uniform(), side="right").clip(0, p.size - 1))


def mc_fim(
    net: NetworkSpec, theta, X, m: int, rng: np.random.Generator, storage: str = "dense"
) -> FimEstimate:
    """Monte Carlo estimate: average of g g^T at x drawn uniformly, y ~ p(y|x).

    Mean-normalized: its expectation is the exact FIM divided by the number
    of samples in X.
    """
    if m < 1:
        raise ValueError("need at least one draw")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    dim = net.dim
    _check_dense(storage, dim)
    acc = _accumulator(storage, dim)
    for _ in range(m):
        x = X[int(rng.integers(X.shape[0]))]
        logits = forward_logits(net, theta, x[None, :])
        lsm = ad.log_softmax(logits)
        y = _sample_label(np.exp(lsm.data[0]), rng)
        g = ad.gradient(ad.total(ad.gather(lsm, np.array([y]))))
        _rank1(acc, g, 1.0 / m, storage)
    return FimEstimate("mc", storage, acc, "mean", {"n_samples": X.shape[0], "probe_count": m})


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _lowrank_eigenpairs(
    probs: np.ndarray, k: int, eigen: str, rng: np.random.Generator | None
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k eigenpairs of the simplex FIM per sample: (lams (B,k), vecs (B,k,C))."""
    B, C = probs.shape
    lams = np.empty((B, k))
    vecs = np.empty((B, k, C))
    for b in range(B):
        if k == 1 and eigen == "power":
            lam, v = top_eigenpair(probs[b], method="power", rng=rng)
            lams[b, 0] = lam
            vecs[b, 0] = v
        else:
            w, V = symeig(simplex_matrix(probs[b]))
            lams[b] = w[C - k:]
            vecs[b] = V[:, C - k:].T
    return lams, vecs


def hutchinson_gradient(
    net: NetworkSpec,
    theta,
    X,
    variant: str = "full",
    *,
    probe: ProbeVector | None = None,
    rng: np.random.Generator | None = None,
    dist: str = "rademacher",
    k: int = 1,
    weights: str = "p",
    eigen: str = "power",
    tape_out: list | None = None,
) -> np.ndarray:
    """Gradient of the probe scalar h for one probe; exactly one backward pass.

    The coefficients (sqrt p, sqrt zeta, sqrt lambda and the eigenvectors)
    are frozen: the first two via stop_gradient on traced probabilities, the
    eigen quantities by construction off the tape.  Only the log-likelihood
    (full / sqrt variants) or the raw logits (diag / lowrank) carry gradient.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    B = X.shape[0]
    C = net.n_classes
    if variant not in HUTCH_KINDS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant != "diag" and C < 2:
        raise ValueError("categorical estimators need at least 2 classes")
    if variant == "lowrank" and not 1 <= k <= C - 1:
        raise ValueError(f"rank parameter must be in [1, {C - 1}], got {k}")
    probe_shape = (B, k) if variant == "lowrank" else (B, C)
    if probe is None:
        if rng is None:
            raise ValueError("need a probe or an rng to draw one")
        probe = sample_probe(probe_shape, dist, rng)
    if probe.entries.shape != probe_shape:
        raise ValueError(f"probe shape {probe.entries.shape} != expected {probe_shape}")
    xi = probe.entries

    logits = forward_logits(net, theta, X)
    tape = logits.tape
    if variant == "full":
        lsm = ad.log_softmax(logits)
        coeff = ad.sqrt(ad.clip(ad.stop_gradient(ad.exp(lsm)), CLAMP_FLOOR, 1.0))
        h = ad.wsum(ad.mul(lsm, coeff), xi)
    elif variant == "diag":
        if weights == "p":
            lsm = ad.log_softmax(logits)
            coeff = ad.sqrt(ad.clip(ad.stop_gradient(ad.exp(lsm)), CLAMP_FLOOR, 1.0))
        elif weights == "bernoulli":
            s = _sigmoid(logits.data)
            coeff = ad.constant(tape, np.sqrt(np.clip(s * (1.0 - s), CLAMP_FLOOR, 1.0)))
        else:
            raise ValueError(f"unknown diagonal weights {weights!r}")
        h = ad.wsum(ad.mul(logits, coeff), xi)
    elif variant == "lowrank":
        lams, vecs = _lowrank_eigenpairs(softmax(logits.data), k, eigen, rng)
        coeffs = np.sqrt(np.maximum(lams, 0.0))  # round-off can leave -1e-17
        W = np.einsum("bk,bk,bkc->bc", coeffs, xi, vecs)
        h = ad.wsum(logits, W)
    else:  # sqrt
        lsm = ad.log_softmax(logits)
        h = ad.scale(ad.wsum(ad.exp(ad.scale(lsm, 0.5)), xi), 2.0)
    g = ad.gradient(h)
    if tape_out is not None:
        tape_out.append(tape)
    return g


def hutchinson_fim(
    net: NetworkSpec,
    theta,
    X,
    variant: str = "full",
    *,
    rng: np.random.Generator | None = None,
    probe: ProbeVector | None = None,
    n_probes: int = 1,
    dist: str = "rademacher",
    k: int = 1,
    weights: str = "p",
    eigen: str = "power",
    storage: str = "dense",
    seed=None,
    dataset_id=None,
) -> FimEstimate:
    """Probe estimate of the FIM (or of its diagonal/low-rank targets).

    Averages `n_probes` independent rank-1 estimates g g^T, each from a fresh
    probe and a single backward pass; pass an explicit `probe` to pin the
    randomness (then n_probes must be 1).  The tape's backward-pass counter
    is recorded in meta["backward_passes"].
    """
    dim = as_flat(theta).size
    _check_dense(storage, dim)
    if probe is not None and n_probes != 1:
        raise ValueError("an explicit probe fixes n_probes = 1")
    if n_probes < 1:
        raise ValueError("need at least one probe")
    acc = _accumulator(storage, dim)
    tapes: list = []
    used_dist = probe.dist if probe is not None else dist
    for _ in range(n_probes):
        g = hutchinson_gradient(
            net, theta, X, variant,
            probe=probe, rng=rng, dist=dist, k=k, weights=weights, eigen=eigen, tape_out=tapes,
        )
        _rank1(acc, g, 1.0 / n_probes, storage)
    backward_passes = sum(t.backward_calls for t in tapes)
    meta = {
        "probe_count": n_probes,
        "probe_dist": used_dist,
        "seed": seed,
        "dataset_id": dataset_id,
        "backward_passes": backward_passes,
    }
    if variant == "lowrank":
        meta["k"] = k
        meta["eigen"] = eigen
    if variant == "diag":
        meta["weights"] = weights
    return FimEstimate(HUTCH_KINDS[variant], storage, acc, "sum", meta)


def trace_estimate(g: np.ndarray) -> float:
    """Squared norm of the probe gradient: unbiased for the FIM trace."""
    g = np.asarray(g, dtype=np.float64)
    return float(g @ g)


@dataclass
class VarianceReport:
    """Closed-form per-coordinate variance of a probe estimator's diagonal."""

    variant: str
    dist: str
    fim_diag: np.ndarray  # the estimator's target diagonal
    var_closed: np.ndarray
    cv: np.ndarray  # sqrt(var)/target, nan where the target vanishes
    var_empirical: np.ndarray | None = None


def variance_closed_form(
    net: NetworkSpec,
    theta,
    X,
    variant: str = "full",
    dist: str = "rademacher",
    k: int = 1,
    weights: str = "p",
) -> VarianceReport:
    """Exact variance of the diagonal of a single-probe estimate.

    Gaussian probes: Var = 2 T_ii^2 where T is the variant's target matrix.
    Rademacher probes subtract the diagonal fourth-moment excess:

        full:     2 F_ii^2  - 2 sum_{x,y} p^2      (dl_xy/dth_i)^4
        diag:     2 T_ii^2  - 2 sum_{x,y} zeta^2   (dz_y/dth_i)^4
        lowrank:  2 T_ii^2  - 2 sum_x    lam_max^2 (v_max . dz/dth_i)^4

    Only rank 1 is supported for the low-rank variant.
    """
    if variant not in ("full", "diag", "lowrank"):
        raise ValueError(f"no closed-form variance for variant {variant!r}")
    if variant == "lowrank" and k != 1:
        raise ValueError("closed-form low-rank variance covers k = 1 only")
    if dist not in ("rademacher", "gaussian"):
        raise ValueError(f"unknown probe distribution {dist!r}")
    if variant == "diag" and weights not in ("p", "bernoulli"):
        raise ValueError(f"unknown diagonal weights {weights!r}")
    J, z = _jacobian_stack(net, theta, X)
    p = softmax(z)
    if variant == "full":
        L = J - np.einsum("bc,bcd->bd", p, J)[:, None, :]  # rows dl_xy/dtheta = J[y] - p.J
        L2 = L * L
        target = np.einsum("bc,bcd->d", p, L2)
        quartic = np.einsum("bc,bcd->d", p**2, L2 * L2)
    elif variant == "diag":
        s = _sigmoid(z)
        zeta = p if weights == "p" else s * (1.0 - s)
        J2 = J * J
        target = np.einsum("bc,bcd->d", zeta, J2)
        quartic = np.einsum("bc,bcd->d", zeta**2, J2 * J2)
    else:
        lam, V = np.linalg.eigh(simplex_matrix(p))
        rows = np.einsum("bc,bcd->bd", V[:, :, -1], J)
        target = lam[:, -1] @ (rows * rows)
        quartic = lam[:, -1] ** 2 @ rows**4
    if dist == "gaussian":
        var = 2.0 * target**2
    else:  # round-off can leave a true 0 slightly negative
        var = np.maximum(2.0 * target**2 - 2.0 * quartic, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cv = np.where(target > 0, np.sqrt(var) / target, np.nan)
    return VarianceReport(variant=variant, dist=dist, fim_diag=target, var_closed=var, cv=cv)


def empirical_probe_variance(
    net: NetworkSpec,
    theta,
    X,
    variant: str,
    n_trials: int,
    rng: np.random.Generator,
    dist: str = "rademacher",
    k: int = 1,
    weights: str = "p",
    eigen: str = "full",
) -> np.ndarray:
    """Sample variance of the diagonal estimate over independent probes."""
    draws = np.empty((n_trials, as_flat(theta).size))
    for t in range(n_trials):
        est = hutchinson_fim(
            net, theta, X, variant, rng=rng, dist=dist, k=k, weights=weights,
            eigen=eigen, storage="diagonal",
        )
        draws[t] = est.values
    return draws.var(axis=0, ddof=1)


def ema_update(acc: FimEstimate, new: FimEstimate, beta: float) -> FimEstimate:
    """Exponential moving average: beta * acc + (1 - beta) * new."""
    if not 0.0 <= beta < 1.0:
        raise ValueError("decay must lie in [0, 1)")
    if acc.storage != new.storage or acc.values.shape != new.values.shape:
        raise ValueError("cannot blend estimates with different storage or shape")
    if acc.normalization != new.normalization:
        raise ValueError("cannot blend estimates with different normalization")
    meta = dict(acc.meta)
    meta["ema_beta"] = beta
    meta["probe_count"] = acc.meta.get("probe_count", 0) + new.meta.get("probe_count", 0)
    return FimEstimate(acc.kind, acc.storage, beta * acc.values + (1.0 - beta) * new.values,
                       acc.normalization, meta)


def save_estimate(est: FimEstimate, path) -> None:
    """One JSON header line, then the little-endian float64 payload."""
    header = {
        "kind": est.kind,
        "storage": est.storage,
        "normalization": est.normalization,
        "shape": list(est.values.shape),
        "seed": est.meta.get("seed"),
        "probe_count": est.meta.get("probe_count"),
        "probe_dist": est.meta.get("probe_dist"),
        "dataset_id": est.meta.get("dataset_id"),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(est.values.astype("<f8").tobytes())


def load_estimate(path) -> FimEstimate:
    raw = Path(path).read_bytes()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline].decode("utf-8"))
    values = np.frombuffer(raw[newline + 1:], dtype="<f8").astype(np.float64)
    values = values.reshape(header["shape"])
    meta = {key: header.get(key) for key in ("seed", "probe_count", "probe_dist", "dataset_id")}
    return FimEstimate(header["kind"], header["storage"], values, header["normalization"], meta)
