"""Fisher information geometry of classifier output distributions.

A C-way softmax head parameterizes a point on the probability simplex; a
multi-label sigmoid head parameterizes a point on the unit hypercube.  Both
carry a closed-form C x C Fisher information matrix over the logits:

    simplex:    diag(p) - p p^T          (rank C-1, kernel spanned by ones)
    hypercube:  diag(p_i (1 - p_i))

Everything downstream -- pullback estimates, deterministic bounds, probe
estimators -- reduces to spectral questions about these small matrices, so
this module also provides their eigendecompositions, the analytic bracket on
the top eigenvalue, the diagonal / rank-1 envelopes with their error bounds,
and the single-label empirical counterpart R(y) = (e_y - p)(e_y - p)^T with
its entrywise variance.

Class labels are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ProbVector",
    "OutputFim",
    "SpectralDecomp",
    "SpectrumBracket",
    "EmpiricalFim",
    "EnvelopeErrors",
    "simplex_fim",
    "hypercube_fim",
    "diag_weight_fim",
    "spectrum",
    "symeig",
    "lambda_max_bracket",
    "top_eigenpair",
    "envelope_errors",
    "empirical_simplex_fim",
    "empirical_fim_variance",
    "order_stats",
]

SIMPLEX_SUM_TOL = 1e-12
SYMMETRY_TOL = 1e-14
KERNEL_TOL = 1e-12


def _as_vector(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains non-finite entries")
    return v


@dataclass(frozen=True)
class ProbVector:
    """A categorical distribution: nonnegative entries summing to one, C >= 2."""

    values: np.ndarray

    def __post_init__(self):
        v = _as_vector(self.values)
        if v.size < 2:
            raise ValueError("a categorical distribution needs at least 2 classes")
        if np.any(v < 0):
            raise ValueError("probabilities must be nonnegative")
        if abs(float(v.sum()) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"probabilities sum to {v.sum()!r}, not 1")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n_classes(self) -> int:
        return self.values.size


def _prob(p) -> np.ndarray:
    if isinstance(p, ProbVector):
        return p.values
    return ProbVector(p).values


def order_stats(p) -> np.ndarray:
    """Entries sorted ascending with a stable sort (ties keep input order)."""
    v = np.asarray(p, dtype=np.float64)
    return v[np.argsort(v, kind="stable")]


@dataclass(frozen=True)
class OutputFim:
    """The C x C Fisher information matrix of an output distribution."""

    matrix: np.ndarray
    kind: str  # "simplex" | "hypercube" | "diag"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if self.kind not in ("simplex", "hypercube", "diag"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if np.max(np.abs(m - m.T), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("matrix is not symmetric")
        if self.kind == "simplex":
            kernel = m @ np.ones(m.shape[0])
            if np.max(np.abs(kernel)) > KERNEL_TOL:
                raise ValueError("simplex FIM must annihilate the all-ones vector")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n_classes(self) -> int:
        return self.matrix.shape[0]


def simplex_matrix(p: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T without validation; a (B, C) stack gives (B, C, C)."""
    p = np.asarray(p)
    return p[..., :, None] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]


def simplex_fim(p) -> OutputFim:
    """Fisher information of a categorical distribution: diag(p) - p p^T."""
    v = _prob(p)
    return OutputFim(simplex_matrix(v), kind="simplex")


def hypercube_fim(p) -> OutputFim:
    """Fisher information of independent Bernoulli coordinates: diag(p(1-p))."""
    v = _as_vector(p)
    if np.any(v < 0) or np.any(v > 1):
        raise ValueError("Bernoulli parameters must lie in [0, 1]")
    return OutputFim(np.diag(v * (1.0 - v)), kind="hypercube")


def diag_weight_fim(zeta) -> OutputFim:
    """Diagonal information matrix with caller-supplied nonnegative weights."""
    v = _as_vector(zeta)
    if np.any(v < 0):
        raise ValueError("diagonal weights must be nonnegative")
    return OutputFim(np.diag(v), kind="diag")


def _canonical_sign(V: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-magnitude entry is positive.

    V holds the eigenvectors as columns: one matrix (C, m) or a stack
    (..., C, m).  np.argmax returns the lowest index on ties, which fixes
    the tie-break.
    """
    i = np.argmax(np.abs(V), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(V, i, axis=-2) < 0, -V, V)


def symeig(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, ascending, canonical signs."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh((m + m.T) / 2.0)
    return w, _canonical_sign(V)


@dataclass(frozen=True)
class SpectralDecomp:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def spectral_gap(self) -> float:
        w = self.eigenvalues
        return float(w[-1] - w[-2])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def top_vector(self) -> np.ndarray:
        return self.eigenvectors[:, -1]

    def reconstruct(self) -> np.ndarray:
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


def spectrum(matrix) -> SpectralDecomp:
    """Full eigendecomposition of an output FIM (or any symmetric matrix)."""
    if isinstance(matrix, OutputFim):
        matrix = matrix.matrix
    w, V = symeig(matrix)
    return SpectralDecomp(eigenvalues=w, eigenvectors=V)


@dataclass(frozen=True)
class SpectrumBracket:
    """Deterministic lower/upper bounds on the top eigenvalue."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.upper + 1e-14):
            raise ValueError(f"bracket inverted: [{self.lower}, {self.upper}]")
        if self.lower < 0 or self.upper > 1:
            raise ValueError("bracket must lie inside [0, 1]")

    def contains(self, value: float, tol: float = 1e-10) -> bool:
        return self.lower - tol <= value <= self.upper + tol

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def lambda_max_bracket(p) -> SpectrumBracket:
    """Analytic bracket on the top eigenvalue of the simplex FIM.

    lower = max{ max_i p_i(1-p_i),  p_(C-1),  (1 - |p|^2)/(C-1) }
    upper = min{ p_(C),  2 max_i p_i(1-p_i),  1 - |p|^2 }

    where p_(i) are ascending order statistics.
    """
    v = _prob(p)
    q = order_stats(v)
    bern = v * (1.0 - v)
    max_bern = float(np.max(bern))
    sq = float(v @ v)
    lower = max(max_bern, float(q[-2]), (1.0 - sq) / (v.size - 1))
    upper = min(float(q[-1]), 2.0 * max_bern, 1.0 - sq)
    return SpectrumBracket(lower=lower, upper=upper)


def top_eigenpair(
    p,
    method: str = "full",
    iters: int = 30,
    rng: np.random.Generator | None = None,
    tol: float | None = None,
) -> tuple[float, np.ndarray]:
    """Top eigenpair of the simplex FIM at p.

    method="full" delegates to the dense eigendecomposition.  method="power"
    iterates v <- normalize(p*v - (p.v) p) for `iters` steps from a seeded
    random unit vector projected orthogonal to the all-ones direction (a start
    inside the kernel would stall).  The default budget of 30 steps follows
    the fixed-budget convention; pass `tol` to stop early once the iterate
    moves by less than tol (needed when the eigenvalue ratio is close to 1
    and a tight eigenvalue is required).

    Returns (lambda_max, v) with v sign-canonicalized.
    """
    v = _prob(p)
    if method == "full":
        dec = spectrum(simplex_fim(v))
        return dec.lambda_max, dec.top_vector
    if method != "power":
        raise ValueError(f"unknown method {method!r}")
    if rng is None:
        raise ValueError("power iteration needs an explicit rng")
    if iters < 1:
        raise ValueError("power iteration needs at least one step")
    C = v.size
    ones = np.ones(C)
    while True:
        u = rng.normal(size=C)
        u -= (u @ ones) / C * ones
        norm = float(np.linalg.norm(u))
        if norm > 1e-12:
            u /= norm
            break
    for _ in range(iters):
        w = v * u - (v @ u) * v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            break  # u hit the kernel exactly; keep the previous iterate
        w /= norm
        if tol is not None and float(np.linalg.norm(w - u)) <= tol:
            u = w
            break
        u = w
    lam = float(v @ (u * u) - (v @ u) ** 2)
    i = int(np.argmax(np.abs(u)))
    if u[i] < 0:
        u = -u
    return lam, u


class EnvelopeErrors(NamedTuple):
    diag_error: float
    rank1_error_bound: float


def envelope_errors(p) -> EnvelopeErrors:
    """Frobenius errors of the two structural envelopes of the simplex FIM.

    The diagonal upper envelope diag(p) misses by exactly |p|^2 (never below
    1/C).  The rank-1 lower envelope lambda_C v_C v_C^T misses by at most
    min{ 1 - |p|^2 - p_(C-1),  sqrt(sum_{i=2}^{C-1} p_(i)^2) }, the second
    term being the norm of p with its smallest and largest entries removed.
    """
    v = _prob(p)
    q = order_stats(v)
    sq = float(v @ v)
    trimmed = float(np.sqrt(np.sum(q[1:-1] ** 2)))
    return EnvelopeErrors(
        diag_error=sq,
        rank1_error_bound=min(1.0 - sq - float(q[-2]), trimmed),
    )


@dataclass(frozen=True)
class EmpiricalFim:
    """Single-label estimate R(y) = (e_y - p)(e_y - p)^T of the simplex FIM."""

    matrix: np.ndarray
    label: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64).copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def empirical_simplex_fim(p, y: int) -> EmpiricalFim:
    """Rank-1 unbiased estimate of the simplex FIM from one observed label."""
    v = _prob(p)
    if not 0 <= y < v.size:
        raise ValueError(f"label {y} out of range for {v.size} classes")
    r = -v.copy()
    r[y] += 1.0
    return EmpiricalFim(matrix=np.outer(r, r), label=int(y))


def empirical_fim_variance(p) -> np.ndarray:
    """Entrywise variance of R(y) under y ~ p.

    Var(R_ii) = p_i(1-p_i)(1 - 4 p_i(1-p_i))
    Var(R_ij) = p_i p_j (p_i + p_j - 4 p_i p_j)   (i != j)

    Every entry is at most 1/16, yet the coefficient of variation
    sqrt(1/I_ii - 4) diverges as any p_i approaches 0 or 1.
    """
    v = _prob(p)
    prod = np.outer(v, v)
    var = prod * (v[:, None] + v[None, :] - 4.0 * prod)
    bern = v * (1.0 - v)
    np.fill_diagonal(var, bern * (1.0 - 4.0 * bern))
    return var
