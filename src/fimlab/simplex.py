"""Fisher information geometry of classifier output distributions.

A C-way softmax head parameterizes a point on the probability simplex, and
carries a closed-form C x C Fisher information matrix over the logits, which
simplex_fim returns as a plain (C, C) array:

    diag(p) - p p^T          (rank C-1, kernel spanned by ones)

Everything downstream -- pullback estimates, deterministic bounds, probe
estimators -- reduces to spectral questions about this small matrix, so
this module also provides its eigendecomposition, the analytic bracket on
the top eigenvalue, a batched secular solver for the extreme eigenvalues of a
rank-one downdate diag(lam) - z z^T, the diagonal / rank-1 envelopes with their
error bounds, and the single-label empirical counterpart
R(y) = (e_y - p)(e_y - p)^T with its entrywise variance.

Class labels are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import _check_integral

__all__ = [
    "ProbVector",
    "SpectralDecomp",
    "SpectrumBracket",
    "EnvelopeErrors",
    "simplex_fim",
    "spectrum",
    "lambda_max_bracket",
    "top_eigenpair",
    "envelope_errors",
    "empirical_simplex_fim",
    "empirical_fim_variance",
    "order_stats",
]

SIMPLEX_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ProbVector:
    """A categorical distribution: nonnegative entries summing to one, C >= 2."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vector contains non-finite entries")
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


def simplex_matrix(p: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T without validation; a (B, C) stack gives (B, C, C)."""
    p = np.asarray(p)
    return p[..., :, None] * np.eye(p.shape[-1]) - p[..., :, None] * p[..., None, :]


def simplex_fim(p) -> np.ndarray:
    """Fisher information of a categorical distribution: diag(p) - p p^T, (C, C)."""
    return simplex_matrix(_prob(p))


def _canonical_sign(V: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-magnitude entry is positive.

    V holds the eigenvectors as columns: one matrix (C, m) or a stack
    (..., C, m).  np.argmax returns the lowest index on ties, which fixes
    the tie-break.
    """
    i = np.argmax(np.abs(V), axis=-2)[..., None, :]
    return np.where(np.take_along_axis(V, i, axis=-2) < 0, -V, V)


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


def spectrum(matrix) -> SpectralDecomp:
    """Full eigendecomposition of a symmetric matrix, such as an output FIM:
    ascending eigenvalues, eigenvector columns with canonical signs.  A
    matrix that is not square, has a NaN or infinite entry, or is not
    symmetric to 1e-12 of its largest entry, raises ValueError."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # NaN passes the symmetry test below, an infinity warns
        raise ValueError("matrix has a non-finite entry")
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh((m + m.T) / 2.0)
    return SpectralDecomp(eigenvalues=w, eigenvectors=_canonical_sign(V))


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

    def contains(self, value: float) -> bool:
        """Whether value lies in the bracket, widened by 1e-10 on each side."""
        return self.lower - 1e-10 <= value <= self.upper + 1e-10

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


_SECULAR_MAX_STEPS = 64  # a guard on _secular_roots' loop; reaching it raises
_EPS = np.finfo(np.float64).eps


def _secular_extremes(lam, z) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of diag(lam) - z z^T, row by row.

    lam (..., r) holds ascending eigenvalues and z (..., r) the update
    vectors; the two broadcast against each other.  A z_i too small to move
    any eigenvalue by more than rounding against the row's scale
    max|lam| + |z|^2 is deflated, and lam_i then stays an eigenvalue.  By
    interlacing, each extreme is lam_e - x for an end pole lam_e and the
    root x in (0, hi] of the increasing secular function
    f(x) = 1 - w_e / x + sum_(i != e) w_i / (lam_e - lam_i - x), w = z^2
    (Golub 1973; Bunch, Nielsen and Sorensen 1978).  The smallest has lam_e
    the lowest live pole and hi = |z|^2; the largest has lam_e = lam_r and
    hi = min(z_r^2, lam_r - lam_(r-1)).  Both ends of every row run in one
    batched iteration, _secular_roots, that stops a row once its step falls
    under 4 eps of its scale, so both are exact to rounding in that scale.
    """
    lam, z = np.broadcast_arrays(np.asarray(lam, dtype=np.float64), np.asarray(z, dtype=np.float64))
    shape, r = lam.shape[:-1], lam.shape[-1]
    lam = lam.reshape(-1, r)
    w = (z * z).reshape(-1, r)
    total = np.sum(w, axis=1)
    tol = 4.0 * _EPS * (np.max(np.abs(lam), axis=1) + total)
    w[np.sqrt(w * total[:, None]) <= 2.0 * tol[:, None]] = 0.0
    n = len(lam)
    live = w > 0
    # rows 0..n-1 solve for the smallest eigenvalue, rows n..2n-1 for the largest
    end = np.concatenate([np.argmax(live, axis=1), np.full(n, r - 1)])
    hi = np.concatenate([total, np.minimum(w[:, -1], lam[:, -1] - lam[:, -2] if r > 1 else np.inf)])
    rows = np.flatnonzero(np.concatenate([live.any(axis=1), live[:, -1]]) & (hi > 0))
    x = np.zeros(2 * n)
    x[rows] = _secular_roots(lam[rows % n], w[rows % n], end[rows], hi[rows], tol[rows % n])
    ends = lam[np.arange(2 * n) % n, end] - x
    return np.minimum(lam[:, 0], ends[:n]).reshape(shape), ends[n:].reshape(shape)


def _secular_roots(lam, w, end, hi, tol):
    """Root x in (0, hi] of f(x) = 1 - a / x + sum_i w_i / (p_i - x), row by row.

    a = w_end, and p_i = lam_end - lam_i for the other live components:
    all at or below 0, or all at or above hi.  A hi where f is not positive
    is the root itself.  Each step keeps the pole at 0 exact and fits the
    rest of the sum by c / (g - x) in value and slope, then takes the root
    of 1 - a / x + c / (g - x) on x's side of g; a step that leaves the sign
    bracket goes half way to the bracket's end instead.  1 / |rest| is
    concave, so the fit lies above the rest where the poles are at or below
    0 and below it where they are at or above hi: after one step every
    iterate stays below the smallest end's root and above the largest
    end's.  When hi is itself the nearest pole gn, the iteration starts just
    inside it.
    """
    k = np.arange(len(lam))
    a = w[k, end]
    w = w.copy()
    w[k, end] = 0.0
    poles = np.where(w > 0, lam[k, end][:, None] - lam, np.inf)
    gn = np.min(np.where(poles > 0, poles, np.inf), axis=1)
    x = np.where(hi < gn, hi, np.maximum(gn - tol, gn / 2.0))
    lo = np.zeros(len(x))
    done = np.zeros(len(x), dtype=bool)
    for _ in range(_SECULAR_MAX_STEPS):
        d = poles - x[:, None]
        q = w / d
        rest, slope = np.sum(q, axis=1), np.sum(q / d, axis=1)
        f = 1.0 - a / x + rest
        done |= (f <= 0) & (x == hi)  # f(hi) <= 0: hi is the root
        lo = np.where(f < 0, x, lo)
        hi = np.where(f > 0, x, hi)
        slope = np.where(slope > 0, slope, 1.0)  # a row whose sum has no other term
        g = x + rest / slope
        c = rest * rest / slope
        # x^2 - t x + a g = 0; where g > 0, t^2 - 4 a g is written without cancellation
        t = a + g + c
        disc = np.where(g > 0, (a - g) ** 2 + c * (c + 2.0 * (a + g)), t * t - 4.0 * a * g)
        # its roots are u, of t's sign, and a g / u; x's side of g holds the smaller
        # where the rest is positive (g > x) and the positive one where not (g <= 0)
        u = (t + np.copysign(np.sqrt(disc), t)) / 2.0
        new = np.where((rest > 0) | (t < 0), a * g / u, u)
        new = np.where(new >= hi, (x + hi) / 2.0, np.where(new <= lo, (x + lo) / 2.0, new))
        done |= np.abs(new - x) <= tol
        x = np.where(done, x, new)
        if done.all():
            return x
    raise RuntimeError(f"secular solver did not converge in {_SECULAR_MAX_STEPS} steps")


def top_eigenpair(
    p,
    iters: int = 30,
    rng: np.random.Generator | None = None,
    tol: float | None = None,
) -> tuple[float, np.ndarray]:
    """Top eigenpair of the simplex FIM at p, by power iteration.

    It iterates v <- normalize(p*v - (p.v) p) for `iters` steps from a
    seeded random unit vector projected orthogonal to the all-ones direction
    (a start inside the kernel would stall); the exact eigenpairs come from
    `spectrum`.  The default budget of 30 steps follows the fixed-budget
    convention; pass `tol` to stop early once the iterate moves by less than
    tol (needed when the eigenvalue ratio is close to 1 and a tight
    eigenvalue is required).  Each step's arithmetic, in its order, is held
    bit for bit to the reference loop in tests/helpers.py.

    Returns (lambda_max, v) with v sign-canonicalized.
    """
    v = _prob(p)
    if rng is None:
        raise ValueError("power iteration needs an explicit rng")
    if iters < 1:
        raise ValueError("power iteration needs at least one step")
    C = v.size
    ones = np.ones(C)
    while True:
        u = rng.normal(size=C)
        u -= u.dot(ones) / C
        norm = math.sqrt(u.dot(u))
        if norm > 1e-12:
            u /= norm
            break
    # one step is w = v*u - (v.u) v, then w / |w|: written into two buffers that
    # swap, with |w| = sqrt(w.w) as np.linalg.norm forms it
    w = np.empty(C)
    vs = np.empty(C)
    for _ in range(iters):
        np.multiply(v, v.dot(u), out=vs)
        np.multiply(v, u, out=w)
        w -= vs
        norm = math.sqrt(w.dot(w))
        if norm == 0.0:
            break  # u hit the kernel exactly; keep the previous iterate
        w /= norm
        if tol is not None and math.sqrt(np.subtract(w, u, out=vs).dot(vs)) <= tol:
            u = w
            break
        u, w = w, u
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


def empirical_simplex_fim(p, y: int) -> np.ndarray:
    """R(y) = (e_y - p)(e_y - p)^T, the (C, C) rank-1 unbiased estimate of the
    simplex FIM from one observed label.  An integral float such as 1.0 is
    that label; True and 1.5 raise ValueError."""
    v = _prob(p)
    label = np.asarray(y)
    _check_integral(label, "label")
    y = int(label)
    if not 0 <= y < v.size:
        raise ValueError(f"label {y} out of range for {v.size} classes")
    r = -v.copy()
    r[y] += 1.0
    return np.outer(r, r)


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
