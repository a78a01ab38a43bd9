"""Fisher information geometry of classifier output distributions.

A C-way softmax head parameterizes a point on the probability simplex; a
multi-label sigmoid head parameterizes a point on the unit hypercube.  Both
carry a closed-form C x C Fisher information matrix over the logits:

    simplex:    diag(p) - p p^T          (rank C-1, kernel spanned by ones)
    hypercube:  diag(p_i (1 - p_i))

Everything downstream -- pullback estimates, deterministic bounds, probe
estimators -- reduces to spectral questions about these small matrices, so
this module also provides their eigendecompositions, the analytic bracket on
the top eigenvalue, a batched secular solver for the extreme eigenvalues of a
rank-one downdate diag(lam) - z z^T, the diagonal / rank-1 envelopes with their
error bounds, and the single-label empirical counterpart
R(y) = (e_y - p)(e_y - p)^T with its entrywise variance.

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


_SECULAR_MAX_STEPS = 64  # a guard on _secular_extremes' loops; reaching it raises
_EPS = np.finfo(np.float64).eps


def _secular_extremes(lam, z) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of diag(lam) - z z^T, row by row.

    lam (..., r) holds ascending eigenvalues and z (..., r) the update
    vectors; the two broadcast against each other.  By interlacing, each
    extreme eigenvalue is lam_end - delta with delta the root of the
    increasing secular function 1 - sum_i z_i^2 / (delta - (lam_end - lam_i))
    in a known bracket (Golub 1973; Bunch, Nielsen and Sorensen 1978):
    [0, |z|^2] below lam_1 and [0, min(z_r^2, lam_r - lam_(r-1))] below
    lam_r.  A z_i too small to move any eigenvalue by more than rounding
    against the row's scale max|lam| + |z|^2 is deflated, and lam_i then
    stays an eigenvalue.  Both roots come from rational models that keep
    the pole at lam_end exact (LAPACK dlaed4's approach), and a row stops
    once its step falls under 4 eps of its scale, so both ends are exact to
    rounding in that scale.
    """
    lam, z = np.broadcast_arrays(np.asarray(lam, dtype=np.float64), np.asarray(z, dtype=np.float64))
    shape, r = lam.shape[:-1], lam.shape[-1]
    lam = lam.reshape(-1, r)
    w = (z * z).reshape(-1, r)
    total = np.sum(w, axis=1)
    tol = 4.0 * _EPS * (np.max(np.abs(lam), axis=1) + total)
    w[np.sqrt(w * total[:, None]) <= 2.0 * tol[:, None]] = 0.0
    bottom, top = lam[:, 0].copy(), lam[:, -1].copy()
    rows = np.flatnonzero(np.any(w > 0, axis=1))
    bottom[rows] = np.minimum(bottom[rows], _bottom_root(lam[rows], w[rows], tol[rows]))
    rows = np.flatnonzero(w[:, -1] > 0)
    top[rows] = _top_root(lam[rows], w[rows], tol[rows])
    return bottom.reshape(shape), top.reshape(shape)


def _bottom_root(lam, w, tol):
    """lam_o - delta, the smallest eigenvalue of diag(lam) - z z^T (w = z^2)
    restricted to its live components; lam_o is the lowest live pole.

    The pole at lam_o, of weight a, is kept exact; the rest of the secular
    sum is fitted by c / (delta + s) in value and slope.  That fit never
    exceeds the rest (1 / rest is concave in delta), so from the
    Rayleigh-quotient start every iterate stays below the root and rises.
    """
    n = np.arange(len(lam))
    first = np.argmax(w > 0, axis=1)
    origin, a = lam[n, first], w[n, first]
    rest = w.copy()
    rest[n, first] = 0.0
    h = np.where(rest > 0, lam - origin[:, None], np.inf)
    total = np.sum(w, axis=1)
    # Rayleigh quotients at e_o and at z bound the root from below
    delta = np.maximum(a, total - np.sum(w * (lam - origin[:, None]), axis=1) / total)
    done = np.zeros(len(lam), dtype=bool)
    for _ in range(_SECULAR_MAX_STEPS):
        d = delta[:, None] + h
        q = rest / d
        r0, r1 = np.sum(q, axis=1), np.sum(q / d, axis=1)
        fit = r1 > 0
        r1 = np.where(fit, r1, 1.0)
        s = np.where(fit, r0 / r1 - delta, 0.0)
        c = np.where(fit, r0 * r0 / r1, 0.0)
        # root of 1 = a / delta + c / (delta + s) to the right of both poles
        t = a + c - s
        disc = np.sqrt(t * t + 4.0 * a * s)
        new = np.where(t >= 0, (t + disc) / 2.0, 2.0 * a * s / (disc + np.abs(t)))
        done |= np.abs(new - delta) <= tol
        delta = np.where(done, delta, new)
        if done.all():
            return origin - delta
    raise RuntimeError(f"secular solver did not converge in {_SECULAR_MAX_STEPS} steps")


def _top_root(lam, w, tol):
    """Largest eigenvalue of diag(lam) - z z^T, w = z^2, for rows whose z_r is live.

    With x = lam_r - mu the secular function is f(x) = 1 - w_r / x +
    sum_(i<r) w_i / (lam_r - lam_i - x), and the root lies in (0, hi],
    hi = min(w_r, lam_r - lam_(r-1)).  It is hi itself when f(hi) <= 0,
    which is how a deflated lam_(r-1) wins.  When hi is the nearest live
    pole gn, f(gn / 2) tells which pole the root is nearer, and that pole
    becomes the origin of the iteration, as in LAPACK's dlaed4.
    """
    r = lam.shape[1]
    a = w[:, -1]
    gaps = np.where(w > 0, lam[:, -1:] - lam, np.inf)
    gaps[:, -1] = np.inf  # live poles below lam_r, as distances from it
    gn = np.min(gaps, axis=1)
    hi = np.minimum(a, lam[:, -1] - lam[:, -2]) if r > 1 else a.copy()
    top = lam[:, -1] - hi

    def f(rows, x):
        return 1.0 - a[rows] / x + np.sum(w[rows] / (gaps[rows] - x[:, None]), axis=1)

    i = np.flatnonzero((hi > 0) & (hi < gn))
    i = i[f(i, hi[i]) > 0]  # the root lies below hi
    j = np.flatnonzero((hi > 0) & (hi >= gn))  # hi is the pole gn: split at gn / 2
    hi[j] = gn[j] / 2.0
    near = f(j, hi[j]) < 0  # the root lies nearer lam_n = lam_r - gn
    rows = np.concatenate([i, j])
    sign = np.ones(len(rows))
    sign[len(i):][near] = -1.0
    origin = lam[rows, np.where(sign < 0, np.argmin(gaps[rows], axis=1), r - 1)]
    # mu = origin - sign * x; the poles sit at x = sign * (origin - lam_i)
    poles = np.where(w[rows] > 0, sign[:, None] * (origin[:, None] - lam[rows]), np.inf)
    top[rows] = origin - sign * _interior_root(poles, w[rows], sign, hi[rows], tol[rows])
    return top


def _interior_root(poles, w, s0, hi, tol):
    """Root x in (0, hi] of F(x) = s0 + sum_i w_i / (poles_i - x), F(hi) >= 0.

    Every row has a live pole at 0, the rest at or below 0 ("near") or at
    or above gn > hi ("far").  The "middle way" model fits the near terms
    by c + b / x and the far terms by c' + b' / (gn - x), each in value and
    slope, and solves the quadratic; a step that leaves the sign bracket
    goes half way to the bracket's end instead.
    """
    near = poles <= 0
    gn = np.min(np.where(near, np.inf, poles), axis=1)
    lo, x = np.zeros(len(hi)), hi.copy()
    done = np.zeros(len(hi), dtype=bool)
    for k in range(_SECULAR_MAX_STEPS):
        d = poles - x[:, None]
        t = w / d
        t2 = t / d
        F = s0 + np.sum(t, axis=1)
        if k:
            lo = np.where(F < 0, x, lo)
            hi = np.where(F > 0, x, hi)
        done |= F == 0
        e = gn - x
        bn = x * x * np.sum(np.where(near, t2, 0.0), axis=1)
        bf = e * e * np.sum(np.where(near, 0.0, t2), axis=1)
        c = F + bn / x - bf / e
        cg = c * gn
        # root in (0, gn) of c - bn / x + bf / (gn - x); its discriminant
        # (cg + bn + bf)^2 - 4 cg bn is written as a sum of squares where it would cancel
        disc = np.where(c > 0, (cg - bn) ** 2 + bf * (bf + 2.0 * (cg + bn)), (cg + bn + bf) ** 2 - 4.0 * cg * bn)
        new = 2.0 * bn * gn / (cg + bn + bf + np.sqrt(disc))
        new = np.where(new >= hi, (x + hi) / 2.0, np.where(new <= lo, (x + lo) / 2.0, new))
        done |= np.abs(new - x) <= tol
        x = np.where(done, x, new)
        if done.all():
            return x
    raise RuntimeError(f"secular solver did not converge in {_SECULAR_MAX_STEPS} steps")


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
