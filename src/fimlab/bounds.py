"""Deterministic Loewner-order bounds on the network FIM and their gaps.

For each sample the C x C output FIM is sandwiched between its rank-k top
eigenspace and the diagonal matrix of output probabilities; pulling both
sides through the per-sample Jacobian gives matching bounds on the
dim(theta) x dim(theta) FIM.  This module builds the sandwich, the trace
chain it implies, and the tightness certificates: Frobenius brackets for the
upper-bound and lower-bound gaps, a spectral-norm bound on the empirical-FIM
error valid for every label assignment, and the adversarial-label floor
showing that error cannot be escaped, with the worst label found by
exhaustive search.

Everything starts from one stacked pass: the per-sample Jacobians
J (B, C, dim) and the cores diag(p) - p p^T, eigendecomposed in one batched
call.  The certificates stay in the core space, where they need only the
cores and K = J J^T, the (B C x B C) Gram of the stacked Jacobian (the
network's empirical neural tangent kernel).  A gap sum_x J_x^T A_x J_x
shares its nonzero eigenvalues with S A S^T for any S with S^T S = K, so
its Frobenius and spectral norms are those of S A S^T, and come exactly
from eigvalsh.  S is J^T, with dim rows, from B C >= 0.6 dim on, and
otherwise is read off one eigh of K, with B C rows.
Each label's error at one sample is such a norm too, of
R_x (core_x - r r^T) R_x^T with r = e_y - p and R_x^T R_x = J_x J_x^T, the
transposed Cholesky factor of the sample's C x C Gram block; that block is
at least the identity, the Gram of the last bias, so the factor exists.
For B samples of C classes, from B C^4 >= _SECULAR_MIN_WORK on, these C
norms per sample come from one eigh of R_x core_x R_x^T and the outer roots
of one secular equation per label (simplex._secular_extremes: one batched
iteration for both roots, run to rounding by a convergence test); below
it, from one eigvalsh per (sample, label).  The Loewner margin that checks
a sandwich is exact too: one eigvalsh of the symmetrised difference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimators import DENSE_DIM_CAP, _check_categorical, _check_labels, _check_rank, _core, _jacobian_stack
from .network import NetworkSpec, softmax
from .simplex import _secular_extremes, simplex_matrix

__all__ = [
    "BoundPair",
    "TraceBounds",
    "TightnessReport",
    "pullback_bounds",
    "trace_bounds",
    "tightness_report",
    "loewner_margin",
]


class _CoreSpace(NamedTuple):
    J: np.ndarray  # (B, C, dim) stacked Jacobians
    p: np.ndarray  # (B, C) output probabilities
    core: np.ndarray  # (B, C, C) diag(p) - p p^T
    lam: np.ndarray  # (B, C) ascending eigenvalues of core
    V: np.ndarray  # (B, C, C) matching eigenvector columns
    gram: np.ndarray  # (B, C, C) J J^T
    sigma2: np.ndarray  # (B, C) ascending squared singular values of J


def _core_space(net: NetworkSpec, theta, X) -> _CoreSpace:
    J, z, _ = _jacobian_stack(net, theta, X)
    p = softmax(z)
    core = simplex_matrix(p)
    lam, V = np.linalg.eigh(core)
    gram = J @ J.swapaxes(1, 2)
    sigma2 = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    return _CoreSpace(J=J, p=p, core=core, lam=lam, V=V, gram=gram, sigma2=sigma2)


@dataclass(frozen=True)
class BoundPair:
    """Deterministic sandwich lower <= F <= upper in the Loewner order."""

    lower: np.ndarray
    upper: np.ndarray
    k: int


def pullback_bounds(net: NetworkSpec, theta, X, k: int) -> BoundPair:
    """Rank-k lower bound and diagonal-weight upper bound on the FIM.

    lower = sum_x sum over the k largest eigenpairs of lam_i J^T v_i v_i^T J
    upper = sum_x sum_y p_y (dz_y/dtheta)(dz_y/dtheta)^T

    These are the weighted Gram products of the low-rank and diagonal probe
    cores.  The lower bound has rank at most k * n_samples and equals the
    FIM at k = C-1 because the remaining eigenvalue is zero.
    """
    _check_categorical(net.n_classes)
    k = _check_rank(k, net.n_classes)
    J, z, _ = _jacobian_stack(net, theta, X)
    lower = _core("lowrank", z, k=k).gram(J, "dense")
    upper = _core("diag", z).gram(J, "dense")
    return BoundPair(lower=lower, upper=upper, k=k)


class TraceBounds(NamedTuple):
    lower: float
    vn_lower: float
    trace: float
    upper: float


def trace_bounds(net: NetworkSpec, theta, X) -> TraceBounds:
    """Trace chain: sum lam_max sigma_min^2 <= von Neumann pairing <= tr F
    <= sum_y p_y |dz_y/dtheta|^2, summed over samples."""
    _check_categorical(net.n_classes)
    return _trace_chain(_core_space(net, theta, X))


def loewner_margin(A: np.ndarray, B: np.ndarray) -> float:
    """Smallest eigenvalue of B - A; nonnegative iff A <= B in Loewner order.

    Exact at every size: one eigvalsh of the symmetrised difference, capped
    at DENSE_DIM_CAP like all dim x dim work.  A non-finite entry in A or B,
    or a difference that overflows, raises ValueError: no eigenvalue of such
    a difference certifies an order.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("loewner_margin expects two square matrices of equal shape")
    if A.shape[0] > DENSE_DIM_CAP:
        raise ValueError(f"margin computation capped at dim {DENSE_DIM_CAP}, got {A.shape[0]}")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("loewner_margin expects finite matrices")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        D = B - A
        sym = (D + D.T) / 2.0
        asym = np.max(np.abs(D - D.T))
    if not np.isfinite(sym).all():
        raise ValueError("loewner_margin: B - A is not finite (the difference overflows float64)")
    if asym > 1e-10 * max(1.0, float(np.max(np.abs(D)))):
        raise ValueError("difference matrix is not symmetric")
    return float(np.linalg.eigvalsh(sym)[0])


@dataclass
class TightnessReport:
    """Gap chains and certificates for the deterministic bounds.

    upper_gap_lhs <= upper_gap <= upper_gap_rhs brackets the Frobenius error
    of the diagonal-weight upper bound; lower_gap <= lower_gap_rhs (with the
    looser lower_gap_rhs_relaxed above it) controls the rank-k lower bound;
    efim_gap <= efim_gap_bound holds for every label assignment in spectral
    norm; and per sample the exhaustively-worst label realizes a spectral
    error of at least adversarial_floors[i].
    """

    k: int
    upper_gap_lhs: float
    upper_gap: float
    upper_gap_rhs: float
    lower_gap: float
    lower_gap_rhs: float
    lower_gap_rhs_relaxed: float
    trace_lower: float
    trace_mid: float
    trace_value: float
    trace_upper: float
    efim_gap: float | None
    efim_gap_bound: float
    adversarial_errors: tuple
    adversarial_floors: tuple
    adversarial_labels: tuple
    per_label_errors: tuple  # per sample: spectral error of each label choice
    per_sample_efim_bounds: tuple  # per sample: (1 + |p|^2) sigma_max^2

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2)


def tightness_report(net: NetworkSpec, theta, X, k: int = 1, labels=None) -> TightnessReport:
    """All bound-gap certificates for one (network, parameters, inputs) triple.

    Labels are optional; when given, one per sample, the realized
    empirical-FIM error in spectral norm is reported against its universal
    bound.  The adversarial floor is always computed by exhaustive search
    over the label of each sample (ties within _LABEL_TIE_RTOL go to the
    lowest label): every label's error, exact to rounding,
    from one batched eigh per sample and a secular solve per label at
    B C^4 >= _SECULAR_MIN_WORK, from one eigvalsh per label below.

    The norms come from the Gram K = J J^T of the stacked Jacobian: the
    three gaps of the sums from a root S of K (J^T itself from
    B C >= _JT_ROOT_MIN_FILL * dim on, else from one gemm and one eigh of
    K), each sample's label errors from the Cholesky factor of its Gram
    block.  No QR, and no matrix factored larger than
    min(dim, B C / _JT_ROOT_MIN_FILL) square.
    """
    C = net.n_classes
    _check_categorical(C)
    k = _check_rank(k, C)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    B = X.shape[0]
    if B == 0:
        raise ValueError("a tightness report needs at least one sample, got none")
    if labels is not None:
        labels = _check_labels(labels, B, C)
    s = _core_space(net, theta, X)
    sq = np.sum(s.p * s.p, axis=1)
    q = np.sort(s.p, axis=1)
    top_sigma2 = s.sigma2[:, -1]

    omega = np.einsum("bc,bcd->bd", s.p, s.J)
    # ascending order-stat index j in [1, C-k-1] pairs with singular j+k
    j = np.arange(1, C - k)
    lower_rhs = np.sqrt(np.sum(s.sigma2[:, j + k] ** 2 * q[:, j] ** 2, axis=1))
    lower_rhs_relaxed = np.sqrt(np.sum(q[:, j] ** 2, axis=1)) * top_sigma2
    per_sample_bounds = (1.0 + sq) * top_sigma2
    floors = s.sigma2[:, 0] * np.abs(1.0 + sq - s.lam[:, -1] - 2.0 * q[:, 0])

    # gaps of the sums: upper - F pulls back p p^T, F - lower the bottom C-k
    # eigenpairs, F - efim the core minus r r^T with r = e_y - p
    S = _gram_root(s.J)
    bottom = s.V[:, :, : C - k]
    bottom_part = (bottom * s.lam[:, None, : C - k]) @ bottom.swapaxes(1, 2)
    upper_gap = np.linalg.norm(_core_gap(S, s.p[:, :, None] * s.p[:, None, :]))
    lower_gap = np.linalg.norm(_core_gap(S, bottom_part))
    residuals = np.eye(C) - s.p[:, None, :]  # (B, y, C): row y is e_y - p
    efim_gap = None
    if labels is not None:
        r = residuals[np.arange(B), labels]
        efim_gap = _spectral(_core_gap(S, s.core - r[:, :, None] * r[:, None, :]))
    # per sample, R_x = L_x^T for the Cholesky factor L_x of J_x J_x^T >= I
    errs = _label_errors(np.linalg.cholesky(s.gram).swapaxes(1, 2), s.core, residuals)
    top = np.max(errs, axis=1)
    worst = np.argmax(top[:, None] - errs <= _LABEL_TIE_RTOL * top[:, None], axis=1)

    tb = _trace_chain(s)
    return TightnessReport(
        k=k,
        upper_gap_lhs=float(np.sqrt(np.sum(np.sum(omega * omega, axis=1) ** 2))),
        upper_gap=float(upper_gap),
        upper_gap_rhs=float(sq @ top_sigma2),
        lower_gap=float(lower_gap),
        lower_gap_rhs=float(np.sum(lower_rhs)),
        lower_gap_rhs_relaxed=float(np.sum(lower_rhs_relaxed)),
        trace_lower=tb.lower,
        trace_mid=tb.vn_lower,
        trace_value=tb.trace,
        trace_upper=tb.upper,
        efim_gap=None if efim_gap is None else float(efim_gap),
        efim_gap_bound=float(np.sum(per_sample_bounds)),
        adversarial_errors=tuple(float(e) for e in top),
        adversarial_floors=tuple(float(f) for f in floors),
        adversarial_labels=tuple(int(y) for y in worst),
        per_label_errors=tuple(tuple(float(e) for e in row) for row in errs),
        per_sample_efim_bounds=tuple(float(b) for b in per_sample_bounds),
    )


# S = J^T, with dim rows, from B*C >= _JT_ROOT_MIN_FILL * dim on; below it, S from one eigh
# of K, with B*C rows.  tightness_report, eigh root / J^T in ms at B*C/dim (one OpenBLAS
# 0.3.31 thread on a 2-core x86 box, the routes interleaved, best of 7, of 3 at dim 2085):
# 10-32-5 tanh net (dim 517): 0.41 22.6/22.9, 0.50 19.6/20.0, 0.61 29.3/37.2, 0.71 58.4/44.6,
# 0.80 75.5/41.4, 0.91 109/58.4; 16-16-50 (dim 1122): 0.40 86.3/106, 0.53 149/154,
# 0.62 199/161, 0.71 231/143, 0.80 313/173; 20-80-5 (dim 2085): 0.50 476/402, 0.60 831/545,
# 0.70 1275/704, 0.90 2669/902.  The routes cross between 0.5 and 0.7; runs on a shared
# machine moved single readings by up to 30%.
_JT_ROOT_MIN_FILL = 0.6


def _gram_root(J: np.ndarray) -> np.ndarray:
    """S with S^T S = K = J J^T for the stacked (B, C, dim) J.

    From B*C >= _JT_ROOT_MIN_FILL * dim on, J^T itself.  Below it,
    S = sqrt(e) U^T (B*C rows) from one eigh K = U diag(e) U^T, with the
    eigenvalues that rounding put below zero (K is singular when two
    samples share a Jacobian) counted as zero: there the gaps' dim x dim
    products would cost more than the (B*C)^3 eigh.
    """
    flat = J.reshape(-1, J.shape[2])
    if flat.shape[0] >= _JT_ROOT_MIN_FILL * flat.shape[1]:
        return flat.T
    e, U = np.linalg.eigh(flat @ flat.T)
    return np.sqrt(np.maximum(e, 0.0))[:, None] * U.T


def _core_gap(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """S A S^T for the block-diagonal A with (C, C) blocks A[b]; S is (r, B*C)."""
    B, C, _ = A.shape
    SA = S.reshape(S.shape[0], B, C).swapaxes(0, 1) @ A  # (B, r, C)
    return SA.swapaxes(0, 1).reshape(S.shape) @ S.T


# The adversarial label is the lowest within this relative distance of its sample's largest
# error: saturated labels tie in exact arithmetic, and an argmax would pick one by rounding.
_LABEL_TIE_RTOL = 1e-12

# Below this B C^4 (B samples, C classes) the per-label errors come from the (B, C, C, C)
# stack, one eigvalsh per (sample, label), whose cost grows with B C^4; from it on, from
# one eigh per sample and the secular solver, whose cost is mostly per iteration.
# _label_errors alone on a (16, 16, C) tanh net, best of 4 runs of 7 x 20 calls, one
# OpenBLAS 0.3.31 thread on a 2-core x86 box, stack / solver in ms at (B, C): (4, 16)
# 1.02 / 0.77, (4, 20) 2.08 / 0.83, (16, 8) 0.61 / 0.80, (16, 12) 1.69 / 1.29, (64, 8)
# 2.24 / 2.10, (64, 12) 6.73 / 3.88, (1, 24) 0.80 / 0.55, (1, 32) 1.71 / 0.61.  Just below
# the line, at (4, 16) and (64, 8), the solver leads by 25% and 6%, inside the spread of
# single readings between runs on this shared machine (up to 30%), so the line stays.
_SECULAR_MIN_WORK = 24**4


def _label_errors(Rx: np.ndarray, core: np.ndarray, residuals: np.ndarray) -> np.ndarray:
    """(B, C) spectral norms of R_x (core_x - r r^T) R_x^T, r = e_y - p, R_x^T R_x = J_x J_x^T.

    Each is the error of label y's empirical FIM at sample x.  From
    B C^4 >= _SECULAR_MIN_WORK on, one eigh of A_x = R_x core_x R_x^T =
    W diag(lam) W^T per sample turns every label's matrix into
    W (diag(lam) - z z^T) W^T with z = W^T R_x r, whose extreme eigenvalues
    are the outer roots of a secular equation: no C x C matrix per label.
    """
    if core.shape[0] * core.shape[-1] ** 4 < _SECULAR_MIN_WORK:
        Rx = Rx[:, None]
        label_cores = core[:, None] - residuals[..., :, None] * residuals[..., None, :]
        return _spectral(Rx @ label_cores @ Rx.swapaxes(2, 3))
    lam, W = np.linalg.eigh(Rx @ core @ Rx.swapaxes(1, 2))
    bottom, top = _secular_extremes(lam[:, None, :], residuals @ Rx.swapaxes(1, 2) @ W)
    return np.maximum(np.abs(bottom), np.abs(top))


def _spectral(M: np.ndarray) -> np.ndarray:
    """Spectral norm of each symmetric matrix in a stack, by eigvalsh.

    It serves the efim gap and, below _SECULAR_MIN_WORK, the per-label
    stack; above it, the per-label errors come from _label_errors' solver.
    """
    return np.max(np.abs(np.linalg.eigvalsh(M)), axis=-1, initial=0.0)


def _trace_chain(s: _CoreSpace) -> TraceBounds:
    # ascending eigenvalues paired with descending squared singulars
    return TraceBounds(
        lower=float(s.lam[:, -1] @ s.sigma2[:, 0]),
        vn_lower=float(np.sum(s.lam[:, 1:] * s.sigma2[:, ::-1][:, 1:])),
        trace=float(np.sum(s.core * s.gram)),
        upper=float(np.sum(s.p * np.diagonal(s.gram, axis1=1, axis2=2))),
    )
