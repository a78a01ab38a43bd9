"""Shared test oracles: brute-force references kept independent of the
implementation paths they check."""

import itertools

import numpy as np

from fimlab.estimators import ProbeVector, hutchinson_fim, jacobian_and_logits
from fimlab.network import NetworkSpec, init_params, softmax


def charpoly_eigs(M: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, ascending.

    Deliberately avoids eigh: np.poly builds det(xI - M) from minors and
    np.roots factors a companion matrix via its own path.
    """
    coeffs = np.poly(M)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def dirichlet(rng: np.random.Generator, C: int, alpha: float = 1.0) -> np.ndarray:
    return rng.dirichlet(np.full(C, alpha))


def random_instance(rng, layer_sizes=(2, 3), activation="none", n_samples=2, x_scale=1.0):
    """A random (net, theta, X) triple for estimator tests."""
    net = NetworkSpec(tuple(layer_sizes), activation)
    theta = init_params(net, rng)
    X = x_scale * rng.normal(size=(n_samples, net.n_inputs))
    return net, theta, X


def rademacher_probes(shape):
    """All +-1 assignments of the given shape, as ProbeVectors."""
    n = int(np.prod(shape))
    for bits in itertools.product((-1.0, 1.0), repeat=n):
        yield ProbeVector(np.array(bits).reshape(shape), "rademacher")


def enumeration_mean(net, theta, X, variant, storage="dense", **kwargs):
    """Exact expectation of a probe estimator over all Rademacher probes."""
    B = np.atleast_2d(X).shape[0]
    k = kwargs.get("k", 1)
    shape = (B, k) if variant == "lowrank" else (B, net.n_classes)
    acc = None
    count = 0
    for probe in rademacher_probes(shape):
        est = hutchinson_fim(net, theta, X, variant, probe=probe, storage=storage, **kwargs)
        acc = est.values if acc is None else acc + est.values
        count += 1
    return acc / count


def enumeration_diag_moments(net, theta, X, variant, **kwargs):
    """Exact per-coordinate mean and variance of the diagonal estimate."""
    B = np.atleast_2d(X).shape[0]
    k = kwargs.get("k", 1)
    shape = (B, k) if variant == "lowrank" else (B, net.n_classes)
    draws = []
    for probe in rademacher_probes(shape):
        est = hutchinson_fim(net, theta, X, variant, probe=probe, storage="diagonal", **kwargs)
        draws.append(est.values)
    draws = np.array(draws)
    return draws.mean(axis=0), draws.var(axis=0)  # population variance: probes equiprobable


def qr_tightness_report(net, theta, X, k, labels):
    """Every TightnessReport field, by the QR route and per-sample Jacobians.

    The gaps of the sums are norms of R A R^T for the reduced QR factorization
    J^T = Q R of the stacked Jacobian; each sample's R_x comes from a QR of
    its column block of R, so R_x^T R_x = J_x J_x^T; every label's error is one
    eigvalsh of R_x (core_x - r r^T) R_x^T with r = e_y - p.
    """
    X = np.atleast_2d(X)
    B, C = X.shape[0], net.n_classes
    J, z = (np.stack(parts) for parts in zip(*(jacobian_and_logits(net, theta, x) for x in X)))
    p = softmax(z)
    core = np.stack([np.diag(row) - np.outer(row, row) for row in p])
    lam, V = np.linalg.eigh(core)
    gram = J @ J.swapaxes(1, 2)
    sigma2 = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    blocks = np.linalg.qr(J.reshape(B * C, -1).T, mode="r").reshape(-1, B, C)

    def gap(A):  # R diag(A_1, ..., A_B) R^T
        return sum(blocks[:, b] @ A[b] @ blocks[:, b].T for b in range(B))

    def spectral(M):
        return np.max(np.abs(np.linalg.eigvalsh(M)))

    residuals = np.eye(C) - p[:, None, :]  # (B, y, C): row y is e_y - p
    errs = np.empty((B, C))
    for b in range(B):
        Rx = np.linalg.qr(blocks[:, b], mode="r")
        errs[b] = [spectral(Rx @ (core[b] - np.outer(r, r)) @ Rx.T) for r in residuals[b]]
    top = errs.max(axis=1)
    sq = np.sum(p * p, axis=1)
    q = np.sort(p, axis=1)
    j = np.arange(1, C - k)
    bottom = V[:, :, : C - k]
    omega = np.einsum("bc,bcd->bd", p, J)
    r = residuals[np.arange(B), labels]
    return dict(
        k=k,
        upper_gap_lhs=np.sqrt(np.sum(np.sum(omega * omega, axis=1) ** 2)),
        upper_gap=np.linalg.norm(gap(p[:, :, None] * p[:, None, :])),
        upper_gap_rhs=sq @ sigma2[:, -1],
        lower_gap=np.linalg.norm(gap((bottom * lam[:, None, : C - k]) @ bottom.swapaxes(1, 2))),
        lower_gap_rhs=np.sum(np.sqrt(np.sum(sigma2[:, j + k] ** 2 * q[:, j] ** 2, axis=1))),
        lower_gap_rhs_relaxed=np.sum(np.sqrt(np.sum(q[:, j] ** 2, axis=1)) * sigma2[:, -1]),
        trace_lower=lam[:, -1] @ sigma2[:, 0],
        trace_mid=np.sum(lam[:, 1:] * sigma2[:, ::-1][:, 1:]),
        trace_value=np.sum(core * gram),
        trace_upper=np.sum(p * np.diagonal(gram, axis1=1, axis2=2)),
        efim_gap=spectral(gap(core - r[:, :, None] * r[:, None, :])),
        efim_gap_bound=np.sum((1.0 + sq) * sigma2[:, -1]),
        adversarial_errors=top,
        adversarial_floors=sigma2[:, 0] * np.abs(1.0 + sq - lam[:, -1] - 2.0 * q[:, 0]),
        adversarial_labels=tuple(int(np.flatnonzero(top[b] - errs[b] <= 1e-12 * top[b])[0]) for b in range(B)),
        per_label_errors=errs,
        per_sample_efim_bounds=(1.0 + sq) * sigma2[:, -1],
    )
