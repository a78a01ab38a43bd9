"""Shared test oracles: brute-force references kept independent of the
implementation paths they check."""

import itertools

import numpy as np

from fimlab import autodiff as ad
from fimlab.estimators import ProbeVector, hutchinson_fim
from fimlab.network import NetworkSpec, forward_logits, init_params, softmax


def charpoly_eigs(M: np.ndarray) -> np.ndarray:
    """Eigenvalues as roots of the characteristic polynomial, ascending.

    Deliberately avoids eigh: np.poly builds det(xI - M) from minors and
    np.roots factors a companion matrix via its own path.
    """
    coeffs = np.poly(M)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def jacobian_and_logits(net, theta, x):
    """(J, z) for one sample x: J[i] = dz_i/dtheta and the logits z.

    A per-sample oracle: its own forward of x alone, then one ad.gradient per
    one-hot seed at those logits; no batched forward, row view or estimator
    code path.
    """
    logits = forward_logits(net, theta, np.asarray(x, dtype=np.float64)[None, :])
    J = np.array([ad.gradient(logits, e[None, :]) for e in np.eye(net.n_classes)])
    return J, logits.data[0]


def loglik_gradients(net, theta, x):
    """(p, G) for one sample x: p(y|x) and G[y] = d log p(y|x) / dtheta.

    A per-sample oracle like `jacobian_and_logits`: its own forward of x
    alone, its log-softmax, then one ad.gradient per one-hot seed.
    """
    lsm = ad.log_softmax(forward_logits(net, theta, np.asarray(x, dtype=np.float64)[None, :]))
    G = np.array([ad.gradient(lsm, e[None, :]) for e in np.eye(net.n_classes)])
    return np.exp(lsm.data[0]), G


def replay(tape: ad.Tape) -> bool:
    """Re-run every recorded op of `tape` by its forward rule in autodiff's rule
    table, and form each node's local factor again from its value; True iff
    every value reproduces bit for bit, and every factor to the bit and dtype."""
    for node in tape.nodes:
        if node.op not in ("const", "param"):
            parents = [tape.nodes[j].value for j in node.parents]
            again = ad._RULES[node.op][0](node.ctx, *parents)
            if not np.array_equal(again, node.value):
                return False
            if node.op in ad._FACTORS:
                factor = ad._FACTORS[node.op](node.value, *parents)
                if node.factor is None or (factor.dtype, factor.shape, factor.tobytes()) != (
                        node.factor.dtype, node.factor.shape, node.factor.tobytes()):
                    return False
            elif node.factor is not None:
                return False
    return True


def validate(estimate) -> None:
    """Raise ValueError unless the estimate is finite and, diagonal, nonnegative
    or, dense, symmetric and positive semidefinite (one dense eigvalsh)."""
    if not np.isfinite(estimate.values).all():  # NaN passes every test below, an infinity warns
        raise ValueError(f"{estimate.storage} estimate has a non-finite entry (NaN or infinity)")
    if estimate.storage == "diagonal":
        if np.min(estimate.values, initial=0.0) < -1e-12:
            raise ValueError("diagonal estimate has a negative entry")
        return
    m = estimate.values
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise ValueError("dense estimate is not symmetric")
    if float(np.linalg.eigvalsh((m + m.T) / 2.0)[0]) < -1e-10:
        raise ValueError("dense estimate is not positive semidefinite")


def sample_label(p: np.ndarray, rng: np.random.Generator) -> int:
    """One label y ~ p from one uniform: its own cumulative sum of p, clipped to
    the last label where the uniform reaches the rounded total."""
    return int(np.searchsorted(np.cumsum(p), rng.uniform(), side="right").clip(0, p.size - 1))


def power_top_eigenpair(v: np.ndarray, iters: int, rng: np.random.Generator, tol=None):
    """(lam, u): the power iteration on diag(v) - v v^T, one fresh array per
    operation, in the arithmetic order simplex.top_eigenpair keeps bit for bit."""
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
            break
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
