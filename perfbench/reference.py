"""Independent numpy oracles for the benchmark's output checks.

Nothing here imports fimlab: the per-sample Jacobian of a tanh MLP is
written out by hand (one batched reverse pass over the layers, with the
weight blocks built as outer(activation, delta)), and every reference
quantity is derived from it with plain numpy.  The flat parameter layout
(W0, b0, W1, b1, ..., weights row-major with shape (fan_in, fan_out)) is the
documented layout of `fimlab.network`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def tanh_mlp_jacobian(layer_sizes, theta: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J, z): J[b, c] = dz_c(x_b)/dtheta with shape (B, C, dim), z the logits."""
    pairs = list(zip(layer_sizes, layer_sizes[1:]))
    weights, biases, pos = [], [], 0
    for n_in, n_out in pairs:
        weights.append(theta[pos:pos + n_in * n_out].reshape(n_in, n_out))
        pos += n_in * n_out
        biases.append(theta[pos:pos + n_out])
        pos += n_out
    if pos != theta.size:
        raise ValueError("theta does not match the layer sizes")
    acts = [X]
    for k, (W, b) in enumerate(zip(weights, biases)):
        pre = acts[-1] @ W + b
        acts.append(pre if k == len(weights) - 1 else np.tanh(pre))
    z = acts[-1]
    B, C = z.shape
    delta = np.broadcast_to(np.eye(C), (B, C, C))  # d z_c / d pre_last
    blocks = []
    for k in range(len(weights) - 1, -1, -1):
        a = acts[k]
        blocks.append(delta)  # bias block
        blocks.append((a[:, None, :, None] * delta[:, :, None, :]).reshape(B, C, -1))
        if k:
            delta = (delta @ weights[k].T) * (1.0 - a * a)[:, None, :]
    return np.concatenate(blocks[::-1], axis=2), z


def top_eigenpairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of diag(p) - pp^T per row of p.

    The vector's sign makes its largest-magnitude entry positive (lowest
    index on ties), the convention fimlab documents for its eigenvectors.
    """
    M = np.einsum("bc,cd->bcd", p, np.eye(p.shape[1])) - p[:, :, None] * p[:, None, :]
    w, V = np.linalg.eigh(M)
    lam, v = w[:, -1], V[:, :, -1]
    idx = np.argmax(np.abs(v), axis=1)
    v = v * np.sign(v[np.arange(v.shape[0]), idx])[:, None]
    return lam, v


@dataclass
class Instance:
    """Reference quantities of one (network, parameters, inputs) instance."""

    J: np.ndarray  # (B, C, dim)
    p: np.ndarray  # (B, C)
    L: np.ndarray  # (B, C, dim) log-likelihood gradients J - p.J

    @classmethod
    def build(cls, layer_sizes, theta, X) -> "Instance":
        J, z = tanh_mlp_jacobian(layer_sizes, np.asarray(theta, dtype=np.float64), X)
        p = softmax(z)
        L = J - np.einsum("bc,bcd->bd", p, J)[:, None, :]
        return cls(J=J, p=p, L=L)

    # Magnitudes: the same sums with every term replaced by its absolute value.
    # A confident sample's log-likelihood gradient is a difference of nearly
    # equal terms, so agreement is judged against the size of the terms
    # summed, not against the (possibly tiny) result.

    def L_abs(self) -> np.ndarray:
        A = np.abs(self.J)
        return A + np.einsum("bc,bcd->bd", self.p, A)[:, None, :]

    def fim_magnitude(self) -> float:
        return float(np.max(np.einsum("bc,bcd->d", self.p, self.L_abs() ** 2)))

    def efim_magnitude(self, labels) -> float:
        rows = self.L_abs()[np.arange(self.J.shape[0]), labels]
        return float(np.max(np.sum(rows * rows, axis=0)))

    def probe_magnitude(self, variant: str, xi: np.ndarray) -> float:
        terms = self.J if variant == "diag" else self.L_abs()
        return float(np.max(np.einsum("bc,bcd->d", np.abs(xi) * np.sqrt(self.p), np.abs(terms)))) ** 2

    def sandwich_magnitude(self) -> float:
        lam, v = top_eigenpairs(self.p)
        A = np.abs(self.J)
        lower = np.einsum("b,bd->d", np.maximum(lam, 0.0), np.einsum("bc,bcd->bd", np.abs(v), A) ** 2)
        upper = np.einsum("bc,bcd->d", self.p, A * A)
        return float(max(lower.max(), upper.max()))

    def subset(self, rows: slice) -> "Instance":
        return Instance(J=self.J[rows], p=self.p[rows], L=self.L[rows])

    def fim(self, dense: bool) -> np.ndarray:
        """sum_x J^T (diag p - pp^T) J, or its diagonal."""
        if dense:
            return np.einsum("bcd,bc,bce->de", self.L, self.p, self.L, optimize=True)
        return np.einsum("bc,bcd->d", self.p, self.L * self.L)

    def efim(self, labels, dense: bool) -> np.ndarray:
        g = self.L[np.arange(self.L.shape[0]), labels]
        return g.T @ g if dense else np.sum(g * g, axis=0)

    def per_label_sq_norms(self) -> np.ndarray:
        """Coordinatewise squares of every log-likelihood gradient, (B*C, dim)."""
        return (self.L * self.L).reshape(-1, self.L.shape[2])

    def probe_gradient(self, variant: str, xi: np.ndarray) -> np.ndarray:
        """Gradient of the probe scalar h for the given probe entries."""
        root = np.sqrt(self.p)
        if variant in ("full", "sqrt"):  # both equal sum xi sqrt(p) dl/dtheta
            return np.einsum("bc,bcd->d", xi * root, self.L)
        if variant == "diag":
            return np.einsum("bc,bcd->d", xi * root, self.J)
        if variant == "lowrank":
            lam, v = top_eigenpairs(self.p)
            coeff = np.sqrt(np.maximum(lam, 0.0)) * xi[:, 0]
            return np.einsum("b,bc,bcd->d", coeff, v, self.J)
        raise ValueError(f"unknown variant {variant!r}")

    @cached_property
    def _rows_svd(self):
        B, C, dim = self.J.shape
        return np.linalg.svd(self.J.reshape(B * C, dim), full_matrices=False)

    def solve_logit_weights(self, g: np.ndarray) -> tuple[np.ndarray, float, int]:
        """Least-squares W (B, C) with g = sum_b J_b^T W_b: (W, max residual, rank of J).

        The stacked Jacobian rows are U S V^T; for full row rank the unique
        solution is W = U S^-1 V^T g.
        """
        B, C, dim = self.J.shape
        U, S, Vt = self._rows_svd
        rank = int(np.sum(S > S[0] * max(B * C, dim) * np.finfo(float).eps))
        W = U[:, :rank] @ ((Vt[:rank] @ g) / S[:rank])
        residual = self.J.reshape(B * C, dim).T @ W - g
        return W.reshape(B, C), float(np.max(np.abs(residual), initial=0.0)), rank

    def variance_full_rademacher(self) -> tuple[np.ndarray, np.ndarray]:
        """(target diagonal, variance) of the single-probe full estimator."""
        target = self.fim(dense=False)
        quartic = np.einsum("bc,bcd->d", self.p**2, self.L**4)
        return target, 2.0 * target**2 - 2.0 * quartic

    def sandwich(self) -> tuple[np.ndarray, np.ndarray]:
        """(rank-1 lower, diagonal-weight upper) Loewner bounds, dense."""
        lam, v = top_eigenpairs(self.p)
        rows = np.sqrt(np.maximum(lam, 0.0))[:, None] * np.einsum("bc,bcd->bd", v, self.J)
        upper = np.einsum("bcd,bc,bce->de", self.J, self.p, self.J, optimize=True)
        return rows.T @ rows, upper
