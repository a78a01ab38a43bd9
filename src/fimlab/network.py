"""Dense classifier models over the tape engine.

A NetworkSpec is a stack of affine layers with an elementwise activation on
all but the last layer; the last layer's output are the logits.  Parameters
live in a single flat float64 vector whose layout (W0, b0, W1, b1, ...) is
fixed by the spec, so flatten/unflatten round-trips are bit-exact and the
flat gradient returned by the tape lines up coordinate-for-coordinate.
Per-sample Jacobians are built from these forwards in `estimators`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

__all__ = [
    "NetworkSpec",
    "flatten",
    "unflatten",
    "init_params",
    "forward_logits",
    "softmax",
]

ACTIVATIONS = ("tanh", "relu", "none")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer widths (input, hidden..., output) plus the hidden activation."""

    layer_sizes: tuple[int, ...]
    activation: str = "tanh"

    def __post_init__(self):
        sizes = tuple(ad._check_int(s, f"layer_sizes[{i}]") for i, s in enumerate(self.layer_sizes))
        if len(sizes) < 2:
            raise ValueError("need at least an input and an output width")
        if any(s < 1 for s in sizes):
            raise ValueError("layer widths must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def dim(self) -> int:
        return sum(i * o + o for i, o in zip(self.layer_sizes, self.layer_sizes[1:]))

    def layout(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """(start, stop, shape) per tensor in flat order W0, b0, W1, b1, ..."""
        out = []
        pos = 0
        for i, o in zip(self.layer_sizes, self.layer_sizes[1:]):
            out.append((pos, pos + i * o, (i, o)))
            pos += i * o
            out.append((pos, pos + o, (o,)))
            pos += o
        return tuple(out)


def flatten(net: NetworkSpec, weights, biases) -> np.ndarray:
    """Pack per-layer tensors into a flat vector; lossless and bit-exact."""
    layout = net.layout()
    flat = np.empty(net.dim)
    tensors = []
    for W, b in zip(weights, biases):
        tensors.extend([np.asarray(W, dtype=np.float64), np.asarray(b, dtype=np.float64)])
    if len(tensors) != len(layout):
        raise ValueError("wrong number of layer tensors for this spec")
    for (start, stop, shape), t in zip(layout, tensors):
        if t.shape != shape:
            raise ValueError(f"tensor shape {t.shape} does not match layout {shape}")
        flat[start:stop] = t.ravel()
    return flat


def unflatten(net: NetworkSpec, theta) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a flat vector back into per-layer (weights, biases)."""
    flat = np.asarray(theta, dtype=np.float64)
    if flat.size != net.dim:
        raise ValueError(f"expected {net.dim} parameters, got {flat.size}")
    weights, biases = [], []
    for k, (start, stop, shape) in enumerate(net.layout()):
        t = flat[start:stop].reshape(shape)
        (weights if k % 2 == 0 else biases).append(t)
    return weights, biases


def init_params(net: NetworkSpec, rng: np.random.Generator) -> np.ndarray:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero."""
    flat = np.zeros(net.dim)
    for k, (start, stop, shape) in enumerate(net.layout()):
        if k % 2 == 0:
            fan_in = shape[0]
            flat[start:stop] = rng.normal(size=stop - start) / np.sqrt(fan_in)
    return flat


def forward_logits(net: NetworkSpec, theta, X) -> ad.Value:
    """Traced batch forward pass; returns the (B, C) logits Value.

    Parameter leaves are created in flat layout order, so ad.gradient() on
    any scalar built from the logits lines up with the flat theta.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be (batch, features)")
    if X.shape[1] != net.n_inputs:
        raise ValueError(f"X has {X.shape[1]} features, network expects {net.n_inputs}")
    weights, biases = unflatten(net, theta)
    tape = ad.Tape()
    h = ad.constant(tape, X)
    n_layers = len(weights)
    for k, (W, b) in enumerate(zip(weights, biases)):
        Wv = ad.parameter(tape, W)
        bv = ad.parameter(tape, b)
        h = ad.add(ad.matmul(h, Wv), bv)
        if k < n_layers - 1:
            if net.activation == "tanh":
                h = ad.tanh(h)
            elif net.activation == "relu":
                h = ad.relu(h)
    return h


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, max-subtracted for stability."""
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / np.sum(e, axis=-1, keepdims=True)
