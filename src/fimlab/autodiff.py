"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A Tape records primitive operations append-only; each node stores its op
name, parent indices and the cached forward value, so a tape can be replayed
bit-exactly.  backward() seeds a scalar root and runs a single reverse sweep,
accumulating adjoints into parameter leaves.  Constants never receive
gradient; stop_gradient passes its value through unchanged and contributes
exactly zero adjoint upstream.

Each op is one entry of a rule table that pairs its forward rule with its
adjoint rule; recording, replay() and backward() all read that table, so an
op's maths is written exactly once.

The op set is intentionally small: what a dense classifier forward pass, a
log-softmax likelihood and sign-flipped probe sums need, nothing more.
Matrix products go through np.einsum with optimize=False: unlike BLAS gemm,
its accumulation order for row i does not depend on the number of rows, so a
batched forward is bit-identical to stacked per-sample forwards.

Everything is float64; bounds downstream are verified to 1e-10, which single
precision cannot reach.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tape",
    "Value",
    "constant",
    "parameter",
    "add",
    "mul",
    "matmul",
    "scale",
    "tanh",
    "relu",
    "exp",
    "sqrt",
    "clip",
    "log_softmax",
    "gather",
    "wsum",
    "total",
    "stop_gradient",
    "backward",
    "gradient",
    "grad_check",
]


@dataclass
class _Node:
    op: str
    parents: tuple[int, ...]
    value: np.ndarray
    ctx: tuple = ()


class Tape:
    """Append-only record of primitive operations, replayable bit-exactly.

    Single-writer while recording; once the forward pass is done the node
    list is only read, so backward() may run from any thread (each sweep
    keeps its own adjoint buffers; only the pass counter needs the lock).
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.backward_calls = 0
        self._counter_lock = threading.Lock()

    def _push(self, op: str, parents: tuple[int, ...], value: np.ndarray, ctx: tuple = ()) -> "Value":
        value = np.asarray(value, dtype=np.float64)
        self.nodes.append(_Node(op, parents, value, ctx))
        return Value(self, len(self.nodes) - 1)

    def param_ids(self) -> list[int]:
        return [i for i, n in enumerate(self.nodes) if n.op == "param"]

    def replay(self) -> bool:
        """Re-run every recorded op; True iff all values reproduce bit-exactly."""
        for node in self.nodes:
            if node.op in ("const", "param"):
                continue
            forward = _RULES[node.op][0]
            again = forward(node.ctx, *[self.nodes[j].value for j in node.parents])
            if not np.array_equal(again, node.value):
                return False
        return True


class Value:
    """Handle to one tape node; .data is the cached forward value."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def data(self) -> np.ndarray:
        return self.tape.nodes[self.idx].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __add__(self, other: "Value") -> "Value":
        return add(self, other)

    def __mul__(self, other: "Value") -> "Value":
        return mul(self, other)

    def __matmul__(self, other: "Value") -> "Value":
        return matmul(self, other)

    def __repr__(self):
        return f"Value(op={self.tape.nodes[self.idx].op!r}, shape={self.shape})"


def constant(tape: Tape, array) -> Value:
    return tape._push("const", (), np.asarray(array, dtype=np.float64))


def parameter(tape: Tape, array) -> Value:
    return tape._push("param", (), np.asarray(array, dtype=np.float64))


# Rules, keyed by op name: (forward, adjoint).
#   forward(ctx, *parent_values) -> value; replay() re-runs it from the record.
#   adjoint(node, g, *parent_values) -> the adjoint of each parent: one array
#   for a unary op, a pair for a binary op; None means no gradient.
# Shape checks live in the forward rules, so they run at record time.

def _add_forward(ctx, a, b):
    if a.shape == b.shape:
        return a + b
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return a + b  # bias add over rows
    raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")


def _mul_forward(ctx, a, b):
    if a.shape != b.shape:
        raise ValueError(f"mul: shape mismatch {a.shape} vs {b.shape}")
    return a * b


def _matmul_forward(ctx, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return np.einsum("ij,jk->ik", a, b, optimize=False)


def _log_softmax_forward(ctx, a):
    m = np.max(a, axis=-1, keepdims=True)
    shifted = a - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _gather_forward(ctx, a):
    idx = ctx[0]
    if a.ndim == 2:
        return a[np.arange(a.shape[0]), idx]
    return a[idx]


def _gather_adjoint(node, g, a):
    out = np.zeros_like(a)
    idx = node.ctx[0]
    if out.ndim == 2:
        out[np.arange(out.shape[0]), idx] = g
    else:
        out[idx] = g
    return out


_RULES = {
    "add": (_add_forward, lambda node, g, a, b: (g, g if a.shape == b.shape else g.sum(axis=0))),
    "mul": (_mul_forward, lambda node, g, a, b: (g * b, g * a)),
    "matmul": (
        _matmul_forward,
        lambda node, g, a, b: (
            np.einsum("ik,jk->ij", g, b, optimize=False),
            np.einsum("ij,ik->jk", a, g, optimize=False),
        ),
    ),
    "scale": (lambda ctx, a: ctx[0] * a, lambda node, g, a: node.ctx[0] * g),
    "tanh": (lambda ctx, a: np.tanh(a), lambda node, g, a: g * (1.0 - node.value**2)),
    "relu": (lambda ctx, a: np.maximum(a, 0.0), lambda node, g, a: g * (a > 0)),
    "exp": (lambda ctx, a: np.exp(a), lambda node, g, a: g * node.value),
    "sqrt": (lambda ctx, a: np.sqrt(a), lambda node, g, a: g * 0.5 / node.value),
    "clip": (
        lambda ctx, a: np.clip(a, ctx[0], ctx[1]),
        lambda node, g, a: g * ((a > node.ctx[0]) & (a < node.ctx[1])),
    ),
    "log_softmax": (
        _log_softmax_forward,
        lambda node, g, a: g - np.exp(node.value) * np.sum(g, axis=-1, keepdims=True),
    ),
    "gather": (_gather_forward, _gather_adjoint),
    "wsum": (lambda ctx, a: np.asarray(np.sum(a * ctx[0])), lambda node, g, a: g * node.ctx[0]),
    "total": (lambda ctx, a: np.asarray(np.sum(a)), lambda node, g, a: np.full_like(a, g)),
    "stop": (lambda ctx, a: a.copy(), lambda node, g, a: None),
}


def _unary(op: str, a: Value, ctx: tuple = ()) -> Value:
    return a.tape._push(op, (a.idx,), _RULES[op][0](ctx, a.data), ctx)


def _binary(op: str, a: Value, b: Value) -> Value:
    if a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    return a.tape._push(op, (a.idx, b.idx), _RULES[op][0]((), a.data, b.data))


def add(a: Value, b: Value) -> Value:
    return _binary("add", a, b)


def mul(a: Value, b: Value) -> Value:
    return _binary("mul", a, b)


def matmul(a: Value, b: Value) -> Value:
    return _binary("matmul", a, b)


def scale(a: Value, c: float) -> Value:
    return _unary("scale", a, (float(c),))


def tanh(a: Value) -> Value:
    return _unary("tanh", a)


def relu(a: Value) -> Value:
    return _unary("relu", a)


def exp(a: Value) -> Value:
    return _unary("exp", a)


def sqrt(a: Value) -> Value:
    if np.any(a.data < 0):
        raise ValueError("sqrt of negative operand")
    return _unary("sqrt", a)


def clip(a: Value, lo: float, hi: float) -> Value:
    return _unary("clip", a, (float(lo), float(hi)))


def log_softmax(a: Value) -> Value:
    """Row-wise log-softmax along the last axis, stabilized by max-subtraction."""
    return _unary("log_softmax", a)


def gather(a: Value, indices) -> Value:
    """Pick a[i, indices[i]] from a 2-D value, or a[index] from a 1-D value."""
    if a.data.ndim == 2:
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size != a.data.shape[0]:
            raise ValueError("gather on a matrix needs one index per row")
        if np.any(idx < 0) or np.any(idx >= a.data.shape[1]):
            raise ValueError("gather index out of range")
    elif a.data.ndim == 1:
        idx = int(indices)
        if not 0 <= idx < a.data.size:
            raise ValueError("gather index out of range")
    else:
        raise ValueError("gather expects a 1-D or 2-D operand")
    return _unary("gather", a, (idx,))


def wsum(a: Value, weights) -> Value:
    """Scalar sum(a * weights) with constant weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != a.data.shape:
        raise ValueError(f"wsum: weight shape {w.shape} != operand shape {a.data.shape}")
    return _unary("wsum", a, (w,))


def total(a: Value) -> Value:
    return _unary("total", a)


def stop_gradient(a: Value) -> Value:
    """Identity in the forward pass; the adjoint through this edge is zero."""
    return _unary("stop", a)


def _accumulate(adj: dict, idx: int, delta: np.ndarray):
    if idx in adj:
        adj[idx] = adj[idx] + delta
    else:
        adj[idx] = np.array(delta, dtype=np.float64)


def backward(root: Value) -> dict[int, np.ndarray]:
    """Reverse sweep from a scalar root; returns {param node id: adjoint}."""
    if root.data.shape != ():
        raise ValueError(f"backward root must be a scalar, got shape {root.data.shape}")
    tape = root.tape
    nodes = tape.nodes
    with tape._counter_lock:
        tape.backward_calls += 1
    adj: dict[int, np.ndarray] = {root.idx: np.ones(())}
    grads: dict[int, np.ndarray] = {}
    for i in range(root.idx, -1, -1):
        g = adj.pop(i, None)
        if g is None:
            continue
        node = nodes[i]
        if node.op == "param":
            grads[i] = g
            continue
        if node.op == "const":
            continue
        adjoint = _RULES[node.op][1]
        # Parents go in by arity: a generic *[...] call is measurably slower per sweep.
        if len(node.parents) == 1:
            (a,) = node.parents
            da = adjoint(node, g, nodes[a].value)
            if da is not None:
                _accumulate(adj, a, da)
        else:
            a, b = node.parents
            da, db = adjoint(node, g, nodes[a].value, nodes[b].value)
            _accumulate(adj, a, da)
            _accumulate(adj, b, db)
        # Free the deltas now: a live (B, width) temporary keeps the allocator
        # from reusing its block in the next step (512-row sweeps ran 30% slower).
        da = db = None
    return grads


def gradient(root: Value) -> np.ndarray:
    """Flat gradient of a scalar over all parameter leaves, in creation order.

    Parameters the root does not depend on contribute exact zeros.
    """
    grads = backward(root)
    tape = root.tape
    parts = []
    for i in tape.param_ids():
        g = grads.get(i)
        if g is None:
            g = np.zeros_like(tape.nodes[i].value)
        parts.append(np.asarray(g, dtype=np.float64).ravel())
    if not parts:
        return np.zeros(0)
    return np.concatenate(parts)


def grad_check(f, theta, step: float = 1e-4) -> float:
    """Worst relative error between reverse-mode and central differences.

    `f` maps a flat parameter vector to a traced scalar Value and must consume
    the vector through parameter leaves in order.  Central differences at
    `step` and `step/2` are Richardson-combined to fourth order; the larger
    default step then keeps cancellation roundoff near 1e-12 absolute while
    truncation stays negligible, so small-gradient coordinates survive the
    1e-6 relative target.  The relative error uses denominator
    max(|g_i|, 1e-8) coordinate-wise.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    g = gradient(f(theta))
    if g.size != theta.size:
        raise ValueError("f must consume theta entirely through parameters")

    def central(i, h):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        return (float(f(up).data) - float(f(down).data)) / (2.0 * h)

    worst = 0.0
    for i in range(theta.size):
        fd = (4.0 * central(i, step / 2.0) - central(i, step)) / 3.0
        err = abs(g[i] - fd) / max(abs(g[i]), 1e-8)
        worst = max(worst, err)
    return worst
