"""Minimal reverse-mode automatic differentiation over dense float64 tensors.

A Tape records primitive operations append-only; each node stores its op
name, parent indices and the cached forward value.  backward() seeds any
node with an adjoint of its shape (a scalar root with 1 by default) and runs
a single reverse sweep that writes each parameter leaf's adjoint into its
slice of one flat vector, in creation order; it returns that vector, the
gradient of sum(adjoint * root), and so does gradient().  Seeding a one-hot
row of the logits or log-softmax gives one Jacobian row without pushing a
node onto the tape.  Constants never receive gradient: each node records,
when it is pushed, whether it reaches a parameter leaf, and the sweep forms
no adjoint for an operand that does not (such as the constant input under a
first layer).

rows() checks a tape recorded on a batch once, then views each given row as
a one-row tape: the batch's parameter leaves and a (1, n) view of every other
value.  As every op it admits is row-wise and the forward is row-invariant
(below), a view holds what a tape of that row alone would, bit for bit.

Each op is one entry of a rule table that pairs its forward rule with one
adjoint rule per operand; recording and backward() both read that table, so
an op's maths is written exactly once.  What a sweep needs from the forward
alone is formed once, not once per sweep: a node's local factor (1 - y**2
for tanh, the mask a > 0 for relu, exp(y) for log_softmax) when the node is
pushed, and a root's reverse plan (its ancestors that reach a parameter,
from the root down, with their adjoint rules, parent ids and flat-gradient
slices) by the first sweep from that root.  rows() gives every view the
row of each batch node's factor and the batch root's plan, so the sweeps of
all the views share one formation; a node a view pushes later gets a plan
of that view's own.

The op set is intentionally small: what a dense classifier forward pass, a
log-softmax likelihood and sign-flipped probe sums need, nothing more.  A
probe's coefficients are computed off the tape from the forward values and
enter as the adjoint that seeds its reverse sweep, so no op exists to freeze
a traced value.
The forward matrix product goes through np.einsum with optimize=False:
unlike BLAS gemm, its accumulation order for row i does not depend on the
number of rows, so a batched forward is bit-identical to stacked per-sample
forwards.  (A stacked np.matmul forward also read 1.59e-6 against the 1e-6
grad_check target of acceptance criterion 8.)  The matmul adjoints go
through BLAS (np.dot), several times faster than einsum on the sweep's
shapes.  A sweep is deterministic for a fixed BLAS thread count, but one
row's gradient may differ in the last bits between a sweep of the whole
batch and a per-sample sweep (of a row view, or of a tape of that row).

Everything is float64; bounds downstream are verified to 1e-10, which single
precision cannot reach.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tape",
    "Value",
    "constant",
    "parameter",
    "add",
    "matmul",
    "scale",
    "tanh",
    "relu",
    "log_softmax",
    "gather",
    "wsum",
    "total",
    "rows",
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
    reaches_param: bool = False
    factor: np.ndarray | None = None  # the op's local derivative (_FACTORS), formed when it is pushed


class Tape:
    """Append-only record of primitive operations.

    Single-writer while recording; once the forward pass is done the node
    list is only read, so backward() may run from any thread (each sweep
    keeps its own adjoint buffers; only the pass counter needs the lock).
    Factors are formed at record time.  A plan is formed idempotently: two
    threads that sweep a new root at once form equal plans, and either is
    kept.  A row view (rows()) is a tape of its own, with its own counter,
    that shares the batch tape's parameter leaves and root plan and views
    its values and factors.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._param_at: dict[int, int] = {}  # param node id -> its first entry in the flat gradient
        self._param_size = 0
        self._plans: dict[int, tuple] = {}  # root node id -> the reverse plan of a sweep from it (_plan)
        self.backward_calls = 0
        self._counter_lock = threading.Lock()

    def _push(self, op: str, parents: tuple[int, ...], value: np.ndarray, ctx: tuple = ()) -> "Value":
        value = np.asarray(value, dtype=np.float64)
        if op == "param":
            self._param_at[len(self.nodes)] = self._param_size
            self._param_size += value.size
        reaches = op == "param" or any(self.nodes[j].reaches_param for j in parents)
        factor = _FACTORS[op](value, self.nodes[parents[0]].value) if op in _FACTORS else None
        self.nodes.append(_Node(op, parents, value, ctx, reaches, factor))
        return Value(self, len(self.nodes) - 1)


class Value:
    """Handle to one tape node; .data is the cached forward value."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: Tape, idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def data(self) -> np.ndarray:
        return self.tape.nodes[self.idx].value

    def __repr__(self):
        return f"Value(op={self.tape.nodes[self.idx].op!r}, shape={self.data.shape})"


def constant(tape: Tape, array) -> Value:
    return tape._push("const", (), np.asarray(array, dtype=np.float64))


def parameter(tape: Tape, array) -> Value:
    return tape._push("param", (), np.asarray(array, dtype=np.float64))


# Rules, keyed by op name: (forward, then one adjoint rule per parent).
#   forward(ctx, *parent_values) -> value.
#   adjoint_k(node, g, *parent_values) -> the adjoint of parent k.  backward()
#   calls it only when parent k reaches a parameter.  A rule may return g
#   itself; an adjoint is never written to in place.
# Shape checks live in the forward rules, so they run at record time.
# Factors, keyed by op name: factor(value, operand value) -> node.factor, the
# part of a unary op's adjoint that the forward alone fixes, formed when the
# node is pushed; its adjoint rule multiplies by it.

def _add_forward(ctx, a, b):
    if a.shape == b.shape:
        return a + b
    if a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]:
        return a + b  # bias add over rows
    raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")


def _matmul_forward(ctx, a, b):
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return np.einsum("ij,jk->ik", a, b, optimize=False)


def _log_softmax_forward(ctx, a):
    m = np.max(a, axis=-1, keepdims=True)
    shifted = a - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def _gather_forward(ctx, a):
    return a[np.arange(a.shape[0]), ctx[0]]


def _gather_adjoint(node, g, a):
    out = np.zeros_like(a)
    out[np.arange(out.shape[0]), node.ctx[0]] = g
    return out


_FACTORS = {
    "tanh": lambda y, a: 1.0 - y**2,
    "relu": lambda y, a: a > 0,
    "log_softmax": lambda y, a: np.exp(y),
}

# The adjoints reduce through np.add.reduce itself: np.sum's and .sum's wrappers
# give the same bits, and cost a sweep more than the reduction does.
_RULES = {
    "add": (_add_forward, lambda node, g, a, b: g,
            lambda node, g, a, b: g if a.shape == b.shape else np.add.reduce(g, axis=0)),
    "matmul": (_matmul_forward, lambda node, g, a, b: np.dot(g, b.T), lambda node, g, a, b: np.dot(a.T, g)),
    "scale": (lambda ctx, a: ctx[0] * a, lambda node, g, a: node.ctx[0] * g),
    "tanh": (lambda ctx, a: np.tanh(a), lambda node, g, a: g * node.factor),
    "relu": (lambda ctx, a: np.maximum(a, 0.0), lambda node, g, a: g * node.factor),
    "log_softmax": (
        _log_softmax_forward,
        lambda node, g, a: g - node.factor * np.add.reduce(g, axis=-1, keepdims=True),
    ),
    "gather": (_gather_forward, _gather_adjoint),
    "wsum": (lambda ctx, a: np.asarray(np.sum(a * ctx[0])), lambda node, g, a: g * node.ctx[0]),
    "total": (lambda ctx, a: np.asarray(np.sum(a)), lambda node, g, a: np.full_like(a, g)),
}


def _unary(op: str, a: Value, ctx: tuple = ()) -> Value:
    return a.tape._push(op, (a.idx,), _RULES[op][0](ctx, a.data), ctx)


def _binary(op: str, a: Value, b: Value) -> Value:
    if a.tape is not b.tape:
        raise ValueError("operands live on different tapes")
    return a.tape._push(op, (a.idx, b.idx), _RULES[op][0]((), a.data, b.data))


def add(a: Value, b: Value) -> Value:
    return _binary("add", a, b)


def matmul(a: Value, b: Value) -> Value:
    return _binary("matmul", a, b)


def scale(a: Value, c: float) -> Value:
    return _unary("scale", a, (float(c),))


def tanh(a: Value) -> Value:
    return _unary("tanh", a)


def relu(a: Value) -> Value:
    return _unary("relu", a)


def log_softmax(a: Value) -> Value:
    """Row-wise log-softmax along the last axis, stabilized by max-subtraction."""
    return _unary("log_softmax", a)


def _check_integral(values: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first entry of `values` that is not an integer.

    Integral floats such as 2.0 pass; 0.7 and NaN are refused, not cut to 0,
    and so is a boolean mask, not read as 1 and 0.
    """
    if values.dtype.kind not in "iu":
        bad = values[~(np.floor(values) == values)] if values.dtype.kind == "f" else values.ravel()
        if bad.size:
            raise ValueError(f"{what} {bad.tolist()[0]!r} is not an integer")


def _check_int(value, name: str) -> int:
    """value as an int if operator.index takes it and it is no bool; else ValueError naming it."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def gather(a: Value, indices) -> Value:
    """Pick a[i, indices[i]] from a 2-D value.

    Indices must be integers; an integral float such as 2.0 is taken as one.
    """
    idx = np.asarray(indices)
    _check_integral(idx, "gather index")
    if a.data.ndim != 2:
        raise ValueError("gather expects a 2-D operand")
    if idx.ndim != 1 or idx.size != a.data.shape[0]:
        raise ValueError("gather on a matrix needs one index per row")
    if np.any(idx < 0) or np.any(idx >= a.data.shape[1]):
        raise ValueError("gather index out of range")
    return _unary("gather", a, (idx.astype(np.intp),))


def wsum(a: Value, weights) -> Value:
    """Scalar sum(a * weights) with constant weights."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != a.data.shape:
        raise ValueError(f"wsum: weight shape {w.shape} != operand shape {a.data.shape}")
    return _unary("wsum", a, (w,))


def total(a: Value) -> Value:
    return _unary("total", a)


def rows(root: Value, samples):
    """For each b in samples, row b of `root`, recorded on a batch of rows, as the root of a one-row tape.

    A view holds the nodes up to root under the same ids: the batch tape's
    own parameter leaves, and row b of every other value and factor as a
    (1, n) view, so its sweeps give sample b's gradients bit for bit as a
    tape recorded on that row alone would.  Every view shares the batch
    root's plan.  A repeated b gets its own view and counter.
    The tape and indices are checked once, at the call: ValueError for a row
    out of range and for ops that mix rows: gather, wsum and total, a matmul
    whose right operand is not a parameter, or a parameter that enters an op
    other than as a matmul's right operand or an add's bias.
    """
    nodes = root.tape.nodes[: root.idx + 1]
    if root.data.ndim != 2 or nodes[-1].op == "param":
        raise ValueError(f"row: the root, a {nodes[-1].op} node of shape {root.data.shape}, is not a batch of rows")
    n_rows = root.data.shape[0]
    for node in nodes:
        if node.op != "param":
            if node.value.ndim != 2 or node.value.shape[0] != n_rows:
                raise ValueError(f"row: a {node.op} node of shape {node.value.shape} is not a batch of {n_rows} rows")
            for k, j in enumerate(node.parents):
                if node.op == "matmul" and k == 1:
                    if nodes[j].op != "param":
                        raise ValueError("row: a matmul whose right operand is not a parameter mixes the rows")
                elif nodes[j].op == "param" and not (node.op == "add" and nodes[j].value.ndim == 1):
                    raise ValueError(f"row: a parameter that enters {node.op} row by row cannot be shared by the rows")
    samples = [operator.index(b) for b in samples]
    for b in samples:
        if not 0 <= b < n_rows:
            raise ValueError(f"row {b} out of range for a batch of {n_rows} rows")
    param_at = {i: at for i, at in root.tape._param_at.items() if i <= root.idx}
    param_size = sum(nodes[i].value.size for i in param_at)
    plan = _plan(root.tape, root.idx)

    def view(b: int) -> Value:
        tape = Tape()
        tape.nodes = [n if n.op == "param" else _Node(n.op, n.parents, n.value[b : b + 1], n.ctx, n.reaches_param,
                                                      None if n.factor is None else n.factor[b : b + 1])
                      for n in nodes]
        tape._param_at, tape._param_size = dict(param_at), param_size  # a view may push parameters of its own
        tape._plans[root.idx] = plan  # a node the view pushes gets a plan of its own
        return Value(tape, root.idx)

    return map(view, samples)


def _plan(tape: Tape, root: int) -> tuple:
    """The reverse plan of a sweep from node `root` of `tape`, formed on first use.

    It lists, from the root down, the root's ancestors that reach a parameter:
    an op as (id, parent ids, one adjoint rule per parent, None for a parent
    that reaches no parameter), a parameter as (id, None, its slice of the
    flat gradient).  Nodes up to the root never change, so a plan never goes
    stale; two threads that form one at once form equal ones, and either may
    be kept.
    """
    plan = tape._plans.get(root)
    if plan is None:
        nodes = tape.nodes
        wanted = {root} if nodes[root].reaches_param else set()
        steps = []
        for i in range(root, -1, -1):
            if i not in wanted:
                continue
            node = nodes[i]
            if node.op == "param":
                at = tape._param_at[i]
                steps.append((i, None, slice(at, at + node.value.size)))
                continue
            rule = _RULES[node.op]
            if len(node.parents) == 1:  # its operand reaches a parameter, since it does
                wanted.add(node.parents[0])
                steps.append((i, node.parents, (rule[1],)))
            else:
                a, b = node.parents
                rule_a = rule_b = None
                if nodes[a].reaches_param:
                    rule_a = rule[1]
                    wanted.add(a)
                if nodes[b].reaches_param:
                    rule_b = rule[2]
                    wanted.add(b)
                steps.append((i, node.parents, (rule_a, rule_b)))
        plan = tape._plans[root] = tuple(steps)
    return plan


def backward(root: Value, adjoint=None) -> np.ndarray:
    """One reverse sweep from `root`; returns the flat gradient of sum(adjoint * root).

    The sweep starts at `root` with `adjoint`, an array of the root's shape.
    Without an adjoint the root must be a scalar and the sweep starts from 1.
    The sweep writes each parameter's adjoint into its slice of one new flat
    vector over every parameter entry of the tape, in creation order, and
    returns that vector; parameters the root does not depend on keep exact
    zeros.  It walks the root's plan (`_plan`), so a root that reaches no
    parameter (a constant) visits no node.
    """
    if adjoint is None:
        if root.data.shape != ():
            raise ValueError(f"backward root must be a scalar, got shape {root.data.shape}")
        seed = np.ones(())
    else:
        seed = np.asarray(adjoint, dtype=np.float64)
        if seed.shape != root.data.shape:
            raise ValueError(f"adjoint shape {seed.shape} != root shape {root.data.shape}")
    tape = root.tape
    nodes = tape.nodes
    plan = _plan(tape, root.idx)
    with tape._counter_lock:
        tape.backward_calls += 1
    # no copy of an adjoint: one may be g itself (add) or the caller's seed, but
    # a sum is a new array, and each parameter's adjoint is copied into the vector
    adj: dict[int, np.ndarray] = {root.idx: seed}
    flat = np.zeros(tape._param_size)
    for i, parents, rules in plan:
        g = adj.pop(i)  # the plan holds ancestors only, so each has its adjoint by now
        if parents is None:  # a parameter, and rules is its slice
            flat[rules] = g.ravel()  # a copy: g may be the seed, or shared by add with another param
            continue
        node = nodes[i]
        # Parents go in by arity: a generic *[...] call is measurably slower per sweep.
        if len(parents) == 1:
            (a,) = parents
            delta = rules[0](node, g, nodes[a].value)
            adj[a] = adj[a] + delta if a in adj else delta
        else:
            a, b = parents
            va, vb = nodes[a].value, nodes[b].value
            rule_a, rule_b = rules
            if rule_a is not None:
                delta = rule_a(node, g, va, vb)
                adj[a] = adj[a] + delta if a in adj else delta
            if rule_b is not None:
                delta = rule_b(node, g, va, vb)
                adj[b] = adj[b] + delta if b in adj else delta
    return flat


def gradient(root: Value, adjoint=None) -> np.ndarray:
    """Flat gradient of sum(adjoint * root) over all parameter leaves, in creation order.

    Without an adjoint the root must be a scalar.  It is backward()'s vector,
    so nothing is copied; a function of its own rather than an alias, so
    that a tracer wrapping backward() sees every sweep as one backward call.
    """
    return backward(root, adjoint)


GRAD_CHECK_STEP = 1e-4  # grad_check's larger finite-difference step


def grad_check(f, theta) -> float:
    """Worst relative error between reverse-mode and central differences.

    `f` maps a flat parameter vector to a traced scalar Value and must consume
    the vector through parameter leaves in order.  Central differences at
    GRAD_CHECK_STEP and half of it are Richardson-combined to fourth order;
    a step that large keeps cancellation roundoff near 1e-12 absolute while
    truncation stays negligible, so small-gradient coordinates survive the
    1e-6 relative target.  The relative error uses denominator
    max(|g_i|, 1e-8) coordinate-wise.  A NaN or infinite gradient entry or
    difference makes the result non-finite, never a pass.
    """
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

    errs = np.empty(theta.size)
    for i, gi in enumerate(g.tolist()):  # Python floats: inf - inf is NaN, without a warning
        fd = (4.0 * central(i, GRAD_CHECK_STEP / 2.0) - central(i, GRAD_CHECK_STEP)) / 3.0
        errs[i] = abs(gi - fd) / max(abs(gi), 1e-8)
    return float(np.max(errs, initial=0.0))  # np.max keeps a NaN; the builtin max would drop it
