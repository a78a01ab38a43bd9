"""In-memory span tracing around fimlab's public functions.

`Tracer.installed()` replaces each traced function, in every fimlab module
namespace that holds it (so `from .x import f` bindings are caught too),
with a wrapper that records one span: name, start, end, parent span, round.
Spans stay in memory and are written out once, after the run.

The autodiff layer is traced at the reverse sweep (`backward`, `gradient`).
Its op-recording primitives (`add`, `matmul`, `tanh`, ...) are left alone:
they are the network forward, which `network.forward_logits` already
covers, and a span per primitive would cost more than the primitive.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from contextlib import contextmanager
from statistics import median

import numpy as np

from fimlab import autodiff, bounds, estimators, harness, network, simplex

LAYER_MODULES = (autodiff, network, simplex, estimators, bounds, harness)
AUTODIFF_SWEEP = ("backward", "gradient")
UNLISTED = {"simplex": ("simplex_matrix",)}  # public helpers missing from __all__
EIG_FUNCS = ("simplex.symeig", "simplex.spectrum", "simplex.top_eigenpair")
JACOBIAN_FUNCS = ("estimators.loglik_gradients", "estimators.jacobian_and_logits")

COUNTED = (
    "autodiff.sweeps", "autodiff.sweep_s", "network.forwards", "network.forward_rows",
    "network.forward_s", "estimators.jacobian_calls", "estimators.jacobian_s", "simplex.eig_calls",
    "simplex.eig_s", "simplex.matrix_calls", "simplex.matrix_s", "estimators.save_s",
    "estimators.load_s", "bounds.spectral_norm_calls", "bounds.spectral_norm_s",
    "bounds.pullback_bounds_s", "bounds.trace_bounds_s", "bounds.tightness_self_s",
)

# span record fields
NAME, START, END, PARENT, ROUND, ROWS = range(6)


def traced_functions() -> dict[str, object]:
    """Qualified name -> original function for every traced public function."""
    out = {}
    for mod in LAYER_MODULES:
        layer = mod.__name__.rsplit(".", 1)[1]
        names = AUTODIFF_SWEEP if mod is autodiff else (*mod.__all__, *UNLISTED.get(layer, ()))
        for name in names:
            fn = getattr(mod, name)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[f"{layer}.{name}"] = fn
    return out


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round = -1

    def _open(self, name: str, rows: int) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.round, rows]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name, 0)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        counts_rows = name == "network.forward_logits"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = 0
            if counts_rows:
                X = args[2] if len(args) > 2 else kwargs["X"]
                rows = int(np.shape(X)[0])
            rec = self._open(name, rows)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore on exit."""
        by_id = {id(fn): self._wrap(name, fn) for name, fn in traced_functions().items()}
        saved = []
        for mod in LAYER_MODULES:
            for attr, value in list(vars(mod).items()):
                if id(value) in by_id and inspect.isfunction(value):
                    saved.append((mod, attr, value))
                    setattr(mod, attr, by_id[id(value)])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent, round] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec[:ROWS]) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], round_ids: list[int], kinds: dict[str, str]) -> dict[str, float]:
    """Per-layer figures for one traced round.

    `kinds` maps a bench root span name (such as "bench.exact_def_s") to the
    estimator kind whose self time it carries ("exact_def").
    """
    def dur(i):
        return spans[i][END] - spans[i][START]

    def outermost(i):
        parent = spans[i][PARENT]
        return parent < 0 or _layer(spans[parent][NAME]) != _layer(spans[i][NAME])

    child_time: dict[int, float] = {}
    root: dict[int, int] = {}
    for i in round_ids:  # ids are in start order, so parents come first
        parent = spans[i][PARENT]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + dur(i)

    m = dict.fromkeys(COUNTED, 0.0)
    m.update({f"estimators.{kind}.self_s": 0.0 for kind in kinds.values()})

    def add(key, value):
        m[key] += value

    for i in round_ids:
        name = spans[i][NAME]
        d = dur(i)
        layer = _layer(name)
        if name == "autodiff.backward":
            add("autodiff.sweeps", 1)
        if layer == "autodiff" and outermost(i):
            add("autodiff.sweep_s", d)
        if name == "network.forward_logits":
            add("network.forwards", 1)
            add("network.forward_rows", spans[i][ROWS])
            add("network.forward_s", d)
        if name in JACOBIAN_FUNCS:
            add("estimators.jacobian_calls", 1)
            add("estimators.jacobian_s", d)
        if layer == "simplex" and outermost(i):
            if name in EIG_FUNCS:
                add("simplex.eig_calls", 1)
                add("simplex.eig_s", d)
            elif name == "simplex.simplex_matrix":
                add("simplex.matrix_calls", 1)
                add("simplex.matrix_s", d)
        if name == "estimators.save_estimate":
            add("estimators.save_s", d)
        if name == "estimators.load_estimate":
            add("estimators.load_s", d)
        if name == "bounds.spectral_norm":
            add("bounds.spectral_norm_calls", 1)
            add("bounds.spectral_norm_s", d)
        if name == "bounds.pullback_bounds":
            add("bounds.pullback_bounds_s", d)
        if name == "bounds.trace_bounds":
            add("bounds.trace_bounds_s", d)
        if name == "bounds.tightness_report":
            add("bounds.tightness_self_s", d - child_time.get(i, 0.0))
        if layer == "estimators":
            kind = kinds.get(spans[root[i]][NAME])
            if kind is not None:
                add(f"estimators.{kind}.self_s", d - child_time.get(i, 0.0))
    m["autodiff.sweep_us_mean"] = 1e6 * m["autodiff.sweep_s"] / max(m["autodiff.sweeps"], 1)
    return m


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(r[key] for r in per_round) for key in per_round[0]}
