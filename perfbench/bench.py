"""Layered, repeatable benchmark of fimlab's estimators, bounds and harness.

One run builds one fixed instance from its seed (blobs data, a tanh MLP
trained by `harness.train_sgd`), then repeats rounds of calls into the
public entry points of `estimators`, `bounds` and `harness` until the
measuring time is spent.  Every call's output is checked against an
independent numpy computation (`reference.py`); a failed check or an
exception counts as a failed operation.  Each end-to-end figure sums, over
the calls of its group, each call's typical time relative to calibration
probes of its kind of work run next to it (`clock.py`).

With tracing on, untraced and traced rounds alternate: the traced rounds
give the per-layer figures (`spans.py`), the difference between the two
gives the tracing overhead.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
import zlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from fimlab import bounds, estimators, harness
from fimlab.network import NetworkSpec

import reference
from clock import Clock
from spans import END, NAME, ROUND, START, Tracer, layer_metrics, median_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

EXACT_RTOL = 1e-10  # the acceptance gate's tolerance for the two exact routes
SPECTRAL_RTOL = 1e-8  # brackets on spectral norms, which fimlab iterates to a 1e-9 residual
SETUP_REPEATS = 9  # set-ups per run, spread over the measuring time
IO_COPY_BOUND_BYTES = 1 << 20  # estimates this large are timed against the tape kernel, not the file one

Interval = tuple[float, float]  # perf_counter at a call's start and end

END_TO_END = (
    ("setup_s", "s"),
    ("exact_def_s", "s"),
    ("pullback_s", "s"),
    ("efim_s", "s"),
    ("mc_s", "s"),
    ("hutch_full_s", "s"),
    ("hutch_diag_s", "s"),
    ("hutch_sqrt_s", "s"),
    ("hutch_lowrank_s", "s"),
    ("variance_s", "s"),
    ("bounds_s", "s"),
    ("tightness_s", "s"),
    ("io_s", "s"),
    ("peak_alloc_mb", "MB"),
)
TIMED_OPS = [name for name, _ in END_TO_END if name not in ("setup_s", "peak_alloc_mb")]
HUTCH_VARIANTS = ("full", "diag", "sqrt", "lowrank")
KIND_OF_OP = {
    "exact_def_s": "exact_def",
    "pullback_s": "pullback",
    "efim_s": "efim",
    "mc_s": "mc",
    **{f"hutch_{v}_s": f"hutch_{v}" for v in HUTCH_VARIANTS},
    "variance_s": "variance",
}
RELMAE_ESTIMATORS = ("efim", "mc", *(f"hutch_{v}" for v in HUTCH_VARIANTS))
BLOCKS = ("W0", "b0", "W1", "b1")


def _layer_metric_units() -> tuple[tuple[str, str], ...]:
    out = [
        ("autodiff.sweeps", "count"),
        ("autodiff.sweep_s", "s"),
        ("autodiff.sweep_us_mean", "us"),
        ("network.forwards", "count"),
        ("network.forward_rows", "count"),
        ("network.forward_s", "s"),
        ("estimators.jacobian_calls", "count"),
        ("estimators.jacobian_s", "s"),
        ("simplex.eig_calls", "count"),
        ("simplex.eig_s", "s"),
        ("simplex.matrix_calls", "count"),
        ("simplex.matrix_s", "s"),
    ]
    out += [(f"estimators.{kind}.self_s", "s") for kind in KIND_OF_OP.values()]
    out += [
        ("estimators.save_s", "s"),
        ("estimators.load_s", "s"),
        ("estimators.io_bytes", "bytes"),
        ("bounds.spectral_norm_calls", "count"),
        ("bounds.spectral_norm_s", "s"),
        ("bounds.pullback_bounds_s", "s"),
        ("bounds.trace_bounds_s", "s"),
        ("bounds.tightness_self_s", "s"),
        ("harness.gen_task_s", "s"),
        ("harness.train_s", "s"),
    ]
    for name in RELMAE_ESTIMATORS:
        out.append((f"harness.relmae.{name}", "ratio"))
        out += [(f"harness.relmae.{name}.{block}", "ratio") for block in BLOCKS]
    out.append(("estimators.hutch_lowrank.rel_dev", "ratio"))
    out.append(("trace.overhead_s", "s"))
    return tuple(out)


PER_LAYER = _layer_metric_units()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layer_sizes: tuple[int, ...]
    storage: str
    n_train: int  # samples generated and trained on
    n_eval: int  # leading samples the per-sample estimators run on
    batch_size: int  # estimator and probe calls take the evaluated samples in batches
    probe_repeats: int  # fixed probes per batch and round
    cert_samples: int  # samples for pullback_bounds + trace_bounds
    tight_samples: int  # samples for tightness_report
    tight_every: int  # tightness_report runs in every this-many-th timed round
    train_steps: int
    lr: float
    io_repeats: int  # save + load round trips per round


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="blobs_mlp",
            why="the paper's estimator shoot-out: small C, cost is many tiny per-sample tape "
                "sweeps plus the low-rank power iteration; batched Jacobians should show here",
            layer_sizes=(10, 32, 5), storage="diagonal", n_train=512, n_eval=512,
            batch_size=64, probe_repeats=4, cert_samples=8, tight_samples=4, tight_every=1,
            train_steps=400, lr=0.2, io_repeats=32,
        ),
        Workload(
            name="wide_head",
            why="C = 50: per-sample loops cost 50 sweeps per sample and the certificates run one "
                "spectral_norm per (sample, label); shows C x C spectral and certificate work",
            layer_sizes=(16, 16, 50), storage="diagonal", n_train=256, n_eval=16,
            batch_size=16, probe_repeats=8, cert_samples=2, tight_samples=1, tight_every=4,
            train_steps=200, lr=0.2, io_repeats=32,
        ),
        Workload(
            name="dense_2k",
            why="dim 2085 dense storage: dim x dim rank-1 accumulation, BLAS and 35 MB estimate "
                "I/O dominate and the tape is minor; tape-side changes should be flat here",
            layer_sizes=(20, 80, 5), storage="dense", n_train=64, n_eval=2,
            batch_size=1, probe_repeats=2, cert_samples=2, tight_samples=1, tight_every=3,
            train_steps=200, lr=0.2, io_repeats=1,
        ),
    )
}


# --- checks -------------------------------------------------------------------


def _rel_err(got, want, scale: float) -> float:
    diff = np.abs(np.asarray(got, dtype=np.float64) - np.asarray(want, dtype=np.float64))
    return float(np.max(diff, initial=0.0)) / max(scale, 1e-300)


def _close(label: str, got, want, scale: float) -> list[str]:
    """Agreement to EXACT_RTOL of `scale`, the magnitude of the summed terms."""
    if np.shape(got) != np.shape(want):
        return [f"{label}: shape {np.shape(got)} != {np.shape(want)}"]
    if not np.all(np.isfinite(got)):
        return [f"{label}: non-finite values"]
    err = _rel_err(got, want, scale)
    return [] if err <= EXACT_RTOL else [f"{label}: relative error {err:.3e} > {EXACT_RTOL:.0e}"]


def _min_eig_problems(label: str, matrix: np.ndarray, scale: float) -> list[str]:
    """Symmetric and positive semidefinite, by np.linalg.eigvalsh."""
    m = np.asarray(matrix)
    if np.max(np.abs(m - m.T), initial=0.0) > 1e-12 * max(scale, 1e-300):
        return [f"{label}: not symmetric"]
    low = float(np.linalg.eigvalsh(m)[0])
    return [] if low >= -1e-10 * scale else [f"{label}: eigenvalue {low:.3e} below zero"]


def _estimate_problems(label, est, kind, storage, want, scale, psd) -> list[str]:
    problems = []
    if (est.kind, est.storage, est.normalization) != (kind, storage, "sum"):
        problems.append(f"{label}: header {(est.kind, est.storage, est.normalization)}")
    problems += _close(label, est.values, want, scale)
    if psd and storage == "dense" and not problems:
        problems += _min_eig_problems(label, est.values, scale)
    return problems


def _lowrank_gradient_problems(g: np.ndarray, xi: np.ndarray, ref: reference.Instance) -> list[str]:
    """Is g = sum_b xi_b sqrt(lam_b) J_b^T v_b for some valid eigenpair guesses?

    fimlab's power iteration stops at a fixed budget, so v_b need not be the
    top eigenvector of M_b = diag(p_b) - p_b p_b^T.  What holds for any of its
    iterates is checked: v_b is a unit vector orthogonal to the ones vector
    (the kernel of M_b), and lam_b is its Rayleigh quotient, so it lies
    between min p_b (which bounds the other eigenvalues from below) and the
    top eigenvalue.  The weights u_b = sqrt(lam_b) v_b are recovered from g
    by least squares on the oracle's stacked Jacobian, which is exact while
    that has full row rank.
    """
    B, C, _ = ref.J.shape
    W, residual, rank = ref.solve_logit_weights(g)
    if rank < B * C:
        return [f"hutch_lowrank: stacked Jacobian has rank {rank} < {B * C}, eigenpairs not verifiable"]
    if residual > EXACT_RTOL * max(float(np.max(np.abs(g))), 1e-300):
        return [f"hutch_lowrank: gradient not in the span of the Jacobian rows (residual {residual:.3e})"]
    u = W / xi  # xi is (B, 1) and +-1
    lam = np.sum(u * u, axis=1)
    top, _ = reference.top_eigenpairs(ref.p)
    quad = np.einsum("bc,bc->b", u, ref.p * u) - np.einsum("bc,bc->b", u, ref.p) ** 2
    problems = []
    if np.any(np.abs(u.sum(axis=1)) > EXACT_RTOL * np.sqrt(C * top)):
        problems.append("hutch_lowrank: eigenvector not orthogonal to the ones vector")
    if np.any(np.abs(quad - lam * lam) > EXACT_RTOL * top * top):
        problems.append("hutch_lowrank: eigenvalue is not the Rayleigh quotient of a unit eigenvector")
    if np.any(lam < ref.p.min(axis=1) * (1.0 - EXACT_RTOL)) or np.any(lam > top * (1.0 + EXACT_RTOL)):
        problems.append("hutch_lowrank: eigenvalue outside [min p, top eigenvalue]")
    return problems


# --- the instance and its calls -------------------------------------------------


@dataclass
class Call:
    op: str  # end-to-end metric this call's time adds to
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # output -> problems
    sweeps: int | None  # closed-form reverse sweeps, checked when traced
    every: int = 1  # timed rounds run the call when round % every == 0
    kind: str = "tape"  # the clock.py kernel of the same kind of work, which times it
    verdict: tuple | None = None  # (fingerprint, problems) of the checked first output


def fingerprint(obj) -> int:
    """CRC of every array byte and field of an output, to spot any change."""
    crc = 0

    def feed(x):
        nonlocal crc
        if isinstance(x, np.ndarray):
            crc = zlib.crc32(f"{x.dtype}{x.shape}".encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(x).data, crc)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (tuple, list)):
            for item in x:
                feed(item)
        elif isinstance(x, dict):
            for key in sorted(x, key=repr):
                feed(key)
                feed(x[key])
        else:
            crc = zlib.crc32(repr(x).encode(), crc)

    feed(obj)
    return crc


@dataclass
class Instance:
    workload: Workload
    seed: int
    net: NetworkSpec
    theta: np.ndarray
    X: np.ndarray  # evaluated samples
    labels: np.ndarray
    state: dict = field(default_factory=lambda: {"diag": {}})  # outputs the checks keep


def setup(w: Workload, seed: int) -> tuple[NetworkSpec, np.ndarray, np.ndarray, np.ndarray]:
    """gen_task plus training: the instance every call of the run uses."""
    task = harness.SyntheticTask("blobs", n_samples=w.n_train, seed=seed, dim=w.layer_sizes[0],
                                 n_classes=w.layer_sizes[-1], separation=2.0)
    X, labels = harness.gen_task(task)
    net = NetworkSpec(w.layer_sizes, "tanh")
    theta = harness.train_sgd(net, (X, labels), w.train_steps, w.lr, seed=seed).theta
    return net, theta, X, labels


def _diag(est: estimators.FimEstimate) -> np.ndarray:
    return np.array(est.diagonal())  # a copy: a view would keep a dense estimate alive


def _rademacher(rng: np.random.Generator, shape) -> estimators.ProbeVector:
    return estimators.ProbeVector(rng.integers(0, 2, size=shape) * 2.0 - 1.0, "rademacher")


def build_calls(inst: Instance, io_path: Path) -> list[Call]:
    """Every call of one round, each with its independent output check.

    The per-sample estimators run batch by batch and the certificates
    sample by sample, so that each call is short (see README.md).  Checks
    build their reference values when they run, so none are kept.
    """
    w, X = inst.workload, inst.X
    ref = reference.Instance.build(inst.net.layer_sizes, inst.theta, X)
    batches = [slice(start, start + w.batch_size) for start in range(0, X.shape[0], w.batch_size)]
    subsets = [ref.subset(rows) for rows in batches]
    calls: list[Call] = []
    for b, rows in enumerate(batches):
        calls += _batch_calls(inst, b, rows, subsets[b])
    probe_rng = np.random.default_rng((inst.seed, 3))
    for variant in HUTCH_VARIANTS:
        for rows, sub in zip(batches, subsets):
            for r in range(w.probe_repeats):
                calls.append(_probe_call(inst, variant, rows, r, sub, probe_rng))
    calls += _bound_calls(inst, slice(0, w.cert_samples), ref.subset(slice(0, w.cert_samples)))
    for i in range(w.tight_samples):
        call = _tightness_call(inst, slice(i, i + 1), ref.subset(slice(i, i + 1)))
        calls.append(dataclasses.replace(call, every=w.tight_every))

    def check_save(out):
        return [] if out is None else ["save_estimate returned a value"]

    def check_load(out):
        saved = inst.state["io_estimate"]
        problems = []
        if (out.kind, out.storage, out.normalization) != (saved.kind, saved.storage, saved.normalization):
            problems.append("io: header changed in the round trip")
        if out.values.dtype != saved.values.dtype or not np.array_equal(out.values, saved.values):
            problems.append("io: payload not bit-exact after the round trip")
        return problems

    # A small estimate's round trip is bound by system calls, a large one's by
    # copying memory, which the tape kernel's 2 MB sweep follows better.
    payload = 8 * inst.net.dim * (inst.net.dim if w.storage == "dense" else 1)
    io_kind = "tape" if payload >= IO_COPY_BOUND_BYTES else "file"
    for _ in range(w.io_repeats):
        calls.append(Call("io_s", lambda: estimators.save_estimate(inst.state["io_estimate"], io_path),
                          check_save, 0, kind=io_kind))
        calls.append(Call("io_s", lambda: estimators.load_estimate(io_path), check_load, 0, kind=io_kind))
    return calls


def _batch_calls(inst: Instance, b: int, rows: slice, ref: reference.Instance) -> list[Call]:
    """exact_def, pullback, efim, mc and variance on one batch."""
    net, theta, storage = inst.net, inst.theta, inst.workload.storage
    dense, X, y = storage == "dense", inst.X[rows], inst.labels[rows]
    n, C = X.shape[0], net.n_classes
    psd = b == 0  # eigvalsh on the first batch's dense estimates
    scale = ref.fim_magnitude()

    def check_exact(out):
        inst.state["exact_def"] = out
        if b == 0:
            inst.state["io_estimate"] = out
        inst.state["diag"][("exact_def", b)] = _diag(out)
        return _estimate_problems("exact_def", out, "exact_def", storage, ref.fim(dense), scale, psd)

    def check_pullback(out):
        exact = inst.state.pop("exact_def")
        return (_estimate_problems("pullback", out, "exact_pullback", storage, ref.fim(dense), scale, psd)
                + _close("pullback vs exact_def", out.values, exact.values, scale))

    def check_efim(out):
        inst.state["diag"][("efim", b)] = _diag(out)
        return _estimate_problems("efim", out, "efim", storage, ref.efim(y, dense),
                                  ref.efim_magnitude(y), psd)

    # Monte Carlo draws are the estimator's own; check what holds for any draw:
    # each diagonal entry is a mean of squared log-likelihood gradients, so it
    # lies between 0 and the largest such square over (sample, label).
    mc_seed = (inst.seed, 2, b)

    def check_mc(out):
        inst.state["diag"][("mc", b)] = out.diagonal() * n  # mean over the batch -> sum
        problems = []
        if (out.kind, out.storage, out.normalization) != ("mc", storage, "mean"):
            problems.append(f"mc: header {(out.kind, out.storage, out.normalization)}")
        dim = net.dim
        if out.values.shape != ((dim, dim) if dense else (dim,)) or not np.all(np.isfinite(out.values)):
            return problems + ["mc: wrong shape or non-finite"]
        sq = ref.per_label_sq_norms()
        slack = EXACT_RTOL * float(np.max(ref.L_abs() ** 2))
        diag = out.diagonal()
        if np.any(diag < -slack) or np.any(diag > sq.max(axis=0) + slack):
            problems.append("mc: diagonal outside [0, max squared gradient]")
        norms = sq.sum(axis=1)
        if not norms.min() - dim * slack <= float(diag.sum()) <= norms.max() + dim * slack:
            problems.append("mc: trace outside the range of squared gradient norms")
        if psd and dense and not problems:
            problems += _min_eig_problems("mc", out.values, float(np.max(sq)))
        return problems

    def check_variance(out):
        target, var = ref.variance_full_rademacher()
        return (_close("variance target", out.fim_diag, target, scale)
                + _close("variance", out.var_closed, var, 2.0 * scale * scale))

    return [
        Call("exact_def_s", lambda: estimators.exact_fim_definition(net, theta, X, storage),
             check_exact, n * C),
        Call("pullback_s", lambda: estimators.exact_fim_pullback(net, theta, X, storage),
             check_pullback, n * C),
        Call("efim_s", lambda: estimators.efim(net, theta, X, y, storage), check_efim, n),
        Call("mc_s", lambda: estimators.mc_fim(net, theta, X, n, np.random.default_rng(mc_seed), storage),
             check_mc, n),
        Call("variance_s", lambda: estimators.variance_closed_form(net, theta, X, "full"),
             check_variance, n * C),
    ]


def _probe_call(inst: Instance, variant: str, rows: slice, r: int, ref: reference.Instance,
                probe_rng: np.random.Generator) -> Call:
    """One hutchinson_fim call with an explicit probe.

    The low-rank probe's eigenpairs come from a fixed-budget power iteration,
    so the estimate cannot be compared with exact eigenpairs.  Its check
    recomputes the probe gradient g with hutchinson_gradient (same probe,
    same seed), requires the estimate to be exactly g g^T, and verifies g
    against the oracle (`_lowrank_gradient_problems`).  The distance from the
    exact-eigenpair estimate is reported as estimators.hutch_lowrank.rel_dev.
    """
    net, theta, storage = inst.net, inst.theta, inst.workload.storage
    dense, X, kind = storage == "dense", inst.X[rows], f"hutch_{variant}"
    probe = _rademacher(probe_rng, (X.shape[0], 1 if variant == "lowrank" else net.n_classes))
    power_seed = (inst.seed, 4, rows.start, r)
    psd = rows.start == 0 and r == 0  # eigvalsh on the first probe of each variant

    def run():
        return estimators.hutchinson_fim(net, theta, X, variant, probe=probe,
                                         rng=np.random.default_rng(power_seed), storage=storage)

    def check(out):
        g = ref.probe_gradient(variant, probe.entries)
        want = np.outer(g, g) if dense else g * g
        if variant == "lowrank":
            dev = _rel_err(out.values, want, float(np.max(np.abs(want))))
            inst.state["lowrank_dev"] = max(inst.state.get("lowrank_dev", 0.0), dev)
            g = estimators.hutchinson_gradient(net, theta, X, variant, probe=probe,
                                               rng=np.random.default_rng(power_seed))
            want = np.outer(g, g) if dense else g * g
            problems = (_estimate_problems(kind, out, kind, storage, want, float(np.max(g * g)), psd)
                        + _lowrank_gradient_problems(g, probe.entries, ref))
        else:
            problems = _estimate_problems(kind, out, kind, storage, want,
                                          ref.probe_magnitude(variant, probe.entries), psd)
        passes, count = out.meta.get("backward_passes"), out.meta.get("probe_count")
        if passes != count or count != 1:
            problems.append(f"{kind}: backward_passes {passes} != probe count {count}")
        if r == 0:  # relmae takes one probe per batch
            inst.state["diag"][(kind, rows.start)] = _diag(out)
        return problems

    return Call(f"hutch_{variant}_s", run, check, 1)


def _bound_calls(inst: Instance, rows: slice, ref: reference.Instance) -> list[Call]:
    """pullback_bounds (k = 1) and trace_bounds on the certificate samples."""
    net, theta, X = inst.net, inst.theta, inst.X[rows]
    scale = ref.sandwich_magnitude()

    def check_sandwich(out):
        lower, upper = ref.sandwich()
        problems = (_close("sandwich lower", out.lower, lower, scale)
                    + _close("sandwich upper", out.upper, upper, scale))
        if not problems:
            fim = ref.fim(dense=True)
            problems += _min_eig_problems("F - lower", fim - out.lower, scale)
            problems += _min_eig_problems("upper - F", out.upper - fim, scale)
        return problems

    def check_trace(out):
        chain = (out.lower, out.vn_lower, out.trace, out.upper)
        trace_scale = float(np.sum(ref.L_abs() ** 2))
        problems = _close("trace", out.trace, np.sum(ref.fim(dense=False)), trace_scale)
        slack = EXACT_RTOL * trace_scale
        if not all(a <= b + slack for a, b in zip(chain, chain[1:])):
            problems.append(f"trace chain out of order: {chain}")
        return problems

    sweeps = X.shape[0] * net.n_classes
    return [Call("bounds_s", lambda: bounds.pullback_bounds(net, theta, X, 1), check_sandwich, sweeps),
            Call("bounds_s", lambda: bounds.trace_bounds(net, theta, X), check_trace, sweeps)]


def _tightness_call(inst: Instance, rows: slice, ref: reference.Instance) -> Call:
    """tightness_report (k = 1, with labels) on one sample."""
    net, theta, X, y = inst.net, inst.theta, inst.X[rows], inst.labels[rows]

    def check(r):
        fim = ref.fim(dense=True)
        lower, upper = ref.sandwich()
        scale = float(np.linalg.norm(upper))
        problems = (_close("upper_gap", r.upper_gap, np.linalg.norm(upper - fim), scale)
                    + _close("lower_gap", r.lower_gap, np.linalg.norm(lower - fim), scale))
        brackets = {
            "upper gap": (r.upper_gap_lhs, r.upper_gap, r.upper_gap_rhs),
            "lower gap": (r.lower_gap, r.lower_gap_rhs, r.lower_gap_rhs_relaxed),
            "efim gap": (r.efim_gap, r.efim_gap_bound),
        }
        for i, (err, floor) in enumerate(zip(r.adversarial_errors, r.adversarial_floors)):
            brackets[f"adversarial floor {i}"] = (floor, err)
        slack = SPECTRAL_RTOL * scale
        for label, chain in brackets.items():
            if not all(a <= b + slack for a, b in zip(chain, chain[1:])):
                problems.append(f"tightness: {label} outside its bracket: {chain}")
        return problems

    return Call("tightness_s", lambda: bounds.tightness_report(net, theta, X, 1, labels=y), check,
                X.shape[0] * net.n_classes, kind="gemm")  # its cost is dim x dim matrix products


# --- measuring ------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:2])


def run_round(calls: list[Call], tally: Tally, tracer: Tracer | None, clock: Clock,
              index: int = 0, peaks: dict[str, int] | None = None) -> list[Interval | None]:
    """One pass over the calls due in round `index`; returns each call's (start, end).

    Each call has a calibration probe of its kind of work right before and
    right after it (see clock.py).

    A call's first output is checked in full; later outputs must reproduce
    it bit for bit (every call is deterministic) and inherit its verdict.
    Traced, each call runs under a root span "bench.<op>" and its reverse
    sweeps are counted against the call's closed-form count.  With `peaks`,
    the first call of each group runs under tracemalloc, and the most memory
    it holds at once, counting only what it allocates, goes into `peaks`.
    """
    times: list[Interval | None] = []
    last_probe = None  # kind of the probe that ran last, right after the previous call
    for call in calls:
        if index % call.every:
            times.append(None)
            continue
        if call.kind != last_probe:
            clock.probe(call.kind)
        root = len(tracer.spans) if tracer is not None else 0
        measure = peaks is not None and call.op not in peaks
        if measure:
            tracemalloc.start()
        if tracer is not None:
            with tracer.span(f"bench.{call.op}"):
                out, interval = _timed(call.run)
        else:
            out, interval = _timed(call.run)
        if measure:
            peaks[call.op] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        times.append(interval)
        clock.probe(call.kind)
        last_probe = call.kind
        if isinstance(out, Exception):
            tally.record([f"{call.op}: {type(out).__name__}: {out}"])
            continue
        if call.verdict is None:
            try:
                problems = call.check(out)
            except Exception as exc:  # a check that cannot run is a failed operation
                problems = [f"{call.op}: check raised {type(exc).__name__}: {exc}"]
            call.verdict = (fingerprint(out), problems)
        elif fingerprint(out) == call.verdict[0]:
            problems = list(call.verdict[1])
        else:
            problems = [f"{call.op}: output differs from the checked first output"]
        if tracer is not None and call.sweeps is not None:
            sweeps = sum(1 for rec in tracer.spans[root:] if rec[NAME] == "autodiff.backward")
            if sweeps != call.sweeps:
                problems.append(f"{call.op}: {sweeps} reverse sweeps, closed form {call.sweeps}")
        tally.record(problems)
    return times


def _typical(calls: list[Call], rounds: list[list[Interval | None]], clock: Clock) -> list[float]:
    """Each call's median, over the rounds that ran it, of its calibrated seconds."""
    return [median(clock.calibrated(call.kind, *t) for t in column if t is not None)
            for call, column in zip(calls, zip(*rounds))]


def _seconds(interval: Interval | None) -> float:
    return 0.0 if interval is None else interval[1] - interval[0]


def _op_calls(calls: list[Call]) -> dict[str, list[int]]:
    out = {op: [] for op in TIMED_OPS}
    for i, call in enumerate(calls):
        out[call.op].append(i)
    return out


def settle() -> None:
    """Collect garbage, then freeze what is left before timing.

    fimlab's autodiff tape allocates many small objects, so collections run
    inside the timed calls.  Frozen objects are skipped by later collections,
    so those scan what fimlab allocated, not the benchmark's state (oracle,
    records, spans), which grows over a run.
    """
    gc.collect()
    gc.freeze()


def _timed(fn) -> tuple[object, Interval]:
    start = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # counted as a failed operation, the run goes on
        out = exc
    return out, (start, time.perf_counter())


def _relmae_metrics(inst: Instance) -> dict[str, float]:
    """Accuracy of the round's estimates against the exact diagonal, by block."""
    def total(kind):
        return sum(d for (k, _), d in inst.state["diag"].items() if k == kind)

    truth = total("exact_def")
    blocks = [("", slice(None))]
    blocks += [(f".{name}", slice(start, stop))
               for name, (start, stop, _) in zip(BLOCKS, inst.net.layout())]
    out = {}
    for name in RELMAE_ESTIMATORS:
        diag = total(name)
        for suffix, sl in blocks:
            est = estimators.FimEstimate(name, "diagonal", diag[sl], "sum")
            ref = estimators.FimEstimate("exact_def", "diagonal", truth[sl], "sum")
            out[f"harness.relmae.{name}{suffix}"] = harness.relmae(est, ref)
    return out


# --- one run ---------------------------------------------------------------------


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(w: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(ROOT),
        "config": dataclasses.asdict(w),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Set up, measure for `seconds`, check; returns the result record."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{w.name}-seed{seed}-trace{int(trace)}"
    tally = Tally()
    tracer = Tracer() if trace else None
    clock = Clock(out_dir / f"{tag}.probe")

    setup_times: list[Interval] = []

    def timed_setup():
        rep = len(setup_times)
        settle()
        clock.probe("tape")
        start = time.perf_counter()
        if tracer is not None:
            tracer.round = -1 - rep
            with tracer.installed(), tracer.span("bench.setup_s"):
                built = setup(w, seed)
            sweeps = sum(1 for rec in tracer.spans if rec[ROUND] == -1 - rep
                         and rec[NAME] == "autodiff.backward")
            tally.record([] if sweeps == w.train_steps else
                         [f"setup: {sweeps} reverse sweeps, closed form {w.train_steps}"])
        else:
            built = setup(w, seed)
        setup_times.append((start, time.perf_counter()))
        clock.probe("tape")
        return built

    net, theta, X, labels = first = timed_setup()
    inst = Instance(w, seed, net, theta, X[:w.n_eval], labels[:w.n_eval])
    io_path = out_dir / f"{tag}.fim"
    calls = build_calls(inst, io_path)

    def repeat_setup():
        """Set up again; the measuring deadline moves by the time it takes."""
        nonlocal deadline
        start = time.perf_counter()
        again = timed_setup()
        same = all(np.array_equal(a, b) for a, b in zip(first[1:], again[1:]))
        tally.record([] if same else ["setup: instance not reproducible from its seed"])
        deadline += time.perf_counter() - start

    # A first untimed round warms caches, measures peak allocations and runs
    # the expensive checks.
    peaks: dict[str, int] = {}
    settle()
    run_round(calls, tally, None, clock, peaks=peaks)
    round_times: dict[bool, list[list[Interval | None]]] = {False: [], True: []}
    traced_ranges = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        settle()
        traced = trace and index % 2 == 1
        if traced:
            tracer.round = index
            first_span = len(tracer.spans)
            with tracer.installed():
                round_times[True].append(run_round(calls, tally, tracer, clock))
            traced_ranges.append(range(first_span, len(tracer.spans)))
        else:
            # traced runs keep every round whole, so per-round layer figures compare
            round_times[False].append(run_round(calls, tally, None, clock, 0 if trace else index))
        index += 1
        # set-up repeats fall at even steps of the measuring time, the last at its end
        done = len(setup_times) / (SETUP_REPEATS - 1)  # the first set-up came before the rounds
        if done <= 1 and deadline - time.perf_counter() <= seconds * (1 - done):
            repeat_setup()
    while len(setup_times) < SETUP_REPEATS:
        repeat_setup()

    if trace:
        kinds = {f"bench.{op}": kind for op, kind in KIND_OF_OP.items()}
        layers = median_metrics([layer_metrics(tracer.spans, ids, kinds) for ids in traced_ranges])
        layers["estimators.io_bytes"] = io_path.stat().st_size
        for key, fn in (("harness.gen_task_s", "harness.gen_task"), ("harness.train_s", "harness.train_sgd")):
            layers[key] = median(rec[END] - rec[START] for rec in tracer.spans
                                 if rec[ROUND] < 0 and rec[NAME] == fn)
        layers.update(_relmae_metrics(inst))
        layers["estimators.hutch_lowrank.rel_dev"] = inst.state["lowrank_dev"]
        layers["trace.overhead_s"] = (sum(_typical(calls, round_times[True], clock))
                                      - sum(_typical(calls, round_times[False], clock)))
        metrics = {name: (layers[name], unit) for name, unit in PER_LAYER}
    else:
        typical = _typical(calls, round_times[False], clock)
        values = {op: sum(typical[i] for i in ids) for op, ids in _op_calls(calls).items()}
        values["setup_s"] = median(clock.calibrated("tape", *t) for t in setup_times)
        values["peak_alloc_mb"] = max(peaks.values()) / 1e6
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    io_path.unlink(missing_ok=True)
    clock.scratch.unlink(missing_ok=True)

    result = {
        "env": environment(w, seed),
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "ops_failed_frac": tally.failed / tally.attempted,
        "problems": tally.problems,
        "rounds": {"warmup": 1, "untraced": len(round_times[False]), "traced": len(round_times[True])},
        "calls_per_round": dict(Counter(call.op for call in calls)),
        "peak_alloc_mb": {op: peak / 1e6 for op, peak in peaks.items()},
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "op_seconds": {traced: [{op: sum(_seconds(t[i]) for i in ids) for op, ids in _op_calls(calls).items()}
                                for t in rounds] for traced, rounds in round_times.items()},
        "setup_seconds": [_seconds(t) for t in setup_times],
        "probe_seconds": {kind: {"count": len(s), "median": median(s), "min": min(s), "max": max(s)}
                          for kind, s in clock.seconds.items() if s},
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write(out_dir / f"{tag}.spans.jsonl.gz",
                     {"workload": w.name, "run": tag, "fields": ["name", "start", "end", "parent", "round"]})
    return result


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    env = result["env"]
    print(f"# {env['workload']} seed={env['seed']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']} threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"git={env['git_sha']}")
    print(f"# why: {env['why']}")
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{'ops_failed_frac':<36} {result['ops_failed_frac']:>14.6g} of {result['attempted']} ops")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fimlab layered benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    report(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0
