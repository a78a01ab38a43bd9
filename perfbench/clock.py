"""Timing that cancels the machine's own changes of speed.

The VM the benchmark runs on changes speed many times a second: a fixed
piece of interpreter-bound code runs up to about 1.8x slower for stretches
from milliseconds to minutes, and CPU time slows with wall time.  How much
of a run falls in slow stretches differs from run to run, so raw wall times
of the same code spread widely between runs.

`Clock` runs fixed calibration kernels (probes) next to the timed calls and
keeps each kernel's times as a timeline.  A call's time is then expressed
relative to the probes around it: its wall time divided by the mean probe
time in a window around it.  A stretch that slows the call slows the
probes next to it too, so the ratio stays.

Slow stretches do not slow every kind of work alike: interpreter-bound
code slows most, large matrix products hardly at all, and file system
calls by their own amount.  So there is one kernel per kind of work, and a
call is compared with the kernel of its kind.  The ratio is turned back
into seconds with the kernel's time at full speed on the reference machine
(the 2-vCPU Xeon VM the benchmark was built on), so a figure reads as
seconds on that machine.
"""

from __future__ import annotations

import gc
import json
import time
from bisect import bisect_left, bisect_right
from functools import partial
from pathlib import Path

import numpy as np

WINDOW_S = 0.01  # probes within this much of a short call (or half a long call's time) count for it

_WEIGHTS = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)
_BUFFER = np.linspace(0.0, 1.0, 1 << 18)  # 2 MB, swept once per tape probe
_SQUARE = np.linspace(-1.0, 1.0, 384 * 384).reshape(384, 384)
_PAYLOAD = np.linspace(0.0, 1.0, 1024)  # 8 KB, about a diagonal estimate


def _tape_kernel() -> None:
    """A small tape recorded forward and swept back (many small arrays and
    Python objects, like fimlab's autodiff), plus one pass over a 2 MB
    buffer, so that contention for caches and memory shows in it too."""
    tape = []
    a = _BUFFER[:32]
    for _ in range(40):
        z = _WEIGHTS @ a + 0.1
        a = np.tanh(z)
        tape.append((z, a))
    grad = np.ones(32)
    for z, a in reversed(tape):
        grad = _WEIGHTS.T @ (grad * (1.0 - a * a))
    _BUFFER.sum()


def _gemm_kernel() -> None:
    """Dense matrix products, large enough to run at the BLAS's full
    throughput, like the dim x dim products in the certificates.  Three of
    them, because a seconds-long call has only the two probes next to it."""
    for _ in range(3):
        _SQUARE @ _SQUARE


def _file_kernel(path: Path) -> None:
    """A JSON header line and a float64 payload written to a file, then read
    back and parsed: the same system calls and parsing as an estimate's
    save and load."""
    with open(path, "wb") as fh:
        fh.write(json.dumps({"shape": [_PAYLOAD.size], "kind": "probe"}).encode() + b"\n")
        fh.write(_PAYLOAD.tobytes())
    raw = path.read_bytes()
    newline = raw.index(b"\n")
    json.loads(raw[:newline])
    np.frombuffer(raw[newline + 1:], dtype="<f8").copy()


# each kind's kernel time at full speed on the reference machine
FULL_SPEED_S = {"tape": 3.2e-4, "gemm": 8.7e-3, "file": 1.1e-4}


class Clock:
    """The probes of one run, and call times relative to them.

    `scratch` is the file the file kernel writes; the caller removes it.
    None of the kernels imports fimlab, so a change to fimlab cannot move them.
    """

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.kernels = {"tape": _tape_kernel, "gemm": _gemm_kernel, "file": partial(_file_kernel, scratch)}
        self.starts: dict[str, list[float]] = {kind: [] for kind in FULL_SPEED_S}  # in order
        self.seconds: dict[str, list[float]] = {kind: [] for kind in FULL_SPEED_S}

    def probe(self, kind: str) -> None:
        """Run one kernel with collection off, so it times the machine and not the heap."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        self.kernels[kind]()
        self.seconds[kind].append(time.perf_counter() - start)
        self.starts[kind].append(start)
        if enabled:
            gc.enable()

    def calibrated(self, kind: str, start: float, end: float) -> float:
        """Seconds that [start, end] would take on the reference machine at full speed.

        That is the wall time over the mean time of the `kind` probes
        around it, times the kernel's time at full speed.  The window
        reaches WINDOW_S, or half the call's own time if that is longer, to
        each side.  The probes right before and after the call always count.
        """
        starts = self.starts[kind]
        reach = max(WINDOW_S, 0.5 * (end - start))
        lo = min(bisect_left(starts, start - reach), max(bisect_left(starts, start) - 1, 0))
        hi = max(bisect_right(starts, end + reach), bisect_right(starts, end) + 1)
        near = self.seconds[kind][lo:hi]
        return (end - start) / (sum(near) / len(near)) * FULL_SPEED_S[kind]
