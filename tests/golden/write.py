"""Write the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/write.py            # rewrite the files here
    PYTHONPATH=src python tests/golden/write.py --check    # compare, write nothing

For each config in this directory (`dense.cfg`, `diagonal.cfg`) the golden
set holds the `fimlab estimate` file of every estimator kind, the `fimlab
variance` JSON of the full, diag and lowrank variants and the `fimlab bench`
CSV.  `--check`
prints, per output, whether a fresh run is byte-identical and its largest
payload difference relative to the golden's largest entry, and exits 1 when
any difference exceeds RTOL, the limit tests/test_golden.py holds them to,
or when this directory holds a .fim, .json or .csv file that no command
writes (an orphan, which nothing would compare any more).  Rewrite the
files only when a change alters the numbers on purpose, and list each one
in CHANGES.md with that difference and the reason.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from fimlab import cli
from fimlab import estimators as est

HERE = Path(__file__).resolve().parent
CONFIGS = ("dense", "diagonal")
VARIANCE_VARIANTS = tuple(est.PROBE_VARIANTS.values())
# variance JSON keys computed from the instance; the others are compared exactly
VARIANCE_PAYLOAD = ("fim_diag", "var_closed", "var_empirical", "max_cv")
RTOL = 1e-13  # payloads, relative to the golden's largest entry; headers must be equal


def commands() -> dict[str, list[str]]:
    """{output file name: fimlab argv without --out} for every golden output."""
    out = {}
    for config in CONFIGS:
        path = str(HERE / f"{config}.cfg")
        for kind in cli.ESTIMATOR_KINDS:
            out[f"{config}.{kind}.fim"] = ["estimate", "--config", path, "--estimator", kind]
        for variant in VARIANCE_VARIANTS:
            out[f"{config}.variance.{variant}.json"] = ["variance", "--config", path, "--variant", variant]
        out[f"{config}.bench.csv"] = ["bench", "--config", path]
    return out


def orphans() -> list[str]:
    """The .fim, .json and .csv files in this directory that no command writes."""
    names = commands()
    return sorted(path.name for path in HERE.iterdir()
                  if path.suffix in (".fim", ".json", ".csv") and path.name not in names)


def write(out_dir: Path) -> None:
    """Run every golden command into out_dir, at each config's own seed."""
    seed = os.environ.pop("FIMLAB_SEED", None)  # it would override the config seeds
    try:
        for name, argv in commands().items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", str(out_dir / name)])
            if code != 0:
                raise RuntimeError(f"fimlab {' '.join(argv)} exited {code}")
    finally:
        if seed is not None:
            os.environ["FIMLAB_SEED"] = seed


def _relative(fresh, golden) -> float:
    fresh, golden = np.asarray(fresh, dtype=np.float64), np.asarray(golden, dtype=np.float64)
    if fresh.shape != golden.shape:
        raise ValueError(f"payload shape {fresh.shape} != golden {golden.shape}")
    scale = np.max(np.abs(golden), initial=0.0)
    diff = np.max(np.abs(fresh - golden), initial=0.0)
    return float(diff / scale) if scale > 0 else float(diff)


def compare(fresh: Path, golden: Path) -> tuple[bool, float]:
    """(byte-identical, largest payload difference relative to golden's largest entry).

    Raises ValueError when the headers differ: an estimate file's header
    line, a variance JSON's keys outside VARIANCE_PAYLOAD, or a bench CSV's
    column names, estimator names or backward passes.
    """
    identical = fresh.read_bytes() == golden.read_bytes()
    if golden.suffix == ".csv":
        new, old = (list(csv.reader(path.read_text().splitlines())) for path in (fresh, golden))
        heads = [[row[:1] + row[2:] for row in rows] for rows in (new, old)]  # all but relmae
        if new[0] != old[0] or heads[0] != heads[1]:
            raise ValueError(f"{fresh.name}: rows {heads[0]} != golden {heads[1]}")
        return identical, _relative([float(row[1]) for row in new[1:]], [float(row[1]) for row in old[1:]])
    if golden.suffix == ".fim":
        if est.read_header(fresh) != est.read_header(golden):
            raise ValueError(f"{fresh.name}: header {est.read_header(fresh)} != golden {est.read_header(golden)}")
        return identical, _relative(est.load_estimate(fresh).values, est.load_estimate(golden).values)
    new, old = json.loads(fresh.read_text()), json.loads(golden.read_text())
    heads = [{key: value for key, value in d.items() if key not in VARIANCE_PAYLOAD} for d in (new, old)]
    if heads[0] != heads[1] or set(new) != set(old):
        raise ValueError(f"{fresh.name}: header {heads[0]} != golden {heads[1]}")
    if any((new[key] is None) != (old[key] is None) for key in VARIANCE_PAYLOAD):
        raise ValueError(f"{fresh.name}: a payload key is null on one side only")
    drift = [_relative(new[key], old[key]) for key in VARIANCE_PAYLOAD if old[key] is not None]
    return identical, max(drift, default=0.0)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true", help="compare a fresh run with the golden files")
    args = ap.parse_args()
    if not args.check:
        write(HERE)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        worst = 0.0
        for name in commands():
            identical, drift = compare(Path(tmp) / name, HERE / name)
            worst = max(worst, drift)
            print(f"{name:<32} {'bitwise' if identical else 'differs'}  {drift:.3e}")
    print(f"largest relative payload difference: {worst:.3e} (limit {RTOL:.0e})")
    stray = orphans()
    for name in stray:
        print(f"{name:<32} orphan: no command writes it")
    return 0 if worst <= RTOL and not stray else 1


if __name__ == "__main__":
    sys.exit(main())
