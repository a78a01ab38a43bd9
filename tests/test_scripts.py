"""Each experiment script runs to completion on tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_ARGS = {
    "bench_blobs.py": ["--steps", "5", "--probes", "2"],
    "mc_pathology.py": ["--m", "4", "--trials", "100"],
    "spectrum_sweep.py": ["--draws", "50"],
}


@pytest.mark.parametrize("script", SCRIPT_ARGS)
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPT_ARGS[script]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_script_is_covered():
    assert set(SCRIPT_ARGS) == {path.name for path in (ROOT / "scripts").glob("*.py")}
