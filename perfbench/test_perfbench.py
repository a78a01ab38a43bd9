"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench        # from the repository root
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from fimlab import estimators  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    w = bench.WORKLOADS[name]
    return replace(
        w, layer_sizes=(w.layer_sizes[0], 4, w.layer_sizes[-1]), n_train=32, n_eval=8,
        batch_size=4, probe_repeats=1, cert_samples=2, tight_samples=1, train_steps=10,
        io_repeats=1,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_every_metric_printed_with_its_unit(name, trace, tmp_path, capsys):
    original = estimators.efim
    bench.report(bench.run(tiny(name), 0, 0.0, bool(trace), tmp_path))
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = {line.split()[0]: line.split()[1:] for line in lines[:-1] if not line.startswith("#")}
    for metric, unit in expected.items():
        assert table[metric][-1] == unit
        assert np.isfinite(result["metrics"][metric]["value"])
    assert "ops_failed_frac" in table
    assert estimators.efim is original  # tracing restored every binding


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_corrupted_estimate_is_a_failed_operation(name, tmp_path, monkeypatch):
    original = estimators.efim

    def corrupted(*args, **kwargs):
        out = original(*args, **kwargs)
        out.values[0] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(estimators, "efim", corrupted)
    result = bench.run(tiny(name), 0, 0.0, False, tmp_path)
    assert not result["correct"]
    rounds = result["rounds"]["warmup"] + result["rounds"]["untraced"]
    assert result["failed"] == rounds * result["calls_per_round"]["efim_s"]  # every efim call only
    assert any(problem.startswith("efim:") for problem in result["problems"])


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_second_seed_passes_every_check(name, tmp_path):
    result = bench.run(tiny(name), 7, 0.0, True, tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0


@pytest.mark.parametrize("corrupt", [
    lambda lam, v: (0.9 * lam, v),  # eigenvalue is not v's Rayleigh quotient
    lambda lam, v: (0.0, v),  # an all-zero estimate
    lambda lam, v: (lam, 2.0 * v),  # not a unit vector
])
def test_wrong_lowrank_eigenpair_is_a_failed_operation(corrupt, tmp_path, monkeypatch):
    original = estimators.top_eigenpair
    monkeypatch.setattr(estimators, "top_eigenpair", lambda *a, **k: corrupt(*original(*a, **k)))
    result = bench.run(tiny("blobs_mlp"), 0, 0.0, False, tmp_path)
    assert not result["correct"]
    assert all(problem.startswith("hutch_lowrank:") for problem in result["problems"])


def test_clock_cancels_a_uniform_slow_down():
    import clock

    def calibrated(slow):
        c = clock.Clock(Path("unused"))
        c.starts["tape"] = [0.0, 0.5, 1.0, 1.5]
        c.seconds["tape"] = [slow * 1e-3] * 4
        return c.calibrated("tape", 0.6, 0.6 + slow * 0.02)

    assert calibrated(1.0) == pytest.approx(20.0 * clock.FULL_SPEED_S["tape"])
    assert calibrated(1.8) == pytest.approx(calibrated(1.0))
