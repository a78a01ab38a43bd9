import csv
import json

import numpy as np
import pytest

from fimlab import estimators as est
from fimlab.cli import ESTIMATOR_KINDS, main, parse_config


def write_config(path, **overrides):
    lines = ["# test config"]
    for key, value in overrides.items():
        if isinstance(value, (tuple, list)):
            value = ",".join(value)
        lines.append(f"{key} = {value}")
    path.write_text("\n".join(lines) + "\n")
    return path


SMALL = dict(
    seed=3,
    d=2,
    classes=3,
    hidden=0,
    n_samples=64,
    batch_size=16,
    n_batches=4,
    separation=2.0,
    train_steps=40,
    lr=0.2,
)


# --- config parsing ------------------------------------------------------------


def test_config_defaults_and_overrides(tmp_path):
    cfg_path = write_config(tmp_path / "c.cfg", seed=11, estimators=("efim", "hutch"))
    cfg = parse_config(cfg_path)
    assert cfg["seed"] == 11
    assert cfg["estimators"] == ("efim", "hutch")
    assert cfg["batch_size"] == 64  # untouched default


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("momentum = 0.9\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(path)


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("seed = squirrel\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_config(path)


def test_config_rejects_malformed_line(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError, match="key=value"):
        parse_config(path)


def test_env_seed_override(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path / "c.cfg", seed=11)
    monkeypatch.setenv("FIMLAB_SEED", "99")
    assert parse_config(cfg_path)["seed"] == 99


def test_cli_error_exits_2(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("momentum = 0.9\n")
    code = main(["bench", "--config", str(path)])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


# --- subcommands -----------------------------------------------------------------


def test_core_probe_output(capsys):
    assert main(["core-probe", "--p", "0.1,0.2,0.7"]) == 0
    out = capsys.readouterr().out
    assert "0.23" in out and "0.42" in out  # the analytic bracket
    assert "lambda_max" in out
    assert "worst-label" in out


def test_core_probe_rejects_bad_vector(capsys):
    assert main(["core-probe", "--p", "0.5,0.6"]) == 2


def test_estimate_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    out = tmp_path / "est.fim"
    assert main(["estimate", "--config", str(cfg), "--estimator", "hutch", "--out", str(out)]) == 0
    loaded = est.load_estimate(out)
    assert loaded.kind == "hutch_full"
    assert loaded.storage == "diagonal"
    assert loaded.meta["seed"] == 3
    assert loaded.values.shape == (3 * 2 + 3,)


@pytest.mark.parametrize("kind", ESTIMATOR_KINDS)
def test_every_estimator_name_runs_through_estimate(tmp_path, kind):
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    out = tmp_path / "est.fim"
    assert main(["estimate", "--config", str(cfg), "--estimator", kind, "--out", str(out)]) == 0
    loaded = est.load_estimate(out)
    if kind in est.PROBE_VARIANTS:
        assert loaded.kind == f"hutch_{est.PROBE_VARIANTS[kind]}"
    assert loaded.values.shape == (3 * 2 + 3,)


def test_estimate_exact_matches_library(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    out = tmp_path / "exact.fim"
    assert main(["estimate", "--config", str(cfg), "--estimator", "exact", "--out", str(out)]) == 0
    out2 = tmp_path / "pullback.fim"
    assert main(["estimate", "--config", str(cfg), "--estimator", "pullback", "--out", str(out2)]) == 0
    a = est.load_estimate(out)
    b = est.load_estimate(out2)
    assert np.max(np.abs(a.values - b.values)) <= 1e-10


def test_estimate_bytes_reproducible(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    a, b = tmp_path / "a.fim", tmp_path / "b.fim"
    assert main(["estimate", "--config", str(cfg), "--estimator", "hutch", "--out", str(a)]) == 0
    assert main(["estimate", "--config", str(cfg), "--estimator", "hutch", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_estimate_mc_normalization_flag(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", probes=8, **SMALL)
    out = tmp_path / "mc.fim"
    assert main(["estimate", "--config", str(cfg), "--estimator", "mc", "--out", str(out)]) == 0
    assert est.load_estimate(out).normalization == "mean"


def test_bench_csv(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", estimators=("efim", "hutch", "hutch_sqrt"), **SMALL)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    names = [r["estimator"] for r in rows]
    assert names == ["efim", "hutch", "hutch_sqrt"]
    hutch = next(r for r in rows if r["estimator"] == "hutch")
    assert int(hutch["backward_passes"]) == 4  # one probe per batch

    out2 = tmp_path / "bench2.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
    with open(out2) as fh:
        rows2 = list(csv.DictReader(fh))
    for a, b in zip(rows, rows2):
        assert a["relmae"] == b["relmae"]  # reproducible from (config, seed)


def test_variance_json(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", trials=64, **SMALL)
    out = tmp_path / "var.json"
    assert main(["variance", "--config", str(cfg), "--variant", "full", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["variant"] == "full"
    assert payload["max_cv"] <= payload["cv_cap"] + 1e-12
    closed = np.array(payload["var_closed"])
    empirical = np.array(payload["var_empirical"])
    assert closed.shape == empirical.shape
    i = int(np.argmax(closed))
    assert empirical[i] == pytest.approx(closed[i], rel=0.75)  # 64 trials, loose


def test_cv_demo_output(capsys):
    assert main(["cv-demo", "--nu", "12", "--m", "16", "--trials", "2000"]) == 0
    out = capsys.readouterr().out
    assert "formula = 3.75" in out
    assert "importance-sampling" in out


def test_cv_demo_rejects_nu_at_boundary(capsys):
    assert main(["cv-demo", "--nu", "4.0", "--m", "4"]) == 2


def test_hist_rejects_dense_estimate(tmp_path, capsys):
    dense = est.FimEstimate("exact_def", "dense", np.eye(3), "sum", {})
    src = tmp_path / "dense.fim"
    est.save_estimate(dense, src)
    assert main(["hist", "--in", str(src), "--out", str(tmp_path / "h.csv")]) == 2
    assert "diagonal" in capsys.readouterr().err


def test_estimate_then_hist_workflow(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    fim_path = tmp_path / "w.fim"
    hist_path = tmp_path / "w.csv"
    assert main(["estimate", "--config", str(cfg), "--estimator", "exact", "--out", str(fim_path)]) == 0
    assert main(["hist", "--in", str(fim_path), "--out", str(hist_path)]) == 0
    with open(hist_path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    total_binned = sum(int(r["count"]) for r in rows)
    loaded = est.load_estimate(fim_path)
    zeros = int(np.sum(loaded.values <= 1e-300))
    assert total_binned + zeros == loaded.dim


def test_hist_csv(tmp_path, capsys):
    values = np.concatenate([np.zeros(3), np.logspace(-6, -2, 7)])
    diag = est.FimEstimate("hutch_full", "diagonal", values, "sum", {"seed": 0})
    src = tmp_path / "d.fim"
    est.save_estimate(diag, src)
    out = tmp_path / "hist.csv"
    assert main(["hist", "--in", str(src), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# zero_atom=3")
    with open(out) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert sum(int(r["count"]) for r in rows) == 7
    assert "zeta=0.3" in capsys.readouterr().out
