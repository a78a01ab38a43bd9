import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fimlab import bounds as bd
from fimlab import estimators as est
from fimlab import harness as hz
from fimlab.cli import CONFIG, ESTIMATOR_KINDS, _build_instance, main, parse_config
from fimlab.network import ACTIVATIONS


def write_config(path, **overrides):
    lines = ["# test config"]
    for key, value in overrides.items():
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
    train_steps=40,
    lr=0.2,
)


# --- config parsing ------------------------------------------------------------


def test_config_defaults_and_overrides(tmp_path):
    cfg_path = write_config(tmp_path / "c.cfg", seed=11, probes=4)
    cfg = parse_config(cfg_path)
    assert cfg["seed"] == 11
    assert cfg["probes"] == 4
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


@pytest.mark.parametrize("env_seed", [None, "5"])
def test_config_refuses_a_repeated_key(tmp_path, monkeypatch, env_seed):
    # the last line does not win; FIMLAB_SEED overrides the seed and repeats no line
    if env_seed is None:
        monkeypatch.delenv("FIMLAB_SEED", raising=False)
    else:
        monkeypatch.setenv("FIMLAB_SEED", env_seed)
    path = tmp_path / "c.cfg"
    path.write_text("seed = 1\nd = 3\n\nseed = 2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: config key 'seed' is already set at {path}:1")):
        parse_config(path)
    path.write_text("seed = 1\nd = 3\n")
    assert parse_config(path)["seed"] == (1 if env_seed is None else 5)


@pytest.mark.parametrize("value, message", [
    ("abc", "FIMLAB_SEED: bad value for 'seed': 'abc'"),
    ("-3", "FIMLAB_SEED: seed must be at least 0, got -3"),
])
def test_env_seed_is_checked_by_name(tmp_path, monkeypatch, value, message):
    cfg_path = write_config(tmp_path / "c.cfg", seed=11)
    monkeypatch.setenv("FIMLAB_SEED", value)
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(cfg_path)


def test_readme_config_table_matches_the_config_rows(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)`\s*\| `([^`]*)`", readme.split("### Config files", 1)[1], re.M)
    assert [key for key, _ in rows] == list(CONFIG)
    for key, text in rows:
        assert CONFIG[key].parse(text) == CONFIG[key].default, key
    monkeypatch.delenv("FIMLAB_SEED", raising=False)
    path = tmp_path / "empty.cfg"
    path.write_text("")
    assert parse_config(path) == {key: row.default for key, row in CONFIG.items()}  # every default passes


def test_cli_error_exits_2(tmp_path, capsys):
    path = tmp_path / "c.cfg"
    path.write_text("momentum = 0.9\n")
    code = main(["bench", "--config", str(path)])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


OUT_OF_RANGE = [
    ("hidden", -1),
    ("train_steps", -5),
    ("trials", 1),
    ("probes", 0),
    ("k", 0),
    ("batch_size", 0),
    ("n_batches", 0),
    ("n_samples", 0),
    ("d", 0),
    ("classes", 1),
    ("lr", "inf"),
]
# keys checked only where they are used, with the line that puts them to use
USED_BY = {"lr": "train_steps = 10"}


@pytest.mark.parametrize("key,value", OUT_OF_RANGE,
                         ids=[key if isinstance(value, int) else f"{key}-{value}"
                              for key, value in OUT_OF_RANGE])
def test_config_rejects_out_of_range_value(tmp_path, key, value):
    path = tmp_path / "c.cfg"
    path.write_text(f"# header\nseed = 1\n{key} = {value}\n{USED_BY.get(key, '')}\n")
    with pytest.raises(ValueError, match=rf"c\.cfg:3: {key} must be (at least|positive)"):
        parse_config(path)


@pytest.mark.parametrize("lr", ["0", "-0.1", "nan"])
def test_config_rejects_nonpositive_lr_with_training(tmp_path, lr):
    path = tmp_path / "c.cfg"
    path.write_text(f"lr = {lr}\ntrain_steps = 10\n")
    with pytest.raises(ValueError, match=r"c\.cfg:1: lr must be positive"):
        parse_config(path)
    path.write_text(f"lr = {lr}\ntrain_steps = 0\n")  # no training: lr is never used
    assert parse_config(path)["train_steps"] == 0


def test_config_accepts_the_edges_of_each_range(tmp_path):
    edges = dict(hidden=0, train_steps=0, trials=2, probes=1, k=1, batch_size=1,
                 n_batches=1, n_samples=1, d=1, classes=2)
    cfg = parse_config(write_config(tmp_path / "c.cfg", **edges))
    assert {key: cfg[key] for key in edges} == edges


def test_out_of_range_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path / "c.cfg", **{**SMALL, "hidden": -1})
    code = main(["estimate", "--config", str(path), "--estimator", "exact",
                 "--out", str(tmp_path / "e.fim")])
    assert code == 2
    assert "hidden must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "e.fim").exists()


# values outside their key's rule, and keys that are gone (the Student-t task's generator and nu,
# the blob separation and the bench's estimator list): each stops the run at its line, before
# any data is made
OUT_OF_RULE = [
    ("seed = -1", "seed must be at least 0, got -1"),
    ("generator = gauss", "unknown config key 'generator'"),
    ("nu = 6.0", "unknown config key 'nu'"),
    ("separation = 2.0", "unknown config key 'separation'"),
    ("activation = sigmoid", "activation must be one of tanh, relu, none, got 'sigmoid'"),
    ("activation = sigmoid\nhidden = 0", "activation must be one of tanh, relu, none, got 'sigmoid'"),
    ("storage = sparse", "storage must be one of diagonal, dense, got 'sparse'"),
    ("k = 3\nclasses = 3", "k must be at most classes - 1 = 2, got 3"),
    ("estimators = efim,kfac", "unknown config key 'estimators'"),
]


@pytest.mark.parametrize("lines, message", OUT_OF_RULE, ids=[lines for lines, _ in OUT_OF_RULE])
def test_config_rejects_a_value_out_of_its_rule_before_any_work(tmp_path, capsys, monkeypatch, lines, message):
    path = tmp_path / "c.cfg"
    path.write_text(f"# header\nn_samples = 64\n{lines}\n")
    with pytest.raises(ValueError, match=re.escape(f"c.cfg:3: {message}")):
        parse_config(path)

    def refuse(*args, **kwargs):
        raise AssertionError("no data may be generated from a rejected config")

    monkeypatch.setattr(hz, "gen_task", refuse)
    out = tmp_path / "out"
    for argv in (["estimate", "--estimator", "hutch"], ["bench"], ["variance"]):
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_choice_sets_are_read_from_their_owner_tuples(capsys):
    for key, owner in (("storage", est.STORAGES), ("activation", ACTIVATIONS)):
        assert all(CONFIG[key].check(name, {}) is None for name in owner)
        assert CONFIG[key].check("bogus", {}) == f"must be one of {', '.join(owner)}, got 'bogus'"
    with pytest.raises(SystemExit):
        main(["variance", "--help"])
    assert f"--dist {{{','.join(est.PROBE_DISTS)}}}" in capsys.readouterr().out


# --- subcommands -----------------------------------------------------------------


def test_core_probe_output(capsys):
    assert main(["core-probe", "--p", "0.1,0.2,0.7"]) == 0
    assert capsys.readouterr().out == (
        "p = 0.1, 0.2, 0.7\n"
        "trace = 0.45999999999999996 (identity 1-|p|^2 = 0.4600000000000001)\n"
        "lambda_max = 0.33440306508910544 in [0.23000000000000004, 0.42000000000000004]"
        " (bracket gap 0.19)\n"
        "diag envelope error = 0.5399999999999999 (floor 1/C = 0.3333333333333333)\n"
        "rank1 envelope error = 0.12559693491089452 (bound 0.2)\n"
        "worst-label error = 1.2026637102698328 at y=0 (floor 0.8799999999999999)\n"
        "max entrywise label variance = 0.0576 (cap 1/16)\n"
    )


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


def test_estimate_refuses_the_retired_sqrt_name(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    out = tmp_path / "est.fim"
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--config", str(cfg), "--estimator", "hutch_sqrt", "--out", str(out)])
    assert exit_info.value.code == 2  # argparse: not one of the choices
    assert "invalid choice: 'hutch_sqrt'" in capsys.readouterr().err
    assert not out.exists()


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
    cfg = write_config(tmp_path / "c.cfg", **SMALL)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "estimator,relmae,backward_passes"
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    names = [r["estimator"] for r in rows]
    assert names == ["efim", "hutch", "hutch_diag", "hutch_lowrank"]
    hutch = next(r for r in rows if r["estimator"] == "hutch")
    assert int(hutch["backward_passes"]) == 4  # one probe per batch

    out2 = tmp_path / "bench2.csv"
    assert main(["bench", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out2.read_bytes() == out.read_bytes()  # reproducible from (config, seed)


def test_bench_refuses_too_few_samples_before_training(tmp_path, capsys, monkeypatch):
    # 100 samples cannot fill the default 8 batches of 64; no training step may run first
    cfg = write_config(tmp_path / "c.cfg", n_samples=100, hidden=16, train_steps=3000)

    def refuse(*args, **kwargs):
        raise AssertionError("no training step may run for a bench that cannot fill its batches")

    monkeypatch.setattr(hz, "train_sgd", refuse)
    assert main(["bench", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: n_samples = 100 is below batch_size * n_batches = 64 * 8 = 512\n")


@pytest.mark.parametrize("argv, line_end", [
    (["bench"], b"\r\n"),  # the csv module's line end
    (["variance", "--variant", "diag"], b"\n"),
    (["bounds"], b"\n"),
], ids=["bench", "variance", "bounds"])
def test_stdout_and_out_give_the_same_bytes(tmp_path, argv, line_end):
    cfg = write_config(tmp_path / "c.cfg", trials=4, **SMALL)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 0
    # a process of its own, so its stdout is the real one, not a capture
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fimlab.cli", *argv, "--config", str(cfg)],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()
    assert proc.stdout.endswith(line_end) and proc.stdout.count(b"\n") == proc.stdout.count(line_end)


@pytest.mark.parametrize("argv", [
    ["inspect", "--in", "{dir}"],
    ["hist", "--in", "{dir}", "--out", "{dir}/h.csv"],
    ["estimate", "--config", "{dir}", "--estimator", "exact", "--out", "{dir}/e.fim"],
    ["estimate", "--config", "{cfg}", "--estimator", "exact", "--out", "{dir}/missing/e.fim"],
    ["bench", "--config", "{cfg}", "--out", "{dir}/missing/b.csv"],
])
def test_os_errors_exit_2_with_a_message(tmp_path, capsys, argv):
    # a directory where a file belongs, or an output in a missing directory
    cfg = write_config(tmp_path / "c.cfg", n_samples=8, batch_size=4, n_batches=2)
    assert main([arg.format(dir=tmp_path, cfg=cfg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("out, message", [("{dir}", "is a directory"), ("{dir}/missing/o", "no directory")])
@pytest.mark.parametrize("argv, worker", [
    (["estimate", "--estimator", "exact"], (est, "exact_fim_definition")),
    (["bench"], (hz, "run_bench")),
    (["variance"], (est, "variance_closed_form")),
    (["bounds"], (bd, "tightness_report")),
])
def test_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv, worker, out, message):
    cfg = write_config(tmp_path / "c.cfg", n_samples=8, batch_size=4, n_batches=2)

    def refuse(*args, **kwargs):
        raise AssertionError("no work may start before --out is checked")

    monkeypatch.setattr(hz, "gen_task", refuse)
    monkeypatch.setattr(*worker, refuse)
    assert main([*argv, "--config", str(cfg), "--out", out.format(dir=tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_estimate_refuses_an_empty_out_before_any_work(tmp_path, capsys, monkeypatch):
    # bench and variance print to stdout for an empty --out; estimate writes a file only
    cfg = write_config(tmp_path / "c.cfg", n_samples=8, batch_size=4, n_batches=2)

    def refuse(*args, **kwargs):
        raise AssertionError("no work may start before --out is checked")

    monkeypatch.setattr(hz, "gen_task", refuse)
    monkeypatch.setattr(est, "exact_fim_definition", refuse)
    assert main(["estimate", "--estimator", "exact", "--config", str(cfg), "--out", ""]) == 2
    assert capsys.readouterr().err == "error: --out is empty; it must name the file to write\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hist_refuses_a_non_finite_estimate(tmp_path, capsys, bad):
    src = tmp_path / "d.fim"
    est.save_estimate(est.FimEstimate("efim", "diagonal", np.array([bad, 2.0, 3.0]), "sum", {}), src)
    assert main(["hist", "--in", str(src), "--out", str(tmp_path / "h.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: the estimate has a non-finite entry")
    assert not (tmp_path / "h.csv").exists()


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


@pytest.mark.parametrize("variant", list(est.PROBE_VARIANTS.values()))
def test_variance_offers_exactly_the_closed_form_variants(tmp_path, variant):
    cfg = write_config(tmp_path / "c.cfg", trials=4, **SMALL)
    out = tmp_path / "var.json"
    assert main(["variance", "--config", str(cfg), "--variant", variant, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["variant"] == variant


def test_variance_lowrank_at_rank_two(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", trials=4, **{**SMALL, "k": 2})
    out = tmp_path / "var.json"
    assert main(["variance", "--config", str(cfg), "--variant", "lowrank", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert min(payload["var_closed"]) >= 0.0


def test_variance_rejects_a_variant_without_closed_form(tmp_path):
    # the library takes "sqrt" (the full core); the CLI offers only the table's variants
    cfg = write_config(tmp_path / "c.cfg", trials=4, **SMALL)
    assert "sqrt" in est.HUTCH_KINDS and "sqrt" not in est.PROBE_VARIANTS.values()
    with pytest.raises(SystemExit) as exit_info:
        main(["variance", "--config", str(cfg), "--variant", "sqrt"])
    assert exit_info.value.code == 2


def test_bounds_json(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", **{**SMALL, "k": 2})
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    X, labels, net, theta = _build_instance(parse_config(cfg))
    assert out.read_text() == bd.tightness_report(net, theta, X, k=2, labels=labels).to_json() + "\n"
    payload = json.loads(out.read_text())
    assert list(payload) == list(bd.TightnessReport.__dataclass_fields__)  # the margins come last
    assert payload["efim_gap"] is not None  # the config's labels were passed
    fim = est.exact_fim_pullback(net, theta, X).values
    pair = bd.pullback_bounds(net, theta, X, 2)
    tol = 1e-12 * payload["trace_upper"]
    assert payload["lower_margin"] == pytest.approx(bd.loewner_margin(pair.lower, fim), abs=tol)
    assert payload["upper_margin"] == pytest.approx(bd.loewner_margin(fim, pair.upper), abs=tol)
    for key in ("lower_margin", "upper_margin"):  # at k = C - 1 the lower side is an equality: round-off
        assert payload[key] >= -1e-12 * np.max(np.abs(fim))


def test_bounds_writes_margins_above_the_dense_cap(tmp_path, monkeypatch, capsys):
    # a 64-64-2 net on 4 samples has dim 4290: the margins come from the 8 x 8 root of K,
    # with no dim x dim matrix and none of the dense routines
    cfg = write_config(tmp_path / "c.cfg", d=64, hidden=64, classes=2, n_samples=4, storage="dense")

    def refuse(*args, **kwargs):
        raise AssertionError("no dim x dim matrix above the cap")

    for name in ("exact_fim_pullback", "exact_fim_definition"):
        monkeypatch.setattr(est, name, refuse)
    for name in ("pullback_bounds", "loewner_margin"):
        monkeypatch.setattr(bd, name, refuse)
    assert main(["bounds", "--config", str(cfg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert _build_instance(parse_config(cfg))[2].dim == 4290 > est.DENSE_DIM_CAP
    assert list(payload) == list(bd.TightnessReport.__dataclass_fields__)
    for key in ("lower_margin", "upper_margin"):
        assert -1e-12 * payload["trace_upper"] <= payload[key] <= 0.0  # B C = 8 < dim: a null space


def test_bounds_runs_one_forward(tmp_path, monkeypatch):
    # the report holds the margins: no second or third stack for pullback_bounds and the exact F
    shapes = []
    real = est.forward_logits

    def count(net, theta, X):
        shapes.append(np.shape(X))
        return real(net, theta, X)

    monkeypatch.setattr(est, "forward_logits", count)
    cfg = Path(__file__).resolve().parent / "golden" / "diagonal.cfg"
    assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "b.json")]) == 0
    assert shapes == [(32, 2)]


def test_cv_demo_output(capsys):
    assert main(["cv-demo", "--nu", "12", "--m", "16", "--trials", "2000"]) == 0
    out = capsys.readouterr().out
    assert "formula = 3.75" in out
    assert "importance-sampling" in out


def test_cv_demo_rejects_nu_at_boundary(capsys):
    assert main(["cv-demo", "--nu", "4.0", "--m", "4"]) == 2
    # above the fourth-moment boundary, but below the importance check's limit 4.25
    assert main(["cv-demo", "--nu", "4.2", "--m", "4"]) == 2
    assert "nu must exceed 4.25" in capsys.readouterr().err
    # NaN passes no comparison; above 1e6 the Student-t log normalizer cancels, and
    # at 1e308 math.lgamma overflows
    for nu, shown in (("nan", "nan"), ("inf", "inf"), ("1e308", "1e+308"), ("1e16", "1e+16")):
        assert main(["cv-demo", "--nu", nu, "--m", "4", "--trials", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: nu must be at most 1e+06, got {shown}: ") and err.count("\n") == 1


def test_diverging_training_exits_2_with_one_line(tmp_path, capsys):
    # a RuntimeWarning would fail this test (pyproject.toml), so none is printed either
    cfg = write_config(tmp_path / "d.cfg", seed=1, d=3, hidden=5, classes=3, n_samples=12, train_steps=50, lr=1e308)
    assert main(["estimate", "--config", str(cfg), "--estimator", "exact", "--out", str(tmp_path / "d.fim")]) == 2
    assert capsys.readouterr().err == "error: loss became inf at step 1\n"
    assert not (tmp_path / "d.fim").exists()


@pytest.mark.parametrize("argv", [*(["estimate", "--estimator", kind] for kind in ESTIMATOR_KINDS),
                                  ["variance"], ["bounds"]], ids=[*ESTIMATOR_KINDS, "variance", "bounds"])
def test_overflowing_logits_exit_2_with_one_line(tmp_path, capsys, argv):
    # one step at lr 1e308 leaves a finite theta whose logits overflow: the estimates were all
    # NaN with exit 0, and hutch_lowrank and bounds failed on messages that did not name the cause
    cfg = write_config(tmp_path / "o.cfg", seed=1, d=3, classes=3, n_samples=12, train_steps=1, lr=1e308)
    out = tmp_path / "o.out"
    assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: the logits have a non-finite entry (NaN or infinity): "
                                       "the forward pass of this finite theta and X overflows\n")
    assert not out.exists()


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
