"""Command-line interface.

Subcommands:
  core-probe  print the top-eigenvalue bracket, envelope errors and
              worst-label error for one probability vector
  estimate    run a configured estimator and serialize the result
  bench       RelMAE and backward passes of the configured estimators (CSV)
  variance    closed-form probe variance vs an empirical check (JSON)
  bounds      tightness certificates and Loewner margins of the bounds (JSON)
  cv-demo     heavy-tailed Monte Carlo pathology report
  hist        log-axis histogram of a serialized diagonal estimate (CSV)
  inspect     print the header of a serialized estimate (JSON)

Configs are flat key=value text files ('#' starts a comment); unknown keys
and bad values are rejected.  The FIMLAB_SEED environment variable overrides
the config seed.  All outputs are reproducible from (config, seed).
estimate, bench, variance and bounds refuse an --out that is a directory or
lies in a missing directory before they compute anything, and estimate an
empty one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from . import bounds as bd
from . import estimators as est
from . import harness as hz
from . import simplex as sx
from .network import ACTIVATIONS, NetworkSpec

ESTIMATOR_KINDS = ("exact", "pullback", "efim", "mc", *est.PROBE_VARIANTS)


# A config key's row: the parser of its text, its default and its check.
# check(value, cfg) returns what is wrong with the value (the words after the
# key in the error message) or None.  Every default passes its check.
Key = namedtuple("Key", "parse default check")


def _at_least(minimum):  # and finite
    return lambda value, cfg: None if minimum <= value < np.inf else (  # NaN fails too
        f"must be at least {minimum}{' and finite' if value == np.inf else ''}, got {value}")


def _one_of(choices):
    return lambda value, cfg: None if value in choices else f"must be one of {', '.join(choices)}, got {value!r}"


CONFIG = {
    "seed": Key(int, 0, _at_least(0)),
    "d": Key(int, 2, _at_least(1)),
    "classes": Key(int, 3, _at_least(2)),
    "hidden": Key(int, 0, _at_least(0)),  # 0 is the linear model
    "activation": Key(str, "tanh", _one_of(ACTIVATIONS)),
    "n_samples": Key(int, 512, _at_least(1)),
    "batch_size": Key(int, 64, _at_least(1)),
    "n_batches": Key(int, 8, _at_least(1)),
    "probes": Key(int, 1, _at_least(1)),
    "train_steps": Key(int, 0, _at_least(0)),
    "lr": Key(float, 0.1, lambda value, cfg: None if cfg["train_steps"] <= 0 or 0 < value < np.inf else (
        f"must be positive and finite when train_steps > 0, got {value}")),  # unchecked when unused
    "storage": Key(str, "diagonal", _one_of(est.STORAGES)),
    "trials": Key(int, 200, _at_least(2)),
    "k": Key(int, 1, lambda value, cfg: _at_least(1)(value, cfg) or (  # a rank in [1, classes - 1]
        None if value < cfg["classes"] else f"must be at most classes - 1 = {cfg['classes'] - 1}, got {value}")),
}


def _entries(path):
    """(location, key, text) for each key=value line of the file, then for FIMLAB_SEED.
    A key given twice in the file is refused, naming both lines."""
    seen = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        at = f"{path}:{lineno}"
        if key in seen:
            raise ValueError(f"{at}: config key {key!r} is already set at {seen[key]}")
        seen[key] = at
        yield at, key, text
    if "FIMLAB_SEED" in os.environ:
        yield "FIMLAB_SEED", "seed", os.environ["FIMLAB_SEED"]


def parse_config(path) -> dict:
    """Flat key=value config; comments with '#'; unknown keys rejected.

    Each key's text goes through its CONFIG parser, then every key's check
    runs.  A value that does not parse or fails its check raises ValueError
    with the path and line number, or with the name FIMLAB_SEED when that
    variable, which overrides the config seed, holds it.  lr is checked only
    when train_steps > 0, and k against classes.
    """
    cfg = {key: row.default for key, row in CONFIG.items()}
    where = {}
    for at, key, text in _entries(path):
        try:
            cfg[key] = CONFIG[key].parse(text)
        except ValueError as exc:
            raise ValueError(f"{at}: bad value for {key!r}: {text!r}") from exc
        where[key] = at
    for key, row in CONFIG.items():
        problem = row.check(cfg[key], cfg)
        if problem:
            raise ValueError(f"{where[key]}: {key} {problem}")
    return cfg


def _check_out(path, stdout: bool = True) -> None:
    """Refuse an --out that cannot be written before any work is done: a
    directory, or a file in a directory that does not exist.  An empty one
    means stdout where the command offers it (bench, variance and bounds)."""
    if not path:
        if stdout:
            return
        raise ValueError("--out is empty; it must name the file to write")
    if Path(path).is_dir():
        raise ValueError(f"--out {path} is a directory")
    if not Path(path).parent.is_dir():
        raise ValueError(f"--out {path}: no directory {Path(path).parent}")


def _write(path, text: str) -> None:
    """Write text to the file at path as it is (no newline translation), or
    to stdout for an empty path."""
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_instance(cfg: dict):
    """(X, labels, net, theta) from a parsed config."""
    task = hz.SyntheticTask("blobs", n_samples=cfg["n_samples"], seed=cfg["seed"], dim=cfg["d"],
                            n_classes=cfg["classes"])
    X, labels = hz.gen_task(task)
    d = X.shape[1]
    if cfg["hidden"] > 0:
        net = NetworkSpec((d, cfg["hidden"], cfg["classes"]), cfg["activation"])
    else:
        net = NetworkSpec((d, cfg["classes"]), "none")
    theta = hz.train_sgd(net, (X, labels), cfg["train_steps"], cfg["lr"], seed=cfg["seed"]).theta
    return X, labels, net, theta


def _fmt(x) -> str:
    return repr(float(x))  # shortest representation that round-trips exactly


def cmd_core_probe(args) -> int:
    p = sx.ProbVector(np.array([float(s) for s in args.p.split(",")]))
    fim = sx.simplex_fim(p)
    dec = sx.spectrum(fim)
    bracket = sx.lambda_max_bracket(p)
    env = sx.envelope_errors(p)
    realized_rank1 = float(np.sqrt(np.sum(dec.eigenvalues[:-1] ** 2)))
    q = sx.order_stats(p.values)
    errors = [float(np.linalg.norm(sx.empirical_simplex_fim(p, y) - fim)) for y in range(p.n_classes)]
    worst = int(np.argmax(errors))
    floor = 2.0 * float(p.values @ p.values) - 2.0 * float(q[0])
    var = sx.empirical_fim_variance(p)
    print(f"p = {', '.join(_fmt(v) for v in p.values)}")
    print(f"trace = {_fmt(float(np.sum(dec.eigenvalues)))} (identity 1-|p|^2 = {_fmt(1.0 - float(p.values @ p.values))})")
    print(f"lambda_max = {_fmt(dec.lambda_max)} in [{_fmt(bracket.lower)}, {_fmt(bracket.upper)}] (bracket gap {_fmt(bracket.gap)})")
    print(f"diag envelope error = {_fmt(env.diag_error)} (floor 1/C = {_fmt(1.0 / p.n_classes)})")
    print(f"rank1 envelope error = {_fmt(realized_rank1)} (bound {_fmt(env.rank1_error_bound)})")
    print(f"worst-label error = {_fmt(errors[worst])} at y={worst} (floor {_fmt(floor)})")
    print(f"max entrywise label variance = {_fmt(float(var.max()))} (cap 1/16)")
    return 0


def cmd_estimate(args) -> int:
    cfg = parse_config(args.config)
    _check_out(args.out, stdout=False)
    X, labels, net, theta = _build_instance(cfg)
    storage = cfg["storage"]
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
    kind = args.estimator
    if kind == "exact":
        result = est.exact_fim_definition(net, theta, X, storage=storage)
    elif kind == "pullback":
        result = est.exact_fim_pullback(net, theta, X, storage=storage)
    elif kind == "efim":
        result = est.efim(net, theta, X, labels, storage=storage)
    elif kind == "mc":
        result = est.mc_fim(net, theta, X, m=cfg["probes"], rng=rng, storage=storage)
    else:  # a probe estimator: argparse's choices allow no other name
        result = est.hutchinson_fim(
            net, theta, X, est.PROBE_VARIANTS[kind],
            rng=rng, n_probes=cfg["probes"], k=cfg["k"], storage=storage,
        )
    result.meta.setdefault("seed", cfg["seed"])
    result.meta.setdefault("dataset_id", "blobs")
    est.save_estimate(result, args.out)
    print(f"wrote {result.kind} [{result.storage}] dim={result.dim} to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = parse_config(args.config)
    _check_out(args.out)
    bench_cfg = hz.BenchConfig(**{key: cfg[key] for key in ("batch_size", "n_batches", "seed")})
    hz._check_sample_count(cfg["n_samples"], bench_cfg, f"{args.config}: ")  # before any training
    X, labels, net, theta = _build_instance(cfg)
    rows = hz.run_bench(net, theta, X, labels, bench_cfg)
    out = io.StringIO()
    writer = csv.writer(out)  # its rows end in \r\n
    writer.writerow(["estimator", "relmae", "backward_passes"])
    for row in rows:
        writer.writerow([row.estimator, _fmt(row.relmae), row.backward_passes])
    _write(args.out, out.getvalue())
    return 0


def cmd_variance(args) -> int:
    cfg = parse_config(args.config)
    _check_out(args.out)
    X, labels, net, theta = _build_instance(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(2)[1])
    report = est.variance_closed_form(net, theta, X, args.variant, dist=args.dist, k=cfg["k"])
    empirical = est.empirical_probe_variance(
        net, theta, X, args.variant, n_trials=cfg["trials"], rng=rng,
        dist=args.dist, k=cfg["k"],
    )
    cv = report.cv[np.isfinite(report.cv)]
    payload = {
        "variant": report.variant,
        "dist": report.dist,
        "trials": cfg["trials"],
        "fim_diag": report.fim_diag.tolist(),
        "var_closed": report.var_closed.tolist(),
        "var_empirical": empirical.tolist(),
        "max_cv": float(cv.max()) if cv.size else None,
        "cv_cap": float(np.sqrt(2.0)),
    }
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_bounds(args) -> int:
    cfg = parse_config(args.config)
    _check_out(args.out)
    X, labels, net, theta = _build_instance(cfg)
    _write(args.out, bd.tightness_report(net, theta, X, k=cfg["k"], labels=labels).to_json() + "\n")
    return 0


def cmd_cv_demo(args) -> int:
    report = hz.cv_demo(args.nu, args.m, args.trials, np.random.default_rng(args.seed))
    print(f"nu = {_fmt(report.nu)}, m = {report.m}, trials = {report.trials}")
    print(f"moment ratio E(x^4)/E(x^2)^2: formula = {_fmt(report.ratio_formula)}")
    print(f"  importance-sampling estimate = {_fmt(report.ratio_importance)}")
    print(f"  naive estimate               = {_fmt(report.ratio_naive)}")
    print(f"estimator CV: empirical = {_fmt(report.cv_empirical)}, predicted sqrt((r-1)/m) = {_fmt(report.cv_predicted)}")
    return 0


def cmd_hist(args) -> int:
    estimate = est.load_estimate(getattr(args, "in"))
    report = hz.histogram(estimate)
    with open(args.out, "w", newline="") as fh:
        fh.write(f"# zero_atom={report.zero_atom} zeta={_fmt(report.zeta)} mean={_fmt(report.mean)} "
                 f"median={_fmt(report.median)} p95={_fmt(report.p95)}\n")
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count"])
        for lo, hi, count in zip(report.bin_edges[:-1], report.bin_edges[1:], report.counts):
            writer.writerow([_fmt(lo), _fmt(hi), int(count)])
    print(f"zero atom {report.zero_atom}/{report.total} (zeta={_fmt(report.zeta)})")
    return 0


def cmd_inspect(args) -> int:
    print(json.dumps(est.read_header(getattr(args, "in")), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fimlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("core-probe", help="bracket, envelopes and label errors for one p")
    p.add_argument("--p", required=True, help="comma-separated probabilities")
    p.set_defaults(func=cmd_core_probe)

    p = sub.add_parser("estimate", help="run one estimator and serialize the result")
    p.add_argument("--config", required=True)
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bench", help="RelMAE and backward-pass table (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("variance", help="closed-form vs empirical probe variance (JSON)")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", default="full", choices=tuple(est.PROBE_VARIANTS.values()))
    p.add_argument("--dist", default="rademacher", choices=est.PROBE_DISTS)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("bounds", help="tightness certificates and Loewner margins (JSON)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("cv-demo", help="heavy-tailed Monte Carlo pathology report")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_cv_demo)

    p = sub.add_parser("hist", help="log-axis histogram of a diagonal estimate (CSV)")
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("inspect", help="print an estimate file's header (JSON); the payload is not read")
    p.add_argument("--in", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, hz.TrainingDiverged) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
