"""Command-line interface.

Subcommands:
  core-probe  print the top-eigenvalue bracket, envelope errors and
              worst-label error for one probability vector
  estimate    run a configured estimator and serialize the result
  bench       RelMAE + speed table over the configured estimators (CSV)
  variance    closed-form probe variance vs an empirical check (JSON)
  cv-demo     heavy-tailed Monte Carlo pathology report
  hist        log-axis histogram of a serialized diagonal estimate (CSV)

Configs are flat key=value text files ('#' starts a comment); unknown keys
are rejected.  The FIMLAB_SEED environment variable overrides the config
seed.  All outputs are reproducible from (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import estimators as est
from . import harness as hz
from . import simplex as sx
from .network import NetworkSpec, init_params

CONFIG_KEYS = {
    "seed": int,
    "generator": str,
    "d": int,
    "classes": int,
    "hidden": int,
    "activation": str,
    "n_samples": int,
    "separation": float,
    "nu": float,
    "batch_size": int,
    "n_batches": int,
    "estimators": lambda s: tuple(part.strip() for part in s.split(",") if part.strip()),
    "probes": int,
    "epsilon": float,
    "train_steps": int,
    "lr": float,
    "storage": str,
    "trials": int,
    "k": int,
}

CONFIG_DEFAULTS = {
    "seed": 0,
    "generator": "blobs",
    "d": 2,
    "classes": 3,
    "hidden": 0,
    "activation": "tanh",
    "n_samples": 512,
    "separation": 2.0,
    "nu": 6.0,
    "batch_size": 64,
    "n_batches": 8,
    "estimators": hz.BenchConfig.estimators,
    "probes": 1,
    "epsilon": 1e-12,
    "train_steps": 0,
    "lr": 0.1,
    "storage": "diagonal",
    "trials": 200,
    "k": 1,
}

ESTIMATOR_KINDS = ("exact", "pullback", "efim", "mc", *est.PROBE_VARIANTS)


def parse_config(path) -> dict:
    """Flat key=value config; comments with '#'; unknown keys rejected."""
    cfg = dict(CONFIG_DEFAULTS)
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            cfg[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    env_seed = os.environ.get("FIMLAB_SEED")
    if env_seed is not None:
        cfg["seed"] = int(env_seed)
    return cfg


def _build_instance(cfg: dict):
    """(task, X, labels, net, theta) from a parsed config."""
    task = hz.SyntheticTask(
        generator=cfg["generator"],
        n_samples=cfg["n_samples"],
        seed=cfg["seed"],
        dim=cfg["d"],
        n_classes=cfg["classes"],
        separation=cfg["separation"],
        nu=cfg["nu"],
    )
    X, labels = hz.gen_task(task)
    d = X.shape[1]
    if cfg["hidden"] > 0:
        net = NetworkSpec((d, cfg["hidden"], cfg["classes"]), cfg["activation"])
    else:
        net = NetworkSpec((d, cfg["classes"]), "none")
    if cfg["train_steps"] > 0:
        theta = hz.train_sgd(net, (X, labels), cfg["train_steps"], cfg["lr"], seed=cfg["seed"]).theta
    else:
        theta = init_params(net, np.random.default_rng(cfg["seed"]))
    return task, X, labels, net, theta


def _fmt(x) -> str:
    return repr(float(x))  # shortest representation that round-trips exactly


def cmd_core_probe(args) -> int:
    p = sx.ProbVector(np.array([float(s) for s in args.p.split(",")]))
    dec = sx.spectrum(sx.simplex_fim(p))
    bracket = sx.lambda_max_bracket(p)
    env = sx.envelope_errors(p)
    realized_rank1 = float(np.sqrt(np.sum(dec.eigenvalues[:-1] ** 2)))
    q = sx.order_stats(p.values)
    errors = [
        float(np.linalg.norm(sx.empirical_simplex_fim(p, y).matrix - sx.simplex_fim(p).matrix))
        for y in range(p.n_classes)
    ]
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
    _, X, labels, net, theta = _build_instance(cfg)
    storage = cfg["storage"]
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(1)[0])
    kind = args.estimator
    if kind == "exact":
        result = est.exact_fim_definition(net, theta, X, storage=storage)
    elif kind == "pullback":
        result = est.exact_fim_pullback(net, theta, X, storage=storage)
    elif kind == "efim":
        if labels is None:
            raise ValueError("the empirical FIM needs a labeled task")
        result = est.efim(net, theta, X, labels, storage=storage)
    elif kind == "mc":
        result = est.mc_fim(net, theta, X, m=cfg["probes"], rng=rng, storage=storage)
    elif kind in est.PROBE_VARIANTS:
        result = est.hutchinson_fim(
            net, theta, X, est.PROBE_VARIANTS[kind],
            rng=rng, n_probes=cfg["probes"], k=cfg["k"],
            storage=storage, seed=cfg["seed"], dataset_id=cfg["generator"],
        )
    else:
        raise ValueError(f"unknown estimator {kind!r}")
    result.meta.setdefault("seed", cfg["seed"])
    result.meta.setdefault("dataset_id", cfg["generator"])
    est.save_estimate(result, args.out)
    print(f"wrote {result.kind} [{result.storage}] dim={result.dim} to {args.out}")
    return 0


def cmd_bench(args) -> int:
    cfg = parse_config(args.config)
    _, X, labels, net, theta = _build_instance(cfg)
    bench_cfg = hz.BenchConfig(
        batch_size=cfg["batch_size"],
        n_batches=cfg["n_batches"],
        estimators=cfg["estimators"],
        epsilon=cfg["epsilon"],
        seed=cfg["seed"],
    )
    rows = hz.run_bench(net, theta, X, labels, bench_cfg)
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["estimator", "relmae", "seconds", "speedup_vs_efim", "backward_passes"])
        for row in rows:
            writer.writerow(
                [row.estimator, _fmt(row.relmae), _fmt(row.seconds),
                 _fmt(row.speedup_vs_efim), row.backward_passes]
            )
    finally:
        if args.out:
            out.close()
    return 0


def cmd_variance(args) -> int:
    cfg = parse_config(args.config)
    _, X, labels, net, theta = _build_instance(cfg)
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]).spawn(2)[1])
    report = est.variance_closed_form(net, theta, X, args.variant, dist=args.dist, k=cfg["k"])
    empirical = est.empirical_probe_variance(
        net, theta, X, args.variant, n_trials=cfg["trials"], rng=rng,
        dist=args.dist, k=cfg["k"], eigen="full",
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
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def cmd_cv_demo(args) -> int:
    seed = args.seed
    report = hz.cv_demo(args.nu, args.m, args.trials, np.random.default_rng(seed))
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

    p = sub.add_parser("bench", help="RelMAE and speed table (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("variance", help="closed-form vs empirical probe variance (JSON)")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", default="full", choices=("full", "diag", "lowrank"))
    p.add_argument("--dist", default="rademacher", choices=("rademacher", "gaussian"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_variance)

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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
