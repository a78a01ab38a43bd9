"""Estimator shoot-out on a trained Gaussian-blobs classifier.

Trains a small MLP, then compares diagonal FIM estimators (one probe per
batch) against the exact diagonal, printing RelMAE and backward passes.

Usage: python scripts/bench_blobs.py [--seed 0] [--steps 400] [--probes 64]
"""

import argparse

import numpy as np

from fimlab import estimators as est
from fimlab.harness import BenchConfig, SyntheticTask, gen_task, relmae, run_bench, train_sgd
from fimlab.network import NetworkSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--probes", type=int, default=64, help="probe count for the averaged column")
    args = ap.parse_args()

    task = SyntheticTask("blobs", n_samples=512, seed=args.seed, dim=10, n_classes=5, separation=2.0)
    X, labels = gen_task(task)
    net = NetworkSpec((10, 32, 5), "tanh")
    theta = train_sgd(net, (X, labels), steps=args.steps, lr=0.2, seed=task.seed).theta

    cfg = BenchConfig(batch_size=64, n_batches=8, seed=args.seed)
    rows = run_bench(net, theta, X, labels, cfg)
    print(f"{'estimator':<16}{'relmae':>10}{'backwards':>11}")
    for r in rows:
        print(f"{r.estimator:<16}{r.relmae:>10.4f}{r.backward_passes:>11d}")

    truth = est.exact_fim_definition(net, theta, X[: cfg.batch_size], storage="diagonal")
    averaged = est.hutchinson_fim(
        net, theta, X[: cfg.batch_size], "full",
        rng=np.random.default_rng(args.seed + 1), n_probes=args.probes, storage="diagonal",
    )
    print(f"\n{args.probes}-probe averaged RelMAE on one batch: {relmae(averaged, truth):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
