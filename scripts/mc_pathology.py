"""Heavy-tailed failure of the naive Monte Carlo FIM estimate.

Sweeps the Student-t degrees of freedom toward the 4th-moment boundary, down
to 4.3 (the importance check needs nu > 4.25), and prints the moment ratio
E(x^4)/E(x^2)^2 (formula, importance-sampled check, naive estimate) beside
the estimator's empirical coefficient of variation.

Usage: python scripts/mc_pathology.py [--m 16] [--trials 100000] [--seed 0]
"""

import argparse

import numpy as np

from fimlab.harness import cv_demo


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--m", type=int, default=16)
    ap.add_argument("--trials", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'nu':>6}{'ratio (formula)':>17}{'ratio (IS)':>12}{'ratio (naive)':>15}"
          f"{'CV emp':>9}{'CV pred':>9}")
    for nu in (12.0, 8.0, 6.0, 5.0, 4.5, 4.3):
        rep = cv_demo(nu, m=args.m, trials=args.trials, rng=np.random.default_rng(args.seed))
        print(f"{nu:>6.1f}{rep.ratio_formula:>17.3f}{rep.ratio_importance:>12.3f}"
              f"{rep.ratio_naive:>15.3f}{rep.cv_empirical:>9.3f}{rep.cv_predicted:>9.3f}")
    print("\nthe ratio (and with it the estimator CV) diverges as nu -> 4+")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
