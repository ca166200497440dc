#!/usr/bin/env python3
"""How much does the similarity graph buy as labels get scarce?

For each label budget, train FSDA twice on the same two-manifold dataset —
once purely supervised (alpha = 0) and once with graph smoothing
(alpha = 0.5) — and report mean AUC on the unlabeled samples across seeds.
The gap widens as the labeled windows cover less of each manifold.

Example:
  python3 scripts/semi_supervised_sweep.py --n 2000 --seeds 5
"""

import argparse

import numpy as np

from sdakit.evaluation import auc_roc
from sdakit.sda import SdaProblem, solve
from sdakit.synthetic import knn_problem_parts, label_subset, two_chain_fingerprints


def run_cell(n: int, seed: int, n_labels: int, alpha: float, k: int, beta: float) -> float:
    x, truth = two_chain_fingerprints(n, seed=seed, features_per_chain=600,
                                      window=12, n_noise_features=40, p_noise=0.05)
    _, lap = knn_problem_parts(x, k)
    labels = label_subset(truth, n_labels, seed=seed + 100)
    p = SdaProblem(x=x, labels=labels, lap=lap, alpha=alpha, betas=(beta,))
    scores = solve(p, "fsda").ratings[beta].scores
    unlabeled = labels.labels == 0
    return auc_roc(scores[unlabeled], truth[unlabeled])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seeds", type=int, default=5, help="number of seeds per cell")
    ap.add_argument("--budgets", type=int, nargs="+", default=[5, 10, 20, 50],
                    help="labels per class")
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--beta", type=float, default=1e-2)
    ap.add_argument("--csv", help="optional output CSV path")
    args = ap.parse_args()

    rows = []
    print(f"{'labels/class':>12}  {'alpha=0':>14}  {'alpha=0.5':>14}  {'gain':>7}")
    for budget in args.budgets:
        sup = [run_cell(args.n, s, budget, 0.0, args.k, args.beta)
               for s in range(1, args.seeds + 1)]
        semi = [run_cell(args.n, s, budget, 0.5, args.k, args.beta)
                for s in range(1, args.seeds + 1)]
        gain = float(np.mean(semi) - np.mean(sup))
        rows.append((budget, np.mean(sup), np.std(sup), np.mean(semi), np.std(semi), gain))
        print(f"{budget:>12}  {np.mean(sup):7.3f} ±{np.std(sup):5.3f}"
              f"  {np.mean(semi):7.3f} ±{np.std(semi):5.3f}  {gain:+7.3f}")

    if args.csv:
        header = "labels_per_class,auc_supervised,std_supervised,auc_smoothed,std_smoothed,gain"
        body = "\n".join(",".join(f"{v:.6g}" for v in row) for row in rows)
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + body + "\n")
        print(f"wrote {args.csv}")


if __name__ == "__main__":
    main()
