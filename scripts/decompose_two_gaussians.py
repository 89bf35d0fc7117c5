"""Predictive-variance decomposition for a model trained on the
two-Gaussians task, evaluated on a grid of probe inputs.

Emits plot-ready CSV: one row per probe with the reducible,
irreducible, data, and total variance of the predicted class-0
indicator.
"""

import argparse
import csv

import numpy as np

from etproc.harness import resolve_config, run_decomposition, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", default="etp", choices=("bnn", "etp"))
    ap.add_argument("--epochs", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", default="-6:6:25",
                    help="lo:hi:count probe grid; write a negative lo as --grid=-6:6:25")
    ap.add_argument("--out", default="decomposition.csv")
    args = ap.parse_args()
    lo, hi, count = args.grid.split(":")
    probes = np.linspace(float(lo), float(hi), int(count))[:, None]
    cfg = resolve_config(None, {
        "task": "two-gaussians", "model": args.model, "epochs": args.epochs,
        "batch_size": 40, "seeds": (args.seed,), "test_size": 100, "ood_size": 50,
    })
    _, kept = run_experiment(cfg, keep_models=True)
    rows = run_decomposition(cfg, kept[args.seed], probes)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "reducible", "irreducible", "data", "total"])
        for row in rows:
            writer.writerow([row["input"][0], row["reducible"][0],
                             row["irreducible"][0], row["data"][0], row["total"][0]])
    print(f"wrote {len(rows)} probe rows -> {args.out}")


if __name__ == "__main__":
    main()
