"""Predictive-variance decomposition for a model trained on the
two-Gaussians task, evaluated on a grid of probe inputs.

Emits plot-ready CSV: one row per probe with the reducible,
irreducible, data, and total variance of the predicted class-0
indicator.
"""

import csv

import numpy as np

from etproc import harness
from etproc.cli import ArgumentParser, add_options, guarded


def main():
    ap = ArgumentParser(description=__doc__)
    add_options(ap, "epochs", model={"choices": ("bnn", "etp")})  # default etp
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--grid", default="-6:6:25",
                    help="lo:hi:count probe grid; write a negative lo as --grid=-6:6:25")
    ap.add_argument("--out", default="decomposition.csv")
    args = ap.parse_args()
    try:
        lo, hi, count = args.grid.split(":")
        probes = np.linspace(float(lo), float(hi), int(count))[:, None]
    except ValueError:  # not three fields, a field that does not parse, count < 0
        probes = np.empty((0, 1))
    if not (len(probes) and np.isfinite(probes).all()):
        raise harness.ConfigError(f"grid: expected lo:hi:count with finite lo and hi and "
                                  f"count >= 1, got '{args.grid}'")
    cfg = harness.resolve_config(None, {
        "task": "two-gaussians", "model": args.model, "epochs": args.epochs,
        "batch_size": 40, "seeds": (args.seed,), "test_size": 100, "ood_size": 50,
    })
    model, _ = harness.train_seed(cfg, args.seed, harness.build_task_data(cfg, args.seed)[0])
    rows = harness.run_decomposition(cfg, model, probes)
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x", "reducible", "irreducible", "data", "total"])
        for row in rows:
            writer.writerow([row["input"][0], row["reducible"][0],
                             row["irreducible"][0], row["data"][0], row["total"][0]])
    print(f"wrote {len(rows)} probe rows -> {args.out}")


if __name__ == "__main__":
    raise SystemExit(guarded(main))
