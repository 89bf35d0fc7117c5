"""Train and evaluate all four models on the two-Gaussians task.

Writes one JSON report per model kind into --out-dir and prints the
aggregate metrics.
"""

import os

from etproc.cli import ArgumentParser, add_options, guarded
from etproc.harness import emit_report, resolve_config, run_experiment
from etproc.models import MODEL_KINDS


def main():
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    add_options(ap, "epochs", "seeds")  # their defaults are the config's: 400, 0,...,9
    ap.add_argument("--simplified", action="store_true",
                    help="use the simplified memory variant for ETP")
    args = ap.parse_args()
    for kind in MODEL_KINDS:
        cfg = resolve_config(None, {
            "task": "two-gaussians", "model": kind, "epochs": args.epochs,
            "batch_size": 40, "seeds": args.seeds,
            "simplified": args.simplified and kind == "etp",
        })
        os.makedirs(args.out_dir, exist_ok=True)
        report = run_experiment(cfg)
        path = os.path.join(args.out_dir, f"two_gaussians_{kind}.json")
        emit_report(report, "json", path)
        agg = report["aggregate"]
        print(f"{kind}: err {agg['err_pct']['mean']:.2f}% "
              f"ece {agg['ece_pct']['mean']:.2f}% "
              f"nll {agg['nll']['mean']:.3f} "
              f"ood-auroc {agg['auroc_ood_pct']['mean']:.1f}%  -> {path}")


if __name__ == "__main__":
    raise SystemExit(guarded(main))
