"""Fashion-MNIST in-domain vs MNIST out-of-domain detection.

Expects IDX files under <data-dir>/fmnist and <data-dir>/mnist (the
standard train/t10k image and label file names).
"""

from etproc.cli import ArgumentParser, add_options, guarded
from etproc.harness import emit_report, resolve_config, run_experiment


def main():
    ap = ArgumentParser(description=__doc__)
    add_options(ap, "model", "epochs", "seeds", data_dir={"required": True})
    ap.set_defaults(epochs=5, seeds="0,1,2,3,4")
    ap.add_argument("--out", default="fmnist_mnist.json")
    args = ap.parse_args()
    cfg = resolve_config(None, {
        "task": "fmnist-vs-mnist", "model": args.model,
        "data_dir": args.data_dir, "epochs": args.epochs,
        "seeds": args.seeds, "batch_size": 128, "hidden": "64",
        "n_train_points": 5000, "n_predict_samples": 4,
        "n_predict_z_samples": 2,
    })
    report = run_experiment(cfg)
    emit_report(report, "json", args.out)
    agg = report["aggregate"]
    print(f"{cfg.model}: entropy OOD-AUROC "
          f"{agg['auroc_ood_pct']['mean']:.1f}% +- {agg['auroc_ood_pct']['sd']:.1f}%"
          f"  -> {args.out}")


if __name__ == "__main__":
    raise SystemExit(guarded(main))
