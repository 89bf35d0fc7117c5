"""Command-line entry point.

Subcommands: train / eval / run / decompose / report.
Exit codes: 0 success, 1 config error, 2 data error (an unreadable data or
checkpoint file), 3 training diverged (on every seed, for ``run``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import harness, models
from .distributions import SeededRng
from .harness import ConfigError, DataError

DEFAULT_PROBES = {
    "two-gaussians": [[-6.0], [-3.0], [0.0], [3.0], [6.0]],
    "iris2d": [[-3.0, 0.0], [0.0, 0.0], [3.0, 0.0]],
}


def _add_common(p):
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--task", help=f"one of {', '.join(harness.TASKS)}")
    p.add_argument("--model", help=f"one of {', '.join(models.MODEL_KINDS)}")
    p.add_argument("--seeds", help="comma-separated seed list, e.g. 1,2,3")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--data-dir", dest="data_dir", help="directory with IDX files")
    p.add_argument("--workers", type=int, help="seed-level parallelism")


def build_parser():
    parser = argparse.ArgumentParser(prog="etproc")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model, write checkpoint + loss trace")
    _add_common(p)
    p.add_argument("--out", required=True, help="checkpoint output path (.npz)")

    p = sub.add_parser("eval", help="evaluate a checkpoint into a report")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("run", help="train + evaluate over the seed list")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("decompose", help="predictive-variance decomposition at probe inputs")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="re-aggregate existing per-seed report files")
    p.add_argument("--inputs", required=True, help="comma-separated JSON report paths")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _resolve(args) -> harness.ExperimentConfig:
    keys = ("task", "model", "seeds", "epochs", "lr", "data_dir", "workers")
    return harness.resolve_config(args.config, {key: getattr(args, key) for key in keys})


def _checkpoint_config(cfg, model, meta) -> harness.ExperimentConfig:
    """The config with the checkpoint's model kind, and its task and seed
    where its metadata records them."""
    values = {"model": model.kind}
    if meta.get("task") is not None:
        values["task"] = meta["task"]
    if meta.get("seed") is not None:
        values["seeds"] = (meta["seed"],)
    return dataclasses.replace(cfg, **values)  # replace runs validate again


def cmd_train(args):
    cfg = _resolve(args)
    seed = cfg.seeds[0]
    train_ds, _, _, _ = harness.build_task_data(cfg, seed)
    model = harness.build_model(cfg, train_ds.features.shape[1], train_ds.num_classes,
                                SeededRng(seed=seed, stream=2))
    trace = models.train(model, train_ds, cfg, SeededRng(seed=seed, stream=4))
    models.save_checkpoint(model, args.out, seed=seed,
                           extra_meta={"task": cfg.task})
    with open(str(args.out) + ".trace.json", "w") as f:
        json.dump({"seed": seed, "loss_trace": trace}, f, indent=2)
        f.write("\n")
    print(f"wrote checkpoint {args.out} (final loss {trace[-1]:.6f})"
          if trace else f"wrote checkpoint {args.out}")
    return 0


def cmd_eval(args):
    model, meta = models.load_checkpoint(args.checkpoint)
    cfg = _checkpoint_config(_resolve(args), model, meta)
    seed = cfg.seeds[0]
    _, test_ds, ood_ds, _ = harness.build_task_data(cfg, seed)
    if (test_ds.features.shape[1], test_ds.num_classes) != (model.input_dim, model.num_classes):
        raise ConfigError(
            f"checkpoint model does not fit task {cfg.task}: it takes {model.input_dim} inputs "
            f"and {model.num_classes} classes, the data has {test_ds.features.shape[1]} "
            f"and {test_ds.num_classes}")
    row = harness.evaluate_model(cfg, model, test_ds, ood_ds)
    row["seed"] = seed
    report = harness.build_report(harness.config_dict(cfg), [row])
    harness.emit_report(report, args.format, args.out)
    print(f"wrote report {args.out}")
    return 0


def cmd_run(args):
    cfg = _resolve(args)
    report = harness.run_experiment(cfg)
    harness.emit_report(report, args.format, args.out)
    agg = report["aggregate"]
    for key in harness.METRIC_KEYS:
        m = agg[key]
        if m["mean"] is not None:
            print(f"{key}: {m['mean']:.3f} +- {m['sd']:.3f}")
    print(f"wrote report {args.out}")
    return 0


def cmd_decompose(args):
    model, meta = models.load_checkpoint(args.checkpoint)
    cfg = _checkpoint_config(_resolve(args), model, meta)
    probes = np.asarray(DEFAULT_PROBES.get(cfg.task, np.zeros((1, model.input_dim))))
    if probes.shape[1] != model.input_dim:
        raise ConfigError(f"checkpoint model does not fit task {cfg.task}: it takes "
                          f"{model.input_dim} inputs, the probes have {probes.shape[1]}")
    rows = harness.run_decomposition(cfg, model, probes)
    with open(args.out, "w") as f:
        json.dump({"schema_version": harness.SCHEMA_VERSION, "rows": rows}, f, indent=2)
        f.write("\n")
    print(f"wrote decomposition {args.out}")
    return 0


def cmd_report(args):
    paths = [p for p in args.inputs.split(",") if p]
    report = harness.reaggregate(paths)
    harness.emit_report(report, args.format, args.out)
    print(f"wrote report {args.out}")
    return 0


COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "run": cmd_run,
    "decompose": cmd_decompose,
    "report": cmd_report,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, models.CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except models.TrainingFailed as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
