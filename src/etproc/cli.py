"""Command-line entry point.

Subcommands: train / eval / run / decompose / report.
Exit codes: 0 success, 1 config or usage error, 2 data error (an unreadable
data, checkpoint or report file), 3 training diverged (on every seed, for ``run``).
The parser is built once per process and reused by every ``main`` call.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import harness, models
from .harness import ConfigError, DataError

DEFAULT_PROBES = {
    "two-gaussians": [[-6.0], [-3.0], [0.0], [3.0], [6.0]],
    "iris2d": [[-3.0, 0.0], [0.0, 0.0], [3.0, 0.0]],
}


# every option by its name, with its argparse settings; an option named after a
# config key sets that key, from the raw string that harness.resolve_config parses
OPTIONS = {
    "config": {"help": "flat key = value config file"},
    "task": {"help": f"one of {', '.join(harness.TASKS)}"},
    "model": {"help": f"one of {', '.join(models.MODEL_KINDS)}"},
    "seeds": {"help": "comma-separated seed list, e.g. 1,2,3"},
    "epochs": {"help": "training epochs"},
    "lr": {"help": "Adam learning rate"},
    "data_dir": {"help": "directory with IDX files"},
    "workers": {"help": "seed-level parallelism"},
    "checkpoint": {"required": True, "help": "checkpoint path (.npz)"},
    "inputs": {"required": True, "help": "comma-separated JSON report paths"},
    "out": {"required": True, "help": "output path; for train, the checkpoint (.npz)"},
    "format": {"choices": ("json", "csv"), "default": "json"},
}


class ArgumentParser(argparse.ArgumentParser):
    """Exits 1, the config-error code, on a usage error; argparse's 2 is the data-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def add_options(parser, *names, **settings):
    """The options in ``names`` and ``settings``; ``settings`` maps a name to
    argparse settings that replace or add to its OPTIONS entry."""
    for name in (*names, *settings):
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            **{**OPTIONS[name], **settings.get(name, {})})


@functools.cache  # one parser per process: parsing leaves no state in it
def build_parser():
    parser = ArgumentParser(prog="etproc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, summary, names in (
            ("train", cmd_train, "train one model, write checkpoint + loss trace",
             ("config", "task", "model", "seeds", "epochs", "lr", "data_dir", "out")),
            ("eval", cmd_eval, "evaluate a checkpoint into a report",
             ("config", "task", "seeds", "data_dir", "checkpoint", "out", "format")),
            ("run", cmd_run, "train + evaluate over the seed list",
             ("config", "task", "model", "seeds", "epochs", "lr", "data_dir", "workers",
              "out", "format")),
            ("decompose", cmd_decompose, "predictive-variance decomposition at probe inputs; "
             "it draws with seed 0, so --seeds is checked but has no effect",
             ("config", "task", "seeds", "checkpoint", "out")),
            ("report", cmd_report, "re-aggregate existing per-seed report files",
             ("inputs", "out", "format"))):
        p = sub.add_parser(name, help=summary, description=summary)
        p.set_defaults(run=run)
        add_options(p, *names)
    return parser


def _resolve(args) -> harness.ExperimentConfig:
    """The config of ``--config`` and of the config-key options the command takes."""
    return harness.resolve_config(
        args.config, {key: val for key, val in vars(args).items() if key in harness.FIELD_TYPES})


def _checkpoint_config(cfg, path, model, meta) -> harness.ExperimentConfig:
    """The config with the checkpoint's model kind and model keys, and its task,
    seed and training keys where its metadata records them. ``cfg`` has passed its
    checks, so a ConfigError here is the checkpoint's, and becomes a CheckpointError."""
    hyper = model.hyper()
    values = {key: hyper[key] for key in models.MODEL_KEYS if key in hyper}
    values.update(model=model.kind, hidden=tuple(hyper["hidden"]))
    if meta.get("task") is not None:
        values["task"] = meta["task"]
    if meta.get("seed") is not None:
        values["seeds"] = (meta["seed"],)
    # `etproc train` records the training keys, models.save_checkpoint does not
    train = meta.get("train", {key: getattr(cfg, key) for key in models.TRAIN_KEYS})
    try:
        if not isinstance(train, dict) or set(train) != set(models.TRAIN_KEYS):
            raise ConfigError(f"train: expected an object of the keys {models.TRAIN_KEYS}")
        values.update((key, harness.coerce(key, str(val))) for key, val in train.items())
        return dataclasses.replace(cfg, **values)  # replace runs validate again
    except ConfigError as exc:
        raise models.CheckpointError(f"checkpoint {path} has bad metadata: {exc}") from exc


def cmd_train(args):
    cfg = _resolve(args)
    if len(cfg.seeds) != 1:
        raise ConfigError(f"seeds: train writes one checkpoint, so it takes one seed, "
                          f"got {','.join(map(str, cfg.seeds))}")
    seed = cfg.seeds[0]
    # np.savez appends .npz to a path without it
    path = args.out if args.out.endswith(".npz") else args.out + ".npz"
    train_ds = harness.build_task_data(cfg, seed)[0]
    model, trace = harness.train_seed(cfg, seed, train_ds)
    models.save_checkpoint(model, path, seed=seed, extra_meta={
        "task": cfg.task, "train": {key: getattr(cfg, key) for key in models.TRAIN_KEYS}})
    with open(path + ".trace.json", "w") as f:
        json.dump({"seed": seed, "loss_trace": trace}, f, indent=2)
        f.write("\n")
    print(f"wrote checkpoint {path} (final loss {trace[-1]:.6f})"
          if trace else f"wrote checkpoint {path}")


def cmd_eval(args):
    model, meta = models.load_checkpoint(args.checkpoint)
    cfg = _checkpoint_config(_resolve(args), args.checkpoint, model, meta)
    seed = cfg.seeds[0]
    _, test_ds, ood_ds = harness.build_task_data(cfg, seed)
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


def cmd_decompose(args):
    model, meta = models.load_checkpoint(args.checkpoint)
    cfg = _checkpoint_config(_resolve(args), args.checkpoint, model, meta)
    probes = np.asarray(DEFAULT_PROBES.get(cfg.task, np.zeros((1, model.input_dim))))
    if probes.shape[1] != model.input_dim:
        raise ConfigError(f"checkpoint model does not fit task {cfg.task}: it takes "
                          f"{model.input_dim} inputs, the probes have {probes.shape[1]}")
    rows = harness.run_decomposition(cfg, model, probes)
    with open(args.out, "w") as f:
        json.dump({"schema_version": harness.SCHEMA_VERSION, "rows": rows}, f, indent=2)
        f.write("\n")
    print(f"wrote decomposition {args.out}")


def cmd_report(args):
    paths = [p for p in args.inputs.split(",") if p]
    report = harness.reaggregate(paths)
    harness.emit_report(report, args.format, args.out)
    print(f"wrote report {args.out}")


def guarded(command, *args):
    """The exit code of ``command(*args)``: 0, or 1, 2 or 3 for a config, data or training
    error, whose message it prints."""
    try:
        command(*args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, models.CheckpointError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except models.TrainingFailed as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 3


def main(argv=None):
    args = build_parser().parse_args(argv)
    return guarded(args.run, args)


if __name__ == "__main__":
    sys.exit(main())
