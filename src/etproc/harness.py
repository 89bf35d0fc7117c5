"""Experiment orchestration: config resolution, seed loops, evaluation,
and machine-readable report emission.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import data as data_mod
from . import metrics as metrics_mod
from . import models as models_mod
from .autodiff import row_max
from .distributions import SeededRng
from .metrics import PredictionSet

SCHEMA_VERSION = 1

TASKS = ("two-gaussians", "iris2d", "fmnist-vs-mnist")
OOD_SCORES = ("entropy", "maxprob")


class ConfigError(ValueError):
    pass


class DataError(RuntimeError):
    pass


@dataclass
class ExperimentConfig(models_mod.TrainConfig, models_mod.ModelConfig):
    """Every configuration key with its default. The training keys come
    from TrainConfig and the model keys from ModelConfig; construction
    checks every key (see ``validate``)."""

    task: str = "two-gaussians"
    model: str = "etp"
    n_predict_samples: int = 16
    n_predict_z_samples: int = 8
    ece_bins: int = 10
    ood_score: str = "entropy"
    seeds: tuple = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
    n_per_class: int = 20
    test_size: int = 10000
    ood_size: int = 1000
    n_train_points: int = 5000
    data_dir: str = ""
    include_runtime: bool = True
    workers: int = 1
    decomposition_samples: int = 256

    def validate(self):
        """Check the keys the harness reads itself, then run the checks of
        the two layers that own the others, TrainConfig and ModelConfig,
        whatever ``model`` says. Their ValueError becomes a ConfigError."""
        if self.task not in TASKS:
            raise ConfigError(f"task: unknown value '{self.task}'")
        if self.model not in models_mod.MODEL_KINDS:
            raise ConfigError(f"model: unknown value '{self.model}'")
        if self.ood_score not in OOD_SCORES:
            raise ConfigError(f"ood_score: unknown value '{self.ood_score}'")
        if not self.seeds or not all(type(s) is int and s >= 0 for s in self.seeds):
            raise ConfigError(f"seeds: at least one seed required, each an integer >= 0, "
                              f"got {self.seeds!r}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds: each seed may appear once, got {self.seeds!r}")
        for key, low in (("n_predict_samples", 1), ("n_predict_z_samples", 1), ("ece_bins", 1),
                         ("n_per_class", 1), ("test_size", 1), ("ood_size", 1),
                         ("n_train_points", 1), ("workers", 1), ("decomposition_samples", 2)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key}: must be >= {low}")
        try:
            models_mod.TrainConfig.__post_init__(self)
            models_mod.ModelConfig.__post_init__(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self

    __post_init__ = validate


FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}  # annotations, as text


def coerce(key: str, raw: str):
    if key not in FIELD_TYPES:
        raise ConfigError(f"unknown configuration key: '{key}'")
    raw = raw.strip()
    try:
        if FIELD_TYPES[key] == "tuple":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if FIELD_TYPES[key] == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return {"int": int, "float": float, "str": str}[FIELD_TYPES[key]](raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot parse value '{raw}'") from exc


def parse_config_file(path) -> dict:
    """Flat ``key = value`` text with '#' comments."""
    try:
        with open(path) as f:
            lines = f.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (tok.strip() for tok in line.split("=", 1))
        values[key] = coerce(key, raw)
    return values


def resolve_config(file_path=None, overrides=None) -> ExperimentConfig:
    """Layered resolution: defaults < config file < explicit overrides.
    The resulting config has passed every check (ConfigError otherwise)."""
    values = {}
    if file_path:
        values.update(parse_config_file(file_path))
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if isinstance(val, str):
            val = coerce(key, val)
        elif key not in FIELD_TYPES:
            raise ConfigError(f"unknown configuration key: '{key}'")
        values[key] = val
    return ExperimentConfig(**values)


def config_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["hidden"] = list(cfg.hidden)
    d["seeds"] = list(cfg.seeds)
    return d


# ---------------------------------------------------------------------------
# task data


def build_task_data(cfg: ExperimentConfig, seed: int):
    """(train, test, ood) datasets for one seed; raises DataError on bad files."""
    data_rng = SeededRng(seed=seed, stream=1)
    if cfg.task == "two-gaussians":
        train = data_mod.gen_two_gaussians(cfg.n_per_class, data_rng)
        labels = (data_rng.uniform(size=cfg.test_size) < 0.5).astype(int)
        x = data_rng.normal(size=cfg.test_size) + np.where(labels == 1, 1.0, -1.0)
        test = data_mod.LabeledDataset(x[:, None], labels, 2)
        sign = np.where(data_rng.uniform(size=cfg.ood_size) < 0.5, -1.0, 1.0)
        ood_x = sign * data_rng.uniform(4.0, 8.0, size=cfg.ood_size)
        ood = data_mod.LabeledDataset(ood_x[:, None], np.zeros(cfg.ood_size, int), 2)
        return train, test, ood
    if cfg.task == "iris2d":
        train = data_mod.load_iris_pca2()
        # evaluation reuses the training points (150-sample task)
        test = train
        pts = np.empty((0, 2))
        while len(pts) < cfg.ood_size:  # far candidates, drawn until there are enough
            cand = data_rng.uniform(-10.0, 10.0, size=(4 * cfg.ood_size, 2))
            pts = np.concatenate([pts, cand[np.max(np.abs(cand), axis=1) >= 5.0]])[: cfg.ood_size]
        ood = data_mod.LabeledDataset(pts, np.zeros(len(pts), int), 3)
        return train, test, ood
    # fmnist-vs-mnist, the one task left
    paths = fmnist_mnist_paths(cfg.data_dir)
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        raise DataError(f"missing IDX files: {missing}")
    try:
        fm_train = data_mod.read_idx(paths["fmnist_train_images"],
                                     paths["fmnist_train_labels"])
        fm_test = data_mod.read_idx(paths["fmnist_test_images"],
                                    paths["fmnist_test_labels"])
        mn_test = data_mod.read_idx(paths["mnist_test_images"],
                                    paths["mnist_test_labels"])
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    n = cfg.n_train_points
    train = data_mod.LabeledDataset(fm_train.features[:n], fm_train.labels[:n], 10)
    test = data_mod.LabeledDataset(fm_test.features[:n], fm_test.labels[:n], 10)
    ood = data_mod.LabeledDataset(mn_test.features[:n], mn_test.labels[:n], 10)
    train, test, ood = data_mod.zscore(train, [test, ood])
    return train, test, ood


def fmnist_mnist_paths(data_dir) -> dict:
    return {
        "fmnist_train_images": os.path.join(data_dir, "fmnist", "train-images-idx3-ubyte"),
        "fmnist_train_labels": os.path.join(data_dir, "fmnist", "train-labels-idx1-ubyte"),
        "fmnist_test_images": os.path.join(data_dir, "fmnist", "t10k-images-idx3-ubyte"),
        "fmnist_test_labels": os.path.join(data_dir, "fmnist", "t10k-labels-idx1-ubyte"),
        "mnist_test_images": os.path.join(data_dir, "mnist", "t10k-images-idx3-ubyte"),
        "mnist_test_labels": os.path.join(data_dir, "mnist", "t10k-labels-idx1-ubyte"),
    }


# ---------------------------------------------------------------------------
# per-seed pipeline


def ood_scores(probs, mode: str):
    if mode == "entropy":
        return metrics_mod.entropy_rows(probs)
    # max-probability scoring: low confidence = more OOD-like
    return -row_max(probs)[:, 0]


def evaluate_model(cfg: ExperimentConfig, model, test, ood):
    eval_rng = SeededRng(seed=0, stream=3)
    probs_in, probs_out = [models_mod.predict(model, ds.features, eval_rng, cfg.n_predict_samples,
                                              cfg.n_predict_z_samples) for ds in (test, ood)]
    preds = PredictionSet(probs_in, test.labels)
    return {
        "err_pct": 100.0 * metrics_mod.error_rate(preds),
        "ece_pct": 100.0 * metrics_mod.ece(preds, cfg.ece_bins),
        "nll": metrics_mod.nll(preds),
        "auroc_ood_pct": 100.0 * metrics_mod.auroc(
            ood_scores(probs_in, cfg.ood_score), ood_scores(probs_out, cfg.ood_score)),
    }


def train_seed(cfg: ExperimentConfig, seed: int, train_ds):
    """(model, loss trace) of one seed: the model is built from the seed's
    stream 2 and trained on ``train_ds`` from its stream 4."""
    hyper = {name: getattr(cfg, name) for name in models_mod.MODEL_CLASSES[cfg.model].HYPER}
    model = models_mod.make_model(cfg.model, train_ds.features.shape[1], train_ds.num_classes,
                                  cfg.hidden, SeededRng(seed=seed, stream=2), **hyper)
    return model, models_mod.train(model, train_ds, cfg, SeededRng(seed=seed, stream=4))


def run_single_seed(cfg: ExperimentConfig, seed: int):
    """(report row, trained model) for one seed; the model is None when
    training diverged, and the row then holds null metrics."""
    train_ds, test_ds, ood_ds = build_task_data(cfg, seed)
    t0 = time.perf_counter()
    try:
        model, trace = train_seed(cfg, seed, train_ds)
    except models_mod.TrainingDiverged as exc:
        return {"seed": seed, "failed": True, "failure": str(exc), "runtime_s_per_epoch": None,
                **dict.fromkeys(METRIC_KEYS)}, None
    elapsed = time.perf_counter() - t0
    row = evaluate_model(cfg, model, test_ds, ood_ds)
    row["seed"] = seed
    row["failed"] = False
    row["runtime_s_per_epoch"] = elapsed / max(1, cfg.epochs)
    row["final_loss"] = trace[-1] if trace else None
    return row, model


def _seed_row(cfg: ExperimentConfig, seed: int):
    return run_single_seed(cfg, seed)[0]


METRIC_KEYS = ("err_pct", "ece_pct", "nll", "auroc_ood_pct")


def build_report(config: dict, rows, runtime_s_per_epoch=None) -> dict:
    """A report: the config, the metrics of each seed's row and their aggregate."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "per_seed": [{k: r.get(k) for k in ("seed", *METRIC_KEYS)} for r in rows],
        "aggregate": aggregate_rows(rows),
        "runtime_s_per_epoch": runtime_s_per_epoch,
    }


def aggregate_rows(rows):
    agg = {}
    for key in METRIC_KEYS:
        vals = [r[key] for r in rows if r.get(key) is not None]
        if vals:
            mean = float(np.mean(vals))
            sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        else:
            mean = sd = None
        agg[key] = {"mean": mean, "sd": sd}
    return agg


def run_experiment(cfg: ExperimentConfig, keep_models=False):
    """Train/evaluate over the seed list; returns the report dict.

    With keep_models=True the trained per-seed models are returned too
    (single-worker mode only).
    """
    rows = []
    kept = {}
    if cfg.workers > 1 and not keep_models:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_seed_row, [cfg] * len(cfg.seeds), cfg.seeds))
    else:
        for seed in cfg.seeds:
            row, model = run_single_seed(cfg, seed)
            if keep_models and model is not None:
                kept[seed] = model
            rows.append(row)
    if all(r["failed"] for r in rows):
        raise models_mod.TrainingFailed("every seed diverged: " + "; ".join(
            f"seed {r['seed']}: {r['failure']}" for r in rows))
    runtimes = [r.get("runtime_s_per_epoch") for r in rows if r.get("runtime_s_per_epoch")]
    report = build_report(config_dict(cfg), rows, (
        float(np.mean(runtimes)) if (runtimes and cfg.include_runtime) else None))
    if keep_models:
        return report, kept
    return report


# ---------------------------------------------------------------------------
# decomposition


def run_decomposition(cfg: ExperimentConfig, model, probe_inputs):
    """Per-probe predictive-variance decomposition rows."""
    if not hasattr(model, "decompose"):
        raise ConfigError(
            f"model kind '{model.kind}' has no defined predictive-variance "
            "decomposition (single-term uncertainty); use bnn or etp")
    probes = np.atleast_2d(np.asarray(probe_inputs, dtype=np.float64))
    rng = SeededRng(seed=0, stream=7)
    rows = []
    for x in probes:
        triple = model.decompose(x[None, :], rng, cfg.decomposition_samples)
        rows.append({
            "input": [float(v) for v in x],
            "reducible": triple.reducible.tolist(),
            "irreducible": triple.irreducible.tolist(),
            "data": triple.data.tolist(),
            "total": triple.total.tolist(),
        })
    return rows


# ---------------------------------------------------------------------------
# report emission


def _sanitize(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def emit_report(report: dict, fmt: str, path):
    """Write JSON or CSV; NaN metrics serialize as null/empty."""
    report = _sanitize(report)
    if fmt == "json":
        with open(path, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True, allow_nan=False)
            f.write("\n")
    elif fmt == "csv":
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["seed", *METRIC_KEYS])
            for row in report["per_seed"]:
                writer.writerow([row["seed"]] + [
                    "" if row[k] is None else row[k] for k in METRIC_KEYS])
            agg = report["aggregate"]
            writer.writerow(["aggregate"] + [
                "" if agg[k]["mean"] is None else agg[k]["mean"] for k in METRIC_KEYS])
    else:
        raise ConfigError(f"unknown report format: '{fmt}'")
    return path


def reaggregate(per_seed_paths):
    """Re-aggregate previously emitted per-seed JSON reports.

    Raises ConfigError unless there is a path, the reports' configs agree
    in every key but ``seeds`` and no seed appears twice; the merged config
    lists every seed. DataError names a report that is unreadable or malformed,
    such as a config that is not an object, a seed that is not an integer >= 0
    or a metric that is neither null nor a finite number (a bool is neither).
    """
    if not per_seed_paths:
        raise ConfigError("no report to re-aggregate")
    rows = []
    config = first = None
    for p in per_seed_paths:
        try:
            with open(p) as f:
                rep = json.load(f)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise DataError(f"cannot read report {p}: {exc}") from exc
        seed_rows = rep.get("per_seed") if isinstance(rep, dict) else None
        if not isinstance(seed_rows, list) or not all(
                isinstance(r, dict) and type(r.get("seed")) is int and r["seed"] >= 0
                for r in seed_rows):
            raise DataError(f"report {p} has no per_seed list of objects with integer seeds >= 0")
        if not all(r.get(k) is None or type(r[k]) in (int, float) and math.isfinite(r[k])
                   for r in seed_rows for k in METRIC_KEYS):
            raise DataError(f"report {p} has a metric that is neither null nor a finite number")
        rep_config = rep.get("config")
        if not isinstance(rep_config, (dict, type(None))):
            raise DataError(f"report {p} has a config that is not an object")
        other = {k: v for k, v in (rep_config or {}).items() if k != "seeds"}
        if first is None:
            config, first, first_path = rep_config, other, p
        elif other != first:
            keys = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
            raise ConfigError(f"report {p} has another config than {first_path}: {keys}")
        rows.extend(seed_rows)
    seeds = [r["seed"] for r in rows]
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"seeds reported more than once: {repeated}")
    return build_report(config and dict(config, seeds=seeds), rows)
