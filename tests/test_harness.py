"""Tests for config resolution, task assembly, the seed loop, report
emission, and the command-line interface."""

import csv
import importlib.util
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import etproc
from etproc import cli, harness
from etproc.distributions import SeededRng
from etproc.harness import (
    ConfigError,
    DataError,
    ExperimentConfig,
    aggregate_rows,
    build_task_data,
    emit_report,
    parse_config_file,
    reaggregate,
    resolve_config,
    run_decomposition,
    run_experiment,
    run_single_seed,
)
from etproc.data import LabeledDataset, write_idx
from etproc.metrics import auroc, entropy_rows
from etproc.models import (
    MODEL_KINDS,
    TRAIN_KEYS,
    load_checkpoint,
    make_model,
    predict,
    save_checkpoint,
)


def write_config(path, text):
    path.write_text(text)
    return str(path)


FAST = dict(epochs=3, batch_size=40, test_size=200, ood_size=50,
            seeds=(7,), include_runtime=False, n_predict_samples=4,
            n_predict_z_samples=2, decomposition_samples=64)


REJECTED = [
    ("task", "cifar", "task"),
    ("model", "gp", "model"),
    ("gamma", 1.5, "gamma"),
    ("kappa2", 0.0, "kappa2"),
    ("context_fraction", 0.0, "context_fraction"),
    ("ece_bins", 0, "ece_bins"),
    ("ood_score", "energy", "ood_score"),
    ("seeds", (), "seeds"),
    ("aggregation", "max", "aggregation"),
    ("workers", 0, "workers"),
    ("seeds", (-1,), "seeds"),
]

# Bad values of the training keys, kept apart from REJECTED so that the
# cases of CLI_REJECTED built from each list keep their positions.
TRAINING_REJECTED = [
    ("lr", float("nan"), "lr"),
    ("lr", float("inf"), "lr"),
    ("edl_anneal_epochs", -3, "edl_anneal_epochs"),
]


def config_line(key, value):
    text = ",".join(map(str, value)) if isinstance(value, tuple) else value
    return f"{key} = {text}"


# Configs that `etproc run` must reject with exit code 1: the keys whose
# bad values once ended in a traceback, every case of REJECTED, a key of a
# model other than the one run, an unknown model named by a flag, every case
# of TRAINING_REJECTED, a non-finite rate named by a flag, flag values that
# do not parse as their key's type, and a repeated seed.
CLI_REJECTED = [
    ("memory_cells = 0", [], "memory_cells"),
    ("memory_update_samples = 0", [], "memory_update_samples"),
    ("decomposition_samples = 1", [], "decomposition_samples"),
    ("test_size = 0", [], "test_size"),
    ("ood_size = 0", [], "ood_size"),
    ("n_per_class = 0", [], "n_per_class"),
    *[(config_line(key, value), [], pattern) for key, value, pattern in REJECTED],
    ("gamma = 1.5", ["--model", "bnn"], "gamma"),
    ("", ["--model", "gp"], "model"),
    *[(config_line(key, value), [], pattern)
      for key, value, pattern in TRAINING_REJECTED],
    ("", ["--lr", "nan"], "lr"),
    ("", ["--lr", "inf"], "lr"),
    ("", ["--epochs", "abc"], "epochs"),
    ("", ["--lr", "abc"], "lr"),
    ("", ["--workers", "1.5"], "workers"),
    ("seeds = 1,1", [], "seeds"),
]


class TestConfig:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_parse_file_types_and_comments(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", """
# comment line
task = iris2d
hidden = 16,8   # trailing comment
lr = 0.01
simplified = true
seeds = 3,4,5
""")
        values = parse_config_file(path)
        assert values == {"task": "iris2d", "hidden": (16, 8), "lr": 0.01,
                          "simplified": True, "seeds": (3, 4, 5)}

    def test_precedence_defaults_file_overrides(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "epochs = 7\nlr = 0.01\n")
        cfg = resolve_config(path, {"lr": 0.5})
        assert cfg.epochs == 7      # from file
        assert cfg.lr == 0.5        # override wins
        assert cfg.batch_size == 64  # default survives

    def test_unknown_key_in_file(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config_file(path)

    def test_unknown_key_in_overrides(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            resolve_config(None, {"momentum": 0.9})

    def test_malformed_line(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "epochs 7\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_file(path)

    def test_unparsable_value(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", "epochs = seven\n")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_file(path)

    def test_string_overrides_are_coerced(self):
        cfg = resolve_config(None, {"seeds": "1,2", "epochs": "9"})
        assert cfg.seeds == (1, 2)
        assert cfg.epochs == 9

    # a text value parses as its key's type, so only a caller's object can be of
    # another type: a `simplified` that is not a bool, or a bool seed (a bool is an int)
    @pytest.mark.parametrize("key,value,pattern", REJECTED + TRAINING_REJECTED + [
        ("simplified", 1, "simplified"), ("seeds", (True,), "seeds")])
    def test_validation_rejects(self, key, value, pattern):
        with pytest.raises(ConfigError, match=pattern):
            resolve_config(None, {key: value})


class TestTaskData:
    def test_two_gaussians_shapes(self):
        cfg = resolve_config(None, {"n_per_class": 15, "test_size": 300,
                                    "ood_size": 40})
        train, test, ood = build_task_data(cfg, seed=3)
        assert train.features.shape == (30, 1)
        assert test.features.shape == (300, 1)
        assert ood.features.shape == (40, 1)
        assert np.all(np.abs(ood.features) >= 4.0)
        assert np.all(np.abs(ood.features) <= 8.0)

    def test_two_gaussians_seed_determinism(self):
        cfg = resolve_config(None, {"test_size": 100, "ood_size": 20})
        a = build_task_data(cfg, seed=5)
        b = build_task_data(cfg, seed=5)
        c = build_task_data(cfg, seed=6)
        assert np.array_equal(a[0].features, b[0].features)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_iris_test_is_train(self):
        cfg = resolve_config(None, {"task": "iris2d", "ood_size": 30})
        train, test, ood = build_task_data(cfg, seed=0)
        assert test is train
        assert train.features.shape == (150, 2)
        assert train.num_classes == 3
        assert np.all(np.max(np.abs(ood.features), axis=1) >= 5.0)

    def test_iris_ood_split_is_filled(self):
        # seed 246's first 4 candidates all lie inside [-5, 5]^2
        cfg = resolve_config(None, {"task": "iris2d", "ood_size": 1, "seeds": (246,)})
        _, _, ood = build_task_data(cfg, seed=246)
        assert ood.features.shape == (1, 2)
        assert np.all(np.max(np.abs(ood.features), axis=1) >= 5.0)

    def test_missing_idx_files(self, tmp_path):
        cfg = resolve_config(None, {"task": "fmnist-vs-mnist",
                                    "data_dir": str(tmp_path)})
        with pytest.raises(DataError, match="missing IDX files"):
            build_task_data(cfg, seed=0)

    def test_idx_task_end_to_end(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = harness.fmnist_mnist_paths(str(tmp_path))
        (tmp_path / "fmnist").mkdir()
        (tmp_path / "mnist").mkdir()
        for img_key, lbl_key, n in [
            ("fmnist_train_images", "fmnist_train_labels", 12),
            ("fmnist_test_images", "fmnist_test_labels", 8),
            ("mnist_test_images", "mnist_test_labels", 8),
        ]:
            pixels = rng.integers(0, 256, size=(n, 2, 2), dtype=np.uint8)
            with open(paths[img_key], "wb") as f:
                f.write(struct.pack(">IIII", 0x803, n, 2, 2))
                f.write(pixels.tobytes())
            with open(paths[lbl_key], "wb") as f:
                f.write(struct.pack(">II", 0x801, n))
                f.write(rng.integers(0, 10, size=n, dtype=np.uint8).tobytes())
        cfg = resolve_config(None, {"task": "fmnist-vs-mnist",
                                    "data_dir": str(tmp_path),
                                    "n_train_points": 8})
        train, test, ood = build_task_data(cfg, seed=0)
        assert train.features.shape == (8, 4)
        assert test.features.shape == (8, 4)
        assert ood.features.shape == (8, 4)
        # features are standardized with the training statistics
        np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-12)



class TestSeedLoop:
    def test_report_bytes_deterministic(self, tmp_path):
        cfg = resolve_config(None, dict(FAST, model="edl"))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_experiment(cfg), "json", p1)
        emit_report(run_experiment(cfg), "json", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_report_structure(self):
        cfg = resolve_config(None, dict(FAST, model="edl", seeds=(1, 2)))
        report = run_experiment(cfg)
        assert report["schema_version"] == harness.SCHEMA_VERSION
        assert [r["seed"] for r in report["per_seed"]] == [1, 2]
        for key in harness.METRIC_KEYS:
            assert report["aggregate"][key]["mean"] is not None
        assert report["runtime_s_per_epoch"] is None  # include_runtime=False

    def test_keep_models(self):
        cfg = resolve_config(None, dict(FAST, model="bnn"))
        report, kept = run_experiment(cfg, keep_models=True)
        assert set(kept) == {7}
        assert kept[7].kind == "bnn"

    def test_workers_match_serial(self):
        base = dict(FAST, model="edl", seeds=(1, 2))
        serial = run_experiment(resolve_config(None, dict(base, workers=1)))
        parallel = run_experiment(resolve_config(None, dict(base, workers=2)))
        assert serial["per_seed"] == parallel["per_seed"]
        assert serial["aggregate"] == parallel["aggregate"]

    def test_single_seed_returns_row_and_model(self, monkeypatch):
        cfg = resolve_config(None, dict(FAST, model="edl"))
        row, model = run_single_seed(cfg, 7)
        assert row["failed"] is False and model.kind == "edl"

        def boom(*args, **kwargs):
            raise harness.models_mod.TrainingDiverged(2, 0, float("nan"))

        monkeypatch.setattr(harness.models_mod, "train", boom)
        row, model = run_single_seed(cfg, 7)
        assert model is None
        assert row["failed"] is True and row["nll"] is None
        assert "epoch 2" in row["failure"]

    def test_aggregate_recomputation(self):
        rows = [
            {"seed": 0, "err_pct": 10.0, "ece_pct": 2.0, "nll": 0.5, "auroc_ood_pct": 90.0},
            {"seed": 1, "err_pct": 14.0, "ece_pct": 4.0, "nll": 0.7, "auroc_ood_pct": 80.0},
        ]
        agg = aggregate_rows(rows)
        assert agg["err_pct"]["mean"] == pytest.approx(12.0, abs=1e-12)
        assert agg["err_pct"]["sd"] == pytest.approx(np.std([10.0, 14.0], ddof=1), abs=1e-12)

    def test_aggregate_skips_failed_rows(self):
        rows = [
            {"seed": 0, "err_pct": 10.0, "ece_pct": 2.0, "nll": 0.5, "auroc_ood_pct": 90.0},
            {"seed": 1, "err_pct": None, "ece_pct": None, "nll": None, "auroc_ood_pct": None},
        ]
        agg = aggregate_rows(rows)
        assert agg["nll"]["mean"] == pytest.approx(0.5)
        assert agg["nll"]["sd"] == 0.0


class TestDecomposition:
    def probes(self):
        return [[-6.0], [0.0], [6.0]]

    def test_bnn_deterministic_weights_no_reducible(self):
        cfg = resolve_config(None, dict(FAST, model="bnn"))
        model = make_model("bnn", 1, 2, (8,), SeededRng(seed=0, stream=2))
        model.params["net"][model.net.n_weights:] = -60.0  # the log-variances
        rows = run_decomposition(cfg, model, self.probes())
        for row in rows:
            assert np.max(np.abs(row["reducible"])) <= 1e-12
            np.testing.assert_allclose(
                np.asarray(row["reducible"]) + np.asarray(row["irreducible"])
                + np.asarray(row["data"]),
                row["total"], atol=1e-12)

    def test_trained_bnn_boundary_has_more_data_uncertainty(self):
        cfg = resolve_config(None, dict(FAST, model="bnn", epochs=100))
        _, kept = run_experiment(cfg, keep_models=True)
        rows = run_decomposition(cfg, kept[7], [[0.0], [-6.0], [6.0]])

        def data_share(row):
            return np.sum(row["data"]) / max(np.sum(row["total"]), 1e-30)

        assert data_share(rows[0]) > data_share(rows[1])
        assert data_share(rows[0]) > data_share(rows[2])

    def test_etp_rows_sum(self):
        cfg = resolve_config(None, dict(FAST, model="etp"))
        model = make_model("etp", 1, 2, (8,), SeededRng(seed=1, stream=2))
        rows = run_decomposition(cfg, model, self.probes())
        for row in rows:
            np.testing.assert_allclose(
                np.asarray(row["reducible"]) + np.asarray(row["irreducible"])
                + np.asarray(row["data"]),
                row["total"], atol=1e-12)
            assert len(row["input"]) == 1

    def test_two_gaussians_script(self, tmp_path):
        """scripts/decompose_two_gaussians.py writes one CSV row per probe,
        whose three terms sum to its total."""
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "d.csv"
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, str(root / "scripts" / "decompose_two_gaussians.py"),
                        "--epochs", "2", "--grid=-1:1:3", "--out", str(out)],
                       check=True, capture_output=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": path})
        with open(out, newline="") as f:
            rows = list(csv.DictReader(f))
        assert [float(row["x"]) for row in rows] == [-1.0, 0.0, 1.0]
        for row in rows:
            terms = sum(float(row[key]) for key in ("reducible", "irreducible", "data"))
            assert terms == pytest.approx(float(row["total"]), abs=1e-12)

    def test_single_term_models_rejected(self):
        cfg = resolve_config(None, dict(FAST, model="edl"))
        model = make_model("edl", 1, 2, (8,), SeededRng(seed=0, stream=2))
        with pytest.raises(ConfigError, match="decomposition"):
            run_decomposition(cfg, model, self.probes())


class TestEmission:
    def sample_report(self):
        return {
            "schema_version": 1,
            "config": {"model": "edl"},
            "per_seed": [
                {"seed": 0, "err_pct": 10.0, "ece_pct": 2.0, "nll": 0.5,
                 "auroc_ood_pct": 90.0},
                {"seed": 1, "err_pct": None, "ece_pct": None, "nll": float("nan"),
                 "auroc_ood_pct": None},
            ],
            "aggregate": aggregate_rows([
                {"seed": 0, "err_pct": 10.0, "ece_pct": 2.0, "nll": 0.5,
                 "auroc_ood_pct": 90.0}]),
            "runtime_s_per_epoch": None,
        }

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(self.sample_report(), "csv", path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 2 seeds + aggregate
        assert lines[0] == "seed,err_pct,ece_pct,nll,auroc_ood_pct"
        assert lines[2] == "1,,,,"
        assert lines[3].startswith("aggregate,")

    def test_nan_serializes_as_null(self, tmp_path):
        path = tmp_path / "r.json"
        emit_report(self.sample_report(), "json", path)
        loaded = json.loads(path.read_text())
        assert loaded["per_seed"][1]["nll"] is None

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            emit_report(self.sample_report(), "yaml", tmp_path / "r.yaml")

    def test_reaggregate(self, tmp_path):
        cfg = resolve_config(None, dict(FAST, model="edl"))
        paths = []
        for seed in (1, 2):
            rep = run_experiment(resolve_config(None, dict(FAST, model="edl",
                                                           seeds=(seed,))))
            p = tmp_path / f"s{seed}.json"
            emit_report(rep, "json", p)
            paths.append(str(p))
        merged = reaggregate(paths)
        assert [r["seed"] for r in merged["per_seed"]] == [1, 2]
        direct = run_experiment(resolve_config(None, dict(FAST, model="edl",
                                                          seeds=(1, 2))))
        assert merged["aggregate"] == direct["aggregate"]

    def write_report(self, tmp_path, name, **overrides):
        rep = run_experiment(resolve_config(None, dict(FAST, model="edl", **overrides)))
        path = tmp_path / name
        emit_report(rep, "json", path)
        return str(path)

    def test_reaggregate_rejects_other_config(self, tmp_path):
        paths = [self.write_report(tmp_path, "a.json", seeds=(1,)),
                 self.write_report(tmp_path, "b.json", seeds=(2,), lr=0.01)]
        with pytest.raises(ConfigError, match="lr"):
            reaggregate(paths)

    def test_reaggregate_rejects_repeated_seed(self, tmp_path):
        paths = [self.write_report(tmp_path, "a.json", seeds=(1, 2)),
                 self.write_report(tmp_path, "b.json", seeds=(2,))]
        with pytest.raises(ConfigError, match="more than once: \\[2\\]"):
            reaggregate(paths)


class TestCli:
    def fast_config(self, tmp_path):
        return write_config(tmp_path / "fast.cfg", """
model = edl
epochs = 3
batch_size = 40
test_size = 200
ood_size = 50
seeds = 7
include_runtime = false
n_predict_samples = 4
n_predict_z_samples = 2
decomposition_samples = 64
""")

    def test_train_eval_decompose_report(self, tmp_path, capsys):
        cfg = self.fast_config(tmp_path)
        ckpt = str(tmp_path / "m.npz")
        assert cli.main(["train", "--config", cfg, "--out", ckpt]) == 0
        model, meta = load_checkpoint(ckpt)
        assert meta["task"] == "two-gaussians"
        assert json.loads((tmp_path / "m.npz.trace.json").read_text())["seed"] == 7

        rep = str(tmp_path / "eval.json")
        assert cli.main(["eval", "--config", cfg, "--checkpoint", ckpt,
                         "--out", rep]) == 0
        loaded = json.loads((tmp_path / "eval.json").read_text())
        assert loaded["per_seed"][0]["seed"] == 7

        merged = str(tmp_path / "merged.json")
        assert cli.main(["report", "--inputs", rep, "--out", merged]) == 0
        assert json.loads((tmp_path / "merged.json").read_text())["per_seed"]

        # edl has no two-term decomposition: config error path
        assert cli.main(["decompose", "--config", cfg, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "d.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_train_out_without_npz_suffix(self, tmp_path, capsys):
        """`train --out m` writes m.npz, names its trace after it and prints
        that path, which eval then reads."""
        cfg = self.fast_config(tmp_path)
        assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
        printed = re.match(r"wrote checkpoint (\S+)", capsys.readouterr().out).group(1)
        assert printed == str(tmp_path / "m.npz")
        assert json.loads((tmp_path / "m.npz.trace.json").read_text())["seed"] == 7
        assert cli.main(["eval", "--config", cfg, "--checkpoint", printed,
                         "--out", str(tmp_path / "eval.json")]) == 0

    def test_train_takes_one_seed(self, tmp_path, capsys):
        cfg = self.fast_config(tmp_path)
        assert cli.main(["train", "--config", cfg, "--seeds", "1,2",
                         "--out", str(tmp_path / "m.npz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: seeds: ") and "got 1,2" in err
        assert [p.name for p in tmp_path.iterdir()] == ["fast.cfg"]

    def test_decompose_with_bnn(self, tmp_path):
        cfg = self.fast_config(tmp_path)
        ckpt = str(tmp_path / "bnn.npz")
        assert cli.main(["train", "--config", cfg, "--model", "bnn",
                         "--out", ckpt]) == 0
        out = str(tmp_path / "d.json")
        assert cli.main(["decompose", "--config", cfg,
                         "--checkpoint", ckpt, "--out", out]) == 0
        rows = json.loads((tmp_path / "d.json").read_text())["rows"]
        assert [r["input"] for r in rows] == cli.DEFAULT_PROBES["two-gaussians"]

    def test_run_csv(self, tmp_path):
        cfg = self.fast_config(tmp_path)
        out = str(tmp_path / "run.csv")
        assert cli.main(["run", "--config", cfg, "--format", "csv",
                         "--out", out]) == 0
        lines = (tmp_path / "run.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + seed 7 + aggregate

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.cfg", "gamma = 1.5\n")
        assert cli.main(["run", "--config", bad,
                         "--out", str(tmp_path / "r.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg = self.fast_config(tmp_path)
        assert cli.main(["run", "--config", cfg, "--task", "fmnist-vs-mnist",
                         "--data-dir", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "r.json")]) == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, side, message", [(0, 4, "0 images of 4x4 pixels"),
                                                  (3, 0, "3 images of 0x0 pixels")])
    def test_idx_files_without_data_exit_code(self, tmp_path, capsys, n, side, message):
        """IDX files written by ``write_idx`` that hold no images, or images of
        no pixels, end in a data error, not in a traceback."""
        paths = harness.fmnist_mnist_paths(str(tmp_path))
        (tmp_path / "fmnist").mkdir()
        (tmp_path / "mnist").mkdir()
        ds = LabeledDataset(np.zeros((n, side * side)), np.zeros(n, dtype=int), 10)
        for split in ("fmnist_train", "fmnist_test", "mnist_test"):
            write_idx(ds, paths[f"{split}_images"], paths[f"{split}_labels"], rows=side, cols=side)
        assert cli.main(["run", "--config", self.fast_config(tmp_path), "--task", "fmnist-vs-mnist",
                         "--data-dir", str(tmp_path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err

    @pytest.mark.parametrize("command", ["eval", "decompose"])
    @pytest.mark.parametrize("case, edit", [
        ("missing", lambda a: a.pop("net.W1")),
        ("unknown", lambda a: a.update({"net.extra": np.zeros(2)})),
        ("mis-shaped", lambda a: a.update({"net.b0": np.zeros(1)})),
    ])
    def test_bad_checkpoint_exit_code(self, tmp_path, capsys, command, case, edit):
        cfg = self.fast_config(tmp_path)
        ckpt = str(tmp_path / "bnn.npz")
        assert cli.main(["train", "--config", cfg, "--model", "bnn", "--out", ckpt]) == 0
        with np.load(ckpt) as npz:
            arrays = {k: npz[k] for k in npz.files}
        edit(arrays)
        np.savez(ckpt, **arrays)
        assert cli.main([command, "--config", cfg, "--checkpoint", ckpt,
                         "--out", str(tmp_path / "out.json")]) == 2
        assert "data error" in capsys.readouterr().err

    # __meta__ records that are not a JSON object, by their undecoded contents
    RAW_META = {
        "meta-not-json": np.frombuffer(b"kind = edl", dtype=np.uint8),
        "meta-json-list": np.frombuffer(b'["edl", 1]', dtype=np.uint8),
        "meta-object-array": np.array([{"kind": "edl"}], dtype=object),
        "meta-not-utf8": np.frombuffer(b"\xff\xfe{}", dtype=np.uint8),
    }

    # metadata values that the model or the config rejects, as edits of a
    # bnn checkpoint's metadata
    META_EDITS = {
        "seed-negative": lambda meta: meta.update(seed=-1),
        "seed-string": lambda meta: meta.update(seed="x"),
        "task-unknown": lambda meta: meta.update(task=5),
        "hidden-zero": lambda meta: meta["hyper"].update(hidden=[0]),
        "train-not-an-object": lambda meta: meta.update(train=[1]),
        "train-missing-key": lambda meta: meta.update(train=dict.fromkeys(TRAIN_KEYS[1:], 1)),
        "train-unknown-key": lambda meta: meta.update(train=dict.fromkeys((*TRAIN_KEYS, "x"), 1)),
        "train-epochs-float": lambda meta: meta.update(train={**dict.fromkeys(TRAIN_KEYS, 1),
                                                             "epochs": 2.5}),
        "train-lr-zero": lambda meta: meta.update(train={**dict.fromkeys(TRAIN_KEYS, 1),
                                                        "lr": 0}),
    }

    @pytest.mark.parametrize("command", ["eval", "decompose"])
    @pytest.mark.parametrize("case", ["nonexistent", "text", *RAW_META, *META_EDITS])
    def test_unreadable_checkpoint_exit_code(self, tmp_path, capsys, command, case):
        ckpt = tmp_path / "m.npz"
        if case == "text":
            ckpt.write_text("model = edl\n")
        elif case in self.RAW_META:
            model = make_model("edl", 1, 2, (4,), SeededRng(seed=0, stream=2))
            np.savez(ckpt, __meta__=self.RAW_META[case], **model.checkpoint_arrays())
        elif case in self.META_EDITS:
            model = make_model("bnn", 1, 2, (4,), SeededRng(seed=0, stream=2))
            meta = {"format_version": 1, "kind": "bnn", "num_classes": 2, "seed": 0,
                    "task": "two-gaussians", "hyper": model.hyper()}
            self.META_EDITS[case](meta)
            np.savez(ckpt, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                     **model.checkpoint_arrays())
        assert cli.main([command, "--config", self.fast_config(tmp_path), "--checkpoint",
                         str(ckpt), "--out", str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(ckpt) in err

    def test_eval_takes_seed_and_task_from_checkpoint(self, tmp_path):
        cfg = self.fast_config(tmp_path)
        ckpt = str(tmp_path / "m.npz")
        assert cli.main(["train", "--config", cfg, "--seeds", "0", "--out", ckpt]) == 0
        reports = []
        for seeds, task in (("0", "two-gaussians"), ("5", "iris2d")):
            out = tmp_path / f"eval-{seeds}.json"
            assert cli.main(["eval", "--config", cfg, "--seeds", seeds, "--task", task,
                             "--checkpoint", ckpt, "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[1] == reports[0]
        assert reports[1]["per_seed"][0]["seed"] == 0
        assert reports[1]["config"]["task"] == "two-gaussians"

    def test_eval_reports_the_checkpoint_model_keys(self, tmp_path):
        """eval and decompose take every model key from the checkpoint, not
        from their own config, and eval reports them."""
        ckpt = str(tmp_path / "etp.npz")
        trained = write_config(tmp_path / "keys.cfg", Path(self.fast_config(tmp_path)).read_text()
                               + "hidden = 8\ngamma = 0.5\nbeta_reg = 0.5\nsimplified = true\n")
        assert cli.main(["train", "--config", trained, "--model", "etp", "--out", ckpt]) == 0
        out = tmp_path / "eval.json"
        assert cli.main(["eval", "--config", self.fast_config(tmp_path), "--checkpoint", ckpt,
                         "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert (config["hidden"], config["gamma"], config["beta_reg"], config["simplified"]) \
            == ([8], 0.5, 0.5, True)
        assert config["model"] == "etp"

    def test_eval_reports_how_the_checkpoint_was_trained(self, tmp_path):
        """`etproc train` records the training keys in the checkpoint and eval
        reports them; a checkpoint without that record keeps the config's."""
        ckpt = str(tmp_path / "bnn.npz")
        trained = write_config(tmp_path / "train.cfg", Path(self.fast_config(tmp_path)).read_text()
                               + "epochs = 2\nlr = 0.01\nbatch_size = 20\n")
        assert cli.main(["train", "--config", trained, "--model", "bnn", "--out", ckpt]) == 0
        record = load_checkpoint(ckpt)[1]["train"]
        assert record == {key: getattr(resolve_config(trained), key) for key in TRAIN_KEYS}
        library = str(tmp_path / "library.npz")
        save_checkpoint(load_checkpoint(ckpt)[0], library, seed=7)
        configs = []
        for path in (ckpt, library):
            out = tmp_path / "eval.json"
            assert cli.main(["eval", "--config", self.fast_config(tmp_path), "--checkpoint", path,
                             "--out", str(out)]) == 0
            configs.append(json.loads(out.read_text())["config"])
        assert (configs[0]["epochs"], configs[0]["lr"], configs[0]["batch_size"]) == (2, 0.01, 20)
        assert (configs[1]["epochs"], configs[1]["lr"], configs[1]["batch_size"]) == (3, 0.001, 40)

    def test_run_scores_ood_by_max_probability(self, tmp_path):
        """`ood_score = maxprob` scores a row by its negated largest class
        probability; on three classes that ranks rows unlike the entropy."""
        aurocs = {}
        for score in ("entropy", "maxprob"):
            text = Path(self.fast_config(tmp_path)).read_text()
            cfg = write_config(tmp_path / f"{score}.cfg",
                               text + f"task = iris2d\nood_score = {score}\n")
            out = tmp_path / f"{score}.json"
            assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            assert report["config"]["ood_score"] == score
            aurocs[score] = report["per_seed"][0]["auroc_ood_pct"]
        config = resolve_config(cfg)
        _, test, ood = build_task_data(config, 7)
        model = run_experiment(config, keep_models=True)[1][7]
        rng = SeededRng(seed=0, stream=3)
        probs = [predict(model, ds.features, rng, 4, 2) for ds in (test, ood)]
        assert aurocs["maxprob"] == 100.0 * auroc(*(-p.max(axis=1) for p in probs))
        assert aurocs["entropy"] == 100.0 * auroc(*(entropy_rows(p) for p in probs))
        assert aurocs["maxprob"] != aurocs["entropy"]

    # the optional flags of each command; report takes no config flag
    FLAGS = {
        "train": ["--config", "--task", "--model", "--seeds", "--epochs", "--lr", "--data-dir",
                  "--out"],
        "eval": ["--config", "--task", "--seeds", "--data-dir", "--checkpoint", "--out",
                 "--format"],
        "run": ["--config", "--task", "--model", "--seeds", "--epochs", "--lr", "--data-dir",
                "--workers", "--out", "--format"],
        "decompose": ["--config", "--task", "--seeds", "--checkpoint", "--out"],
        "report": ["--inputs", "--out", "--format"],
    }

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_flag_set(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[?(--[a-z-]+)", usage) == self.FLAGS[command]

    @pytest.mark.parametrize("argv", [
        ["train", "--workers", "2", "--out", "m.npz"],
        *[["eval", flag, "1", "--checkpoint", "m.npz", "--out", "r.json"]
          for flag in ("--model", "--epochs", "--lr", "--workers")],
        *[["decompose", flag, "1", "--checkpoint", "m.npz", "--out", "d.json"]
          for flag in ("--model", "--epochs", "--lr", "--workers", "--data-dir")],
        ["run", "--bogus", "1", "--out", "r.json"],
        ["run", "--format", "xml", "--out", "r.json"],
        ["frobnicate"],
    ])
    def test_usage_error_exits_1(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: etproc") and "error: " in err
        assert list(tmp_path.iterdir()) == []

    def test_calls_share_the_parser_but_no_state(self, tmp_path, capsys):
        """One parser serves every call of a process: a flag's value, or a usage
        error, in one call leaves the next call's defaults as they were."""
        assert cli.build_parser() is cli.build_parser()
        cfg = self.fast_config(tmp_path)
        ckpt = str(tmp_path / "m.npz")
        assert cli.main(["train", "--config", cfg, "--out", ckpt]) == 0
        evaluate = ["eval", "--config", cfg, "--checkpoint", ckpt, "--out"]
        assert cli.main([*evaluate, str(tmp_path / "r.csv"), "--format", "csv"]) == 0
        assert cli.main([*evaluate, str(tmp_path / "first.json")]) == 0
        first = (tmp_path / "first.json").read_text()
        assert json.loads(first)["per_seed"][0]["seed"] == 7
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([*evaluate, str(tmp_path / "bad.json"), "--format", "xml"])
        assert exc.value.code == 1 and capsys.readouterr().err.startswith("usage: etproc")
        assert cli.main([*evaluate, str(tmp_path / "second.json")]) == 0
        assert (tmp_path / "second.json").read_text() == first
        assert not (tmp_path / "bad.json").exists()

    def test_help_text_of_a_fresh_parser(self, capsys):
        """`etproc --help` prints, on every call, the text of a newly built parser."""
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out == cli.build_parser.__wrapped__().format_help()

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_empty_hidden_runs_a_linear_net(self, tmp_path, kind):
        cfg = write_config(tmp_path / "linear.cfg",
                           Path(self.fast_config(tmp_path)).read_text() + "hidden =\n")
        out = tmp_path / "run.json"
        assert cli.main(["run", "--config", cfg, "--model", kind, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["hidden"] == []

    def test_linear_etp_checkpoint_round_trip(self, tmp_path):
        """A linear ETP checkpoint goes through train, eval and decompose, and
        eval reports its empty `hidden`."""
        cfg = write_config(tmp_path / "linear.cfg",
                           Path(self.fast_config(tmp_path)).read_text() + "hidden =\n")
        ckpt = str(tmp_path / "etp.npz")
        assert cli.main(["train", "--config", cfg, "--model", "etp", "--out", ckpt]) == 0
        assert load_checkpoint(ckpt)[0].hidden == ()
        out = tmp_path / "eval.json"
        assert cli.main(["eval", "--config", self.fast_config(tmp_path), "--checkpoint", ckpt,
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["hidden"] == []
        assert cli.main(["decompose", "--config", self.fast_config(tmp_path), "--checkpoint",
                         ckpt, "--out", str(tmp_path / "d.json")]) == 0

    @pytest.mark.parametrize("simplified", [True, False])
    def test_etp_simplified_round_trip(self, tmp_path, simplified):
        """ETP's `simplified` key goes from the checkpoint into eval's report config."""
        ckpt = tmp_path / "etp.npz"
        save_checkpoint(make_model("etp", 1, 2, (4,), SeededRng(seed=0, stream=2),
                                   simplified=simplified),
                        ckpt, seed=0, extra_meta={"task": "two-gaussians"})
        out = tmp_path / "eval.json"
        assert cli.main(["eval", "--config", self.fast_config(tmp_path), "--checkpoint",
                         str(ckpt), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["simplified"] is simplified

    @pytest.mark.parametrize("command", ["eval", "decompose"])
    @pytest.mark.parametrize("name", ["enc.W0", "__memory__"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_checkpoint_exit_code(self, tmp_path, capsys, command, name, value):
        ckpt = tmp_path / "etp.npz"
        save_checkpoint(make_model("etp", 1, 2, (4,), SeededRng(seed=0, stream=2)), ckpt,
                        seed=0, extra_meta={"task": "two-gaussians"})
        with np.load(ckpt) as npz:
            arrays = {k: npz[k] for k in npz.files}
        arrays[name].flat[0] = value
        np.savez(ckpt, **arrays)
        out = tmp_path / "out.json"
        assert cli.main([command, "--config", self.fast_config(tmp_path), "--checkpoint",
                         str(ckpt), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(ckpt) in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("command, input_dim, num_classes, meta", [
        ("eval", 2, 2, {"task": "two-gaussians"}),
        ("eval", 1, 3, {"task": "two-gaussians"}),
        ("eval", 2, 3, {}),
        ("decompose", 2, 3, {}),
    ])
    def test_model_that_does_not_fit_the_task_rejected(self, tmp_path, capsys, command,
                                                       input_dim, num_classes, meta):
        ckpt = tmp_path / "m.npz"
        model = make_model("bnn", input_dim, num_classes, (4,), SeededRng(seed=0, stream=2))
        save_checkpoint(model, ckpt, seed=0, extra_meta=meta)
        assert cli.main([command, "--config", self.fast_config(tmp_path), "--checkpoint",
                         str(ckpt), "--out", str(tmp_path / "out.json")]) == 1
        assert "does not fit" in capsys.readouterr().err

    @pytest.mark.parametrize("text, argv, key", CLI_REJECTED)
    def test_every_rejected_config_exits_1(self, tmp_path, capsys, text, argv, key):
        cfg = write_config(tmp_path / "bad.cfg", text + "\n")
        out = tmp_path / "r.json"
        assert cli.main(["run", "--config", cfg, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert "Traceback" not in err and not out.exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        cfg = str(tmp_path / "missing.cfg")
        out = tmp_path / "r.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cfg in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("case, text", [
        ("missing", None),
        ("not-json", "per_seed = 1\n"),
        ("not-an-object", "[1, 2]"),
        ("no-per-seed", '{"config": {}}'),
        ("row-without-seed", '{"per_seed": [{"nll": 1.0}]}'),
        ("config-not-an-object", '{"config": [1], "per_seed": [{"seed": 0}]}'),
        ("metric-a-string", '{"per_seed": [{"seed": 0, "nll": "x"}]}'),
        ("metric-a-bool", '{"per_seed": [{"seed": 0, "nll": true}]}'),
        ("metric-not-finite", '{"per_seed": [{"seed": 0, "nll": NaN}]}'),
        ("seed-a-list", '{"per_seed": [{"seed": [0]}]}'),
        ("seed-a-bool", '{"per_seed": [{"seed": true}]}'),
        ("seed-negative", '{"per_seed": [{"seed": -1}]}'),
    ])
    def test_bad_report_input_exits_2(self, tmp_path, capsys, case, text):
        path = tmp_path / f"{case}.json"
        if text is not None:
            path.write_text(text)
        out = tmp_path / "merged.json"
        assert cli.main(["report", "--inputs", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err
        assert not out.exists()

    def test_report_without_inputs_exits_1(self, tmp_path, capsys):
        out = tmp_path / "merged.json"
        assert cli.main(["report", "--inputs", ",", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["adam_beta1", "adam_beta2", "adam_eps",
                                     "n_train_samples", "n_train_z_samples"])
    def test_removed_training_key_exits_1(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "old.cfg", f"{key} = 1\n")
        out = tmp_path / "r.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown configuration key") and key in err
        assert "Traceback" not in err and not out.exists()

    def test_removed_combiner_key_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "old.cfg", "model = etp\ncombiner = residual\n")
        out = tmp_path / "r.json"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: unknown configuration key: 'combiner'\n"
        assert not out.exists()

    def test_report_with_combiner_not_merged_with_one_without(self, tmp_path, capsys):
        """A report written while `combiner` was a model key has another
        config than one written since, and the merge names the key."""
        new = tmp_path / "new.json"
        assert cli.main(["run", "--config", self.fast_config(tmp_path),
                         "--out", str(new)]) == 0
        report = json.loads(new.read_text())
        report["config"]["combiner"] = "residual"
        report["config"]["seeds"] = [8]
        report["per_seed"][0]["seed"] = 8
        old = tmp_path / "old.json"
        old.write_text(json.dumps(report))
        out = tmp_path / "merged.json"
        capsys.readouterr()
        assert cli.main(["report", "--inputs", f"{new},{old}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "['combiner']" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bnn", "edl", "enp", "etp"])
    def test_divergence_exit_code(self, tmp_path, capsys, kind):
        """At lr = 1e4 every kind diverges on every seed: run exits 3, the
        message names each seed's failure, and no NumPy warning is issued."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--model", kind, "--lr", "1e4", "--epochs", "30",
                             "--seeds", "0,1", "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("training failed: every seed diverged: seed 0: ")
        assert "; seed 1: " in err and "epoch -1" not in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], caught

    def test_training_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        from etproc import models as models_mod

        def boom(*args, **kwargs):
            raise models_mod.TrainingDiverged(0, 0, float("nan"))

        monkeypatch.setattr(harness.models_mod, "train", boom)
        cfg = self.fast_config(tmp_path)
        assert cli.main(["run", "--config", cfg,
                         "--out", str(tmp_path / "r.json")]) == 3
        assert "training failed" in capsys.readouterr().err


def load_perfbench(name):
    """A module of perfbench/, loaded by path (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def script_process(name, *args, cwd=None):
    """Run scripts/<name> with the package on PYTHONPATH; the finished process."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(root / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def run_script(name, *args):
    """Run scripts/<name> with the package on PYTHONPATH; its stdout."""
    done = script_process(name, *args)
    done.check_returncode()
    return done.stdout


class TestScripts:
    @pytest.mark.parametrize("simplified", [False, True])
    def test_run_two_gaussians(self, tmp_path, simplified):
        out = run_script("run_two_gaussians.py", "--epochs", "1", "--seeds", "0",
                         "--out-dir", str(tmp_path), *(["--simplified"] if simplified else []))
        for kind in MODEL_KINDS:
            report = json.loads((tmp_path / f"two_gaussians_{kind}.json").read_text())
            assert report["config"]["model"] == kind and report["config"]["epochs"] == 1
            # the flag reaches ETP only
            assert report["config"]["simplified"] is (simplified and kind == "etp")
            assert [row["seed"] for row in report["per_seed"]] == [0]
            assert report["aggregate"]["nll"]["mean"] is not None
        assert [line.split(":")[0] for line in out.splitlines()] == list(MODEL_KINDS)

    def test_run_iris(self):
        out = run_script("run_iris.py", "--epochs", "1", "--seeds", "0")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(MODEL_KINDS)
        for line in lines:
            assert 0.0 <= float(line.split("train acc per seed ")[1].split()[0]) <= 1.0

    def test_run_fmnist_mnist(self, tmp_path):
        rng = np.random.default_rng(0)
        paths = harness.fmnist_mnist_paths(str(tmp_path))
        (tmp_path / "fmnist").mkdir()
        (tmp_path / "mnist").mkdir()
        for split, n in (("fmnist_train", 30), ("fmnist_test", 20), ("mnist_test", 20)):
            ds = LabeledDataset(rng.uniform(size=(n, 16)), rng.integers(0, 10, size=n), 10)
            write_idx(ds, paths[f"{split}_images"], paths[f"{split}_labels"], rows=4, cols=4)
        out = tmp_path / "report.json"
        stdout = run_script("run_fmnist_mnist.py", "--data-dir", str(tmp_path), "--epochs", "1",
                            "--seeds", "0", "--model", "edl", "--out", str(out))
        report = json.loads(out.read_text())
        assert report["config"]["task"] == "fmnist-vs-mnist"
        assert [row["seed"] for row in report["per_seed"]] == [0]
        assert report["aggregate"]["auroc_ood_pct"]["mean"] is not None
        assert stdout.startswith("edl: entropy OOD-AUROC")

    @pytest.mark.parametrize("name, args, code, message", [
        ("run_iris.py", ["--seeds", "0,x"], 1, "config error: seeds: cannot parse"),
        ("run_iris.py", ["--seeds", "-1"], 1, "config error: seeds: at least one seed"),
        ("run_iris.py", ["--seeds", "1,1"], 1, "config error: seeds: each seed may appear once"),
        ("run_two_gaussians.py", ["--seeds", "0,x"], 1, "config error: seeds: cannot parse"),
        ("run_two_gaussians.py", ["--epochs", "x"], 1, "config error: epochs: cannot parse"),
        ("run_fmnist_mnist.py", ["--data-dir", "nonexistent"], 2,
         "data error: missing IDX files"),
        ("run_fmnist_mnist.py", [], 1, "error: the following arguments are required: --data-dir"),
        ("decompose_two_gaussians.py", ["--grid=1:2:0"], 1,
         "config error: grid: expected lo:hi:count"),
        ("decompose_two_gaussians.py", ["--grid=abc"], 1,
         "config error: grid: expected lo:hi:count"),
        ("decompose_two_gaussians.py", ["--model", "edl"], 1, "error: argument --model"),
        ("run_iris.py", ["--bogus", "1"], 1, "error: unrecognized arguments: --bogus"),
    ])
    def test_bad_input_exit_code(self, tmp_path, name, args, code, message):
        """A script stops on bad input with the CLI's exit code and message,
        without a traceback and before it writes anything to its working
        directory, where its default outputs go."""
        done = script_process(name, "--epochs", "1", *args, cwd=tmp_path)
        assert done.returncode == code
        assert message in done.stderr and "Traceback" not in done.stderr
        assert done.stdout == "" and list(tmp_path.iterdir()) == []


def test_benchmark_span_table_names_existing_attributes():
    """Every call that perfbench/tracer.py wraps is a callable where it looks
    it up."""
    table = load_perfbench("tracer").span_table(etproc)
    broken = [f"{getattr(owner, '__name__', owner)}.{attr}"
              for owner, attr, _, _ in table if not callable(vars(owner).get(attr))]
    assert table and broken == []


def test_benchmark_cli_argv_parses(monkeypatch, tmp_path):
    """The argv that perfbench/workloads.py's tg-reuse passes to cli.main for
    train, eval and decompose parses with the CLI's parser. It is captured
    through a fake cli.main, so nothing trains."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    calls = []
    fake = SimpleNamespace(cli=SimpleNamespace(main=lambda argv: calls.append(argv) or 0))
    reuse = load_perfbench("workloads").TgReuse(fake, 0, str(tmp_path))
    for _, unit in reuse.setup_units():
        unit()
    for model, key in reuse.ops(0):
        reuse.timed(model, key)
    assert sorted({argv[0] for argv in calls}) == ["decompose", "eval", "train"]
    for argv in calls:
        args = cli.build_parser().parse_args(argv)
        assert (args.task, args.seeds) == ("two-gaussians", str(reuse.seed))


def test_benchmark_capture_wraps_existing_functions():
    """perfbench/checks.py's Capture wraps models.predict, metrics.ece and
    metrics.auroc by name. It runs here on copies of the two modules, so the
    real ones stay unwrapped; a renamed function fails the lookup."""
    copies = {name: SimpleNamespace(**vars(getattr(etproc, name)))
              for name in ("models", "metrics")}
    load_perfbench("checks").Capture(SimpleNamespace(**copies))
    wrapped = {f"{name}.{attr}" for name, copy in copies.items()
               for attr, value in vars(copy).items()
               if value is not vars(getattr(etproc, name))[attr]}
    assert wrapped == {"models.predict", "metrics.ece", "metrics.auroc"}
    for name in wrapped:
        module, attr = name.split(".")
        assert callable(vars(getattr(etproc, module))[attr]), name
