"""The three benchmark workloads.

Each workload derives its inputs from the workload seed and hands etproc
only those. A workload has

- ``setup_units()``: (model, callable) pairs that make up one set-up pass;
- ``ops(r)``: the (model, key) ops of round ``r``, one per model kind;
- ``timed(model, key)``: the public etproc calls of one op, timed;
- ``outputs(model, key, result)``: after timing, the op's report row,
  extra problems and an extra fingerprint for the repeat check.

One op is one (model, seed): a train plus evaluate for tg-sweep and
wide-idx, an eval (plus a decompose for bnn and etp) for tg-reuse.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import checks
import idxgen

MODELS = ("bnn", "edl", "enp", "etp")
HARNESS_SEEDS_PER_RUN = 3
WARMUP = {"epochs": 2, "test_size": 100, "ood_size": 100}


def harness_seeds(seed, n):
    return random.Random(seed).sample(range(1000), n)


class TgSweep:
    """run_experiment on two-gaussians with the default config."""

    name = "tg-sweep"
    trace_setup = False

    def __init__(self, etproc, seed, work_dir):
        self.et = etproc
        self.seeds = harness_seeds(seed, HARNESS_SEEDS_PER_RUN)

    def overrides(self, model, seed):
        return {"task": "two-gaussians", "model": model, "seeds": (seed,), "workers": 1}

    def setup_units(self):
        # one short run per model, so that lazy imports and first-call costs
        # land in set-up rather than in the first timed op
        return [(m, lambda m=m: self._run({**self.overrides(m, self.seeds[0]), **WARMUP}))
                for m in MODELS]

    def ops(self, r):
        return [(m, self.seeds[r % len(self.seeds)]) for m in MODELS]

    def _run(self, overrides):
        cfg = self.et.harness.resolve_config(None, overrides)
        return self.et.harness.run_experiment(cfg)

    def timed(self, model, key):
        return self._run(self.overrides(model, key))

    def outputs(self, model, key, report):
        return report["per_seed"][0], [], ""


class WideIdx(TgSweep):
    """run_experiment on fmnist-vs-mnist over seeded synthetic IDX files."""

    name = "wide-idx"
    N_POINTS = 1500
    EPOCHS = 2

    def __init__(self, etproc, seed, work_dir):
        super().__init__(etproc, seed, work_dir)
        self.seed = seed
        self.data_dir = os.path.join(work_dir, "idx")

    def overrides(self, model, seed):
        # the task slices its test and OOD splits by n_train_points too
        return {"task": "fmnist-vs-mnist", "model": model, "seeds": (seed,), "workers": 1,
                "data_dir": self.data_dir, "n_train_points": self.N_POINTS,
                "epochs": self.EPOCHS}

    def _write(self):
        idxgen.write_idx_set(self.data_dir, self.seed, self.N_POINTS, self.et.data,
                             self.et.harness.fmnist_mnist_paths(self.data_dir))

    def setup_units(self):
        warm = {"epochs": 1, "n_train_points": 200}
        return [(None, self._write)] + [
            (m, lambda m=m: self._run({**self.overrides(m, self.seeds[0]), **warm}))
            for m in MODELS]


class TgReuse:
    """etproc eval / decompose through cli.main on trained checkpoints."""

    name = "tg-reuse"
    trace_setup = True
    DECOMPOSED = ("bnn", "etp")

    def __init__(self, etproc, seed, work_dir):
        self.et = etproc
        self.seed = harness_seeds(seed, 1)[0]
        self.work_dir = work_dir

    def _path(self, model, what):
        return os.path.join(self.work_dir, f"{what}-{model}.{'npz' if what == 'ckpt' else 'json'}")

    def _cli(self, *argv):
        # --seeds equals the checkpoint's seed: eval takes its data seed from
        # meta.get("seed") or cfg.seeds[0], which is wrong for a seed-0 checkpoint
        return self.et.cli.main([*argv, "--task", "two-gaussians", "--seeds", str(self.seed)])

    def _train(self, model):
        rc = self._cli("train", "--model", model, "--out", self._path(model, "ckpt"))
        if rc != 0:
            raise RuntimeError(f"etproc train --model {model} exited with {rc}")

    def setup_units(self):
        return [(m, lambda m=m: self._train(m)) for m in MODELS]

    def ops(self, r):
        return [(m, self.seed) for m in MODELS]

    def timed(self, model, key):
        ckpt = self._path(model, "ckpt")
        codes = [self._cli("eval", "--checkpoint", ckpt, "--out", self._path(model, "report"))]
        if model in self.DECOMPOSED:
            codes.append(self._cli("decompose", "--checkpoint", ckpt,
                                   "--out", self._path(model, "decomp")))
        return codes

    def outputs(self, model, key, codes):
        if any(codes):
            return {}, [f"etproc exited with {codes}"], ""
        with open(self._path(model, "report")) as f:
            row = json.load(f)["per_seed"][0]
        if model not in self.DECOMPOSED:
            return row, [], ""
        with open(self._path(model, "decomp"), "rb") as f:
            blob = f.read()
        n_probes = len(self.et.cli.DEFAULT_PROBES["two-gaussians"])
        problems = checks.check_decomposition(json.loads(blob)["rows"], n_probes)
        return row, problems, hashlib.sha256(blob).hexdigest()


WORKLOADS = {w.name: w for w in (TgSweep, TgReuse, WideIdx)}
