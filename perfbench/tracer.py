"""Span tracing around etproc's public functions, and the per-layer
metrics derived from the spans.

A span is (name, start, end, parent span, op id, count). Spans are made
by wrapping a function where its caller looks it up: ``models`` imports
``backward``, ``adam_step`` and the distribution helpers by name, so
those are replaced on the ``models`` module, not on ``autodiff`` or
``distributions``. Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _rows(arg_index):
    return lambda args: len(args[arg_index])


def _records(args):
    # tape records of the loss graph about to be replayed
    return len(getattr(args[0].tape, "_records", ()))


def _ece_rows(args):
    return len(args[0].labels)


def _auroc_rows(args):
    return len(args[0]) + len(args[1])


def _probes(args):
    return len(np.atleast_2d(np.asarray(args[2])))


def span_table(etproc):
    """(owner, attribute, span name, count function) for every traced call."""
    harness, models, data, metrics, cli = (
        etproc.harness, etproc.models, etproc.data, etproc.metrics, etproc.cli)
    return [
        (cli, "main", "cli.main", None),
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "build_task_data", "harness.build_task_data", None),
        (harness, "evaluate_model", "harness.evaluate_model", None),
        (harness, "ood_scores", "harness.ood_scores", _rows(0)),
        (harness, "run_decomposition", "harness.run_decomposition", _probes),
        (data, "read_idx", "data.read_idx", None),
        (data, "zscore", "data.zscore", None),
        (models, "train", "models.train", None),
        (models, "predict", "models.predict", _rows(1)),
        (models, "save_checkpoint", "models.save_checkpoint", None),
        (models, "load_checkpoint", "models.load_checkpoint", None),
        (models.BnnModel, "loss", "models.loss", None),
        (models.EdlModel, "loss", "models.loss", None),
        (models.EnpModel, "loss", "models.loss", None),
        (models.EtpModel, "free_energy", "models.loss", None),
        (models.EtpModel, "memory_update", "models.memory_update", None),
        (models, "backward", "autodiff.backward", _records),
        (models, "adam_step", "autodiff.adam_step", None),
        (models, "gaussian_kl_diag", "distributions.gaussian_kl_diag", None),
        (models, "dirichlet_expected_log_prob_rows",
         "distributions.dirichlet_expected_log_prob_rows", None),
        (models, "dirichlet_kl_rows", "distributions.dirichlet_kl_rows", None),
        (models, "dirichlet_moments_rows", "distributions.dirichlet_moments_rows", None),
        (metrics, "ece", "metrics.ece", _ece_rows),
        (metrics, "nll", "metrics.nll", _ece_rows),
        (metrics, "auroc", "metrics.auroc", _auroc_rows),
    ]


class Tracer:
    """Records nested spans while installed; one op at a time."""

    def __init__(self, table):
        self.table = table
        self.spans = []       # (name, start, end, parent, op, count)
        self.ops = {}         # op id -> model kind
        self._stack = []
        self._op = None
        self._saved = []

    def _wrap(self, fn, name, count_fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            count = count_fn(args) if count_fn else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self._op, count)

        return traced

    def install(self):
        for owner, attr, name, count_fn in self.table:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, count_fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def op(self, model, fn, root="op"):
        """Run ``fn`` as one traced op under a root span named ``root``
        ('op' for a timed op, 'setup' for set-up work)."""
        self._op = len(self.ops)
        self.ops[self._op] = model
        try:
            return self._wrap(fn, root, None)()
        finally:
            self._op = None

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        names = np.array([s[0] for s in self.spans])
        t0 = np.array([s[1] for s in self.spans])
        t1 = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        op = np.array([s[4] for s in self.spans], dtype=np.int64)
        count = np.array([s[5] for s in self.spans], dtype=np.int64)
        return names, t0, t1, parent, op, count

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        _, t0, t1, parent, _, _ = self.arrays()
        dur = t1 - t0
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur - child

    def check_tree(self):
        """Problems with the span tree: every span nests inside its parent
        and the self times under each op add up to the op's wall time."""
        names, t0, t1, parent, op, _ = self.arrays()
        problems = []
        inner = parent >= 0
        if np.any(~np.isin(names[~inner], ("op", "setup"))):
            problems.append("a span outside any op")
        if np.any(t0[inner] < t0[parent[inner]]) or np.any(t1[inner] > t1[parent[inner]]):
            problems.append("a span ends outside its parent")
        if np.any(op[inner] != op[parent[inner]]):
            problems.append("a span belongs to another op than its parent")
        roots = np.flatnonzero(parent < 0)
        self_t = self.self_times()
        total = np.zeros(len(self.ops))
        np.add.at(total, op, self_t)
        wall = np.zeros(len(self.ops))
        wall[op[roots]] = (t1 - t0)[roots]
        if not np.allclose(total, wall, rtol=1e-9, atol=1e-9):
            problems.append("self times under an op do not add up to its wall time")
        return problems

    def layer_metrics(self, models):
        """Per-layer metrics over all traced ops; 0 where a layer did not run."""
        names, t0, t1, parent, op, count = self.arrays()
        dur = t1 - t0
        self_t = self.self_times()
        kind = np.array([self.ops[o] for o in op])
        steps_by_op = defaultdict(int)
        for o in op[names == "autodiff.backward"]:
            steps_by_op[o] += 1

        def total(name, model=None):
            mask = names == name if model is None else (names == name) & (kind == model)
            return dur[mask].sum(), int(mask.sum()), int(count[mask].sum())

        def steps(model=None, having=None):
            ops = set(self.ops) if having is None else set(op[np.char.startswith(names, having)])
            return sum(n for o, n in steps_by_op.items()
                       if o in ops and (model is None or self.ops[o] == model))

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {}
        for m in models:
            _, n_bw, recs = total("autodiff.backward", m)
            out[f"autodiff.records_per_step.{m}"] = ratio(recs, n_bw)
        t_loss, _, _ = total("models.loss")
        out["autodiff.us_per_record"] = ratio(t_loss, total("autodiff.backward")[2], 1e6)
        out["autodiff.backward_ms_per_step"] = ratio(total("autodiff.backward")[0], steps(), 1e3)
        out["autodiff.adam_ms_per_step"] = ratio(total("autodiff.adam_step")[0], steps(), 1e3)
        kl = "distributions.gaussian_kl_diag"
        out["distributions.gaussian_kl_ms_per_step"] = ratio(
            total(kl)[0], steps(having=kl), 1e3)
        diri = "distributions.dirichlet_"
        t_diri = dur[np.char.startswith(names, diri)].sum()
        out["distributions.dirichlet_ms_per_step"] = ratio(t_diri, steps(having=diri), 1e3)
        for m in models:
            out[f"models.train_ms_per_step.{m}"] = ratio(
                total("models.train", m)[0], steps(m), 1e3)
            out[f"models.loss_ms_per_step.{m}"] = ratio(
                total("models.loss", m)[0], steps(m), 1e3)
        out["models.memory_update_ms_per_step"] = ratio(
            total("models.memory_update")[0], steps("etp"), 1e3)
        for m in models:
            t, _, rows = total("models.predict", m)
            out[f"models.predict_rows_per_s.{m}"] = ratio(rows, t)
        for key, name in (("models.checkpoint_save_ms", "models.save_checkpoint"),
                          ("models.checkpoint_load_ms", "models.load_checkpoint"),
                          ("data.read_idx_ms", "data.read_idx"),
                          ("data.zscore_ms", "data.zscore"),
                          ("harness.build_task_data_ms", "harness.build_task_data"),
                          ("harness.evaluate_ms", "harness.evaluate_model")):
            t, n, _ = total(name)
            out[key] = ratio(t, n, 1e3)
        for key, name in (("harness.ood_scores_ms_per_10k_rows", "harness.ood_scores"),
                          ("metrics.ece_ms_per_10k_rows", "metrics.ece"),
                          ("metrics.nll_ms_per_10k_rows", "metrics.nll"),
                          ("metrics.auroc_ms_per_10k_rows", "metrics.auroc")):
            t, _, rows = total(name)
            out[key] = ratio(t, rows, 1e7)
        t, _, probes = total("harness.run_decomposition")
        out["harness.run_decomposition_ms_per_probe"] = ratio(t, probes, 1e3)
        cli_mask = names == "cli.main"
        out["cli.overhead_ms"] = ratio(self_t[cli_mask].sum(), int(cli_mask.sum()), 1e3)
        roots = names == "op"
        out["trace.op_time_in_layers_pct"] = ratio(
            dur[roots].sum() - self_t[roots].sum(), dur[roots].sum(), 100.0)
        return out

    def save(self, path):
        names, t0, t1, parent, op, count = self.arrays()
        op_model = np.array([str(self.ops[o]) for o in sorted(self.ops)])
        np.savez_compressed(path, name=names, start=t0, end=t1, parent=parent, op=op,
                            count=count, op_model=op_model)
