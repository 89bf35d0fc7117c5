"""Output checks run after every op, outside its timed region.

``Capture`` wraps the three calls whose inputs and outputs the checks
need (``models.predict``, ``metrics.ece``, ``metrics.auroc``); it stays
installed for the whole run, traced or not, and costs one extra Python
call per wrapped call.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

METRIC_KEYS = ("err_pct", "ece_pct", "nll", "auroc_ood_pct")
SIMPLEX_TOL = 1e-9
SCORE_TOL = 1e-12


class Capture:
    def __init__(self, etproc):
        self.calls = {"predict": [], "ece": [], "auroc": []}
        models, metrics = etproc.models, etproc.metrics
        for owner, attr, key in ((models, "predict", "predict"),
                                 (metrics, "ece", "ece"),
                                 (metrics, "auroc", "auroc")):
            setattr(owner, attr, self._wrap(getattr(owner, attr), self.calls[key]))

    @staticmethod
    def _wrap(fn, sink):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            sink.append((args, out))
            return out
        return captured

    def reset(self):
        for sink in self.calls.values():
            sink.clear()


def brute_force_ece(probs, labels, n_bins):
    """Right-closed bins ((m-1)/M, m/M], as in acceptance criterion 10."""
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    total = 0.0
    for m in range(1, n_bins + 1):
        lo, hi = (m - 1) / n_bins, m / n_bins
        mask = (conf > lo) & (conf <= hi) if m > 1 else conf <= hi
        if mask.sum() == 0:
            continue
        total += mask.sum() / len(conf) * abs(correct[mask].mean() - conf[mask].mean())
    return float(total)


def brute_force_auroc(scores_in, scores_out, chunk=1024):
    """P(out > in) + 0.5 P(out == in) over every pair, counted exactly."""
    a = np.asarray(scores_in, dtype=np.float64)
    greater = ties = 0
    for lo in range(0, len(scores_out), chunk):
        b = np.asarray(scores_out[lo:lo + chunk], dtype=np.float64)[:, None]
        greater += int(np.count_nonzero(b > a))
        ties += int(np.count_nonzero(b == a))
    return (greater + 0.5 * ties) / (len(a) * len(scores_out))


def _entropy_rows(p):
    logs = np.log(np.where(p > 0.0, p, 1.0))
    return -(p * logs).sum(axis=1)


def check_evaluation(capture, row, n_bins):
    """Problems with one evaluate call's outputs; [] when all checks pass.

    ``row`` holds the report metrics of that call. Returns the problems
    and a fingerprint of the outputs for the bit-for-bit repeat check.
    """
    problems = []
    predict, ece_calls, auroc_calls = (capture.calls[k] for k in ("predict", "ece", "auroc"))
    if len(predict) != 2 or len(ece_calls) != 1 or len(auroc_calls) != 1:
        return [f"expected 2 predict, 1 ece and 1 auroc calls, saw {len(predict)}, "
                f"{len(ece_calls)}, {len(auroc_calls)}"], None
    probs_in, probs_out = predict[0][1], predict[1][1]
    for name, p in (("test", probs_in), ("ood", probs_out)):
        if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0) \
                or np.max(np.abs(p.sum(axis=1) - 1.0)) > SIMPLEX_TOL:
            problems.append(f"{name} probabilities leave the simplex")
    for key in METRIC_KEYS:
        if not isinstance(row.get(key), float) or not math.isfinite(row[key]):
            problems.append(f"{key} is not a finite number: {row.get(key)!r}")
    if problems:
        return problems, None

    (preds, n_bins_used), ece_out = ece_calls[0][0][:2], ece_calls[0][1]
    if preds.probs is not probs_in and not np.array_equal(preds.probs, probs_in):
        problems.append("ECE was computed on other probabilities than the test predictions")
    ece_ref = brute_force_ece(preds.probs, preds.labels, n_bins)
    if n_bins_used != n_bins or ece_out != ece_ref or row["ece_pct"] != 100.0 * ece_ref:
        problems.append(f"ECE {ece_out!r} differs from brute force {ece_ref!r}")

    (scores_in, scores_out), auroc_out = auroc_calls[0][0][:2], auroc_calls[0][1]
    for name, p, s in (("test", probs_in, scores_in), ("ood", probs_out, scores_out)):
        if len(s) != len(p) or np.max(np.abs(np.asarray(s) - _entropy_rows(p))) > SCORE_TOL:
            problems.append(f"{name} OOD scores are not the entropies of its probabilities")
    auroc_ref = brute_force_auroc(scores_in, scores_out)
    if auroc_out != auroc_ref or row["auroc_ood_pct"] != 100.0 * auroc_ref:
        problems.append(f"AUROC {auroc_out!r} differs from brute force {auroc_ref!r}")

    digest = hashlib.sha256(probs_in.tobytes() + probs_out.tobytes()).hexdigest()
    fingerprint = (tuple(row[k] for k in METRIC_KEYS), digest)
    return problems, fingerprint


def check_decomposition(rows, n_probes):
    """Problems with a decomposition report: finite terms that add up."""
    if len(rows) != n_probes:
        return [f"expected {n_probes} decomposition rows, saw {len(rows)}"]
    for r in rows:
        terms = [np.asarray(r[k], dtype=np.float64)
                 for k in ("reducible", "irreducible", "data", "total")]
        if not all(np.all(np.isfinite(t)) for t in terms):
            return ["decomposition has a non-finite term"]
        if np.max(np.abs(terms[0] + terms[1] + terms[2] - terms[3])) > 1e-9:
            return ["decomposition terms do not add up to the total"]
    return []
