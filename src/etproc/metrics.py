"""Total-calibration metrics and predictive-variance decompositions.

NLL / ECE / AUROC over prediction sets, one law-of-total-variance split
for both decompositions (global-weight models take it with zero Dirichlet
variance), and the exact Bayes-risk oracle for Gaussian-mixture tasks.

Neither sort here sets a result: AUROC ranks with NumPy's default sort, since
tied scores share one midrank, and ECE stable-sorts its bin indices in the
smallest unsigned dtype that holds them, which NumPy radix-sorts up to 16 bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import row_argmax, row_max, row_sum
from .distributions import categorical_nll_batch, dirichlet_moments_rows


@dataclass
class PredictionSet:
    """Class-probability rows with true labels."""

    probs: np.ndarray   # (N, K), rows on the simplex
    labels: np.ndarray  # (N,) ints in [0, K)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.probs.ndim != 2 or len(self.probs) != len(self.labels):
            raise ValueError("probs/labels shape mismatch")
        if not np.all(np.abs(row_sum(self.probs) - 1.0) <= 1e-6):
            raise ValueError("prediction rows must sum to 1 within 1e-6")
        k = self.probs.shape[1]
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= k):
            raise ValueError("labels out of range")


@dataclass
class DecompositionTriple:
    """Per-class variance split: reducible + irreducible + data = total."""

    reducible: np.ndarray
    irreducible: np.ndarray
    data: np.ndarray
    total: np.ndarray


def nll(preds: PredictionSet) -> float:
    if len(preds.labels) == 0:
        raise ValueError("empty prediction set")
    vals, _ = categorical_nll_batch(preds.probs, preds.labels)
    return float(vals.mean())


def error_rate(preds: PredictionSet) -> float:
    return float(np.mean(row_argmax(preds.probs) != preds.labels))


def ece(preds: PredictionSet, n_bins: int = 10) -> float:
    """Binned |accuracy - confidence| gap on max class probability.

    Bins are right-closed: ((m-1)/M, m/M]; empty bins contribute 0.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    conf = row_max(preds.probs)[:, 0]
    correct = row_argmax(preds.probs) == preds.labels
    n = len(conf)
    # right-closed binning: bin m covers ((m-1)/M, m/M]
    idx = np.ceil(conf * n_bins).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    # stable: each bin one slice, its rows in order; a radix sort on keys of <= 16 bits
    order = np.argsort(idx.astype(np.min_scalar_type(n_bins - 1)), kind="stable")
    conf, correct = conf[order], correct[order]
    total, lo = 0.0, 0
    for hi in np.cumsum(np.bincount(idx, minlength=n_bins)).tolist():
        if hi > lo:
            total += (hi - lo) / n * abs(correct[lo:hi].mean() - conf[lo:hi].mean())
        lo = hi
    return float(total)


def auroc(scores_in, scores_out) -> float:
    """Exact Mann-Whitney rank statistic P(out > in) + 0.5 P(out == in); a NaN score raises."""
    a = np.asarray(scores_in, dtype=np.float64)
    b = np.asarray(scores_out, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("both score lists must be non-empty")
    combined = np.concatenate([a, b])
    if np.isnan(combined).any():  # NaN != NaN: each would take a rank of its own
        raise ValueError("scores must not be NaN")
    order = np.argsort(combined)  # any order within a tie: its scores share one midrank
    combined = combined[order]
    is_out = np.concatenate([np.zeros(len(a), bool), np.ones(len(b), bool)])[order]
    # midranks: a run of ties over sorted positions i..j gets (i + j) / 2 + 1
    first = np.flatnonzero(np.concatenate([[True], combined[1:] != combined[:-1]]))
    last = np.append(first[1:], len(combined)) - 1
    ranks = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    rank_sum_out = ranks[is_out].sum()
    n_out, n_in = len(b), len(a)
    u = rank_sum_out - n_out * (n_out + 1) / 2.0
    return float(u / (n_in * n_out))


def entropy_rows(probs):
    """Shannon entropy of each row of an (N, K) array, with 0 log 0 = 0.

    Raises ValueError when a row sum is not within 1e-6 of 1, NaN included.
    """
    p = np.asarray(probs, dtype=np.float64)
    if not np.all(np.abs(row_sum(p) - 1.0) <= 1e-6):
        raise ValueError("entropy: input not on the simplex")
    return -row_sum(p * np.log(np.where(p > 0.0, p, 1.0)))[:, 0]


# ---------------------------------------------------------------------------
# variance decompositions


def decompose_pbm(means) -> DecompositionTriple:
    """Two-term split for models with global random weights only: ``means``
    stacks the class probabilities h of S weight draws, (S, K). The split is
    the three-term one with zero Dirichlet variance, so the irreducible term is 0."""
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or len(means) < 2:
        raise ValueError(f"need an (S, K) stack of at least 2 samples, got shape {means.shape}")
    return _split(means, np.zeros_like(means))


def decompose_cbm(alphas) -> DecompositionTriple:
    """Three-term split for hierarchical Dirichlet models: ``alphas`` stacks
    the concentrations of S draws of the global variables, (S, K). The inner
    Dirichlet moments are analytic, so one call takes them for every draw."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.ndim != 2 or len(alphas) < 2:
        raise ValueError(f"need an (S, K) stack of at least 2 outer samples, "
                         f"got shape {alphas.shape}")
    return _split(*dirichlet_moments_rows(alphas))


def _split(means, dirvars) -> DecompositionTriple:
    """Law of total variance over S draws of class means and Dirichlet variances, (S, K)
    each; biased (1/S) variance keeps reducible + irreducible + data = total exact."""
    reducible = means.var(axis=0)
    irreducible = dirvars.mean(axis=0)
    data = (means * (1.0 - means) - dirvars).mean(axis=0)  # E[pi(1-pi)] = m(1-m) - Var[pi]
    p_bar = means.mean(axis=0)
    total = p_bar * (1.0 - p_bar)
    return DecompositionTriple(reducible, irreducible, data, total)


# ---------------------------------------------------------------------------
# ground-truth oracle for Gaussian-mixture tasks


@dataclass
class MixtureOracle:
    """K-mode 1-D Gaussian generative process with known class posteriors."""

    priors: np.ndarray   # (K,)
    means: np.ndarray    # (K,)
    variances: np.ndarray  # (K,)

    def __post_init__(self):
        self.priors = np.asarray(self.priors, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise ValueError("class priors must sum to 1")
        if np.any(self.variances <= 0.0):
            raise ValueError("class variances must be positive")

    def class_densities(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        d = np.exp(-0.5 * (x[:, None] - self.means) ** 2 / self.variances)
        return d / np.sqrt(2.0 * np.pi * self.variances)

    def f_true(self, x):
        """Posterior class probabilities at each x; shape (N, K)."""
        w = self.class_densities(x) * self.priors
        tot = w.sum(axis=1, keepdims=True)
        if np.any(tot <= 0.0):
            raise ValueError("zero total density at query point")
        return w / tot

    def marginal_density(self, x):
        return (self.class_densities(x) * self.priors).sum(axis=1)

    def point_risk(self, hypothesis_probs, x):
        """Risk of predicting argmax(hypothesis) at x under the true posteriors."""
        f = self.f_true(x)
        pred = np.atleast_2d(hypothesis_probs).argmax(axis=1)
        return 1.0 - f[np.arange(len(f)), pred]

    def irreducible_risk(self, x):
        """min(1 - max f, max f) at each x."""
        fmax = self.f_true(x).max(axis=1)
        return np.minimum(1.0 - fmax, fmax)

    def bayes_error(self, lo=-12.0, hi=12.0):
        """Average risk of the Bayes-optimal rule, by numerical integration."""
        from scipy import integrate  # imported here: it takes most of the package's import time

        def integrand(x):
            f = self.f_true(np.array([x]))[0]
            return (1.0 - f.max()) * self.marginal_density(np.array([x]))[0]

        val, _ = integrate.quad(integrand, lo, hi, limit=200)
        return float(val)


def risk_product_check(pi: float, pi_prime: float) -> bool:
    """Ordering consistency of min(1-p, p) and (1-p)p on [0.5, 1]."""
    if not (0.5 <= pi <= 1.0 and 0.5 <= pi_prime <= 1.0):
        raise ValueError("both arguments must lie in [0.5, 1]")
    antecedent = min(1.0 - pi, pi) >= min(1.0 - pi_prime, pi_prime)
    consequent = (1.0 - pi) * pi >= (1.0 - pi_prime) * pi_prime
    return (not antecedent) or consequent
