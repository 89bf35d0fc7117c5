"""Seeded random streams, closed-form moments and divergences, the
evidential losses, and the reparameterised Gaussian draw.

Categorical, Dirichlet, and diagonal-Gaussian laws shared by all four
models. Each Dirichlet law (KL divergence, mean and variance, expected
log-probability) has one implementation, a kernel that returns the law's
value and its VJP. The evidential losses of training, ``edl_loss`` (EDL)
and ``evidential_nll`` (ENP, ETP), chain the kernels behind the capped exp
of the log-concentrations (``capped_exp``, which prediction runs too) in
one tape record each. ``dirichlet_moments_rows`` takes the moments of an
(N, K) concentration array for the variance decomposition. The KL and
expected log-probability ``_rows`` primitives record their kernel as one
fused op when their input is tracked, and run untracked on plain arrays.
The oracle tests call the primitives and ``edl_terms``, on one row or
many, so they check the formulas that training uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import autodiff as ad
from .autodiff import Tensor, as_tensor

NLL_PROB_FLOOR = 1e-12


@dataclass
class SeededRng:
    """Deterministic PCG64 stream: identical (seed, stream) -> identical draws."""

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def permutation(self, n):
        return self._gen.permutation(n)


def _check_alpha(alpha):
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha <= 0.0):
        raise ad.DomainError("Dirichlet concentrations must be strictly positive")
    return alpha


# ---------------------------------------------------------------------------
# Dirichlet
#
# Each law is one kernel on checked arrays that returns the law's value and
# its VJP. A VJP returns the terms of its operand's gradient in the order in
# which the unfused graph of elementary ops adds them, so adding them in that
# order (``autodiff.backward``, ``_add_terms``) rounds as that graph did.


def _add_terms(terms):
    """The terms of a VJP added in order, as ``autodiff.backward`` adds them."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _trigamma(a, unit=None):
    """zeta(2, a) elementwise; where the boolean mask ``unit`` holds, ``a`` is
    exactly 1.0, and zeta(2, 1.0) is filled in instead of evaluated."""
    if unit is None:
        return special.zeta(2, a)
    out = np.full(a.shape, special.zeta(2, 1.0))
    rest = ~unit
    out[rest] = special.zeta(2, a[rest])
    return out


def _kl_kernel(a, p, unit=None):
    """KL(Dir(a_row) || Dir(p)) of (N, K) ``a`` and (K,) ``p``, (N, 1), and its VJP.

    The VJP forms the products of the log-gamma graph of elementary ops it
    replaces and returns the four terms of the gradient in that graph's
    order. ``unit`` marks entries of ``a`` that are exactly 1.0 (``_trigamma``).
    """
    k = a.shape[1]
    a0 = a.sum(axis=1, keepdims=True)
    psi_a, psi_a0 = special.psi(a), special.psi(a0)
    d = a - p
    e = psi_a - psi_a0
    const = float(special.gammaln(p).sum() - special.gammaln(p.sum()))
    kl = (special.gammaln(a0) - special.gammaln(a).sum(axis=1, keepdims=True)
          + (d * e).sum(axis=1, keepdims=True)) + const

    def vjp(g):
        gb = np.repeat(g, k, axis=1)
        g_e = gb * d
        g_a0 = ((-g_e).sum(axis=1, keepdims=True) * special.zeta(2, a0)
                + g * psi_a0)
        return (gb * e, g_e * _trigamma(a, unit), -gb * psi_a,
                np.repeat(g_a0, k, axis=1))

    return kl, vjp


def _moments_kernel(a):
    """Row-wise mean and variance of Dir(a) for (N, K) ``a``, and their VJP.

    The VJP takes the adjoints of both moments and returns the three terms of
    the gradient of the graph of elementary ops it replaces, in its order.
    """
    k = a.shape[1]
    a0 = np.repeat(a.sum(axis=1, keepdims=True), k, axis=1)
    inv_a0 = 1.0 / a0
    inv_a0p1 = 1.0 / (a0 + 1.0)
    mean = a * inv_a0
    t1 = a0 - a
    t2 = mean * t1
    t3 = t2 * inv_a0
    var = t3 * inv_a0p1

    def vjp(g_mean, g_var):
        g_t3 = g_var * inv_a0p1
        g_t2 = g_t3 * inv_a0
        g_mean = g_mean + g_t2 * t1
        g_t1 = g_t2 * mean
        g_a0 = g_t1 + -(g_var * t3) * inv_a0p1 * inv_a0p1
        g_inv_a0 = g_t3 * t2 + g_mean * a
        g_a0 = g_a0 + -g_inv_a0 * inv_a0 * inv_a0
        return (-g_t1, g_mean * inv_a0, np.repeat(g_a0.sum(axis=1, keepdims=True), k, axis=1))

    return mean, var, vjp


def _expected_log_prob_kernel(a, labels):
    """Row-wise psi(a_y) - psi(a_0) of (N, K) ``a`` at checked labels, (N, 1),
    and its VJP, whose alpha_0 term comes before its alpha_y term, as in the
    graph of elementary ops it replaces."""
    n, k = a.shape
    rows = np.arange(n)
    a_y = a[rows, labels]
    a0 = a.sum(axis=1, keepdims=True)
    out = special.psi(a_y)[:, None] - special.psi(a0)

    def vjp(g):
        g_sel = np.zeros((n, k))
        g_sel[rows, labels] = g[:, 0] * special.zeta(2, a_y)
        return np.repeat(-g * special.zeta(2, a0), k, axis=1), g_sel

    return out, vjp


def dirichlet_kl_rows(alpha_q: Tensor, alpha_p) -> Tensor:
    """Row-wise KL(Dir(q_row) || Dir(p)) for an (N, K) tensor; returns (N, 1).

    One tape record; its VJP rounds as the log-gamma graph it replaces
    (``_kl_kernel``).
    """
    alpha_q = as_tensor(alpha_q)
    a = _check_alpha(alpha_q.data)
    p = _check_alpha(alpha_p)
    k = a.shape[1]
    if p.shape != (k,):
        raise ValueError(f"dirichlet_kl: length mismatch, alpha_q has length {k}, "
                         f"alpha_p has shape {p.shape}")
    kl, vjp = _kl_kernel(a, p)
    return ad.emit(kl, (alpha_q,), (vjp,))


def dirichlet_moments_rows(alpha):
    """Row-wise Dirichlet mean and variance of an (N, K) concentration
    array, two (N, K) arrays (``_moments_kernel``)."""
    mean, var, _ = _moments_kernel(_check_alpha(alpha))
    return mean, var


def dirichlet_expected_log_prob_rows(alpha: Tensor, labels) -> Tensor:
    """Row-wise psi(alpha_y) - psi(alpha_0) for one label per row of (N, K)
    alpha; returns (N, 1). One tape record (``_expected_log_prob_kernel``)."""
    alpha = as_tensor(alpha)
    a = _check_alpha(alpha.data)
    labels = ad._check_labels("dirichlet-expected-log-prob", a.shape, labels)
    out, vjp = _expected_log_prob_kernel(a, labels)
    return ad.emit(out, (alpha,), (vjp,))


# ---------------------------------------------------------------------------
# evidential losses: one tape record each, from the log-concentrations
#
# Each chains the kernels above behind exp(min(raw, cap)). Value and VJP equal
# the unfused graph (clip_upper, exp, the ``_rows`` primitives, elementwise
# ops, tmean) bit for bit: the VJP evaluates that graph's expressions and adds
# its terms in that graph's reverse order.


def capped_exp(raw, cap):
    """exp(min(raw, cap)) of an array, and its VJP, which is 0 where capped."""
    alpha = np.exp(np.minimum(raw, cap))
    return alpha, lambda g: g * alpha * (raw < cap)


def evidential_nll(raw, labels, cap, beta_reg=0.0) -> Tensor:
    """Batch-mean expected NLL, -E[log pi_y] under pi ~ Dir(alpha), of one
    label per row, at alpha = exp(min(raw, cap)) of (N, K) log-concentrations
    ``raw``, plus ``beta_reg`` times the batch-mean KL(Dir(alpha) ||
    Dir(1, ..., 1)) when it is > 0. One tape record; its VJP adds the KL's
    terms before the expected log-probability's, as the unfused graph does."""
    raw = as_tensor(raw)
    labels = ad._check_labels("evidential-nll", raw.shape, labels)
    alpha, exp_vjp = capped_exp(raw.data, cap)
    elp, elp_vjp = _expected_log_prob_kernel(_check_alpha(alpha), labels)
    n, k = alpha.shape
    beta_reg = float(beta_reg)
    loss = -1.0 * elp.mean()
    if beta_reg > 0.0:
        kl, kl_vjp = _kl_kernel(alpha, np.ones(k))
        loss = loss + beta_reg * kl.mean()

    def vjp(g):
        terms = kl_vjp(np.full((n, 1), float(beta_reg * g) / n)) if beta_reg > 0.0 else ()
        terms += elp_vjp(np.full((n, 1), float(-1.0 * g) / n))
        return exp_vjp(_add_terms(terms))

    return ad.emit(np.array(loss), (raw,), (vjp,))


def edl_terms(alpha, labels):
    """EDL's per-row terms at (N, K) concentrations and one label per row,
    each (N, 1), and their VJP (Sensoy et al. 2018, arXiv 1806.01768, Eq. 5).

    ``sq`` is the expected squared error E||y - pi||^2 under pi ~ Dir(alpha),
    from the Dirichlet moments. ``kl`` is KL(Dir(alpha~) || Dir(1, ..., 1)) on
    the misleading evidence alpha~ = y + (1 - y) * alpha: the true class's
    concentration is replaced by 1, so the KL never penalises evidence for
    the true class. The VJP maps the adjoints of ``sq`` and ``kl`` to the
    terms of alpha's gradient, the KL's first, as the unfused graph adds them.
    """
    alpha = _check_alpha(alpha)
    labels = ad._check_labels("edl-terms", alpha.shape, labels)
    k = alpha.shape[1]
    onehot = np.eye(k)[labels]
    mean, var, moments_vjp = _moments_kernel(alpha)
    diff = onehot - mean
    sq = (diff * diff + var).sum(axis=1, keepdims=True)
    off = 1.0 - onehot
    kl, kl_vjp = _kl_kernel(onehot + alpha * off, np.ones(k), unit=onehot == 1.0)

    def vjp(g_sq, g_kl):
        g_rows = np.repeat(g_sq, k, axis=1)
        g_diff = g_rows * diff + g_rows * diff
        return (_add_terms(kl_vjp(g_kl)) * off, *moments_vjp(-g_diff, g_rows))

    return sq, kl, vjp


def edl_loss(raw, labels, lam, cap) -> Tensor:
    """EDL's batch-mean loss, the mean of sq + lam * kl (``edl_terms``), at
    alpha = exp(min(raw, cap)) of (N, K) log-concentrations ``raw``; one tape
    record. Like the unfused graph, the VJP evaluates the KL's adjoint at
    lam = 0 too, so an overflowing trigamma there still forms a NaN."""
    raw = as_tensor(raw)
    alpha, exp_vjp = capped_exp(raw.data, cap)
    sq, kl, terms_vjp = edl_terms(alpha, labels)
    lam = float(lam)
    n = len(sq)
    total = sq + lam * kl

    def vjp(g):
        g_rows = np.full((n, 1), float(g) / n)
        return exp_vjp(_add_terms(terms_vjp(g_rows, lam * g_rows)))

    return ad.emit(np.array(total.mean()), (raw,), (vjp,))


# ---------------------------------------------------------------------------
# diagonal Gaussian


def gaussian_reparam(mean, logvar, eps) -> Tensor:
    """mean + exp(logvar/2) * eps for given standard-normal noise; one record.

    The noise may lead with a stack axis, (S, *mean.shape), for S draws at
    once; the VJPs then sum over it.
    """
    mean, logvar = as_tensor(mean), as_tensor(logvar)
    eps = np.asarray(eps, dtype=np.float64)
    if mean.shape != logvar.shape or eps.shape[eps.ndim - mean.data.ndim:] != mean.shape:
        raise ValueError(f"reparam: {mean.shape} vs {logvar.shape} vs noise {eps.shape}")
    sd = np.exp(0.5 * logvar.data)
    stack = tuple(range(eps.ndim - mean.data.ndim))
    unstack = (lambda t: t.sum(axis=stack)) if stack else (lambda t: t)
    return ad.emit(mean.data + sd * eps, (mean, logvar),
                   (unstack, lambda g: unstack(0.5 * (g * eps * sd))))


def gaussian_kl_diag(mean_q, logvar_q, mean_p, logvar_p, weight=1.0):
    """``weight`` times KL(N(mq, diag exp lq) || N(mp, diag exp lp)), summed
    over all entries.

    One tape record with an analytic VJP; returns a scalar Tensor. The prior
    arguments are arrays of the posterior's shape, or scalars. The weight (an
    ELBO's 1 / n_total) rounds as a ``scale`` record after the KL: the value
    is ``weight * kl`` and the VJPs read ``weight * g``.
    """
    mq, lq = as_tensor(mean_q), as_tensor(logvar_q)
    mp, lp = np.asarray(mean_p, dtype=np.float64), np.asarray(logvar_p, dtype=np.float64)
    if (mq.shape != lq.shape or mp.ndim and mp.shape != mq.shape
            or lp.ndim and lp.shape != mq.shape):
        raise ValueError("gaussian_kl_diag: length mismatch")
    # a scalar prior as a Python float: the same IEEE arithmetic, without 0-d arrays
    mp, lp = mp if mp.ndim else float(mp), lp if lp.ndim else float(lp)
    inv_var_p = 1.0 / np.exp(lp)
    var_q = np.exp(lq.data)
    diff = mq.data - mp
    inner = (var_q + diff * diff) * inv_var_p + lp - lq.data
    weight = float(weight)

    def vjp_mean(g):
        t = 0.5 * (weight * float(g)) * inv_var_p * diff
        return t + t

    def vjp_logvar(g):
        half = 0.5 * (weight * float(g))
        return half * inv_var_p * var_q - half

    return ad.emit(weight * (0.5 * (np.add.reduce(inner, axis=None) - mq.data.size)), (mq, lq),
                   (vjp_mean, vjp_logvar))


# ---------------------------------------------------------------------------
# categorical


def categorical_nll_batch(probs, labels):
    """Vector of floored NLLs plus the count of floored events."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    sel = p[np.arange(len(labels)), labels]
    floored = int(np.sum(sel < NLL_PROB_FLOOR))
    return -np.log(np.maximum(sel, NLL_PROB_FLOOR)), floored
