"""Seeded random streams, closed-form moments and divergences, and the
reparameterised Gaussian draw.

Categorical, Dirichlet, and diagonal-Gaussian laws shared by all four
models. Each Dirichlet law (KL divergence, mean and variance, expected
log-probability) has one implementation, the ``_rows`` primitive: it takes
an (N, K) concentration matrix, records one fused op on the gradient tape
when its input is tracked, and runs untracked on plain arrays. The scalar
helpers ``dirichlet_kl``, ``dirichlet_moments`` and
``dirichlet_expected_log_prob`` run that primitive untracked on one row, so
an oracle that checks a scalar helper checks the formula training uses.
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


def dirichlet_kl(alpha_q, alpha_p) -> float:
    """KL(Dir(alpha_q) || Dir(alpha_p)): ``dirichlet_kl_rows`` on one row."""
    return float(dirichlet_kl_rows(np.atleast_2d(alpha_q), alpha_p).data[0, 0])


def dirichlet_kl_rows(alpha_q: Tensor, alpha_p) -> Tensor:
    """Row-wise KL(Dir(q_row) || Dir(p)) for an (N, K) tensor; returns (N, 1).

    One tape record. Its VJP forms the same products, and adds the four
    terms of the alpha_q gradient in the same order, as the log-gamma graph
    of elementary ops it replaces, so the gradient rounds as that graph did.
    """
    alpha_q = as_tensor(alpha_q)
    a = _check_alpha(alpha_q.data)
    p = _check_alpha(alpha_p)
    k = a.shape[1]
    if p.shape != (k,):
        raise ValueError(f"dirichlet_kl: length mismatch, alpha_q has length {k}, "
                         f"alpha_p has shape {p.shape}")
    a0 = a.sum(axis=1, keepdims=True)
    psi_a, psi_a0 = special.psi(a), special.psi(a0)
    d = a - p
    e = psi_a - psi_a0
    const = float(np.sum(special.gammaln(p)) - special.gammaln(p.sum()))
    kl = (special.gammaln(a0) - special.gammaln(a).sum(axis=1, keepdims=True)
          + (d * e).sum(axis=1, keepdims=True)) + const

    def vjp(g):
        gb = np.repeat(g, k, axis=1)
        g_e = gb * d
        g_a0 = ((-g_e).sum(axis=1, keepdims=True) * special.zeta(2, a0)
                + g * psi_a0)
        return (gb * e, g_e * special.zeta(2, a), -gb * psi_a,
                np.repeat(g_a0, k, axis=1))

    return ad.emit(kl, (alpha_q,), (vjp,))


def dirichlet_moments(alpha):
    """Mean and variance vectors of Dir(alpha): ``dirichlet_moments_rows`` on
    one row."""
    mean, var = dirichlet_moments_rows(np.atleast_2d(alpha))
    return mean.data[0], var.data[0]


def dirichlet_moments_rows(alpha: Tensor):
    """Differentiable row-wise Dirichlet mean and variance for (N, K) alpha.

    One fused record holds both moments stacked, and one record each takes
    them apart. The VJP forms the products of the graph of elementary ops it
    replaces and adds its three alpha terms in that graph's order.
    """
    alpha = as_tensor(alpha)
    a = _check_alpha(alpha.data)
    k = a.shape[1]
    a0 = np.repeat(a.sum(axis=1, keepdims=True), k, axis=1)
    inv_a0 = 1.0 / a0
    inv_a0p1 = 1.0 / (a0 + 1.0)
    mean = a * inv_a0
    t1 = a0 - a
    t2 = mean * t1
    t3 = t2 * inv_a0
    var = t3 * inv_a0p1

    def vjp(g):
        g_mean, g_var = g
        g_t3 = g_var * inv_a0p1
        g_t2 = g_t3 * inv_a0
        g_mean = g_mean + g_t2 * t1
        g_t1 = g_t2 * mean
        g_a0 = g_t1 + -(g_var * t3) * inv_a0p1 * inv_a0p1
        g_inv_a0 = g_t3 * t2 + g_mean * a
        g_a0 = g_a0 + -g_inv_a0 * inv_a0 * inv_a0
        return (-g_t1, g_mean * inv_a0, np.repeat(g_a0.sum(axis=1, keepdims=True), k, axis=1))

    mean_t, var_t = ad.unstack(ad.emit(np.stack([mean, var]), (alpha,), (vjp,)))
    return mean_t, var_t


def dirichlet_expected_log_prob(alpha, k: int) -> float:
    """E_Dir(alpha)[log pi_k] = psi(alpha_k) - psi(alpha_0):
    ``dirichlet_expected_log_prob_rows`` on one row."""
    return float(dirichlet_expected_log_prob_rows(np.atleast_2d(alpha), [k]).data[0, 0])


def dirichlet_expected_log_prob_rows(alpha: Tensor, labels) -> Tensor:
    """Row-wise psi(alpha_y) - psi(alpha_0) for integer labels; returns (N, 1).

    One tape record; the VJP adds the alpha_0 term before the alpha_y term,
    in the order of the graph of elementary ops it replaces.
    """
    alpha = as_tensor(alpha)
    a = _check_alpha(alpha.data)
    n, k = a.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= k:
        raise IndexError(f"class index out of range for K={k}")
    rows = np.arange(n)
    a_y = a[rows, labels]
    a0 = a.sum(axis=1, keepdims=True)
    out = special.psi(a_y)[:, None] - special.psi(a0)

    def vjp(g):
        g_sel = np.zeros((n, k))
        g_sel[rows, labels] = g[:, 0] * special.zeta(2, a_y)
        return np.repeat(-g * special.zeta(2, a0), k, axis=1), g_sel

    return ad.emit(out, (alpha,), (vjp,))


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


def gaussian_kl_diag(mean_q, logvar_q, mean_p, logvar_p):
    """KL(N(mq, diag exp lq) || N(mp, diag exp lp)), summed over all entries.

    One tape record with an analytic VJP; returns a scalar Tensor. The prior
    arguments are arrays of the posterior's shape, or scalars.
    """
    mq, lq = as_tensor(mean_q), as_tensor(logvar_q)
    mp = np.asarray(mean_p, dtype=np.float64)
    lp = np.asarray(logvar_p, dtype=np.float64)
    if mq.shape != lq.shape or any(x.ndim and x.shape != mq.shape for x in (mp, lp)):
        raise ValueError("gaussian_kl_diag: length mismatch")
    inv_var_p = 1.0 / np.exp(lp)
    var_q = np.exp(lq.data)
    diff = mq.data - mp
    inner = (var_q + diff * diff) * inv_var_p + lp - lq.data
    kl = 0.5 * (inner.sum() - mq.data.size)

    def vjp_mean(g):
        t = 0.5 * float(g) * inv_var_p * diff
        return t + t

    def vjp_logvar(g):
        half = 0.5 * float(g)
        return half * inv_var_p * var_q - half

    return ad.emit(np.array(kl), (mq, lq), (vjp_mean, vjp_logvar))


# ---------------------------------------------------------------------------
# categorical


def categorical_nll_batch(probs, labels):
    """Vector of floored NLLs plus the count of floored events."""
    p = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    sel = p[np.arange(len(labels)), labels]
    floored = int(np.sum(sel < NLL_PROB_FLOOR))
    return -np.log(np.maximum(sel, NLL_PROB_FLOOR)), floored
