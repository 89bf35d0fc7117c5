"""The four classifiers of the ablation: BNN, EDL, ENP, and ETP.

All share one interface: ``loss(tape, ...)`` builds a differentiable
scalar on the tape, ``predict`` returns class probabilities, and
``trainable()`` exposes the parameter arrays updated by Adam. The ETP
memory update is numpy-only and never touches the tape.

Each model keeps its trainables in one contiguous float64 vector,
``theta``, in ``trainable()`` order; the per-array dicts of its networks
(``means``, ``logvars``, ``params``) and ``trainable()`` hold named views
into it, so writing into a view writes into ``theta``. ``spans`` locates
every array, each network's block of arrays and the whole vector
(``FLAT``) in ``theta``. A training step puts ``theta`` on the tape once
(``Tape.flat_leaves``): its gradient arrives as one flat vector and Adam
updates ``theta`` in one call. A variational network's means and
log-variances are each one block, so its weight KL is one tape record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, as_tensor, backward
from .data import LabeledDataset, batch_iterator
from .distributions import (
    SeededRng,
    dirichlet_expected_log_prob_rows,
    dirichlet_kl_rows,
    dirichlet_moments_rows,
    gaussian_kl_diag,
    gaussian_reparam,
)

LOG_ALPHA_CAP = np.log(1e6)
LOGVAR_INIT = -6.0

MODEL_KINDS = ("bnn", "edl", "enp", "etp")
FLAT = "theta"  # span name of the whole parameter vector


class CheckpointError(ValueError):
    """A checkpoint whose arrays do not match the model it describes."""


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch, batch, value):
        super().__init__(f"non-finite loss {value} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int
    hidden: tuple
    out_dim: int
    activation: str = "relu"

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("MlpSpec dimensions must be positive")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation: {self.activation}")


def _init_layer(rng: SeededRng, fan_in, fan_out):
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=fan_out)
    return w, b


def _activate(t: Tensor, kind: str) -> Tensor:
    return ad.relu(t) if kind == "relu" else ad.tanh(t)


class _PackedModel:
    """Trainables packed into one contiguous vector ``theta``."""

    def _pack(self, groups):
        """Move the arrays of the name -> array dicts in ``groups`` into
        ``theta``, in order; each dict then holds views into it."""
        self._groups = list(groups.values())
        total = sum(a.size for arrays in self._groups for a in arrays.values())
        self.theta = np.empty(total)
        self.spans = {FLAT: (0, total, (total,))}
        start = 0
        for group, arrays in groups.items():
            group_start = start
            for name, a in arrays.items():
                stop = start + a.size
                self.theta[start:stop] = a.ravel()
                arrays[name] = self.theta[start:stop].reshape(a.shape)
                self.spans[name] = (start, stop, a.shape)
                start = stop
            self.spans[group] = (group_start, start, (start - group_start,))

    def trainable(self):
        """Named views into ``theta``, one per array, in vector order."""
        return {name: view for arrays in self._groups for name, view in arrays.items()}

    def leaves(self, tape):
        """Tape leaves for every span of ``theta``."""
        return tape.flat_leaves(self.theta, self.spans)


class DeterministicMlp:
    """Point-estimate MLP; weights live in a flat name->array dict."""

    def __init__(self, spec: MlpSpec, rng: SeededRng, prefix: str):
        self.spec = spec
        self.prefix = prefix
        self.params = {}
        dims = [spec.in_dim, *spec.hidden, spec.out_dim]
        for i in range(len(dims) - 1):
            w, b = _init_layer(rng, dims[i], dims[i + 1])
            self.params[f"{prefix}.W{i}"] = w
            self.params[f"{prefix}.b{i}"] = b
        self.n_layers = len(dims) - 1

    def forward(self, x: Tensor, leaves=None) -> Tensor:
        h = as_tensor(x)
        get = (leaves or self.params).__getitem__
        for i in range(self.n_layers):
            h = ad.add(ad.matmul(h, as_tensor(get(f"{self.prefix}.W{i}"))),
                       as_tensor(get(f"{self.prefix}.b{i}")))
            if i < self.n_layers - 1:
                h = _activate(h, self.spec.activation)
        return h

    def forward_np(self, x):
        h = np.asarray(x, dtype=np.float64)
        for i in range(self.n_layers):
            h = h @ self.params[f"{self.prefix}.W{i}"] + self.params[f"{self.prefix}.b{i}"]
            if i < self.n_layers - 1:
                h = np.maximum(h, 0.0) if self.spec.activation == "relu" else np.tanh(h)
        return h


class VariationalMlp:
    """Mean-field Gaussian posterior over MLP weights.

    Means are fan-in-scaled uniform; log-variances start at -6 so the
    network is near-deterministic early in training.
    """

    def __init__(self, spec: MlpSpec, rng: SeededRng, prefix: str):
        self.spec = spec
        self.prefix = prefix
        self.means = {}
        self.logvars = {}
        dims = [spec.in_dim, *spec.hidden, spec.out_dim]
        for i in range(len(dims) - 1):
            w, b = _init_layer(rng, dims[i], dims[i + 1])
            self.means[f"{prefix}.W{i}"] = w
            self.means[f"{prefix}.b{i}"] = b
            self.logvars[f"{prefix}.W{i}.logvar"] = np.full_like(w, LOGVAR_INIT)
            self.logvars[f"{prefix}.b{i}.logvar"] = np.full_like(b, LOGVAR_INIT)
        self.n_layers = len(dims) - 1

    def groups(self):
        """The means and the log-variances, as two blocks of ``theta``."""
        return {f"{self.prefix}.means": self.means, f"{self.prefix}.logvars": self.logvars}

    def sampled_weights(self, leaves, rng: SeededRng):
        """Reparameterized weight tensors mean + exp(logvar/2) * eps, one
        record per array; one draw gives the noise of all of them."""
        eps = rng.normal(size=sum(m.size for m in self.means.values()))
        weights = {}
        start = 0
        for name, m in self.means.items():
            stop = start + m.size
            weights[name] = gaussian_reparam(leaves[name], leaves[f"{name}.logvar"],
                                             eps[start:stop].reshape(m.shape))
            start = stop
        return weights

    def forward(self, x: Tensor, weights) -> Tensor:
        h = as_tensor(x)
        for i in range(self.n_layers):
            h = ad.add(ad.matmul(h, weights[f"{self.prefix}.W{i}"]),
                       weights[f"{self.prefix}.b{i}"])
            if i < self.n_layers - 1:
                h = _activate(h, self.spec.activation)
        return h

    def sample_weights_np(self, rng: SeededRng):
        out = {}
        for name, m in self.means.items():
            sd = np.exp(0.5 * self.logvars[f"{name}.logvar"])
            out[name] = m + sd * rng.normal(size=m.shape)
        return out

    def forward_np(self, x, weights=None):
        weights = weights or self.means
        h = np.asarray(x, dtype=np.float64)
        for i in range(self.n_layers):
            h = h @ weights[f"{self.prefix}.W{i}"] + weights[f"{self.prefix}.b{i}"]
            if i < self.n_layers - 1:
                h = np.maximum(h, 0.0) if self.spec.activation == "relu" else np.tanh(h)
        return h

    def kl_to_prior(self, leaves, beta: float) -> Tensor:
        """KL of the whole posterior to the N(0, 1/beta I) prior."""
        return gaussian_kl_diag(leaves[f"{self.prefix}.means"],
                                leaves[f"{self.prefix}.logvars"],
                                0.0, float(np.log(1.0 / beta)))


def _softmax_np(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _onehot(labels, k):
    labels = np.asarray(labels)
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _nll_rows(probs: Tensor, labels) -> Tensor:
    """Differentiable -log p_y per row, shape (N, 1)."""
    return ad.scale(-1.0, ad.take_labels(ad.log(probs), labels))


# ---------------------------------------------------------------------------
# BNN


class BnnModel(_PackedModel):
    kind = "bnn"

    def __init__(self, input_dim, num_classes, hidden, rng, beta=1.0):
        self.num_classes = num_classes
        self.beta = beta
        self.net = VariationalMlp(MlpSpec(input_dim, tuple(hidden), num_classes), rng, "net")
        self._pack(self.net.groups())

    def loss(self, tape, xb, yb, rng, n_total, n_samples=1):
        leaves = self.leaves(tape)
        x = as_tensor(xb)
        acc = None
        for _ in range(n_samples):
            weights = self.net.sampled_weights(leaves, rng)
            probs = ad.softmax_rows(self.net.forward(x, weights))
            term = ad.tmean(_nll_rows(probs, yb))
            acc = term if acc is None else ad.add(acc, term)
        nll = ad.scale(1.0 / n_samples, acc)
        kl = self.net.kl_to_prior(leaves, self.beta)
        # per-example ELBO: batch-mean NLL pairs with KL / dataset-size
        loss = ad.add(nll, ad.scale(1.0 / n_total, kl))
        return loss, leaves

    def predict(self, x, rng, n_samples=16):
        x = np.atleast_2d(x)
        acc = np.zeros((len(x), self.num_classes))
        for _ in range(n_samples):
            w = self.net.sample_weights_np(rng)
            acc += _softmax_np(self.net.forward_np(x, w))
        return acc / n_samples


# ---------------------------------------------------------------------------
# EDL


class EdlModel(_PackedModel):
    kind = "edl"

    def __init__(self, input_dim, num_classes, hidden, rng):
        self.num_classes = num_classes
        self.net = DeterministicMlp(MlpSpec(input_dim, tuple(hidden), num_classes), rng, "net")
        self.clamp_events = 0
        self._pack({"net": self.net.params})

    def _alpha(self, x: Tensor, leaves) -> Tensor:
        raw = self.net.forward(x, leaves)
        clipped = ad.clip_upper(raw, LOG_ALPHA_CAP)
        self.clamp_events += int(np.sum(raw.data >= LOG_ALPHA_CAP))
        return ad.exp(clipped)

    def loss(self, tape, xb, yb, lam):
        """Analytic expected squared error plus annealed KL to Dir(1,...,1).

        The KL acts on the misleading evidence alpha~ = y + (1-y)*alpha, as in
        Sensoy et al. 2018 (arXiv 1806.01768, Eq. 5), so it never penalises
        evidence for the true class.
        """
        if lam < 0:
            raise ValueError("annealing weight must be >= 0")
        leaves = self.leaves(tape)
        alpha = self._alpha(as_tensor(xb), leaves)
        if np.any(alpha.data <= 0.0):
            raise ValueError("concentration head produced non-positive values")
        per = self.per_sample_terms(alpha, yb)
        loss = ad.tmean(ad.add(per["sq"], ad.scale(lam, per["kl"])))
        return loss, leaves

    def per_sample_terms(self, alpha: Tensor, yb):
        """(N,1) tensors: squared-error-plus-variance term and the KL term.

        The KL is KL(Dir(alpha~) || Dir(1,...,1)) on the misleading evidence
        alpha~ = y + (1-y)*alpha (Sensoy et al. 2018): the true class's
        concentration is replaced by 1.
        """
        n, k = alpha.shape
        onehot = _onehot(yb, k)
        mean, var = dirichlet_moments_rows(alpha)
        diff = ad.sub(as_tensor(onehot), mean)
        sq = ad.sum_rows(ad.add(ad.mul(diff, diff), var))
        misleading = ad.add(onehot, ad.mul(alpha, 1.0 - onehot))
        kl = dirichlet_kl_rows(misleading, np.ones(k))
        return {"sq": sq, "kl": kl}

    def per_sample_loss_np(self, x, y, lam):
        alpha = self.alpha_np(x)
        tensors = self.per_sample_terms(as_tensor(alpha), y)
        return (tensors["sq"].data + lam * tensors["kl"].data).ravel()

    def per_sample_negative_elbo_np(self, x, y):
        """The constant K/2 * log(pi) plus the per-sample loss at lam = 1.

        In the latent-variable reading (prior Dir(1), likelihood
        N(y | pi, 0.5 I), q = Dir(alpha)) the likelihood contributes that
        constant on top of the expected squared error. The sum equals the
        negative ELBO of that reading only when the KL acts on the full
        alpha; training regularises the misleading evidence alpha~ instead.
        """
        k = self.num_classes
        const = 0.5 * k * np.log(np.pi)
        return const + self.per_sample_loss_np(x, y, lam=1.0)

    def alpha_np(self, x):
        raw = self.net.forward_np(np.atleast_2d(x))
        return np.exp(np.minimum(raw, LOG_ALPHA_CAP))

    def predict(self, x, rng=None, n_samples=1):
        alpha = self.alpha_np(x)
        return alpha / alpha.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# ETP


def etp_attend(embedding, memory_draw, key_fn=None):
    """Dot-product attention over memory cells (numpy, single query).

    Returns (weights over R cells, read vector = convex combination).
    """
    v = np.asarray(embedding, dtype=np.float64)
    z = np.atleast_2d(np.asarray(memory_draw, dtype=np.float64))
    keys = z if key_fn is None else np.atleast_2d(key_fn(z))
    scores = keys @ v / np.sqrt(len(v))
    e = np.exp(scores - scores.max())
    weights = e / e.sum()
    return weights, weights @ z


class EtpModel(_PackedModel):
    kind = "etp"

    def __init__(self, input_dim, num_classes, hidden, rng,
                 memory_cells=16, gamma=0.9, kappa2=0.1, beta=1.0, beta_reg=0.0,
                 combiner="residual", identity_keys=False, update_tanh=True):
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if kappa2 <= 0.0:
            raise ValueError("kappa2 must be positive")
        if combiner not in ("residual", "direct"):
            raise ValueError(f"unknown combiner mode: {combiner}")
        self.num_classes = num_classes
        self.gamma = gamma
        self.kappa2 = kappa2
        self.beta = beta
        self.beta_reg = beta_reg
        self.combiner = combiner
        self.identity_keys = identity_keys
        self.update_tanh = update_tanh
        self.clamp_events = 0
        self.encoder = VariationalMlp(MlpSpec(input_dim, tuple(hidden), num_classes), rng, "enc")
        if identity_keys:
            self.keynet = None
        else:
            self.keynet = DeterministicMlp(MlpSpec(num_classes, (), num_classes), rng, "key")
        self.memory = np.zeros((memory_cells, num_classes))
        groups = self.encoder.groups()
        if self.keynet is not None:
            groups["key"] = self.keynet.params
        self._pack(groups)

    # -- attention / concentration ------------------------------------------

    def _keys(self, z: Tensor, leaves=None) -> Tensor:
        if self.keynet is None:
            return z
        return self.keynet.forward(z, leaves)

    def _keys_np(self, z):
        return z if self.keynet is None else self.keynet.forward_np(z)

    def attend(self, v: Tensor, z, leaves=None):
        """Batched attention: v (N,K), memory draw z (R,K)."""
        zc = as_tensor(z)
        keys = self._keys(zc, leaves)
        scores = ad.scale(1.0 / np.sqrt(self.num_classes),
                          ad.matmul(v, ad.transpose(keys)))
        phi = ad.softmax_rows(scores)
        return phi, ad.matmul(phi, zc)

    def attend_np(self, v, z):
        keys = self._keys_np(z)
        scores = v @ keys.T / np.sqrt(self.num_classes)
        phi = _softmax_np(scores)
        return phi, phi @ z

    def _exponent(self, v: Tensor, read: Tensor) -> Tensor:
        if self.combiner == "residual":
            return ad.add(v, ad.tanh(read))
        return read

    def concentration(self, v: Tensor, z, leaves=None) -> Tensor:
        """Dirichlet concentrations for embeddings v under memory draw z."""
        _, read = self.attend(v, z, leaves)
        expo = self._exponent(v, read)
        self.clamp_events += int(np.sum(expo.data >= LOG_ALPHA_CAP))
        return ad.exp(ad.clip_upper(expo, LOG_ALPHA_CAP))

    def concentration_np(self, v, z):
        _, read = self.attend_np(v, z)
        expo = v + np.tanh(read) if self.combiner == "residual" else read
        return np.exp(np.minimum(expo, LOG_ALPHA_CAP))

    def draw_memory(self, rng: SeededRng):
        return self.memory + np.sqrt(self.kappa2) * rng.normal(size=self.memory.shape)

    # -- memory update (gradient-detached) ----------------------------------

    def memory_update(self, ctx_x, ctx_y, rng: SeededRng, n_samples=8):
        """Explicit retention/update rule; runs entirely outside the tape."""
        ctx_x = np.atleast_2d(np.asarray(ctx_x, dtype=np.float64)) if len(ctx_x) else np.zeros((0, 1))
        ctx_y = np.asarray(ctx_y, dtype=np.int64)
        if len(ctx_y) and (ctx_y.min() < 0 or ctx_y.max() >= self.num_classes):
            raise ValueError("context labels outside [0, K)")
        if len(ctx_y):
            v = self.encoder.forward_np(ctx_x)
            info = _onehot(ctx_y, self.num_classes) + _softmax_np(v)
        acc = np.zeros_like(self.memory)
        noise = np.sqrt(self.kappa2) * rng.normal(size=(n_samples, *self.memory.shape))
        for s in range(n_samples):
            z = self.memory + noise[s]
            if len(ctx_y):
                phi, _ = self.attend_np(v, z)           # (C, R)
                contrib = phi.T @ info                   # (R, K)
            else:
                contrib = 0.0
            update = self.gamma * self.memory + (1.0 - self.gamma) * contrib
            acc += np.tanh(update) if self.update_tanh else update
        self.memory = acc / n_samples
        return self.memory

    # -- objective ----------------------------------------------------------

    def free_energy(self, tape, xb, yb, rng, n_total, s_w=1, s_z=1):
        """Monte-Carlo variational free energy; memory treated as constant."""
        if s_w < 1 or s_z < 1:
            raise ValueError("sample counts must be >= 1")
        leaves = self.leaves(tape)
        x = as_tensor(np.atleast_2d(xb))
        acc = None
        for _ in range(s_w):
            weights = self.encoder.sampled_weights(leaves, rng)
            v = self.encoder.forward(x, weights)
            for _ in range(s_z):
                alpha = self.concentration(v, self.draw_memory(rng), leaves)
                enll = ad.scale(-1.0, ad.tmean(dirichlet_expected_log_prob_rows(alpha, yb)))
                if self.beta_reg > 0.0:
                    reg = ad.tmean(dirichlet_kl_rows(alpha, np.ones(self.num_classes)))
                    enll = ad.add(enll, ad.scale(self.beta_reg, reg))
                acc = enll if acc is None else ad.add(acc, enll)
        expected = ad.scale(1.0 / (s_w * s_z), acc)
        kl = self.encoder.kl_to_prior(leaves, self.beta)
        loss = ad.add(expected, ad.scale(1.0 / n_total, kl))
        if not np.isfinite(loss.data):
            raise FloatingPointError("non-finite free energy")
        return loss, leaves

    # -- prediction ---------------------------------------------------------

    def predict(self, x, rng, n_samples_w=16, n_samples_z=8):
        x = np.atleast_2d(x)
        acc = np.zeros((len(x), self.num_classes))
        for _ in range(n_samples_w):
            w = self.encoder.sample_weights_np(rng)
            v = self.encoder.forward_np(x, w)
            for _ in range(n_samples_z):
                alpha = self.concentration_np(v, self.draw_memory(rng))
                acc += alpha / alpha.sum(axis=1, keepdims=True)
        return acc / (n_samples_w * n_samples_z)

    def memory_evidence(self, x, rng, n_samples=10):
        """Mean memory-induced evidence per class at the given inputs.

        For the residual combiner this is the additive tanh(read) term;
        for the direct combiner it is the raw attention read.
        """
        x = np.atleast_2d(x)
        v = self.encoder.forward_np(x)
        acc = np.zeros((len(x), self.num_classes))
        for _ in range(n_samples):
            _, read = self.attend_np(v, self.draw_memory(rng))
            acc += np.tanh(read) if self.combiner == "residual" else read
        return acc / n_samples


# ---------------------------------------------------------------------------
# ENP


class EnpModel(_PackedModel):
    kind = "enp"

    def __init__(self, input_dim, num_classes, hidden, rng,
                 kappa2=0.1, beta_reg=0.0, aggregation="mean"):
        if aggregation not in ("mean", "attention"):
            raise ValueError(f"unknown aggregation mode: {aggregation}")
        self.num_classes = num_classes
        self.kappa2 = kappa2
        self.beta_reg = beta_reg
        self.aggregation = aggregation
        self.clamp_events = 0
        k = num_classes
        self.embed = DeterministicMlp(MlpSpec(input_dim, tuple(hidden), k), rng, "emb")
        self.encoder = DeterministicMlp(MlpSpec(input_dim + k, tuple(hidden), 2 * k), rng, "ctx")
        self.head = DeterministicMlp(MlpSpec(2 * k, tuple(hidden), k), rng, "head")
        # constant selectors splitting encoder output into (mu, logvar)
        eye = np.eye(k)
        self._sel_mu = np.vstack([eye, np.zeros((k, k))])
        self._sel_lv = np.vstack([np.zeros((k, k)), eye])
        self._pack({"emb": self.embed.params, "ctx": self.encoder.params,
                    "head": self.head.params})

    def _alpha(self, e: Tensor, z: Tensor, leaves) -> Tensor:
        raw = self.head.forward(ad.concat([e, z], axis=1), leaves)
        self.clamp_events += int(np.sum(raw.data >= LOG_ALPHA_CAP))
        return ad.exp(ad.clip_upper(raw, LOG_ALPHA_CAP))

    def loss(self, tape, xb, yb, ctx_x, ctx_y, rng, n_total):
        if len(ctx_y) == 0:
            raise ValueError("ENP training requires a non-empty context set")
        leaves = self.leaves(tape)
        n = len(yb)
        k = self.num_classes
        e = self.embed.forward(as_tensor(np.atleast_2d(xb)), leaves)
        ctx_in = np.concatenate([np.atleast_2d(ctx_x), _onehot(ctx_y, k)], axis=1)
        h = self.encoder.forward(as_tensor(ctx_in), leaves)      # (C, 2K)
        mu = ad.matmul(h, self._sel_mu)
        lv = ad.matmul(h, self._sel_lv)
        c = len(ctx_y)
        if self.aggregation == "mean":
            avg = np.full((1, c), 1.0 / c)
            mu_t = ad.matmul(as_tensor(np.ones((n, 1))), ad.matmul(as_tensor(avg), mu))
            lv_t = ad.matmul(as_tensor(np.ones((n, 1))), ad.matmul(as_tensor(avg), lv))
        else:
            scores = ad.scale(1.0 / np.sqrt(k), ad.matmul(e, ad.transpose(mu)))
            phi = ad.softmax_rows(scores)                        # (N, C)
            mu_t = ad.matmul(phi, mu)
            lv_t = ad.matmul(phi, lv)
        eps = rng.normal(size=(n, k))
        z = ad.add(mu_t, ad.mul(ad.exp(ad.scale(0.5, lv_t)), as_tensor(eps)))
        alpha = self._alpha(e, z, leaves)
        enll = ad.scale(-1.0, ad.tmean(dirichlet_expected_log_prob_rows(alpha, yb)))
        if self.beta_reg > 0.0:
            enll = ad.add(enll, ad.scale(
                self.beta_reg, ad.tmean(dirichlet_kl_rows(alpha, np.ones(k)))))
        kl = self._kl_rows_to_pred_prior(mu_t, lv_t)
        loss = ad.add(enll, ad.scale(len(yb) / n_total, kl))
        return loss, leaves

    def _kl_rows_to_pred_prior(self, mu: Tensor, lv: Tensor) -> Tensor:
        """Mean per-target KL(N(mu, e^lv) || N(1, kappa^2 I))."""
        n, k = mu.shape
        lp = float(np.log(self.kappa2))
        diff = ad.sub(mu, np.full((n, k), 1.0))
        quad = ad.scale(1.0 / self.kappa2, ad.add(ad.exp(lv), ad.mul(diff, diff)))
        inner = ad.sub(ad.add(quad, np.full((n, k), lp - 1.0)), lv)
        per_row = ad.scale(0.5, ad.sum_rows(inner))
        return ad.tmean(per_row)

    def alpha_np(self, x, z):
        e = self.embed.forward_np(np.atleast_2d(x))
        zfull = np.broadcast_to(z, e.shape) if z.ndim == 1 else z
        raw = self.head.forward_np(np.concatenate([e, zfull], axis=1))
        return np.exp(np.minimum(raw, LOG_ALPHA_CAP))

    def predict(self, x, rng, n_samples=16):
        """Prediction-time path: Z ~ N(1, kappa^2 I), no context set."""
        x = np.atleast_2d(x)
        acc = np.zeros((len(x), self.num_classes))
        for _ in range(n_samples):
            z = 1.0 + np.sqrt(self.kappa2) * rng.normal(size=self.num_classes)
            alpha = self.alpha_np(x, z)
            acc += alpha / alpha.sum(axis=1, keepdims=True)
        return acc / n_samples


# ---------------------------------------------------------------------------
# training loop and predict dispatch


@dataclass
class TrainConfig:
    epochs: int = 400
    batch_size: int = 64
    lr: float = 0.001
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    n_train_samples: int = 1       # weight draws per step (BNN / ETP)
    n_train_z_samples: int = 1     # memory draws per step (ETP)
    context_fraction: float = 0.25
    memory_update_samples: int = 8
    edl_anneal_epochs: int = 10

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("invalid training configuration")
        if not 0.0 < self.context_fraction <= 1.0:
            raise ValueError("context_fraction must lie in (0, 1]")


def _choose_context(xb, yb, fraction, rng):
    """Context subset drawn without replacement within the batch."""
    n_ctx = max(1, int(round(fraction * len(yb))))
    idx = rng.permutation(len(yb))[:n_ctx]
    return xb[idx], yb[idx]


def train(model, ds: LabeledDataset, cfg: TrainConfig, rng: SeededRng):
    """Optimize a model with Adam; returns the per-epoch mean loss trace.

    Each step makes one Adam update of the whole parameter vector.
    """
    state = AdamState()
    params = {FLAT: model.theta}
    n_total = len(ds)
    trace = []
    for epoch in range(cfg.epochs):
        lam = min(1.0, epoch / cfg.edl_anneal_epochs) if cfg.edl_anneal_epochs > 0 else 1.0
        epoch_losses = []
        for b, (xb, yb) in enumerate(batch_iterator(ds, cfg.batch_size, rng, epoch)):
            tape = ad.Tape()
            if model.kind == "bnn":
                loss, leaves = model.loss(tape, xb, yb, rng, n_total,
                                          n_samples=cfg.n_train_samples)
            elif model.kind == "edl":
                loss, leaves = model.loss(tape, xb, yb, lam)
            elif model.kind == "enp":
                cx, cy = _choose_context(xb, yb, cfg.context_fraction, rng)
                loss, leaves = model.loss(tape, xb, yb, cx, cy, rng, n_total)
            elif model.kind == "etp":
                cx, cy = _choose_context(xb, yb, cfg.context_fraction, rng)
                model.memory_update(cx, cy, rng, n_samples=cfg.memory_update_samples)
                loss, leaves = model.free_energy(tape, xb, yb, rng, n_total,
                                                 s_w=cfg.n_train_samples,
                                                 s_z=cfg.n_train_z_samples)
            else:
                raise ValueError(f"unknown model kind: {model.kind}")
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(epoch, b, value)
            grads = backward(loss)
            adam_step(params, {FLAT: grads[leaves[FLAT].node_id]}, state, lr=cfg.lr,
                      beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps)
            epoch_losses.append(value)
        if epoch_losses:
            trace.append(float(np.mean(epoch_losses)))
    return trace


def predict(model, x, rng: SeededRng, n_samples=16, n_samples_z=8):
    """Posterior predictive class probabilities for any model kind."""
    if model.kind == "etp":
        return model.predict(x, rng, n_samples_w=n_samples, n_samples_z=n_samples_z)
    return model.predict(x, rng, n_samples=n_samples)


def make_model(kind, input_dim, num_classes, hidden, rng: SeededRng, **hyper):
    if kind == "bnn":
        return BnnModel(input_dim, num_classes, hidden, rng,
                        beta=hyper.get("beta", 1.0))
    if kind == "edl":
        return EdlModel(input_dim, num_classes, hidden, rng)
    if kind == "enp":
        return EnpModel(input_dim, num_classes, hidden, rng,
                        kappa2=hyper.get("kappa2", 0.1),
                        beta_reg=hyper.get("beta_reg", 0.0),
                        aggregation=hyper.get("aggregation", "mean"))
    if kind == "etp":
        return EtpModel(input_dim, num_classes, hidden, rng,
                        memory_cells=hyper.get("memory_cells", 16),
                        gamma=hyper.get("gamma", 0.9),
                        kappa2=hyper.get("kappa2", 0.1),
                        beta=hyper.get("beta", 1.0),
                        beta_reg=hyper.get("beta_reg", 0.0),
                        combiner=hyper.get("combiner", "residual"),
                        identity_keys=hyper.get("identity_keys", False),
                        update_tanh=hyper.get("update_tanh", True))
    raise ValueError(f"unknown model kind: {kind}")


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(model, path, seed=None, extra_meta=None):
    """npz container: parameter arrays plus a JSON metadata record."""
    arrays = model.trainable()
    meta = {"format_version": CHECKPOINT_VERSION, "kind": model.kind,
            "num_classes": model.num_classes, "seed": seed}
    if extra_meta:
        meta.update(extra_meta)
    if model.kind == "bnn":
        meta["hyper"] = {"beta": model.beta,
                         "hidden": list(model.net.spec.hidden),
                         "input_dim": model.net.spec.in_dim}
    elif model.kind == "edl":
        meta["hyper"] = {"hidden": list(model.net.spec.hidden),
                         "input_dim": model.net.spec.in_dim}
    elif model.kind == "enp":
        meta["hyper"] = {"kappa2": model.kappa2, "beta_reg": model.beta_reg,
                         "aggregation": model.aggregation,
                         "hidden": list(model.embed.spec.hidden),
                         "input_dim": model.embed.spec.in_dim}
    elif model.kind == "etp":
        arrays["__memory__"] = model.memory
        meta["hyper"] = {"memory_cells": model.memory.shape[0], "gamma": model.gamma,
                         "kappa2": model.kappa2, "beta": model.beta,
                         "beta_reg": model.beta_reg, "combiner": model.combiner,
                         "identity_keys": model.identity_keys,
                         "update_tanh": model.update_tanh,
                         "hidden": list(model.encoder.spec.hidden),
                         "input_dim": model.encoder.spec.in_dim}
    else:
        raise ValueError(model.kind)
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **arrays)


def load_checkpoint(path):
    """Model and metadata from a checkpoint; CheckpointError unless the file
    holds exactly the model's arrays, each in the model's shape."""
    with np.load(path) as npz:
        meta = json.loads(bytes(npz["__meta__"]).decode())
        arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version: {meta.get('format_version')}")
    hyper = meta["hyper"]
    kwargs = {k: v for k, v in hyper.items() if k not in ("hidden", "input_dim")}
    model = make_model(meta["kind"], hyper["input_dim"], meta["num_classes"],
                       tuple(hyper["hidden"]), SeededRng(seed=0), **kwargs)
    targets = model.trainable()
    if model.kind == "etp":
        targets["__memory__"] = model.memory
    missing = sorted(set(targets) - set(arrays))
    unknown = sorted(set(arrays) - set(targets))
    if missing or unknown:
        raise CheckpointError(f"checkpoint arrays do not match model kind {model.kind}: "
                              f"missing {missing}, unknown {unknown}")
    for name, arr in arrays.items():
        if arr.shape != targets[name].shape:
            raise CheckpointError(f"checkpoint array '{name}' has shape {arr.shape}, "
                                  f"model expects {targets[name].shape}")
        targets[name][...] = arr
    return model, meta
