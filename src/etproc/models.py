"""The four classifiers of the ablation: BNN, EDL, ENP, and ETP.

Each model has one forward path, built from ``autodiff`` ops. A training
step records it on a tape; prediction, the ETP memory update and the
variance decomposition run the same code untracked, since an op whose
operands are on no tape records nothing. Where draws are independent
(the ETP memory update, the decomposition) the untracked path stacks
them on a leading axis instead of looping over them.

The models share one protocol, so no caller branches on the model kind:

- ``step_loss(tape, xb, yb, rng, cfg, epoch, n_total)`` builds the scalar
  loss of one training step (ETP updates its memory first);
- ``predict(x, rng, n_samples, n_samples_z)`` returns class probabilities;
- ``hyper()`` gives the constructor arguments that rebuild the model, and
  ``checkpoint_arrays()`` the arrays a checkpoint stores;
- ``decompose(x, rng, n_samples)``, on BNN and ETP only, splits the
  predictive variance at one input.

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
import zipfile
from dataclasses import dataclass

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
from .metrics import decompose_cbm, decompose_pbm

LOG_ALPHA_CAP = np.log(1e6)
LOGVAR_INIT = -6.0

FLAT = "theta"  # span name of the whole parameter vector


class CheckpointError(ValueError):
    """A checkpoint file that does not hold the model it describes."""


class TrainingFailed(RuntimeError):
    """Training that produced no model."""


class TrainingDiverged(TrainingFailed):
    """A training step whose loss or gradient is not finite, or that took an
    op outside its domain; ``epoch`` and ``batch`` locate it."""

    def __init__(self, epoch, batch, cause):
        super().__init__(f"{cause} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


# The domain of each model hyperparameter: a test and what it requires.
HYPER_DOMAINS = {
    "memory_cells": (lambda v: v >= 1, "must be >= 1"),
    "gamma": (lambda v: 0.0 < v < 1.0, "retention factor must lie in (0, 1)"),
    "kappa2": (lambda v: v > 0, "must be > 0"),
    "beta": (lambda v: v > 0, "prior precision must be > 0"),
    "beta_reg": (lambda v: v >= 0, "must be >= 0"),
    "combiner": (lambda v: v in ("residual", "direct"), "must be 'residual' or 'direct'"),
    "aggregation": (lambda v: v in ("mean", "attention"), "must be 'mean' or 'attention'"),
}


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


class _Model:
    """Trainables packed into one contiguous vector ``theta``, and the
    parts of the model protocol that every kind shares."""

    HYPER = ()  # constructor arguments beyond the architecture
    clamp_events = 0  # entries the concentration cap has clamped

    def __init__(self, input_dim, num_classes, hidden, **hyper):
        self.check_hyper(hyper)
        self.input_dim = input_dim
        self.num_classes = num_classes
        self.hidden = tuple(hidden)
        vars(self).update(hyper)

    @classmethod
    def check_hyper(cls, hyper):
        """Raise ValueError naming the first ``HYPER`` argument in ``hyper``
        that lies outside its domain."""
        for name in cls.HYPER:
            if name in HYPER_DOMAINS:
                inside, domain = HYPER_DOMAINS[name]
                if not inside(hyper[name]):
                    raise ValueError(f"{name}: {domain}, got {hyper[name]!r}")

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

    def hyper(self):
        """The constructor arguments that rebuild this model."""
        return {"input_dim": self.input_dim, "hidden": list(self.hidden),
                **{name: getattr(self, name) for name in self.HYPER}}

    def checkpoint_arrays(self):
        """Name -> array of everything a checkpoint stores."""
        return self.trainable()

    def _capped_exp(self, raw: Tensor) -> Tensor:
        """exp(min(raw, LOG_ALPHA_CAP)), counting the entries the cap clamps."""
        self.clamp_events += int(np.sum(raw.data >= LOG_ALPHA_CAP))
        return ad.exp(ad.clip_upper(raw, LOG_ALPHA_CAP))


class _Mlp:
    """An MLP's layout: weights named f"{prefix}.W{i}" and f"{prefix}.b{i}"
    by layer, their initial values and the forward pass over them."""

    def __init__(self, spec: MlpSpec, prefix: str):
        self.spec = spec
        self.prefix = prefix
        self.n_layers = len(spec.hidden) + 1

    def _initial_weights(self, rng: SeededRng):
        """Fan-in-scaled uniform weights and biases, layer by layer."""
        dims = [self.spec.in_dim, *self.spec.hidden, self.spec.out_dim]
        weights = {}
        for i in range(self.n_layers):
            bound = 1.0 / np.sqrt(dims[i])
            weights[f"{self.prefix}.W{i}"] = rng.uniform(-bound, bound, size=(dims[i], dims[i + 1]))
            weights[f"{self.prefix}.b{i}"] = rng.uniform(-bound, bound, size=dims[i + 1])
        return weights

    def forward(self, x, weights) -> Tensor:
        """Forward pass under the named weights, which may lead with a stack axis."""
        h = as_tensor(x)
        for i in range(self.n_layers):
            h = ad.add(ad.matmul(h, weights[f"{self.prefix}.W{i}"]),
                       weights[f"{self.prefix}.b{i}"])
            if i < self.n_layers - 1:
                h = ad.relu(h) if self.spec.activation == "relu" else ad.tanh(h)
        return h


class DeterministicMlp(_Mlp):
    """Point-estimate MLP; weights live in a flat name->array dict."""

    def __init__(self, spec: MlpSpec, rng: SeededRng, prefix: str):
        super().__init__(spec, prefix)
        self.params = self._initial_weights(rng)

    def forward(self, x, leaves=None) -> Tensor:
        return super().forward(x, leaves or self.params)


class VariationalMlp(_Mlp):
    """Mean-field Gaussian posterior over MLP weights.

    Means are fan-in-scaled uniform; log-variances start at -6 so the
    network is near-deterministic early in training.
    """

    def __init__(self, spec: MlpSpec, rng: SeededRng, prefix: str):
        super().__init__(spec, prefix)
        self.means = self._initial_weights(rng)
        self.logvars = {f"{name}.logvar": np.full_like(m, LOGVAR_INIT)
                        for name, m in self.means.items()}
        self.n_weights = sum(m.size for m in self.means.values())

    def groups(self):
        """The means and the log-variances, as two blocks of ``theta``."""
        return {f"{self.prefix}.means": self.means, f"{self.prefix}.logvars": self.logvars}

    def sampled_weights(self, params, eps):
        """Reparameterized weights mean + exp(logvar/2) * eps, one record per
        array. ``eps`` is the noise of all arrays, (n_weights,), or of S
        stacked draws, (S, n_weights), which gives stacked weights."""
        stack = eps.shape[:-1]
        weights = {}
        start = 0
        for name, m in self.means.items():
            stop = start + m.size
            weights[name] = gaussian_reparam(params[name], params[f"{name}.logvar"],
                                             eps[..., start:stop].reshape(*stack, *m.shape))
            start = stop
        return weights

    def kl_to_prior(self, leaves, beta: float) -> Tensor:
        """KL of the whole posterior to the N(0, 1/beta I) prior."""
        return gaussian_kl_diag(leaves[f"{self.prefix}.means"],
                                leaves[f"{self.prefix}.logvars"],
                                0.0, float(np.log(1.0 / beta)))


def _onehot(labels, k):
    labels = np.asarray(labels)
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _nll_rows(probs: Tensor, labels) -> Tensor:
    """Differentiable -log p_y per row, shape (N, 1)."""
    return ad.scale(-1.0, ad.take_labels(ad.log(probs), labels))


def _choose_context(xb, yb, fraction, rng):
    """Context subset drawn without replacement within the batch."""
    n_ctx = max(1, int(round(fraction * len(yb))))
    idx = rng.permutation(len(yb))[:n_ctx]
    return xb[idx], yb[idx]


# ---------------------------------------------------------------------------
# BNN


class BnnModel(_Model):
    kind = "bnn"
    HYPER = ("beta",)

    def __init__(self, input_dim, num_classes, hidden, rng, beta=1.0):
        super().__init__(input_dim, num_classes, hidden, beta=beta)
        self.net = VariationalMlp(MlpSpec(input_dim, self.hidden, num_classes), rng, "net")
        self._pack(self.net.groups())

    def _probs(self, x: Tensor, params, eps) -> Tensor:
        return ad.softmax_rows(self.net.forward(x, self.net.sampled_weights(params, eps)))

    def loss(self, tape, xb, yb, rng, n_total, n_samples=1):
        leaves = self.leaves(tape)
        x = as_tensor(xb)
        acc = None
        for _ in range(n_samples):
            probs = self._probs(x, leaves, rng.normal(size=self.net.n_weights))
            term = ad.tmean(_nll_rows(probs, yb))
            acc = term if acc is None else ad.add(acc, term)
        nll = ad.scale(1.0 / n_samples, acc)
        kl = self.net.kl_to_prior(leaves, self.beta)
        # per-example ELBO: batch-mean NLL pairs with KL / dataset-size
        loss = ad.add(nll, ad.scale(1.0 / n_total, kl))
        return loss, leaves

    def step_loss(self, tape, xb, yb, rng, cfg, epoch, n_total):
        return self.loss(tape, xb, yb, rng, n_total, n_samples=cfg.n_train_samples)

    def predict(self, x, rng, n_samples=16, n_samples_z=8):
        x = as_tensor(np.atleast_2d(x))
        params = self.trainable()
        acc = np.zeros((x.shape[0], self.num_classes))
        for _ in range(n_samples):
            acc += self._probs(x, params, rng.normal(size=self.net.n_weights)).data
        return acc / n_samples

    def decompose(self, x, rng, n_samples):
        """Two-term variance split at one input x, (1, D), over n_samples
        weight draws, stacked."""
        eps = rng.normal(size=(n_samples, self.net.n_weights))
        probs = self._probs(as_tensor(x), self.trainable(), eps).data  # (S, 1, K)
        return decompose_pbm(lambda s: probs[s, 0], n_samples)


# ---------------------------------------------------------------------------
# EDL


class EdlModel(_Model):
    kind = "edl"

    def __init__(self, input_dim, num_classes, hidden, rng):
        super().__init__(input_dim, num_classes, hidden)
        self.net = DeterministicMlp(MlpSpec(input_dim, self.hidden, num_classes), rng, "net")
        self._pack({"net": self.net.params})

    def _alpha(self, x: Tensor, leaves=None) -> Tensor:
        return self._capped_exp(self.net.forward(x, leaves))

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
        per = self.per_sample_terms(alpha, yb)
        loss = ad.tmean(ad.add(per["sq"], ad.scale(lam, per["kl"])))
        return loss, leaves

    def step_loss(self, tape, xb, yb, rng, cfg, epoch, n_total):
        lam = min(1.0, epoch / cfg.edl_anneal_epochs) if cfg.edl_anneal_epochs > 0 else 1.0
        return self.loss(tape, xb, yb, lam)

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
        per = self.per_sample_terms(self._alpha(as_tensor(np.atleast_2d(x))), y)
        return (per["sq"].data + lam * per["kl"].data).ravel()

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

    def predict(self, x, rng=None, n_samples=16, n_samples_z=8):
        alpha = self._alpha(as_tensor(np.atleast_2d(x))).data
        return alpha / alpha.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# ETP


class EtpModel(_Model):
    kind = "etp"
    HYPER = ("memory_cells", "gamma", "kappa2", "beta", "beta_reg", "combiner",
             "identity_keys", "update_tanh")

    def __init__(self, input_dim, num_classes, hidden, rng,
                 memory_cells=16, gamma=0.9, kappa2=0.1, beta=1.0, beta_reg=0.0,
                 combiner="residual", identity_keys=False, update_tanh=True):
        super().__init__(input_dim, num_classes, hidden, memory_cells=memory_cells, gamma=gamma,
                         kappa2=kappa2, beta=beta, beta_reg=beta_reg, combiner=combiner,
                         identity_keys=identity_keys, update_tanh=update_tanh)
        self.encoder = VariationalMlp(MlpSpec(input_dim, self.hidden, num_classes), rng, "enc")
        if identity_keys:
            self.keynet = None
        else:
            self.keynet = DeterministicMlp(MlpSpec(num_classes, (), num_classes), rng, "key")
        self.memory = np.zeros((memory_cells, num_classes))
        groups = self.encoder.groups()
        if self.keynet is not None:
            groups["key"] = self.keynet.params
        self._pack(groups)

    def checkpoint_arrays(self):
        return {**self.trainable(), "__memory__": self.memory}

    # -- attention / concentration ------------------------------------------

    def attend(self, v: Tensor, z, leaves=None):
        """Attention of embeddings v, (N, K), over a memory draw z, (R, K).
        Either may lead with a stack axis of S draws."""
        zc = as_tensor(z)
        keys = zc if self.keynet is None else self.keynet.forward(zc, leaves)
        scores = ad.scale(1.0 / np.sqrt(self.num_classes),
                          ad.matmul(v, ad.transpose(keys)))
        phi = ad.softmax_rows(scores)
        return phi, ad.matmul(phi, zc)

    def _evidence(self, read: Tensor) -> Tensor:
        """The memory's share of the log-concentration."""
        return ad.tanh(read) if self.combiner == "residual" else read

    def concentration(self, v: Tensor, z, leaves=None) -> Tensor:
        """Dirichlet concentrations for embeddings v under memory draw z."""
        _, read = self.attend(v, z, leaves)
        evidence = self._evidence(read)
        return self._capped_exp(ad.add(v, evidence) if self.combiner == "residual" else evidence)

    def draw_memory(self, rng: SeededRng, n_draws=None):
        """A memory draw M + sqrt(kappa2) * noise, (R, K), or a stack of
        n_draws of them, (S, R, K), from one call to the stream."""
        shape = self.memory.shape if n_draws is None else (n_draws, *self.memory.shape)
        return self.memory + np.sqrt(self.kappa2) * rng.normal(size=shape)

    # -- memory update (gradient-detached) ----------------------------------

    def memory_update(self, ctx_x, ctx_y, rng: SeededRng, n_samples=8):
        """Explicit retention/update rule, on all n_samples memory draws at
        once; it runs untracked, outside the tape."""
        ctx_y = np.asarray(ctx_y, dtype=np.int64)
        if len(ctx_y) and (ctx_y.min() < 0 or ctx_y.max() >= self.num_classes):
            raise ValueError("context labels outside [0, K)")
        z = self.draw_memory(rng, n_samples)                      # (S, R, K)
        contrib = np.zeros_like(z)
        if len(ctx_y):
            v = self.encoder.forward(as_tensor(np.atleast_2d(ctx_x)), self.encoder.means)
            info = _onehot(ctx_y, self.num_classes) + ad.softmax_rows(v).data
            phi, _ = self.attend(v, z)                             # (S, C, R)
            contrib = np.swapaxes(phi.data, -1, -2) @ info         # (S, R, K)
        update = self.gamma * self.memory + (1.0 - self.gamma) * contrib
        self.memory = (np.tanh(update) if self.update_tanh else update).sum(axis=0) / n_samples
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
            weights = self.encoder.sampled_weights(leaves, rng.normal(size=self.encoder.n_weights))
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
        return ad.add(expected, ad.scale(1.0 / n_total, kl)), leaves

    def step_loss(self, tape, xb, yb, rng, cfg, epoch, n_total):
        cx, cy = _choose_context(xb, yb, cfg.context_fraction, rng)
        self.memory_update(cx, cy, rng, n_samples=cfg.memory_update_samples)
        return self.free_energy(tape, xb, yb, rng, n_total,
                                s_w=cfg.n_train_samples, s_z=cfg.n_train_z_samples)

    # -- prediction ---------------------------------------------------------

    def predict(self, x, rng, n_samples=16, n_samples_z=8):
        """Mean class probabilities over n_samples weight draws, each with
        n_samples_z memory draws; one draw at a time bounds the memory."""
        x = as_tensor(np.atleast_2d(x))
        params = self.trainable()
        acc = np.zeros((x.shape[0], self.num_classes))
        for _ in range(n_samples):
            eps = rng.normal(size=self.encoder.n_weights)
            v = self.encoder.forward(x, self.encoder.sampled_weights(params, eps))
            for _ in range(n_samples_z):
                alpha = self.concentration(v, self.draw_memory(rng)).data
                acc += alpha / alpha.sum(axis=1, keepdims=True)
        return acc / (n_samples * n_samples_z)

    def decompose(self, x, rng, n_samples):
        """Three-term variance split at one input x, (1, D), over n_samples
        stacked draws of the weights and the memory. One block of noise
        holds them all; its rows keep each draw's stream order, weights
        first, then memory."""
        n_w = self.encoder.n_weights
        noise = rng.normal(size=(n_samples, n_w + self.memory.size))
        weights = self.encoder.sampled_weights(self.trainable(), noise[:, :n_w])
        z = self.memory + np.sqrt(self.kappa2) * noise[:, n_w:].reshape(
            n_samples, *self.memory.shape)
        alpha = self.concentration(self.encoder.forward(as_tensor(x), weights), z).data
        return decompose_cbm(lambda s: alpha[s, 0], n_samples)

    def memory_evidence(self, x, rng, n_samples=10):
        """Mean memory-induced evidence per class at the given inputs.

        For the residual combiner this is the additive tanh(read) term;
        for the direct combiner it is the raw attention read.
        """
        v = self.encoder.forward(as_tensor(np.atleast_2d(x)), self.encoder.means)
        _, read = self.attend(v, self.draw_memory(rng, n_samples))
        return self._evidence(read).data.sum(axis=0) / n_samples


# ---------------------------------------------------------------------------
# ENP


class EnpModel(_Model):
    kind = "enp"
    HYPER = ("kappa2", "beta_reg", "aggregation")

    def __init__(self, input_dim, num_classes, hidden, rng,
                 kappa2=0.1, beta_reg=0.0, aggregation="mean"):
        super().__init__(input_dim, num_classes, hidden, kappa2=kappa2, beta_reg=beta_reg,
                         aggregation=aggregation)
        k = num_classes
        self.embed = DeterministicMlp(MlpSpec(input_dim, self.hidden, k), rng, "emb")
        self.encoder = DeterministicMlp(MlpSpec(input_dim + k, self.hidden, 2 * k), rng, "ctx")
        self.head = DeterministicMlp(MlpSpec(2 * k, self.hidden, k), rng, "head")
        # constant selectors splitting encoder output into (mu, logvar)
        eye = np.eye(k)
        self._sel_mu = np.vstack([eye, np.zeros((k, k))])
        self._sel_lv = np.vstack([np.zeros((k, k)), eye])
        self._pack({"emb": self.embed.params, "ctx": self.encoder.params,
                    "head": self.head.params})

    def _alpha(self, e: Tensor, z, leaves=None) -> Tensor:
        return self._capped_exp(self.head.forward(ad.concat([e, z], axis=1), leaves))

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

    def step_loss(self, tape, xb, yb, rng, cfg, epoch, n_total):
        cx, cy = _choose_context(xb, yb, cfg.context_fraction, rng)
        return self.loss(tape, xb, yb, cx, cy, rng, n_total)

    def _kl_rows_to_pred_prior(self, mu: Tensor, lv: Tensor) -> Tensor:
        """Mean per-target KL(N(mu, e^lv) || N(1, kappa^2 I))."""
        n, k = mu.shape
        lp = float(np.log(self.kappa2))
        diff = ad.sub(mu, np.full((n, k), 1.0))
        quad = ad.scale(1.0 / self.kappa2, ad.add(ad.exp(lv), ad.mul(diff, diff)))
        inner = ad.sub(ad.add(quad, np.full((n, k), lp - 1.0)), lv)
        per_row = ad.scale(0.5, ad.sum_rows(inner))
        return ad.tmean(per_row)

    def predict(self, x, rng, n_samples=16, n_samples_z=8):
        """Prediction-time path: Z ~ N(1, kappa^2 I), no context set."""
        e = self.embed.forward(as_tensor(np.atleast_2d(x)))
        acc = np.zeros(e.shape)
        for _ in range(n_samples):
            z = 1.0 + np.sqrt(self.kappa2) * rng.normal(size=self.num_classes)
            alpha = self._alpha(e, np.broadcast_to(z, e.shape)).data
            acc += alpha / alpha.sum(axis=1, keepdims=True)
        return acc / n_samples


MODEL_CLASSES = {cls.kind: cls for cls in (BnnModel, EdlModel, EnpModel, EtpModel)}
MODEL_KINDS = tuple(MODEL_CLASSES)


def make_model(kind, input_dim, num_classes, hidden, rng: SeededRng, **hyper):
    """A new model of the given kind; ``hyper`` holds some of the arguments
    its class names in ``HYPER``."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind: {kind}")
    return MODEL_CLASSES[kind](input_dim, num_classes, hidden, rng, **hyper)


# ---------------------------------------------------------------------------
# training loop and predict dispatch


@dataclass
class TrainConfig:
    """The training keys, each with its default; construction checks them."""

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
        """Raise ValueError naming the first training key outside its domain."""
        for key, low in (("epochs", 0), ("batch_size", 1), ("n_train_samples", 1),
                         ("n_train_z_samples", 1), ("memory_update_samples", 1)):
            if getattr(self, key) < low:
                raise ValueError(f"{key}: must be >= {low}")
        if self.lr <= 0:
            raise ValueError("lr: must be > 0")
        if not 0.0 < self.context_fraction <= 1.0:
            raise ValueError("context_fraction: must lie in (0, 1]")


def train(model, ds: LabeledDataset, cfg: TrainConfig, rng: SeededRng):
    """Optimize a model with Adam; returns the per-epoch mean loss trace.

    Each step makes one Adam update of the whole parameter vector. A step
    whose loss or gradient is not finite, or that takes an op outside its
    domain (a log of 0, a Dirichlet concentration of 0), raises
    TrainingDiverged.
    """
    state = AdamState()
    params = {FLAT: model.theta}
    n_total = len(ds)
    trace = []
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for b, (xb, yb) in enumerate(batch_iterator(ds, cfg.batch_size, rng, epoch)):
            try:
                loss, leaves = model.step_loss(ad.Tape(), xb, yb, rng, cfg, epoch, n_total)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise FloatingPointError(f"non-finite loss {value}")
                grads = backward(loss)
                adam_step(params, {FLAT: grads[leaves[FLAT].node_id]}, state, lr=cfg.lr,
                          beta1=cfg.adam_beta1, beta2=cfg.adam_beta2, eps=cfg.adam_eps)
            except (FloatingPointError, ad.DomainError) as exc:
                raise TrainingDiverged(epoch, b, exc) from exc
            epoch_losses.append(value)
        if epoch_losses:
            trace.append(float(np.mean(epoch_losses)))
    return trace


def predict(model, x, rng: SeededRng, n_samples=16, n_samples_z=8):
    """Posterior predictive class probabilities for any model kind."""
    return model.predict(x, rng, n_samples, n_samples_z)


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_VERSION = 1


def save_checkpoint(model, path, seed=None, extra_meta=None):
    """npz container: parameter arrays plus a JSON metadata record."""
    meta = {"format_version": CHECKPOINT_VERSION, "kind": model.kind,
            "num_classes": model.num_classes, "seed": seed, **(extra_meta or {}),
            "hyper": model.hyper()}
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             **model.checkpoint_arrays())


def load_checkpoint(path):
    """Model and metadata from a checkpoint; CheckpointError unless the file
    is an npz archive with a metadata record that holds exactly the model's
    arrays, each in the model's shape."""
    try:
        npz = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise CheckpointError(f"checkpoint {path} is not an npz archive")
    with npz:
        if "__meta__" not in npz.files:
            raise CheckpointError(f"checkpoint {path} has no __meta__ record")
        meta = json.loads(bytes(npz["__meta__"]).decode())
        arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version: {meta.get('format_version')}")
    try:
        hyper = dict(meta["hyper"])
        model = make_model(meta["kind"], hyper.pop("input_dim"), meta["num_classes"],
                           tuple(hyper.pop("hidden")), SeededRng(seed=0), **hyper)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} has bad metadata: {exc!r}") from exc
    targets = model.checkpoint_arrays()
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
