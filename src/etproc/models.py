"""The four classifiers of the ablation: BNN, EDL, ENP, and ETP.

Each model has one forward path, built from ``autodiff`` ops. A training
step records it on a tape; prediction, the ETP memory update and the
variance decomposition run the same code untracked, since an op whose
operands are on no tape records nothing. Past the networks, where a
training loss folds the softmax or the capped exp into its one record,
those paths call the array functions ``autodiff.softmax_rows`` and
``distributions.capped_exp``. Where draws are independent
(the ETP memory update, the decomposition, and the weight draws of
prediction on wide inputs) the untracked path stacks them on a leading
axis instead of looping over them. Prediction stacks its weight draws in
chunks no larger than the input allows (``VariationalMlp.chunks``), so
their first layer is one GEMM over the input (``autodiff.mlp``); a chunk
of one draw runs unstacked. ENP's prediction
fills its head input [e, z] once and refills only z per draw, where its
training step concatenates the two on the tape. ETP's memory read
and ENP's attention aggregation are one ``autodiff.attention`` record,
whose softmax reduces over the memory (context) axis; the Dirichlet mean
that prediction takes sums in NumPy's order too (``autodiff.row_sum``).

The models share one protocol, so no caller branches on the model kind:

- ``step_loss(leaves, xb, yb, rng, cfg, epoch, n_total)`` builds the
  scalar loss of one training step (ETP updates its memory first);
- ``draws(x, rng, n_samples, n_samples_z)`` yields class probabilities,
  one (N, K) array per posterior draw, which ``predict`` averages;
- ``hyper()`` gives the constructor arguments that rebuild the model, and
  ``checkpoint_arrays()`` the arrays a checkpoint stores;
- ``decompose(x, rng, n_samples)``, on BNN and ETP only, splits the
  predictive variance at one input.

Each model keeps its trainables in one contiguous float64 vector,
``theta``; ``spans`` locates every array, each network's block of arrays
and the whole vector (``FLAT``) in it. ``params`` holds an untracked view
into ``theta`` per span, and ``train`` puts the blocks and the whole
vector (``blocks``) on each step's tape (``Tape.flat_leaves``): the
gradient arrives as one flat vector and Adam updates ``theta`` in one
call. The networks are layouts, and every forward pass takes its weights:
the tape leaves in training, ``params`` elsewhere. Every diagonal Gaussian
is one tensor packed as [mean | logvar] on its last axis: a variational
network's block holds its means, under the plain weight names, then their
log-variances, so its weight KL is one tape record, and each network, its
weight draw included, is one ``autodiff.mlp`` record over its block. ENP's
latent read is packed the same way, and its draw and KL take it whole. BNN's
NLL is one ``autodiff.softmax_nll`` record. The evidential losses start
from the raw log-concentrations, capped at ``LOG_ALPHA_CAP`` inside them:
EDL's is one ``distributions.edl_loss`` record, and ENP's and ETP's
expected Dirichlet NLL is one ``distributions.evidential_nll`` record.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor, adam_step, as_tensor, backward
from .data import LabeledDataset, batch_iterator
# perfbench's tracer wraps the three Dirichlet primitives on this module by name
from .distributions import (
    SeededRng,
    capped_exp,
    dirichlet_expected_log_prob_rows,
    dirichlet_kl_rows,
    dirichlet_moments_rows,
    edl_loss,
    evidential_nll,
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


@dataclass
class ModelConfig:
    """The model keys, each with its default; construction checks them."""

    hidden: tuple = (32,)  # hidden layer widths; () makes a linear net
    memory_cells: int = 16
    gamma: float = 0.9
    kappa2: float = 0.1
    beta: float = 1.0
    beta_reg: float = 0.0
    aggregation: str = "mean"
    simplified: bool = False  # ETP: identity attention keys, no tanh in the memory write

    def __post_init__(self):
        """Raise ValueError naming the first model key outside its domain."""
        for key, inside, domain in (
                ("hidden", all(h >= 1 for h in self.hidden), "layer widths must be positive"),
                ("memory_cells", self.memory_cells >= 1, "must be >= 1"),
                ("gamma", 0.0 < self.gamma < 1.0, "retention factor must lie in (0, 1)"),
                ("kappa2", self.kappa2 > 0, "must be > 0"),
                ("beta", self.beta > 0, "prior precision must be > 0"),
                ("beta_reg", self.beta_reg >= 0, "must be >= 0"),
                ("aggregation", self.aggregation in ("mean", "attention"),
                 "must be 'mean' or 'attention'"),
                ("simplified", isinstance(self.simplified, bool), "must be true or false")):
            if not inside:
                raise ValueError(f"{key}: {domain}, got {getattr(self, key)!r}")


@dataclass
class TrainConfig:
    """The training keys, each with its default; construction checks them."""

    epochs: int = 400
    batch_size: int = 64
    lr: float = 0.001
    context_fraction: float = 0.25
    memory_update_samples: int = 8
    edl_anneal_epochs: int = 10

    def __post_init__(self):
        """Raise ValueError naming the first training key outside its domain."""
        for key, low in (("epochs", 0), ("batch_size", 1), ("memory_update_samples", 1),
                         ("edl_anneal_epochs", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key}: must be >= {low}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr: must be finite and > 0, got {self.lr!r}")
        if not 0.0 < self.context_fraction <= 1.0:
            raise ValueError("context_fraction: must lie in (0, 1]")


MODEL_KEYS = tuple(f.name for f in fields(ModelConfig))
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


class _Model:
    """Trainables packed into one contiguous vector ``theta``, and the
    parts of the model protocol that every kind shares."""

    HYPER = ()  # the model keys this kind reads, beyond hidden
    clamp_events = 0  # entries the concentration cap has clamped

    def __init__(self, input_dim, num_classes, hidden, **keys):
        """Set the ``HYPER`` model keys from ``keys``, or from the ModelConfig
        defaults, which check them; a key outside ``HYPER`` raises TypeError."""
        unknown = sorted(set(keys) - set(self.HYPER))
        if unknown:
            raise TypeError(f"{type(self).__name__} got unexpected keyword arguments {unknown}")
        if input_dim < 1 or num_classes < 1:
            raise ValueError("input_dim and num_classes must be positive")
        config = ModelConfig(tuple(hidden), **keys)
        self.input_dim = input_dim
        self.num_classes = num_classes
        vars(self).update({name: getattr(config, name) for name in ("hidden", *self.HYPER)})

    def _pack(self, rng, *nets):
        """Copy the networks' initial weights into ``theta``, a block per
        network in order; ``params`` views it per array, per block and whole,
        and ``blocks`` holds the spans of the blocks and the whole vector."""
        groups = {net.prefix: net.initial_weights(rng) for net in nets}
        self._arrays = [name for arrays in groups.values() for name in arrays]
        self.theta = np.concatenate([a.ravel() for arrays in groups.values()
                                     for a in arrays.values()])
        self.spans = {FLAT: (0, self.theta.size, self.theta.shape)}
        start = 0
        for group, arrays in groups.items():
            group_start = start
            for name, a in arrays.items():
                self.spans[name] = (start, start + a.size, a.shape)
                start += a.size
            self.spans[group] = (group_start, start, (start - group_start,))
        self.blocks = {name: self.spans[name] for name in (FLAT, *groups)}
        self.params = {name: self.theta[start:stop].reshape(shape)
                       for name, (start, stop, shape) in self.spans.items()}

    def trainable(self):
        """The views of ``params`` that hold one array each, in vector order."""
        return {name: self.params[name] for name in self._arrays}

    def hyper(self):
        """The constructor arguments that rebuild this model."""
        return {"input_dim": self.input_dim, "hidden": list(self.hidden),
                **{name: getattr(self, name) for name in self.HYPER}}

    def checkpoint_arrays(self):
        """Name -> array of everything a checkpoint stores."""
        return self.trainable()

    def _count_clamps(self, raw: Tensor):
        """Count the entries of log-concentrations that the cap clamps."""
        self.clamp_events += np.count_nonzero(raw.data >= LOG_ALPHA_CAP)

    def _capped_exp(self, raw: Tensor):
        """exp(min(raw, LOG_ALPHA_CAP)) as an array, counting the entries the cap clamps."""
        self._count_clamps(raw)
        return capped_exp(raw.data, LOG_ALPHA_CAP)[0]

    def _evidential_nll(self, raw: Tensor, yb) -> Tensor:
        """Batch-mean expected NLL of the labels under Dir(alpha) at capped
        log-concentrations ``raw``, plus ``beta_reg`` times the batch-mean KL
        to Dir(1, ..., 1) when it is > 0; one record."""
        self._count_clamps(raw)
        return evidential_nll(raw, yb, LOG_ALPHA_CAP, self.beta_reg)


class _Mlp:
    """A ReLU MLP's layout: the shapes of weights f"{prefix}.W{i}" and
    f"{prefix}.b{i}" by layer, where each layer starts in the network's
    block, their initial values and a forward pass."""

    def __init__(self, dims, prefix: str):
        self.prefix = prefix
        self.n_layers = len(dims) - 1
        self.shapes = {}  # weight name -> shape, in layer order
        self.layout = []  # per layer: (offset in the block, fan_in, fan_out)
        offset = 0
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            self.shapes[f"{prefix}.W{i}"] = (fan_in, fan_out)
            self.shapes[f"{prefix}.b{i}"] = (fan_out,)
            self.layout.append((offset, fan_in, fan_out))
            offset += (fan_in + 1) * fan_out
        self.n_weights = offset

    def initial_weights(self, rng: SeededRng):
        """Fan-in-scaled uniform weights and biases, layer by layer."""
        weights = {}
        for name, shape in self.shapes.items():
            if len(shape) == 2:  # a weight matrix; its bias follows under the same bound
                bound = 1.0 / np.sqrt(shape[0])
            weights[name] = rng.uniform(-bound, bound, size=shape)
        return weights

    def forward(self, x, params) -> Tensor:
        """Forward pass under the network's block of ``params``: one record."""
        return ad.mlp(x, self.layout, params[self.prefix])


class VariationalMlp(_Mlp):
    """Mean-field Gaussian posterior over MLP weights, one block packed as
    [means | log-variances]. Means are fan-in-scaled uniform; log-variances
    start at -6 so the network is near-deterministic early in training."""

    def initial_weights(self, rng: SeededRng):
        """The means under the weight names, then their log-variances under
        f"{name}.logvar"."""
        means = super().initial_weights(rng)
        return {**means, **{f"{name}.logvar": np.full_like(m, LOGVAR_INIT)
                            for name, m in means.items()}}

    def forward(self, x, params, eps=None) -> Tensor:
        """Forward pass under a weight draw, one record; ``eps`` is the noise
        of one draw, (n_weights,), or of S stacked draws, (S, n_weights).
        Without it, under the means of untracked ``params``."""
        block = params[self.prefix]
        return ad.mlp(x, self.layout, block if eps is not None else block[:self.n_weights], eps)

    def chunks(self, n_draws):
        """The sizes of the chunks in which prediction stacks n_draws weight
        draws: c = max(1, D // H) each, for input width D and first-layer
        width H, and the rest last. A chunk's stacked first-layer output,
        (N, c * H), is then never larger than its input, (N, D)."""
        _, fan_in, fan_out = self.layout[0]
        c = max(1, fan_in // fan_out)
        return [min(c, n_draws - start) for start in range(0, n_draws, c)]

    def kl_to_prior(self, params, beta: float, weight=1.0) -> Tensor:
        """``weight`` times the KL of the whole posterior to the N(0, 1/beta I) prior."""
        return gaussian_kl_diag(params[self.prefix], 0.0, float(np.log(1.0 / beta)), weight)


def _dirichlet_mean(alpha):
    return ad.row_broadcast(np.divide, alpha, ad.row_sum(alpha), np.empty(alpha.shape))


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

    def __init__(self, input_dim, num_classes, hidden, rng, **keys):
        super().__init__(input_dim, num_classes, hidden, **keys)
        self.net = VariationalMlp((input_dim, *self.hidden, num_classes), "net")
        self._pack(rng, self.net)

    def _probs(self, x: Tensor, params, eps):
        return ad.softmax_rows(self.net.forward(x, params, eps).data)

    def loss(self, leaves, xb, yb, rng, n_total):
        """One-draw Monte Carlo estimate of the per-example negative ELBO."""
        logits = self.net.forward(as_tensor(xb), leaves, rng.normal(size=self.net.n_weights))
        nll = ad.softmax_nll(logits, yb)
        # per-example ELBO: batch-mean NLL pairs with KL / dataset-size
        return ad.add(nll, self.net.kl_to_prior(leaves, self.beta, 1.0 / n_total))

    def step_loss(self, leaves, xb, yb, rng, cfg, epoch, n_total):
        return self.loss(leaves, xb, yb, rng, n_total)

    def draws(self, x, rng, n_samples, n_samples_z):
        """Class probabilities under n_samples weight draws, stacked in
        chunks (``VariationalMlp.chunks``), each chunk's noise one block of
        the stream; a chunk of one draw runs unstacked."""
        for c in self.net.chunks(n_samples):
            eps = rng.normal(size=(c, self.net.n_weights))
            probs = self._probs(x, self.params, eps if c > 1 else eps[0])
            yield from probs if c > 1 else probs[None]

    def decompose(self, x, rng, n_samples):
        """Two-term variance split at one input x, (1, D), over n_samples
        weight draws, stacked."""
        eps = rng.normal(size=(n_samples, self.net.n_weights))
        probs = self._probs(as_tensor(x), self.params, eps)  # (S, 1, K)
        return decompose_pbm(probs[:, 0])


# ---------------------------------------------------------------------------
# EDL


class EdlModel(_Model):
    kind = "edl"

    def __init__(self, input_dim, num_classes, hidden, rng):
        super().__init__(input_dim, num_classes, hidden)
        self.net = _Mlp((input_dim, *self.hidden, num_classes), "net")
        self._pack(rng, self.net)

    def loss(self, leaves, xb, yb, lam):
        """Analytic expected squared error plus annealed KL to Dir(1,...,1),
        one ``edl_loss`` record on the network's output.

        The KL acts on the misleading evidence alpha~ = y + (1-y)*alpha, as in
        Sensoy et al. 2018 (arXiv 1806.01768, Eq. 5), so it never penalises
        evidence for the true class.
        """
        if lam < 0:
            raise ValueError("annealing weight must be >= 0")
        raw = self.net.forward(as_tensor(xb), leaves)
        self._count_clamps(raw)
        return edl_loss(raw, yb, lam, LOG_ALPHA_CAP)

    def step_loss(self, leaves, xb, yb, rng, cfg, epoch, n_total):
        lam = min(1.0, epoch / cfg.edl_anneal_epochs) if cfg.edl_anneal_epochs > 0 else 1.0
        return self.loss(leaves, xb, yb, lam)

    def draws(self, x, rng, n_samples, n_samples_z):
        """The Dirichlet mean, once: the network is deterministic."""
        yield _dirichlet_mean(self._capped_exp(self.net.forward(x, self.params)))


# ---------------------------------------------------------------------------
# ETP


class EtpModel(_Model):
    kind = "etp"
    HYPER = ("memory_cells", "gamma", "kappa2", "beta", "beta_reg", "simplified")

    def __init__(self, input_dim, num_classes, hidden, rng, **keys):
        super().__init__(input_dim, num_classes, hidden, **keys)
        self.encoder = VariationalMlp((input_dim, *self.hidden, num_classes), "enc")
        self.keynet = None if self.simplified else _Mlp((num_classes, num_classes), "key")
        self.memory = np.zeros((self.memory_cells, num_classes))
        self._pack(rng, *(net for net in (self.encoder, self.keynet) if net))

    def checkpoint_arrays(self):
        return {**self.trainable(), "__memory__": self.memory}

    # -- attention / concentration ------------------------------------------

    def attend(self, v: Tensor, z, params):
        """The read, a Tensor, and the untracked weights phi, (N, R), of the
        attention of embeddings v, (N, K), over a memory draw z, (R, K).
        Either may lead with a stack axis of S draws."""
        keys = None if self.keynet is None else self.keynet.forward(as_tensor(z), params)
        return ad.attention(v, keys, z, 1.0 / np.sqrt(self.num_classes))

    def log_concentration(self, v: Tensor, z, params) -> Tensor:
        """Uncapped log-concentrations v + tanh(read) for embeddings v under
        memory draw z."""
        read, _ = self.attend(v, z, params)
        return ad.add(v, ad.tanh(read))

    def concentration(self, v: Tensor, z, params):
        """Dirichlet concentrations, an array, for embeddings v under memory draw z."""
        return self._capped_exp(self.log_concentration(v, z, params))

    def draw_memory(self, rng: SeededRng, n_draws=None):
        """A memory draw M + sqrt(kappa2) * noise, (R, K), or a stack of
        n_draws of them, (S, R, K), from one call to the stream."""
        shape = self.memory.shape if n_draws is None else (n_draws, *self.memory.shape)
        return self.memory + np.sqrt(self.kappa2) * rng.normal(size=shape)

    def _draw_noise(self, rng: SeededRng, n_draws, n_z):
        """The noise of n_draws weight draws, (S, n_weights), and their n_z
        memory draws each, (S, n_z, R, K), from one block of the stream. Each
        row keeps a draw's serial stream order: its weights, then its memory
        draws in turn."""
        n_w = self.encoder.n_weights
        noise = rng.normal(size=(n_draws, n_w + n_z * self.memory.size))
        return noise[:, :n_w], self.memory + np.sqrt(self.kappa2) * noise[:, n_w:].reshape(
            n_draws, n_z, *self.memory.shape)

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
            v = self.encoder.forward(as_tensor(np.atleast_2d(ctx_x)), self.params)
            info = np.eye(self.num_classes)[ctx_y] + ad.softmax_rows(v.data)
            _, phi = self.attend(v, z, self.params)                # (S, C, R)
            contrib = np.swapaxes(phi, -1, -2) @ info              # (S, R, K)
        update = self.gamma * self.memory + (1.0 - self.gamma) * contrib
        self.memory = (update if self.simplified else np.tanh(update)).sum(axis=0) / n_samples
        return self.memory

    # -- objective ----------------------------------------------------------

    def free_energy(self, leaves, xb, yb, rng, n_total):
        """Variational free energy from one weight draw and one memory draw;
        memory treated as constant."""
        v = self.encoder.forward(as_tensor(np.atleast_2d(xb)), leaves,
                                 rng.normal(size=self.encoder.n_weights))
        enll = self._evidential_nll(self.log_concentration(v, self.draw_memory(rng), leaves), yb)
        return ad.add(enll, self.encoder.kl_to_prior(leaves, self.beta, 1.0 / n_total))

    def step_loss(self, leaves, xb, yb, rng, cfg, epoch, n_total):
        cx, cy = _choose_context(xb, yb, cfg.context_fraction, rng)
        self.memory_update(cx, cy, rng, n_samples=cfg.memory_update_samples)
        return self.free_energy(leaves, xb, yb, rng, n_total)

    # -- prediction ---------------------------------------------------------

    def draws(self, x, rng, n_samples, n_samples_z):
        """Dirichlet means under n_samples weight draws, each with
        n_samples_z memory draws. The weight draws run stacked in chunks
        (``VariationalMlp.chunks``), a chunk of one unstacked, and each
        chunk's noise is one block (``_draw_noise``). The attention runs
        one memory draw at a time, which bounds its (N, R) weights."""
        params = self.params
        for c in self.encoder.chunks(n_samples):
            eps, z = self._draw_noise(rng, c, n_samples_z)
            v = self.encoder.forward(x, params, eps if c > 1 else eps[0]).data
            for v_s, z_s in zip(v if c > 1 else v[None], z):
                v_s = Tensor(v_s)
                for z_j in z_s:
                    yield _dirichlet_mean(self.concentration(v_s, z_j, params))

    def decompose(self, x, rng, n_samples):
        """Three-term variance split at one input x, (1, D), over n_samples
        stacked draws of the weights and the memory, from one block of
        noise (``_draw_noise``)."""
        eps, z = self._draw_noise(rng, n_samples, 1)
        v = self.encoder.forward(x, self.params, eps)
        return decompose_cbm(self.concentration(v, z[:, 0], self.params)[:, 0])

    def memory_evidence(self, x, rng, n_samples=10):
        """Mean memory-induced evidence per class at the given inputs: the
        tanh(read) term of the log-concentration, averaged over n_samples
        memory draws."""
        v = self.encoder.forward(as_tensor(np.atleast_2d(x)), self.params)
        read, _ = self.attend(v, self.draw_memory(rng, n_samples), self.params)
        return np.tanh(read.data).sum(axis=0) / n_samples


# ---------------------------------------------------------------------------
# ENP


class EnpModel(_Model):
    kind = "enp"
    HYPER = ("kappa2", "beta_reg", "aggregation")

    def __init__(self, input_dim, num_classes, hidden, rng, **keys):
        super().__init__(input_dim, num_classes, hidden, **keys)
        k = num_classes
        self.embed = _Mlp((input_dim, *self.hidden, k), "emb")
        self.encoder = _Mlp((input_dim + k, *self.hidden, 2 * k), "ctx")
        self.head = _Mlp((2 * k, *self.hidden, k), "head")
        self._pack(rng, self.embed, self.encoder, self.head)

    def _log_alpha(self, e: Tensor, z, params) -> Tensor:
        return self.head.forward(ad.concat([e, z], axis=1), params)

    def loss(self, leaves, xb, yb, ctx_x, ctx_y, rng, n_total):
        """Expected Dirichlet NLL plus KL(N(mu, e^lv) || N(1, kappa2 I)) / n_total;
        each target row reads [mu | lv] from the context encodings through
        weights phi, uniform 1/C for mean aggregation, or attention keyed by
        the encodings' mu columns."""
        if len(ctx_y) == 0:
            raise ValueError("ENP training requires a non-empty context set")
        n, k, c = len(yb), self.num_classes, len(ctx_y)
        e = self.embed.forward(as_tensor(np.atleast_2d(xb)), leaves)
        ctx_in = np.concatenate([np.atleast_2d(ctx_x), np.eye(k)[ctx_y]], axis=1)
        h = self.encoder.forward(as_tensor(ctx_in), leaves)      # (C, 2K)
        if self.aggregation == "mean":
            read = ad.matmul(np.broadcast_to(1.0 / c, (n, c)), h)  # (N, 2K)
        else:
            read, _ = ad.attention(e, None, h, 1.0 / np.sqrt(k))
        z = gaussian_reparam(read, rng.normal(size=(n, k)))
        enll = self._evidential_nll(self._log_alpha(e, z, leaves), yb)
        return ad.add(enll, gaussian_kl_diag(read, 1.0, float(np.log(self.kappa2)), 1.0 / n_total))

    def step_loss(self, leaves, xb, yb, rng, cfg, epoch, n_total):
        cx, cy = _choose_context(xb, yb, cfg.context_fraction, rng)
        return self.loss(leaves, xb, yb, cx, cy, rng, n_total)

    def draws(self, x, rng, n_samples, n_samples_z):
        """Prediction-time path: Dirichlet means under Z ~ N(1, kappa^2 I), no
        context set. The head's input [e, z], (N, 2K), is one buffer: the
        embedding fills its first K columns once, each draw's z the rest, a
        column at a time on many short rows, which NumPy fills one row at a
        time (``autodiff._short_rows``)."""
        k = self.num_classes
        head_in = np.empty((x.shape[0], 2 * k))
        head_in[:, :k] = self.embed.forward(x, self.params).data
        z_in = head_in[:, k:]
        by_column = ad._short_rows(z_in)
        for _ in range(n_samples):
            z = 1.0 + np.sqrt(self.kappa2) * rng.normal(size=k)
            if by_column:
                for j in range(k):
                    z_in[:, j] = z[j]
            else:
                z_in[...] = z
            alpha = self._capped_exp(self.head.forward(head_in, self.params))
            yield _dirichlet_mean(alpha)


MODEL_CLASSES = {cls.kind: cls for cls in (BnnModel, EdlModel, EnpModel, EtpModel)}
MODEL_KINDS = tuple(MODEL_CLASSES)


def make_model(kind, input_dim, num_classes, hidden, rng: SeededRng, **hyper):
    """A new model of the given kind; ``hyper`` holds some of the arguments
    its class names in ``HYPER``."""
    if kind not in MODEL_CLASSES:
        raise ValueError(f"unknown model kind: {kind}")
    return MODEL_CLASSES[kind](input_dim, num_classes, hidden, rng, **hyper)


# ---------------------------------------------------------------------------
# training loop and predictive mean


def train(model, ds: LabeledDataset, cfg: TrainConfig, rng: SeededRng):
    """Optimize a model with Adam; returns the per-epoch mean loss trace.

    Each step draws the model's noise once and makes one Adam update, at
    Adam's default moment rates and eps, of the whole parameter vector. A
    step whose loss or gradient is not finite, that overflows or forms a NaN
    in any NumPy op, or that takes an op outside its domain (a log of 0, a
    Dirichlet concentration of 0), raises TrainingDiverged.
    """
    state = AdamState(model.theta.shape)
    n_total = len(ds)
    losses = []  # per epoch, each batch's loss
    with np.errstate(over="raise", invalid="raise"):
        for epoch in range(cfg.epochs):
            losses.append([])
            for b, (xb, yb) in enumerate(batch_iterator(ds, cfg.batch_size, rng, epoch)):
                try:
                    leaves = ad.Tape().flat_leaves(model.theta, model.blocks)
                    loss = model.step_loss(leaves, xb, yb, rng, cfg, epoch, n_total)
                    value = float(loss.data)
                    if not math.isfinite(value):
                        raise FloatingPointError(f"non-finite loss {value}")
                    grads = backward(loss)
                    adam_step(model.theta, grads[leaves[FLAT].node_id], state, lr=cfg.lr)
                except (FloatingPointError, ad.DomainError) as exc:
                    raise TrainingDiverged(epoch, b, exc) from exc
                losses[-1].append(value)
    # np.mean's arithmetic (a pairwise sum, one division), outside the raising
    # error state: a sum of finite losses that overflows gives an inf mean
    return [float(np.add.reduce(epoch) / len(epoch)) for epoch in losses if epoch]


def predict(model, x, rng: SeededRng, n_samples=16, n_samples_z=8):
    """Posterior predictive class probabilities for any model kind: the
    model's draws summed in draw order, then divided once by their count."""
    for name, n in (("n_samples", n_samples), ("n_samples_z", n_samples_z)):
        if n < 1:
            raise ValueError(f"{name}: must be >= 1, got {n}")
    draws = model.draws(as_tensor(np.atleast_2d(x)), rng, n_samples, n_samples_z)
    total, count = 0.0, 0
    for count, probs in enumerate(draws, 1):
        total += probs
    return total / count


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
    arrays, each in the model's shape and finite."""
    try:
        npz = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise CheckpointError(f"checkpoint {path} is not an npz archive")
    with npz:
        if "__meta__" not in npz.files:
            raise CheckpointError(f"checkpoint {path} has no __meta__ record")
        try:
            meta = json.loads(bytes(npz["__meta__"]).decode())
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
        except ValueError as exc:  # bad JSON or UTF-8, or a pickled array
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"checkpoint {path} metadata is not a JSON object")
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version: {meta.get('format_version')}")
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
        raise CheckpointError(f"checkpoint {path} arrays do not match model kind {model.kind}: "
                              f"missing {missing}, unknown {unknown}")
    for name, arr in arrays.items():
        if arr.shape != targets[name].shape:
            raise CheckpointError(f"checkpoint {path} array '{name}' has shape {arr.shape}, "
                                  f"model expects {targets[name].shape}")
        targets[name][...] = arr
        if not np.all(np.isfinite(targets[name])):
            raise CheckpointError(f"checkpoint {path} array '{name}' holds a NaN or an inf")
    return model, meta
