"""Tests for the four classifiers: losses against hand-evaluated and
numpy-reimplemented oracles, the memory machinery, training loop
behavior, and checkpoint round-trips.

The NumPy oracles below (``mlp_np``, ``attend_np``, ``etp_alpha_np``,
``enp_loss_np``) reimplement the forward passes independently of the
tensor code."""

import gc
import inspect
import json
import re
import weakref

import numpy as np
import pytest
import scipy.stats

from etproc import autodiff as ad
from etproc import cli
from etproc import models as models_mod
from etproc.autodiff import Tape, as_tensor, backward
from etproc.data import LabeledDataset, gen_two_gaussians
from etproc.distributions import (
    SeededRng,
    dirichlet_expected_log_prob_rows,
    dirichlet_kl_rows,
    edl_terms,
    evidential_nll,
    gaussian_kl_diag,
)
from etproc.harness import ExperimentConfig
from etproc.metrics import decompose_cbm, decompose_pbm
from etproc.models import (
    FLAT,
    LOG_ALPHA_CAP,
    BnnModel,
    CheckpointError,
    EdlModel,
    EnpModel,
    EtpModel,
    ModelConfig,
    TrainConfig,
    TrainingDiverged,
    load_checkpoint,
    make_model,
    predict,
    save_checkpoint,
    train,
)

import unfused as uf


def softmax_np(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def mlp_np(x, weights, prefix, n_layers):
    """NumPy oracle of a ReLU MLP's forward pass."""
    h = np.asarray(x, dtype=np.float64)
    for i in range(n_layers):
        h = h @ weights[f"{prefix}.W{i}"] + weights[f"{prefix}.b{i}"]
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def attend_np(v, keys, z):
    """NumPy oracle of scaled dot-product attention: weights and read."""
    phi = softmax_np(v @ keys.T / np.sqrt(v.shape[-1]))
    return phi, phi @ z


def etp_alpha_np(model, x, z):
    """NumPy oracle of ETP's concentrations at the encoder means under memory z."""
    v = mlp_np(x, model.params, "enc", model.encoder.n_layers)
    keys = z if model.keynet is None else mlp_np(z, model.params, "key", 1)
    _, read = attend_np(v, keys, z)
    return np.exp(np.minimum(v + np.tanh(read), LOG_ALPHA_CAP))


def enp_loss_np(model, xb, yb, cx, cy, eps, n_total):
    """NumPy oracle of ENP's training loss as (data term, KL term), with the
    KL of each target row to N(1, kappa2 I) written out and averaged over
    the rows."""
    k, kappa2 = model.num_classes, model.kappa2
    e = mlp_np(xb, model.params, "emb", model.embed.n_layers)
    h = mlp_np(np.concatenate([cx, np.eye(k)[cy]], axis=1), model.params, "ctx",
               model.encoder.n_layers)
    if model.aggregation == "mean":
        read = np.repeat(h.mean(axis=0, keepdims=True), len(yb), axis=0)
    else:
        read = attend_np(e, h[:, :k], h)[1]
    mu, lv = read[:, :k], read[:, k:]
    raw = mlp_np(np.concatenate([e, mu + np.exp(lv / 2) * eps], axis=1), model.params,
                 "head", model.head.n_layers)
    alpha = np.exp(np.minimum(raw, LOG_ALPHA_CAP))
    enll = -np.mean(dirichlet_expected_log_prob_rows(alpha, yb).data)
    reg = np.mean(dirichlet_kl_rows(alpha, np.ones(k)).data)
    kl_rows = 0.5 * np.sum((np.exp(lv) + (mu - 1.0) ** 2) / kappa2 + np.log(kappa2) - 1.0 - lv,
                           axis=1)
    return enll + model.beta_reg * reg, kl_rows.mean() * len(yb) / n_total


def small_batch(seed=0, n=6, d=2, k=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, k, size=n)


def logvars(model, net):
    """The view of ``theta`` that holds a variational network's
    log-variances, the second half of its packed block."""
    return model.params[net.prefix][net.n_weights:]


def weight_kl(m, lv):
    """KL(N(m, diag exp lv) || N(0, I)) of one weight array."""
    return float(gaussian_kl_diag(np.concatenate([m, lv], axis=-1), 0.0, 0.0).data)


def leaves_of(model):
    """Tape leaves of every span of the model's parameter vector; ``models.train``
    makes those of ``model.blocks``, and the others view the same flat gradient."""
    return Tape().flat_leaves(model.theta, model.spans)


class TestBnn:
    def test_deterministic_limit_matches_plain_nll(self):
        xb, yb = small_batch()
        model = BnnModel(2, 2, (8,), SeededRng(seed=0, stream=2))
        logvars(model, model.net)[...] = -60.0
        loss = model.loss(leaves_of(model), xb, yb, SeededRng(seed=1), n_total=6)
        probs = softmax_np(mlp_np(xb, model.params, "net", model.net.n_layers))
        want_nll = np.mean([-np.log(probs[i, yb[i]]) for i in range(len(yb))])
        kl = sum(weight_kl(m, model.params[f"{name}.logvar"])
                 for name, m in model.trainable().items() if name in model.net.shapes)
        assert float(loss.data) == pytest.approx(want_nll + kl / 6.0, rel=1e-9)

    def test_prior_posterior_reduces_to_expected_nll(self):
        xb, yb = small_batch()
        model = BnnModel(2, 2, (4,), SeededRng(seed=0, stream=2), beta=1.0)
        # q = prior: zero means, unit variances
        model.params["net"][...] = 0.0
        loss = model.loss(leaves_of(model), xb, yb, SeededRng(seed=7), n_total=6)
        # numpy replica of the single weight draw (same rng sequence)
        rng = SeededRng(seed=7)
        eps = {name: rng.normal(size=shape) for name, shape in model.net.shapes.items()}
        h = xb
        for i in range(model.net.n_layers):
            w = eps[f"net.W{i}"]  # mean 0, sd 1
            b = eps[f"net.b{i}"]
            h = h @ w + b
            if i < model.net.n_layers - 1:
                h = np.maximum(h, 0.0)
        probs = softmax_np(h)
        want = np.mean([-np.log(probs[i, yb[i]]) for i in range(len(yb))])
        assert float(loss.data) == pytest.approx(want, rel=1e-12)

    def test_tiny_network_elbo_hand_value(self):
        # one linear layer, one data point: loss = NLL(softmax(xW+b)) + KL/N
        model = BnnModel(1, 2, (), SeededRng(seed=3, stream=2))
        logvars(model, model.net)[...] = -60.0
        x = np.array([[2.0]])
        y = np.array([1])
        loss = model.loss(leaves_of(model), x, y, SeededRng(seed=0), n_total=1)
        logits = x @ model.params["net.W0"] + model.params["net.b0"]
        want_nll = -np.log(softmax_np(logits)[0, y[0]])
        kl = sum(weight_kl(m, np.full_like(m, -60.0))
                 for m in (model.params[name] for name in model.net.shapes))
        assert float(loss.data) == pytest.approx(want_nll + kl, rel=1e-9)

    def test_predict_is_simplex(self):
        model = BnnModel(2, 3, (4,), SeededRng(seed=0, stream=2))
        probs = models_mod.predict(model, np.random.default_rng(0).normal(size=(5, 2)),
                                   SeededRng(seed=0), n_samples=4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0.0)


class TestEdl:
    def make_fixed_alpha_model(self, b_values):
        model = EdlModel(1, len(b_values), (), SeededRng(seed=0, stream=2))
        model.params["net.W0"][...] = 0.0
        model.params["net.b0"][...] = np.log(b_values)
        return model

    def test_predict_dirichlet_mean(self):
        model = self.make_fixed_alpha_model([3.0, 1.0])
        probs = models_mod.predict(model, np.array([[0.5]]), None)
        np.testing.assert_allclose(probs[0], [0.75, 0.25], atol=1e-12)

    def test_uniform_alpha_zero_kl(self):
        model = self.make_fixed_alpha_model([1.0, 1.0])
        alpha = np.exp(mlp_np([[0.0]], model.params, "net", 1))
        _, kl, _ = edl_terms(alpha, [0])
        assert abs(kl.item()) <= 1e-10

    def test_hand_evaluated_squared_error_term(self):
        sq, _, _ = edl_terms(np.array([[2.0, 2.0]]), [0])
        # mean (0.5, 0.5), per-class var = 2*2/(16*5) = 0.05
        assert sq.item() == pytest.approx(0.6, abs=1e-12)

    def test_hand_evaluated_kl_on_misleading_evidence(self):
        _, kl, _ = edl_terms(np.array([[2.0, 2.0]]), [0])
        # alpha~ = (1, 2): KL(Dir(1, 2) || Dir(1, 1)) = ln 2 + psi(2) - psi(3)
        assert kl.item() == pytest.approx(np.log(2.0) - 0.5, abs=1e-12)

    @staticmethod
    def random_terms(k, n_rows=3):
        """Random concentrations in [0.5, 4.5] and labels over k classes, with
        EDL's per-row terms at them."""
        rng = np.random.default_rng(40 + k)
        alpha = np.exp(rng.uniform(-0.7, 1.5, size=(n_rows, k)))
        labels = rng.integers(0, k, size=n_rows)
        sq, kl, _ = edl_terms(alpha, labels)
        return rng, alpha, labels, {"sq": sq[:, 0], "kl": kl[:, 0]}

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_squared_error_term_monte_carlo(self, k):
        # sq = E||y - pi||^2 under pi ~ Dir(alpha), against Dirichlet draws
        rng, alpha, labels, terms = self.random_terms(k)
        n_mc = 200_000
        for a, label, sq in zip(alpha, labels, terms["sq"]):
            pis = rng.dirichlet(a, size=n_mc)
            onehot = np.eye(len(a))[label]
            draws = ((onehot - pis) ** 2).sum(axis=1)
            assert abs(sq - draws.mean()) <= 3 * draws.std() / np.sqrt(n_mc)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kl_term_is_dirichlet_kl_of_misleading_evidence(self, k):
        _, alpha, labels, terms = self.random_terms(k)
        for a, label, kl in zip(alpha, labels, terms["kl"]):
            misleading = a.copy()
            misleading[label] = 1.0
            want = dirichlet_kl_rows(np.atleast_2d(misleading), np.ones(len(a))).data.item()
            assert kl == pytest.approx(want, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_kl_term_monte_carlo_log_density_ratio(self, k):
        # KL(Dir(alpha~) || Dir(1)) = E[log p(pi | alpha~) - log p(pi | 1)],
        # with alpha~ = y + (1 - y) * alpha, by scipy's densities
        rng, alpha, labels, terms = self.random_terms(k)
        n_mc = 200_000
        for a, label, kl in zip(alpha, labels, terms["kl"]):
            misleading = a.copy()
            misleading[label] = 1.0
            pis = rng.dirichlet(misleading, size=n_mc)
            ratio = (scipy.stats.dirichlet.logpdf(pis.T, misleading)
                     - scipy.stats.dirichlet.logpdf(pis.T, np.ones(len(a))))
            assert abs(kl - ratio.mean()) <= 3 * ratio.std() / np.sqrt(n_mc)

    def test_negative_annealing_weight_rejected(self):
        model = EdlModel(1, 2, (), SeededRng(seed=0, stream=2))
        with pytest.raises(ValueError, match=">= 0"):
            model.loss(leaves_of(model), np.array([[0.0]]), np.array([0]), lam=-0.5)

    def test_loss_gradient_finite_differences(self):
        xb, yb = small_batch(seed=5)
        model = EdlModel(2, 2, (4,), SeededRng(seed=2, stream=2))

        def loss_value():
            loss = model.loss(leaves_of(model), xb, yb, lam=0.7)
            return float(loss.data)

        leaves = leaves_of(model)
        loss = model.loss(leaves, xb, yb, lam=0.7)
        grads = backward(loss)
        name = "net.W0"
        analytic = grads[leaves[name].node_id]
        step = 1e-6
        w = model.params[name]
        for idx in [(0, 0), (1, 1)]:
            orig = w[idx]
            w[idx] = orig + step
            up = loss_value()
            w[idx] = orig - step
            dn = loss_value()
            w[idx] = orig
            assert analytic[idx] == pytest.approx((up - dn) / (2 * step), rel=1e-4, abs=1e-8)


class TestAttention:
    @staticmethod
    def attend_one(v, z, key_weights=None):
        """Attention weights and read of one query under EtpModel.attend,
        with identity keys or a linear key map."""
        model = EtpModel(1, z.shape[1], (), SeededRng(seed=0, stream=2),
                         memory_cells=len(z), simplified=key_weights is None)
        if key_weights is not None:
            model.params["key.W0"][...] = key_weights
            model.params["key.b0"][...] = 0.0
        read, phi = model.attend(as_tensor(np.atleast_2d(v)), z, model.params)
        return phi[0], read.data[0]

    def test_single_cell(self):
        z = np.array([[0.3, -0.7]])
        weights, read = self.attend_one(np.array([1.0, 2.0]), z)
        np.testing.assert_allclose(weights, [1.0])
        np.testing.assert_allclose(read, z[0])

    def test_zero_embedding_uniform(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        weights, read = self.attend_one(np.zeros(2), z)
        np.testing.assert_allclose(weights, 1.0 / 3.0)
        np.testing.assert_allclose(read, z.mean(axis=0))

    def test_hand_computed_orthogonal_cells(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        v = np.array([2.0, 1.0])
        weights, read = self.attend_one(v, z)
        scores = np.array([2.0, 1.0]) / np.sqrt(2.0)
        e = np.exp(scores - scores.max())
        want = e / e.sum()
        np.testing.assert_allclose(weights, want, atol=1e-14)
        np.testing.assert_allclose(read, want @ z, atol=1e-14)

    def test_custom_key_fn(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        # keys that swap the two cells' coordinates swap the attention scores
        w_plain, _ = self.attend_one(np.array([2.0, 1.0]), z)
        w_rev, _ = self.attend_one(np.array([2.0, 1.0]), z, key_weights=[[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(w_rev, w_plain[::-1], atol=1e-14)

    def test_read_is_convex_combination(self):
        rng = np.random.default_rng(5)
        model = EtpModel(2, 3, (4,), SeededRng(seed=0, stream=2), memory_cells=6)
        v = rng.normal(size=(10, 3))
        z = rng.normal(size=(6, 3))
        read, phi = model.attend(as_tensor(v), z, model.params)
        np.testing.assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)
        for k in range(3):
            assert np.all(read.data[:, k] >= z[:, k].min() - 1e-12)
            assert np.all(read.data[:, k] <= z[:, k].max() + 1e-12)

    def test_tensor_attend_matches_numpy(self):
        rng = np.random.default_rng(6)
        model = EtpModel(2, 3, (4,), SeededRng(seed=1, stream=2), memory_cells=5)
        v = rng.normal(size=(4, 3))
        z = rng.normal(size=(5, 3))
        read_t, phi_t = model.attend(as_tensor(v), z, leaves_of(model))
        phi_n, read_n = attend_np(v, mlp_np(z, model.params, "key", 1), z)
        np.testing.assert_allclose(phi_t, phi_n, atol=1e-12)
        np.testing.assert_allclose(read_t.data, read_n, atol=1e-12)


class TestEtpConcentration:
    def test_residual_with_zero_memory(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=0, stream=2))
        x = np.array([[0.5], [-1.0]])
        v = model.encoder.forward(as_tensor(x), model.params)
        alpha = model.concentration(v, np.zeros((16, 2)), model.params)
        np.testing.assert_allclose(alpha, np.exp(v.data), atol=1e-12)

    def test_always_positive(self):
        rng = np.random.default_rng(7)
        model = EtpModel(2, 3, (4,), SeededRng(seed=2, stream=2))
        v = rng.normal(size=(20, 3)) * 5.0
        alpha = model.concentration(as_tensor(v), rng.normal(size=(16, 3)), model.params)
        assert np.all(alpha > 0.0)

    def test_overflow_clamped_and_counted(self):
        model = EtpModel(1, 2, (), SeededRng(seed=0, stream=2))
        tape = Tape()
        v = as_tensor(np.array([[50.0, 0.0]]))
        before = model.clamp_events
        alpha = model.concentration(v, np.zeros((16, 2)), model.params)
        assert alpha.max() <= 1e6
        assert model.clamp_events > before

    def test_invalid_hyperparameters(self):
        rng = SeededRng(seed=0, stream=2)
        with pytest.raises(ValueError, match="gamma"):
            EtpModel(1, 2, (4,), rng, gamma=1.5)
        with pytest.raises(ValueError, match="kappa2"):
            EtpModel(1, 2, (4,), rng, kappa2=0.0)


class TestConcentrationCap:
    @pytest.mark.parametrize("kind, bias", [("edl", "net.b0"), ("enp", "head.b0"),
                                            ("etp", "enc.b0")])
    def test_training_loss_counts_clamped_entries(self, kind, bias):
        """The fused training losses count the log-concentrations the cap
        clamps, as the capped exp of prediction does."""
        model = make_model(kind, 2, 3, (), SeededRng(seed=0, stream=2))
        model.params[bias][...] = 50.0
        xb, yb = small_batch(seed=18, k=3)
        before = model.clamp_events
        loss = model.step_loss(leaves_of(model), xb, yb, SeededRng(seed=19), TrainConfig(),
                               5, 6)
        assert np.isfinite(loss.data) and model.clamp_events - before == xb.shape[0] * 3


class TestMemoryUpdate:
    def test_empty_context_retention(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=0, stream=2),
                         memory_cells=3, gamma=0.8, kappa2=1e-20)
        model.memory = np.array([[0.4, -0.2], [0.1, 0.9], [-0.5, 0.3]])
        before = model.memory.copy()
        model.memory_update([], [], SeededRng(seed=1), n_samples=4)
        np.testing.assert_allclose(model.memory, np.tanh(0.8 * before), atol=1e-9)

    def test_retention_limit_ignores_context(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=0, stream=2),
                         memory_cells=2, gamma=1.0 - 1e-12, kappa2=1e-20)
        model.memory = np.array([[0.2, -0.1], [0.05, 0.3]])
        before = model.memory.copy()
        model.memory_update(np.array([[1.0]]), np.array([1]), SeededRng(seed=2),
                            n_samples=4)
        np.testing.assert_allclose(model.memory, np.tanh(before), atol=1e-9)

    def test_single_cell_hand_evaluation(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=3, stream=2),
                         memory_cells=1, gamma=0.9, kappa2=1e-20)
        model.memory = np.array([[0.1, -0.2]])
        ctx_x = np.array([[0.7]])
        ctx_y = np.array([1])
        v = mlp_np(ctx_x, model.params, "enc", model.encoder.n_layers)
        info = np.array([0.0, 1.0]) + softmax_np(v)[0]
        want = np.tanh(0.9 * model.memory + 0.1 * info)  # phi = 1 for R = 1
        model.memory_update(ctx_x, ctx_y, SeededRng(seed=4), n_samples=2)
        np.testing.assert_allclose(model.memory, want, atol=1e-8)

    def test_boundedness_after_many_updates(self):
        rng = np.random.default_rng(8)
        model = EtpModel(2, 3, (4,), SeededRng(seed=5, stream=2), memory_cells=4)
        update_rng = SeededRng(seed=6)
        for _ in range(50):
            model.memory_update(rng.normal(size=(5, 2)) * 3.0,
                                rng.integers(0, 3, size=5), update_rng, n_samples=2)
            assert np.all(model.memory > -1.0) and np.all(model.memory < 1.0)

    def test_simplified_variant_stays_finite(self):
        rng = np.random.default_rng(9)
        model = EtpModel(1, 2, (4,), SeededRng(seed=7, stream=2), simplified=True)
        update_rng = SeededRng(seed=8)
        for _ in range(50):
            model.memory_update(rng.normal(size=(4, 1)), rng.integers(0, 2, size=4),
                                update_rng, n_samples=2)
        assert np.all(np.isfinite(model.memory))

    def test_bad_context_labels_rejected(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=0, stream=2))
        with pytest.raises(ValueError, match="context labels"):
            model.memory_update(np.array([[0.0]]), np.array([5]), SeededRng(seed=0))

    def test_gradient_isolation_bitwise(self):
        xb, yb = small_batch(seed=10, d=1)
        model = EtpModel(1, 2, (4,), SeededRng(seed=9, stream=2))
        leaves = leaves_of(model)
        loss = model.free_energy(leaves, xb, yb, SeededRng(seed=10), n_total=6)
        grads_before = {n: backward(loss)[leaf.node_id].copy()
                        for n, leaf in leaves.items()}
        model.memory_update(xb[:2], yb[:2], SeededRng(seed=11), n_samples=3)
        grads_after = backward(loss)
        for name, leaf in leaves.items():
            assert np.array_equal(grads_before[name], grads_after[leaf.node_id]), name


class TestFreeEnergy:
    def test_deterministic_limit_matches_numpy(self):
        xb, yb = small_batch(seed=12, d=1)
        model = EtpModel(1, 2, (4,), SeededRng(seed=11, stream=2),
                         memory_cells=3, kappa2=1e-20)
        logvars(model, model.encoder)[...] = -60.0
        model.memory = np.random.default_rng(13).normal(size=(3, 2)) * 0.3
        loss = model.free_energy(leaves_of(model), xb, yb, SeededRng(seed=12), n_total=6)
        alpha = etp_alpha_np(model, xb, model.memory)
        want_nll = -np.mean(dirichlet_expected_log_prob_rows(alpha, yb).data)
        kl = sum(weight_kl(m, np.full_like(m, -60.0))
                 for m in (model.params[name] for name in model.encoder.shapes))
        assert float(loss.data) == pytest.approx(want_nll + kl / 6.0, rel=1e-7)

    def test_pi_kl_term_zero_by_default(self):
        # default configuration scores only expected NLL + weight KL; the
        # beta_reg path adds a strictly positive Dirichlet penalty
        xb, yb = small_batch(seed=14, d=1)
        base = EtpModel(1, 2, (4,), SeededRng(seed=13, stream=2))
        reg = EtpModel(1, 2, (4,), SeededRng(seed=13, stream=2), beta_reg=1.0)
        l0 = base.free_energy(leaves_of(base), xb, yb, SeededRng(seed=14), n_total=6)
        l1 = reg.free_energy(leaves_of(reg), xb, yb, SeededRng(seed=14), n_total=6)
        assert float(l1.data) > float(l0.data)

    def test_gradient_finite_differences_frozen_rng(self):
        xb, yb = small_batch(seed=15, d=1)
        model = EtpModel(1, 2, (4,), SeededRng(seed=15, stream=2))
        model.memory = np.random.default_rng(16).normal(size=(16, 2)) * 0.2

        def value():
            loss = model.free_energy(leaves_of(model), xb, yb, SeededRng(seed=16), n_total=6)
            return float(loss.data)

        leaves = leaves_of(model)
        loss = model.free_energy(leaves, xb, yb, SeededRng(seed=16), n_total=6)
        grads = backward(loss)
        step = 1e-6
        for name in ("enc.W0", "enc.b1.logvar"):
            target = model.trainable()[name]
            analytic = grads[leaves[name].node_id]
            idx = (0, 0) if target.ndim == 2 else (0,)
            orig = target[idx]
            target[idx] = orig + step
            up = value()
            target[idx] = orig - step
            dn = value()
            target[idx] = orig
            numeric = (up - dn) / (2 * step)
            assert analytic[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-8), name

    def test_predict_degenerate_limit(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=17, stream=2), kappa2=1e-20)
        logvars(model, model.encoder)[...] = -60.0
        x = np.array([[0.3], [-0.8]])
        probs = models_mod.predict(model, x, SeededRng(seed=18), n_samples=2, n_samples_z=2)
        alpha = etp_alpha_np(model, x, model.memory)
        np.testing.assert_allclose(probs, alpha / alpha.sum(axis=1, keepdims=True),
                                   atol=1e-9)

    def test_memory_evidence_shape(self):
        model = EtpModel(1, 2, (4,), SeededRng(seed=19, stream=2))
        ev = model.memory_evidence(np.array([[3.0], [-3.0]]), SeededRng(seed=20))
        assert ev.shape == (2, 2)
        assert np.all(np.abs(ev) < 1.0)  # the range of tanh


class TestEnp:
    def test_empty_context_rejected(self):
        model = EnpModel(2, 2, (4,), SeededRng(seed=0, stream=2))
        with pytest.raises(ValueError, match="context"):
            model.loss(leaves_of(model), np.zeros((2, 2)), np.array([0, 1]),
                       np.zeros((0, 2)), np.array([], dtype=int),
                       SeededRng(seed=0), n_total=2)

    def test_duplicated_context_matches_single(self):
        xb, yb = small_batch(seed=21)
        model = EnpModel(2, 2, (4,), SeededRng(seed=1, stream=2))
        cx = np.array([[0.5, -0.5]])
        cy = np.array([1])
        l1 = model.loss(leaves_of(model), xb, yb, cx, cy, SeededRng(seed=22), n_total=6)
        l2 = model.loss(leaves_of(model), xb, yb, np.repeat(cx, 3, axis=0),
                        np.repeat(cy, 3), SeededRng(seed=22), n_total=6)
        assert float(l1.data) == pytest.approx(float(l2.data), rel=1e-12)

    def test_attention_single_context_matches_mean(self):
        xb, yb = small_batch(seed=23)
        model = EnpModel(2, 2, (4,), SeededRng(seed=2, stream=2))
        cx = np.array([[1.0, 0.0]])
        cy = np.array([0])
        model.aggregation = "mean"
        l_mean = model.loss(leaves_of(model), xb, yb, cx, cy, SeededRng(seed=24), n_total=6)
        model.aggregation = "attention"
        l_att = model.loss(leaves_of(model), xb, yb, cx, cy, SeededRng(seed=24), n_total=6)
        assert float(l_mean.data) == pytest.approx(float(l_att.data), rel=1e-12)

    def test_prediction_path_uses_unit_prior(self):
        model = EnpModel(2, 3, (4,), SeededRng(seed=3, stream=2), kappa2=1e-20)
        x = np.random.default_rng(25).normal(size=(4, 2))
        probs = models_mod.predict(model, x, SeededRng(seed=26), n_samples=3)
        e = mlp_np(x, model.params, "emb", model.embed.n_layers)
        raw = mlp_np(np.concatenate([e, np.ones((4, 3))], axis=1), model.params, "head",
                     model.head.n_layers)
        alpha = np.exp(np.minimum(raw, LOG_ALPHA_CAP))
        np.testing.assert_allclose(probs, alpha / alpha.sum(axis=1, keepdims=True),
                                   atol=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4, 10])
    @pytest.mark.parametrize("n", [1, 7, 40, 1023, 1024, 10000])
    def test_draws_match_concatenated_head_input(self, n, k):
        """The draws' one head-input buffer gives the Dirichlet means and
        clamp count of the head run per draw on ``concat([e, z])``
        (``_log_alpha``), byte for byte; one bias drives some entries past
        the cap. z fills whole rows, or one column at a time on many short
        rows: at K = 2 from 1024 rows, at K = 3 and 4 at 10000."""
        model = EnpModel(2, k, (32,), SeededRng(seed=4, stream=2), kappa2=0.5)
        model.params["head.b1"][0] = LOG_ALPHA_CAP
        x = np.random.default_rng(27).normal(size=(n, 2)) * 3.0
        x[::5] = -0.0
        got = list(model.draws(as_tensor(x), SeededRng(seed=28), 4, 1))
        rng, want, clamps = SeededRng(seed=28), [], 0
        e = model.embed.forward(as_tensor(x), model.params)
        for _ in range(4):
            z = 1.0 + np.sqrt(model.kappa2) * rng.normal(size=k)
            raw = model._log_alpha(e, np.broadcast_to(z, e.shape), model.params).data
            clamps += np.count_nonzero(raw >= LOG_ALPHA_CAP)
            want.append(models_mod._dirichlet_mean(np.exp(np.minimum(raw, LOG_ALPHA_CAP))))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert model.clamp_events == clamps

    @pytest.mark.parametrize("beta_reg", [0.0, 0.5])
    @pytest.mark.parametrize("aggregation", ["mean", "attention"])
    def test_loss_matches_numpy_oracle(self, aggregation, beta_reg, monkeypatch):
        xb, yb = small_batch(seed=40, k=3)
        model = EnpModel(2, 3, (4,), SeededRng(seed=7, stream=2), beta_reg=beta_reg,
                         aggregation=aggregation)
        kls = []

        def spy(*args):
            kls.append(gaussian_kl_diag(*args))
            return kls[-1]

        monkeypatch.setattr(models_mod, "gaussian_kl_diag", spy)
        loss = model.loss(leaves_of(model), xb, yb, xb[:3], yb[:3], SeededRng(seed=41), n_total=30)
        eps = SeededRng(seed=41).normal(size=(6, 3))
        data_term, kl_term = enp_loss_np(model, xb, yb, xb[:3], yb[:3], eps, n_total=30)
        assert len(kls) == 1  # the KL record carries the ELBO weight 1 / n_total
        assert float(kls[0].data) == pytest.approx(kl_term, rel=1e-12)
        assert float(loss.data) == pytest.approx(data_term + kl_term, rel=1e-12)

    @pytest.mark.parametrize("beta_reg", [0.0, 0.5])
    @pytest.mark.parametrize("aggregation", ["mean", "attention"])
    def test_gradient_finite_differences(self, aggregation, beta_reg):
        xb, yb = small_batch(seed=42, k=3)
        model = EnpModel(2, 3, (4,), SeededRng(seed=8, stream=2), beta_reg=beta_reg,
                         aggregation=aggregation)

        def loss():
            leaves = leaves_of(model)
            return model.loss(leaves, xb, yb, xb[:3], yb[:3], SeededRng(seed=43), n_total=12), leaves

        value, leaves = loss()
        analytic = backward(value)[leaves[FLAT].node_id]
        numeric = np.zeros_like(model.theta)
        step = 1e-6
        for i, orig in enumerate(model.theta.copy()):
            model.theta[i] = orig + step
            up = float(loss()[0].data)
            model.theta[i] = orig - step
            dn = float(loss()[0].data)
            model.theta[i] = orig
            numeric[i] = (up - dn) / (2 * step)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    @staticmethod
    def loss_of_halves(model, leaves, xb, yb, cx, cy, rng, n_total):
        """ENP's loss as the graph that slices the read into mu and lv, and
        the attention keys off the encodings, with ``columns`` records, and
        draws and takes the weighted KL on the two halves."""
        n, k, c = len(yb), model.num_classes, len(cy)
        e = model.embed.forward(as_tensor(xb), leaves)
        h = model.encoder.forward(as_tensor(np.concatenate([cx, np.eye(k)[cy]], axis=1)), leaves)
        if model.aggregation == "mean":
            read = ad.matmul(np.broadcast_to(1.0 / c, (n, c)), h)
        else:
            read, _ = ad.attention(e, uf.columns(h, 0, k), h, 1.0 / np.sqrt(k))
        mu, lv = uf.columns(read, 0, k), uf.columns(read, k, 2 * k)
        z = uf.reparam(mu, lv, rng.normal(size=(n, k)))
        enll = evidential_nll(model._log_alpha(e, z, leaves), yb, LOG_ALPHA_CAP, model.beta_reg)
        prior = np.ones((n, k)), np.full((n, k), np.log(model.kappa2))
        return ad.add(enll, uf.scale(1.0 / n_total, uf.gaussian_kl(mu, lv, *prior)))

    @pytest.mark.parametrize("hyper", [{}, {"aggregation": "attention"}, {"beta_reg": 0.5}],
                             ids=["mean", "attention", "beta_reg"])
    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_loss_and_gradient_match_graph_of_halves(self, n, hyper):
        """The packed read's draw and KL, and attention keyed by the values'
        first K columns, give the loss and flat gradient of the graph of
        halves (``loss_of_halves``) byte for byte, in 9 records."""
        model = EnpModel(2, 3, (8,), SeededRng(seed=9, stream=2), kappa2=0.3, **hyper)
        rng = np.random.default_rng(44)
        xb, yb = rng.normal(size=(n, 2)) * 2.0, rng.integers(0, 3, size=n)
        cx, cy = xb[:max(1, n // 4)], yb[:max(1, n // 4)]
        results = []
        for build in (model.loss, lambda *args: self.loss_of_halves(model, *args)):
            leaves = leaves_of(model)
            loss = build(leaves, xb, yb, cx, cy, SeededRng(seed=45), 50)
            flat = backward(loss)[leaves[FLAT].node_id]
            results.append((loss.data.tobytes(), flat.tobytes(), len(loss.tape._records)))
        (got, got_flat, records), (want, want_flat, _) = results
        assert got == want and got_flat == want_flat and records == 9

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError, match="aggregation"):
            EnpModel(2, 2, (4,), SeededRng(seed=0, stream=2), aggregation="max")


class TestStackedPrediction:
    """BNN's and ETP's prediction stacks its weight draws in chunks of
    max(1, D // H0), a chunk of one as a stack of one, and equals a replica
    that runs one draw at a time under (P,) noise, byte for byte."""

    @staticmethod
    def replica(model, net, x, rng, n_samples, n_samples_z):
        """The draws one weight draw at a time: its noise and network, then
        (ETP) each of its memory draws in turn."""
        for _ in range(n_samples):
            out = net.forward(x, model.params, rng.normal(size=net.n_weights))
            if model.kind == "bnn":
                yield ad.softmax_rows(out.data)
                continue
            for _ in range(n_samples_z):
                z = model.draw_memory(rng)
                yield models_mod._dirichlet_mean(model.concentration(out, z, model.params))

    @pytest.mark.parametrize("d, k, hidden, n, chunks", [
        (784, 10, (32,), 1500, [16]),             # wide: every draw in one chunk
        (784, 10, (), 200, [16]),                 # a linear net: c = 784 // 10
        (100, 3, (32,), 300, [3, 3, 3, 3, 3, 1]),  # an uneven split
        (1, 2, (32,), 500, [1] * 16)],            # one input: c = 1, a stack of one
        ids=["wide", "linear", "uneven", "one-input"])
    @pytest.mark.parametrize("kind, hyper", [
        ("bnn", {}), ("etp", {}), ("etp", {"simplified": True})],
        ids=["bnn", "etp", "etp-simplified"])
    def test_stacked_draws_match_single_draws(self, kind, hyper, d, k, hidden, n, chunks):
        model = make_model(kind, d, k, hidden, SeededRng(seed=6, stream=2), **hyper)
        if kind == "etp":
            model.memory = np.random.default_rng(35).normal(size=model.memory.shape) * 0.3
        net = model.net if kind == "bnn" else model.encoder
        logvars(model, net)[...] = -2.0
        x = as_tensor(np.random.default_rng(36).normal(size=(n, d)))
        x.data[::7] = -0.0
        assert net.chunks(16) == chunks
        got = list(model.draws(x, SeededRng(seed=7), 16, 3))
        want = list(self.replica(model, net, x, SeededRng(seed=7), 16, 3))
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestTapeLifetime:
    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_step_tape_freed_by_reference_counting(self, kind):
        """A step's tape dies with its loss and gradients, without the cycle
        collector: no VJP holds a tracked Tensor, whose tape holds the VJP."""
        model = make_model(kind, 2, 3, (8,), SeededRng(seed=0, stream=2))
        xb, yb = small_batch(seed=50, n=10, k=3)
        gc.collect()
        gc.disable()
        try:
            tape = Tape()
            alive = weakref.ref(tape)
            leaves = tape.flat_leaves(model.theta, model.blocks)
            loss = model.step_loss(leaves, xb, yb, SeededRng(seed=51), TrainConfig(), 0, 10)
            grads = backward(loss)
            del tape, leaves, loss, grads
            assert alive() is None
        finally:
            gc.enable()


class TestPredictDispatch:
    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_simplex_output(self, kind):
        hyper = {"simplified": True} if kind == "etp" else {}
        model = make_model(kind, 2, 3, (4,), SeededRng(seed=4, stream=2), **hyper)
        x = np.random.default_rng(27).normal(size=(7, 2)) * 4.0
        probs = predict(model, x, SeededRng(seed=5), n_samples=3, n_samples_z=2)
        assert probs.shape == (7, 3)
        assert np.all(probs >= 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            make_model("gp", 2, 2, (4,), SeededRng(seed=0, stream=2))

    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    @pytest.mark.parametrize("name", ["n_samples", "n_samples_z"])
    def test_no_draws_rejected(self, kind, name):
        """A predictive mean over no draws is a ValueError that names the
        count, for every kind, not a ZeroDivisionError."""
        model = make_model(kind, 2, 3, (4,), SeededRng(seed=4, stream=2))
        with pytest.raises(ValueError, match=f"^{name}: must be >= 1"):
            predict(model, np.zeros((3, 2)), SeededRng(seed=5),
                    **{"n_samples": 2, "n_samples_z": 2, name: 0})


class TestTrainLoop:
    def test_zero_epochs_leaves_parameters(self):
        ds = gen_two_gaussians(10, SeededRng(seed=0, stream=1))
        model = make_model("edl", 1, 2, (4,), SeededRng(seed=0, stream=2))
        before = {n: a.copy() for n, a in model.trainable().items()}
        trace = train(model, ds, TrainConfig(epochs=0), SeededRng(seed=0, stream=4))
        assert trace == []
        for name, arr in model.trainable().items():
            assert np.array_equal(arr, before[name])

    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_loss_trace_decreases(self, kind):
        ds = gen_two_gaussians(20, SeededRng(seed=0, stream=1))
        hyper = {"simplified": True} if kind == "etp" else {}
        model = make_model(kind, 1, 2, (32,), SeededRng(seed=0, stream=2), **hyper)
        trace = train(model, ds, TrainConfig(epochs=40, batch_size=40),
                      SeededRng(seed=0, stream=4))
        assert len(trace) == 40
        assert trace[-1] < trace[0]

    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_overflow_inside_a_step_reports_its_epoch_and_batch(self, kind, monkeypatch):
        """An overflow in any NumPy op of a step raises TrainingDiverged that
        names the step, here the second batch of the second epoch."""
        ds = gen_two_gaussians(20, SeededRng(seed=0, stream=1))  # 40 points: 3 batches
        model = make_model(kind, 1, 2, (4,), SeededRng(seed=0, stream=2))
        step_loss, calls = model.step_loss, []

        def overflowing(*args):
            calls.append(None)
            if len(calls) == 5:  # epoch 1, batch 1
                np.exp(1000.0)
            return step_loss(*args)

        monkeypatch.setattr(model, "step_loss", overflowing)
        with pytest.raises(TrainingDiverged, match="overflow") as err:
            train(model, ds, TrainConfig(epochs=3, batch_size=16), SeededRng(seed=0, stream=4))
        assert (err.value.epoch, err.value.batch) == (1, 1) and len(calls) == 5

    def test_overflowing_epoch_mean_is_inf(self, monkeypatch):
        """Finite batch losses whose sum overflows give an inf epoch mean with
        NumPy's warning, not an error: the means are taken outside the
        raising error state of the steps."""
        ds = gen_two_gaussians(20, SeededRng(seed=0, stream=1))  # 40 points: 2 batches
        model = make_model("bnn", 1, 2, (4,), SeededRng(seed=0, stream=2))
        step_loss = model.step_loss
        monkeypatch.setattr(model, "step_loss", lambda *args: ad.add(
            step_loss(*args), as_tensor(np.array(1e308))))
        with pytest.warns(RuntimeWarning, match="overflow"):
            trace = train(model, ds, TrainConfig(epochs=1, batch_size=20),
                          SeededRng(seed=0, stream=4))
        assert trace == [np.inf]

    def test_floating_point_state_restored(self):
        """``train`` leaves NumPy's floating-point error handling as it found
        it, after a run and after a divergence."""
        ds = gen_two_gaussians(10, SeededRng(seed=0, stream=1))
        with np.errstate(divide="ignore", over="warn", under="ignore", invalid="print"):
            before = np.geterr()
            model = make_model("bnn", 1, 2, (4,), SeededRng(seed=0, stream=2))
            train(model, ds, TrainConfig(epochs=2), SeededRng(seed=0, stream=4))
            assert np.geterr() == before
            model.params["net.b1"][0] = np.nan
            with pytest.raises(TrainingDiverged):
                train(model, ds, TrainConfig(epochs=2), SeededRng(seed=0, stream=4))
            assert np.geterr() == before

    def test_divergence_reports_location(self):
        ds = gen_two_gaussians(10, SeededRng(seed=0, stream=1))
        model = make_model("bnn", 1, 2, (4,), SeededRng(seed=0, stream=2))
        model.params["net.b1"][0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            train(model, ds, TrainConfig(epochs=1), SeededRng(seed=0, stream=4))
        assert err.value.epoch == 0
        assert err.value.batch == 0

    @pytest.mark.parametrize("kind, bias", [("bnn", "net.b1"), ("edl", "net.b1"),
                                            ("enp", "head.b1"), ("etp", "enc.b1")])
    def test_zero_probability_diverges_in_training_only(self, kind, bias):
        """A class whose softmax probability or concentration underflows to 0
        stops training with TrainingDiverged; prediction gives it probability 0."""
        ds = gen_two_gaussians(10, SeededRng(seed=0, stream=1))
        model = make_model(kind, 1, 2, (4,), SeededRng(seed=0, stream=2))
        model.trainable()[bias][0] = -1e4
        probs = predict(model, ds.features, SeededRng(seed=1), n_samples=2, n_samples_z=2)
        assert np.all(probs[:, 0] == 0.0) and np.allclose(probs[:, 1], 1.0)
        with pytest.raises(TrainingDiverged, match="positive.* at epoch 0, batch 0"):
            train(model, ds, TrainConfig(epochs=1), SeededRng(seed=0, stream=4))

    def test_training_is_deterministic(self):
        ds = gen_two_gaussians(10, SeededRng(seed=0, stream=1))

        def run():
            model = make_model("bnn", 1, 2, (8,), SeededRng(seed=1, stream=2))
            train(model, ds, TrainConfig(epochs=5, batch_size=10),
                  SeededRng(seed=1, stream=4))
            return model.trainable()

        a, b = run(), run()
        for name in a:
            assert np.array_equal(a[name], b[name]), name


class TestCheckpoints:
    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_round_trip_bit_exact(self, kind, tmp_path):
        ds = gen_two_gaussians(10, SeededRng(seed=0, stream=1))
        model = make_model(kind, 1, 2, (4,), SeededRng(seed=2, stream=2))
        train(model, ds, TrainConfig(epochs=2, batch_size=10),
              SeededRng(seed=2, stream=4))
        path = tmp_path / f"{kind}.npz"
        save_checkpoint(model, path, seed=2, extra_meta={"task": "two-gaussians"})
        loaded, meta = load_checkpoint(path)
        assert meta["kind"] == kind
        assert meta["seed"] == 2
        assert meta["task"] == "two-gaussians"
        for name, arr in model.trainable().items():
            assert np.array_equal(arr, loaded.trainable()[name]), name
        if kind == "etp":
            assert np.array_equal(model.memory, loaded.memory)
        x = np.array([[0.5], [-0.5]])
        p1 = predict(model, x, SeededRng(seed=3), n_samples=2, n_samples_z=2)
        p2 = predict(loaded, x, SeededRng(seed=3), n_samples=2, n_samples_z=2)
        assert np.array_equal(p1, p2)

    def test_version_mismatch_rejected(self, tmp_path):
        model = make_model("edl", 1, 2, (4,), SeededRng(seed=0, stream=2))
        path = tmp_path / "m.npz"
        save_checkpoint(model, path)
        import json

        with np.load(path) as npz:
            meta = json.loads(bytes(npz["__meta__"]).decode())
            arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
        meta["format_version"] = 99
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **arrays)
        with pytest.raises(CheckpointError, match=re.escape(f"{path} has unsupported version")):
            load_checkpoint(path)


class TestFlatParameters:
    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_trainables_are_views_of_theta(self, kind):
        model = make_model(kind, 2, 3, (4,), SeededRng(seed=0, stream=2))
        views = model.trainable()
        assert sum(v.size for v in views.values()) == model.theta.size
        assert np.array_equal(np.concatenate([v.ravel() for v in views.values()]),
                              model.theta)
        for name, view in views.items():
            start, stop, shape = model.spans[name]
            assert view.shape == shape
            view[...] = 7.0
            assert np.all(model.theta[start:stop] == 7.0), name

    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_params_view_every_span_of_theta(self, kind):
        """``params`` holds an untracked view per span of ``theta``, under the
        names and with the data of the tape leaves of those spans; training
        puts the blocks and the whole vector on its tape."""
        model = make_model(kind, 2, 3, (4,), SeededRng(seed=0, stream=2))
        leaves = leaves_of(model)
        assert list(model.params) == list(leaves)
        for name, view in model.params.items():
            assert view.base is model.theta and np.array_equal(view, leaves[name].data), name
        model.theta[...] = np.arange(model.theta.size)
        for name, (start, stop, shape) in model.spans.items():
            np.testing.assert_array_equal(model.params[name].ravel(), np.arange(start, stop))

    @pytest.mark.parametrize("kind, count", [("bnn", 4), ("edl", 2), ("enp", 9),
                                             ("etp", 8)])
    def test_tape_records_and_adam_updates_per_step(self, kind, count, monkeypatch):
        records, updates = [], []

        def counting_backward(loss):
            records.append(len(loss.tape._records))
            return backward(loss)

        def counting_adam(theta, grad, state, **kw):
            updates.append(theta)
            ad.adam_step(theta, grad, state, **kw)

        monkeypatch.setattr(models_mod, "backward", counting_backward)
        monkeypatch.setattr(models_mod, "adam_step", counting_adam)
        ds = gen_two_gaussians(20, SeededRng(seed=0, stream=1))
        model = make_model(kind, 1, 2, (32,), SeededRng(seed=0, stream=2))
        train(model, ds, TrainConfig(epochs=3, batch_size=40), SeededRng(seed=0, stream=4))
        assert records == [count] * 3
        assert len(updates) == 3 and all(theta is model.theta for theta in updates)

    def test_flat_gradient_matches_per_array_leaves(self):
        xb, yb = small_batch(seed=30)
        model = BnnModel(2, 2, (4,), SeededRng(seed=3, stream=2))
        leaves = leaves_of(model)
        loss = model.loss(leaves, xb, yb, SeededRng(seed=31), n_total=6)
        grads = backward(loss)
        flat = grads[leaves[FLAT].node_id]
        for name, (start, stop, shape) in model.spans.items():
            assert np.array_equal(grads[leaves[name].node_id], flat[start:stop].reshape(shape))


class TestMemoryNoise:
    def test_one_draw_matches_a_draw_per_sample(self):
        rng = np.random.default_rng(32)
        model = EtpModel(2, 3, (4,), SeededRng(seed=4, stream=2), memory_cells=5)
        model.memory = rng.normal(size=(5, 3)) * 0.3
        ctx_x, ctx_y = rng.normal(size=(4, 2)), rng.integers(0, 3, size=4)
        # replica of the update with one memory draw and one attention per sample
        v = model.encoder.forward(as_tensor(ctx_x), model.params)
        info = np.eye(3)[ctx_y] + softmax_np(v.data)
        draw_rng = SeededRng(seed=5)
        acc = np.zeros_like(model.memory)
        for _ in range(3):
            phi = model.attend(v, model.draw_memory(draw_rng), model.params)[1]
            acc += np.tanh(model.gamma * model.memory + (1.0 - model.gamma) * (phi.T @ info))
        model.memory_update(ctx_x, ctx_y, SeededRng(seed=5), n_samples=3)
        assert np.array_equal(model.memory, acc / 3)


    def test_one_attention_for_all_samples(self, monkeypatch):
        model = EtpModel(2, 3, (4,), SeededRng(seed=4, stream=2), memory_cells=5)
        calls, attend = [], model.attend

        def counting_attend(v, z, params):
            calls.append(z.shape)
            return attend(v, z, params)

        monkeypatch.setattr(model, "attend", counting_attend)
        rng = np.random.default_rng(33)
        model.memory_update(rng.normal(size=(4, 2)), rng.integers(0, 3, size=4),
                            SeededRng(seed=5), n_samples=8)
        assert calls == [(8, 5, 3)]


class TestDecompose:
    @pytest.mark.parametrize("kind", ["bnn", "etp"])
    def test_stacked_draws_match_single_draws(self, kind):
        model = make_model(kind, 1, 2, (8,), SeededRng(seed=6, stream=2))
        if kind == "etp":
            model.memory = np.random.default_rng(34).normal(size=model.memory.shape) * 0.3
        net = model.net if kind == "bnn" else model.encoder
        logvars(model, net)[...] = -2.0
        x, n = np.array([[0.4]]), 16
        got = model.decompose(x, SeededRng(seed=7), n)
        # replica: one weight draw, then (ETP) one memory draw, per sample
        rng, params = SeededRng(seed=7), model.params
        draws = []
        for _ in range(n):
            out = net.forward(as_tensor(x), params, rng.normal(size=net.n_weights))
            if kind == "bnn":
                draws.append(ad.softmax_rows(out.data)[0])
            else:
                draws.append(model.concentration(out, model.draw_memory(rng), params)[0])
        split = decompose_pbm if kind == "bnn" else decompose_cbm
        want = split(np.array(draws))
        for term in ("reducible", "irreducible", "data", "total"):
            assert np.array_equal(getattr(got, term), getattr(want, term)), term

    def test_only_bnn_and_etp_decompose(self):
        kinds = [k for k in models_mod.MODEL_KINDS
                 if hasattr(models_mod.MODEL_CLASSES[k], "decompose")]
        assert kinds == ["bnn", "etp"]


class TestCheckpointValidation:
    def corrupt(self, path, edit):
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        edit(arrays)
        np.savez(path, **arrays)

    @pytest.mark.parametrize("case, edit, message", [
        ("missing", lambda a: a.pop("net.W1"), "missing \\['net.W1'\\]"),
        ("unknown", lambda a: a.update({"net.W9": np.zeros(3)}), "unknown \\['net.W9'\\]"),
        ("mis-shaped", lambda a: a.update({"net.b0": np.zeros(1)}), "'net.b0' has shape"),
    ])
    def test_rejected(self, case, edit, message, tmp_path):
        model = make_model("bnn", 1, 2, (32,), SeededRng(seed=0, stream=2))
        path = tmp_path / f"{case}.npz"
        save_checkpoint(model, path)
        self.corrupt(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("case, edit", [
        ("missing", lambda a: a.pop("net.W1")),
        ("mis-shaped", lambda a: a.update({"net.b0": np.zeros(1)})),
    ])
    def test_message_names_file(self, case, edit, tmp_path):
        path = tmp_path / f"{case}.npz"
        save_checkpoint(make_model("bnn", 1, 2, (32,), SeededRng(seed=0, stream=2)), path)
        self.corrupt(path, edit)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_etp_memory_shape_checked(self, tmp_path):
        model = make_model("etp", 1, 2, (4,), SeededRng(seed=0, stream=2))
        path = tmp_path / "etp.npz"
        save_checkpoint(model, path)
        self.corrupt(path, lambda a: a.update({"__memory__": np.zeros((3, 2))}))
        with pytest.raises(CheckpointError, match="__memory__"):
            load_checkpoint(path)


def old_etp_hyper(hyper):
    """ETP's hyper record as written before `simplified` was its one model key:
    two flags, which `simplified` set and cleared, in its place."""
    old = {k: v for k, v in hyper.items() if k != "simplified"}
    return {**old, "identity_keys": hyper["simplified"], "update_tanh": not hyper["simplified"]}


class TestUnreadableCheckpoint:
    META_EDITS = {
        "unknown-kind": lambda meta: meta.update(kind="gp"),
        "no-hyper": lambda meta: meta.pop("hyper"),
        "out-of-domain": lambda meta: meta["hyper"].update(gamma=1.5),
        "hidden-zero": lambda meta: meta["hyper"].update(hidden=[0]),
        "seed-negative": lambda meta: meta.update(seed=-1),
        "seed-string": lambda meta: meta.update(seed="x"),
        "task-unknown": lambda meta: meta.update(task=5),
        "simplified-not-bool": lambda meta: meta["hyper"].update(simplified="yes"),
        "two-flag-record": lambda meta: meta.update(hyper=old_etp_hyper(meta["hyper"])),
        # ETP's record as written while `combiner` was a model key
        "combiner-record": lambda meta: meta["hyper"].update(combiner="residual"),
    }
    # __meta__ records that are not a JSON object, by their undecoded contents
    RAW_META = {
        "meta-not-json": np.frombuffer(b"kind = etp", dtype=np.uint8),
        "meta-json-list": np.frombuffer(b'["etp", 1]', dtype=np.uint8),
        "meta-object-array": np.array([{"kind": "etp"}], dtype=object),
        "meta-not-utf8": np.frombuffer(b"\xff\xfe{}", dtype=np.uint8),
    }

    @pytest.mark.parametrize("case", ["missing", "text", "npy", "no-meta", *META_EDITS,
                                      *RAW_META])
    def test_rejected(self, case, tmp_path):
        path = tmp_path / "m.npz"
        if case in self.META_EDITS or case in self.RAW_META:
            save_checkpoint(make_model("etp", 1, 2, (4,), SeededRng(seed=0, stream=2)), path)
            with np.load(path) as npz:
                arrays = {k: npz[k] for k in npz.files}
            if case in self.RAW_META:
                arrays["__meta__"] = self.RAW_META[case]
            else:
                meta = json.loads(bytes(arrays["__meta__"]).decode())
                self.META_EDITS[case](meta)
                arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
            np.savez(path, **arrays)
        elif case == "text":
            path.write_text("not a checkpoint\n")
        elif case == "npy":
            path = tmp_path / "m.npy"
            np.save(path, np.zeros(3))
        elif case == "no-meta":
            np.savez(path, **{"net.W0": np.zeros((1, 2))})
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            # read as `etproc eval` reads it: the model, then the config of its metadata
            model, meta = load_checkpoint(path)
            cli._checkpoint_config(ExperimentConfig(), path, model, meta)


class TestCheckpointsWithoutCombiner:
    # the hyper records of BNN, EDL and ENP as written while `combiner` was a
    # model key, which only ETP read and stored
    HYPER_RECORDS = {
        "bnn": {"input_dim": 1, "hidden": [4], "beta": 1.0},
        "edl": {"input_dim": 1, "hidden": [4]},
        "enp": {"input_dim": 1, "hidden": [4], "kappa2": 0.1, "beta_reg": 0.0,
                "aggregation": "mean"},
    }

    @pytest.mark.parametrize("kind", HYPER_RECORDS)
    def test_other_kinds_still_load(self, kind, tmp_path):
        path = tmp_path / f"{kind}.npz"
        model = make_model(kind, 1, 2, (4,), SeededRng(seed=0, stream=2))
        meta = {"format_version": 1, "kind": kind, "num_classes": 2, "seed": 0,
                "hyper": self.HYPER_RECORDS[kind]}
        np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **model.checkpoint_arrays())
        loaded, _ = load_checkpoint(path)
        assert loaded.hyper() == self.HYPER_RECORDS[kind]
        assert np.array_equal(loaded.theta, model.theta)


class TestModelConfig:
    """Each model key is declared, defaulted and checked once, in ModelConfig."""

    def test_positive_dimensions(self):
        for kind in models_mod.MODEL_KINDS:
            for input_dim, num_classes in ((0, 2), (2, 0)):
                with pytest.raises(ValueError, match="must be positive"):
                    make_model(kind, input_dim, num_classes, (4,), SeededRng(seed=0, stream=2))

    def test_hyper_names_are_model_keys(self):
        for cls in models_mod.MODEL_CLASSES.values():
            assert set(cls.HYPER) <= set(models_mod.MODEL_KEYS), cls

    def test_every_model_key_is_read(self):
        read = {name for cls in models_mod.MODEL_CLASSES.values() for name in cls.HYPER}
        assert set(models_mod.MODEL_KEYS) - {"hidden"} <= read

    def test_no_constructor_defaults_a_model_key(self):
        for cls in models_mod.MODEL_CLASSES.values():
            params = inspect.signature(cls).parameters
            defaulted = [name for name in models_mod.MODEL_KEYS if name in params
                         and params[name].default is not inspect.Parameter.empty]
            assert defaulted == [], cls

    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_missing_keys_take_the_defaults(self, kind):
        model = make_model(kind, 1, 2, (4,), SeededRng(seed=0, stream=2))
        defaults = ModelConfig()
        for name in model.HYPER:
            assert getattr(model, name) == getattr(defaults, name), name

    @pytest.mark.parametrize("kind", models_mod.MODEL_KINDS)
    def test_key_the_kind_does_not_read_rejected(self, kind):
        hyper = models_mod.MODEL_CLASSES[kind].HYPER
        unread = next(k for k in models_mod.MODEL_KEYS if k != "hidden" and k not in hyper)
        with pytest.raises(TypeError, match=unread):
            make_model(kind, 1, 2, (4,), SeededRng(seed=0, stream=2),
                       **{unread: getattr(ModelConfig(), unread)})

    @pytest.mark.parametrize("hidden", [(0,), (4, 0), (-1,)])
    def test_hidden_widths_positive(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            ModelConfig(hidden=hidden)
        with pytest.raises(ValueError, match="hidden"):
            EdlModel(1, 2, hidden, SeededRng(seed=0, stream=2))
