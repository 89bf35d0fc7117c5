"""Tests for Dirichlet / Gaussian / categorical closed forms.

The analytic identities are validated against Monte-Carlo and quadrature
oracles that never reuse the implementation under test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from etproc import autodiff as ad
from etproc import distributions as dist
from etproc.autodiff import Tape, Tensor, as_tensor, backward
from etproc.distributions import (
    NLL_PROB_FLOOR,
    SeededRng,
    categorical_nll_batch,
    dirichlet_expected_log_prob_rows,
    dirichlet_kl_rows,
    dirichlet_moments_rows,
    edl_loss,
    edl_terms,
    evidential_nll,
    gaussian_kl_diag,
    gaussian_reparam,
)
from etproc.models import LOG_ALPHA_CAP

import unfused as uf

alphas = st.lists(st.floats(0.1, 20.0), min_size=2, max_size=6)


def mc_dirichlet(alpha, n, seed):
    """Independent Dirichlet sampler (numpy's own, not the package's)."""
    return np.random.default_rng(seed).dirichlet(alpha, size=n)


def kl_reference(q, p):
    """KL(Dir(q) || Dir(p)) for one pair of vectors, written out in
    log-gamma and psi terms apart from the package."""
    q0, p0 = q.sum(), p.sum()
    return (special.gammaln(q0) - special.gammaln(p0)
            + np.sum(special.gammaln(p) - special.gammaln(q))
            + np.sum((q - p) * (special.psi(q) - special.psi(q0))))


def moments_reference(a):
    """Mean and variance vectors of Dir(a), written out apart from the package."""
    a0 = a.sum()
    return a / a0, a * (a0 - a) / (a0 * a0 * (a0 + 1.0))


def dirichlet_logpdf(x, alpha):
    alpha = np.asarray(alpha)
    norm = special.gammaln(alpha.sum()) - special.gammaln(alpha).sum()
    return norm + np.sum((alpha - 1.0) * np.log(x), axis=-1)


class TestSeededRng:
    def test_identical_state_identical_draws(self):
        a = SeededRng(seed=42, stream=3).normal(size=10)
        b = SeededRng(seed=42, stream=3).normal(size=10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeededRng(seed=42, stream=0).normal(size=10)
        b = SeededRng(seed=42, stream=1).normal(size=10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("c, m", [(16, 25450), (3, 3363), (2, 1)])
    def test_block_matches_consecutive_draws(self, c, m):
        """One (c, m) block of noise equals c consecutive draws of m, and the
        stream goes on alike: prediction draws a chunk of draws as one block."""
        block_rng, rng = SeededRng(seed=42, stream=3), SeededRng(seed=42, stream=3)
        block = block_rng.normal(size=(c, m))
        rows = [rng.normal(size=m) for _ in range(c)]
        assert block.tobytes() == np.concatenate(rows).tobytes()
        assert block_rng.normal(size=5).tobytes() == rng.normal(size=5).tobytes()


class TestDirichletKl:
    def test_identical_laws_zero(self):
        a = np.array([0.7, 2.0, 5.5])
        assert abs(dirichlet_kl_rows(np.atleast_2d(a), a).data.item()) <= 1e-10

    def test_known_value(self):
        # KL(Dir(2,1) || Dir(1,1)) = ln 2 - 1/2
        assert dirichlet_kl_rows(np.atleast_2d([2.0, 1.0]), [1.0, 1.0]).data.item() \
            == pytest.approx(np.log(2.0) - 0.5, abs=1e-12)

    def test_monte_carlo_oracle(self):
        q = np.array([2.0, 1.0, 0.5])
        p = np.array([1.0, 3.0, 1.5])
        n = 10**6
        x = mc_dirichlet(q, n, seed=0)
        ratio = dirichlet_logpdf(x, q) - dirichlet_logpdf(x, p)
        se = ratio.std(ddof=1) / np.sqrt(n)
        assert abs(dirichlet_kl_rows(np.atleast_2d(q), p).data.item() - ratio.mean()) <= 3.0 * se

    def test_uniform_reference_specialization(self):
        # specialized expression for KL(Dir(a) || Dir(1,...,1))
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.uniform(0.2, 10.0, size=rng.integers(2, 6))
            k = len(a)
            want = (special.gammaln(a.sum()) - special.gammaln(k)
                    - special.gammaln(a).sum()
                    + np.sum((a - 1.0) * (special.psi(a) - special.psi(a.sum()))))
            assert dirichlet_kl_rows(np.atleast_2d(a), np.ones(k)).data.item() \
                == pytest.approx(want, abs=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            dirichlet_kl_rows(np.atleast_2d([1.0, 2.0]), [1.0, 2.0, 3.0])

    def test_rows_length_mismatch_names_both_lengths(self):
        with pytest.raises(ValueError, match=r"length 2.*\(3,\)"):
            dirichlet_kl_rows(Tensor(np.ones((4, 2))), np.ones(3))

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dirichlet_kl_rows(np.atleast_2d([1.0, 0.0]), [1.0, 1.0])

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.3, 8.0, size=(5, 4))
        p = np.ones(4)
        rows = dirichlet_kl_rows(Tensor(a), p).data.ravel()
        for i in range(5):
            assert rows[i] == pytest.approx(kl_reference(a[i], p), abs=1e-10)

    def test_rows_variant_gradient(self):
        a0 = np.array([[1.5, 2.5], [0.8, 3.0]])
        p = np.ones(2)

        def loss_fn(arr):
            t = Tape()
            leaf = t.leaf(arr)
            return t, leaf, uf.tsum(dirichlet_kl_rows(leaf, p))

        tape, leaf, loss = loss_fn(a0)
        analytic = backward(loss)[leaf.node_id]
        step = 1e-6
        numeric = np.zeros_like(a0)
        for idx in np.ndindex(a0.shape):
            up, dn = a0.copy(), a0.copy()
            up[idx] += step
            dn[idx] -= step
            numeric[idx] = (float(loss_fn(up)[2].data) - float(loss_fn(dn)[2].data)) / (2 * step)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(alphas)
    def test_nonnegative_property(self, a):
        k = len(a)
        assert dirichlet_kl_rows(np.atleast_2d(a), np.ones(k)).data.item() >= -1e-12


class TestDirichletMoments:
    def test_uniform(self):
        mean, var = dirichlet_moments_rows(np.atleast_2d([1.0, 1.0]))
        np.testing.assert_allclose(mean[0], [0.5, 0.5])
        np.testing.assert_allclose(var[0], [1.0 / 12.0] * 2)

    def test_symmetric_three(self):
        mean, _ = dirichlet_moments_rows(np.atleast_2d([10.0, 10.0, 10.0]))
        np.testing.assert_allclose(mean[0], [1.0 / 3.0] * 3, atol=1e-12)

    def test_asymmetric(self):
        mean, _ = dirichlet_moments_rows(np.atleast_2d([2.0, 3.0]))
        np.testing.assert_allclose(mean[0], [0.4, 0.6], atol=1e-12)

    def test_monte_carlo_oracle(self):
        a = np.array([2.0, 3.0])
        n = 10**6
        draws = mc_dirichlet(a, n, seed=1)
        mean, var = (m[0] for m in dirichlet_moments_rows(np.atleast_2d(a)))
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(n)
        np.testing.assert_array_less(np.abs(mean - draws.mean(axis=0)), 3.0 * se_mean)
        mc_var = draws.var(axis=0, ddof=1)
        se_var = np.abs(mc_var) * np.sqrt(2.0 / n) * 3.0 + 1e-6
        np.testing.assert_array_less(np.abs(var - mc_var), se_var)

    @settings(max_examples=40, deadline=None)
    @given(alphas)
    def test_mean_sums_to_one(self, a):
        mean, var = (m[0] for m in dirichlet_moments_rows(np.atleast_2d(a)))
        assert abs(mean.sum() - 1.0) <= 1e-12
        assert np.all(var >= 0.0)

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.3, 9.0, size=(6, 3))
        mean_rows, var_rows = dirichlet_moments_rows(a)
        for i in range(6):
            mean, var = moments_reference(a[i])
            np.testing.assert_allclose(mean_rows[i], mean, atol=1e-12)
            np.testing.assert_allclose(var_rows[i], var, atol=1e-12)


class TestExpectedLogProb:
    def test_uniform_k0(self):
        assert dirichlet_expected_log_prob_rows(np.atleast_2d([1.0, 1.0]), [0]).data.item() \
            == pytest.approx(-1.0, abs=1e-12)

    def test_symmetric_independent_of_k(self):
        vals = dirichlet_expected_log_prob_rows(np.full((3, 3), 3.0), [0, 1, 2]).data
        assert vals.max() - vals.min() <= 1e-14

    def test_monte_carlo_oracle(self):
        a = np.array([2.0, 3.0, 5.0])
        n = 10**6
        logs = np.log(mc_dirichlet(a, n, seed=2)[:, 1])
        se = logs.std(ddof=1) / np.sqrt(n)
        assert abs(dirichlet_expected_log_prob_rows(np.atleast_2d(a), [1]).data.item()
                   - logs.mean()) <= 4.0 * se

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            dirichlet_expected_log_prob_rows(np.atleast_2d([1.0, 2.0]), [2])

    def test_one_label_for_many_rows_rejected(self):
        with pytest.raises(ad.ShapeMismatchError, match="expected-log-prob"):
            dirichlet_expected_log_prob_rows(np.ones((3, 2)), [1])

    def test_empty_labels_rejected(self):
        with pytest.raises(ad.ShapeMismatchError, match="expected-log-prob"):
            dirichlet_expected_log_prob_rows(np.ones((3, 2)), np.array([], dtype=int))

    def test_no_rows_no_labels(self):
        out = dirichlet_expected_log_prob_rows(np.ones((0, 2)), np.array([], dtype=int))
        assert out.shape == (0, 1)

    def test_rows_variant(self):
        a = np.array([[2.0, 3.0], [4.0, 1.0]])
        labels = np.array([1, 0])
        out = dirichlet_expected_log_prob_rows(Tensor(a), labels).data.ravel()
        assert out[0] == pytest.approx(special.psi(3.0) - special.psi(5.0), abs=1e-12)
        assert out[1] == pytest.approx(special.psi(4.0) - special.psi(5.0), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(alphas)
    def test_jensen_property(self, a):
        # E[log pi_k] <= log E[pi_k] per coordinate
        mean, _ = dirichlet_moments_rows(np.atleast_2d(a))
        for k in range(len(a)):
            assert dirichlet_expected_log_prob_rows(np.atleast_2d(a), [k]).data.item() \
                <= np.log(mean[0, k]) + 1e-12


def reparam_draw(mean, logvar, rng):
    """mean + exp(logvar/2) * eps with fresh standard-normal noise eps, drawn
    from the packed [mean | logvar]."""
    eps = rng.normal(size=np.shape(as_tensor(mean).data))
    return gaussian_reparam(ad.concat([mean, logvar], axis=-1), eps)


class TestGaussianReparam:
    def test_degenerate_logvar(self):
        mean = np.array([1.0, -2.0, 0.5])
        out = reparam_draw(Tensor(mean), Tensor(np.full(3, -60.0)), SeededRng(seed=0))
        np.testing.assert_allclose(out.data, mean, atol=1e-12)

    def test_empirical_variance(self):
        logvar = np.array([0.5])
        draws = np.array([
            reparam_draw(Tensor(np.zeros(1)), Tensor(logvar), SeededRng(seed=s)).data[0]
            for s in range(10**4)
        ])
        assert draws.var() == pytest.approx(np.exp(0.5), rel=0.05)

    def test_gradient_wrt_mean_is_identity(self):
        tape = Tape()
        mean = tape.leaf(np.array([0.3, -0.7]))
        out = reparam_draw(mean, Tensor(np.zeros(2)), SeededRng(seed=4))
        g = backward(uf.tsum(out))[mean.node_id]
        np.testing.assert_allclose(g, [1.0, 1.0])

    def test_gradient_wrt_logvar_finite_differences(self):
        lv0 = np.array([0.2, -0.5])
        mean = np.array([1.0, 2.0])

        def sample_sum(lv):
            t = Tape()
            leaf = t.leaf(lv)
            out = reparam_draw(Tensor(mean), leaf, SeededRng(seed=11))
            return t, leaf, uf.tsum(out)

        tape, leaf, loss = sample_sum(lv0)
        analytic = backward(loss)[leaf.node_id]
        step = 1e-6
        for i in range(2):
            up, dn = lv0.copy(), lv0.copy()
            up[i] += step
            dn[i] -= step
            numeric = (float(sample_sum(up)[2].data) - float(sample_sum(dn)[2].data)) / (2 * step)
            assert analytic[i] == pytest.approx(numeric, rel=1e-6, abs=1e-9)


class TestGaussianKl:
    def test_self_zero(self):
        m = np.array([1.0, -2.0])
        lv = np.array([0.3, -0.7])
        assert float(gaussian_kl_diag(np.concatenate([m, lv]), m, lv).data) \
            == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # KL(N(1,1) || N(0,1)) = 1/2
        assert float(gaussian_kl_diag([1.0, 0.0], [0.0], [0.0]).data) == pytest.approx(0.5)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            mq, mp = rng.normal(size=2)
            lq, lp = rng.uniform(-1.0, 1.0, size=2)
            sq, sp = np.exp(0.5 * lq), np.exp(0.5 * lp)

            def integrand(x):
                logq = -0.5 * ((x - mq) / sq) ** 2 - np.log(sq * np.sqrt(2 * np.pi))
                logp = -0.5 * ((x - mp) / sp) ** 2 - np.log(sp * np.sqrt(2 * np.pi))
                return np.exp(logq) * (logq - logp)

            want, _ = integrate.quad(integrand, mq - 12 * sq, mq + 12 * sq, limit=200)
            got = float(gaussian_kl_diag([mq, lq], [mp], [lp]).data)
            assert got == pytest.approx(want, abs=1e-8)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            got = float(gaussian_kl_diag(rng.normal(size=6), rng.normal(size=3),
                                         rng.normal(size=3)).data)
            assert got >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gaussian_kl_diag([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="mismatch"):  # no mean without its log-variance
            gaussian_kl_diag([0.0, 0.0, 0.0], 0.0, 0.0)

    def test_differentiable(self):
        tape = Tape()
        q = tape.leaf(np.array([1.0, 0.5, 0.0, 0.0]))  # means, then log-variances
        kl = gaussian_kl_diag(q, np.zeros(2), np.zeros(2))
        g = backward(kl)[q.node_id]
        np.testing.assert_allclose(g, [1.0, 0.5, 0.0, 0.0])  # d/dm of m^2/2, d/dlv at lv = 0


def one_nll(probs, label):
    vals, _ = categorical_nll_batch(np.array([probs]), np.array([label]))
    return float(vals[0])


class TestCategoricalNll:
    def test_onehot_correct(self):
        assert one_nll([1.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform(self):
        assert one_nll([0.5, 0.5], 1) == pytest.approx(np.log(2.0))

    def test_hand_value(self):
        assert one_nll([0.7, 0.3], 1) == pytest.approx(-np.log(0.3), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            one_nll([0.5, 0.5], 2)

    def test_floor_counting(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5]])
        vals, floored = categorical_nll_batch(probs, np.array([1, 0]))
        assert floored == 1
        assert vals[0] == pytest.approx(-np.log(NLL_PROB_FLOOR))


# ---------------------------------------------------------------------------
# fused tape primitives against the graphs of elementary ops they replaced


def halves(q):
    """The mean and log-variance halves of a packed tensor's last axis, one
    ``columns`` record each."""
    p = q.shape[-1] // 2
    return uf.columns(q, 0, p), uf.columns(q, p, 2 * p)


def unfused_reparam(mean, logvar, eps):
    return ad.add(mean, uf.mul(uf.exp(uf.scale(0.5, logvar)), as_tensor(eps)))


def unfused_expected_log_prob_rows(alpha, labels):
    n, k = alpha.shape
    ones = np.ones((k, 1))
    psi_sel = ad.matmul(uf.mul(uf.digamma(alpha), np.eye(k)[labels]), ones)
    return uf.sub(psi_sel, uf.digamma(ad.matmul(alpha, ones)))


def unfused_kl_rows(alpha_q, p):
    n, k = alpha_q.shape
    ones = np.ones((k, 1))
    a0 = ad.matmul(alpha_q, ones)
    lg_a0 = uf.lgamma(a0)
    sum_lg_a = ad.matmul(uf.lgamma(alpha_q), ones)
    psi_a = uf.digamma(alpha_q)
    psi_a0_full = ad.matmul(uf.digamma(a0), np.ones((1, k)))
    cross = ad.matmul(uf.mul(uf.sub(alpha_q, p), uf.sub(psi_a, psi_a0_full)), ones)
    const = float(np.sum(special.gammaln(p)) - special.gammaln(p.sum()))
    return ad.add(ad.add(uf.sub(lg_a0, sum_lg_a), cross), np.full((n, 1), const))


def unfused_moments_rows(alpha):
    n, k = alpha.shape
    a0 = ad.matmul(ad.matmul(alpha, np.ones((k, 1))), np.ones((1, k)))
    inv_a0 = uf.reciprocal(a0)
    mean = uf.mul(alpha, inv_a0)
    inv_a0p1 = uf.reciprocal(ad.add(a0, np.ones((n, k))))
    var = uf.mul(uf.mul(uf.mul(mean, uf.sub(a0, alpha)), inv_a0), inv_a0p1)
    return mean, var


def value_and_grad(build_loss, x0):
    tape = Tape()
    leaf = tape.leaf(x0)
    loss = build_loss(leaf)
    return float(loss.data), backward(loss)[leaf.node_id]


def finite_diff_grad(build_loss, x0, step=1e-6):
    grad = np.zeros_like(x0)
    for idx in np.ndindex(x0.shape):
        up, dn = x0.copy(), x0.copy()
        up[idx] += step
        dn[idx] -= step
        grad[idx] = (value_and_grad(build_loss, up)[0]
                     - value_and_grad(build_loss, dn)[0]) / (2 * step)
    return grad


def dot(t, w):
    """Scalar sum of t * w, so every entry of t gets its own weight."""
    return uf.tsum(uf.mul(t, Tensor(w)))


class TestFusedPrimitives:
    """Each fused primitive: central finite differences, and values and
    gradients of the unfused graph, to 1e-12 (bit for bit at K = 2, where
    every row sum has two terms)."""

    def assert_matches_unfused(self, fused, unfused, x0, exact):
        v1, g1 = value_and_grad(fused, x0)
        v2, g2 = value_and_grad(unfused, x0)
        assert v1 == pytest.approx(v2, rel=0, abs=1e-12)
        np.testing.assert_allclose(g1, g2, rtol=0, atol=1e-12)
        if exact:
            assert np.array_equal(g1, g2)

    def assert_finite_differences(self, build, x0):
        _, analytic = value_and_grad(build, x0)
        np.testing.assert_allclose(analytic, finite_diff_grad(build, x0),
                                   rtol=1e-5, atol=1e-7)

    @staticmethod
    def gaussian_builds(kl, prior):
        # the leaf packs [posterior means | posterior log-variances]
        def build(x):
            return uf.scale(0.3, kl(x, *prior))
        return build

    @pytest.mark.parametrize("prior", ["arrays", "scalars"])
    def test_gaussian_kl(self, prior):
        rng = np.random.default_rng(40)
        x0 = np.concatenate([rng.normal(size=5), rng.uniform(-2.0, 1.0, size=5)])
        mp, lp = ((rng.normal(size=5), rng.normal(size=5)) if prior == "arrays"
                  else (0.0, float(np.log(0.5))))
        fused = self.gaussian_builds(gaussian_kl_diag, (mp, lp))
        unfused = self.gaussian_builds(
            lambda q, *p: uf.gaussian_kl(*halves(q), *p),
            (np.broadcast_to(mp, 5), np.broadcast_to(lp, 5)))
        self.assert_matches_unfused(fused, unfused, x0, exact=True)
        self.assert_finite_differences(fused, x0)

    @pytest.mark.parametrize("prior", ["arrays", "scalars"])
    def test_gaussian_kl_weight_rounds_as_a_scale_record(self, prior):
        """The weight inside the KL record (an ELBO's 1 / n_total) gives the
        value and gradient of a ``scale`` record after the KL, bit for bit."""
        rng = np.random.default_rng(42)
        x0 = np.concatenate([rng.normal(size=5), rng.uniform(-2.0, 1.0, size=5)])
        prior = ((rng.normal(size=5), rng.normal(size=5)) if prior == "arrays"
                 else (1.0, float(np.log(0.1))))
        weighted = self.gaussian_builds(
            lambda q, *p: gaussian_kl_diag(q, *p, 1.0 / 37), prior)
        scaled = self.gaussian_builds(
            lambda q, *p: uf.scale(1.0 / 37, gaussian_kl_diag(q, *p)), prior)
        (v1, g1), (v2, g2) = value_and_grad(weighted, x0), value_and_grad(scaled, x0)
        assert v1 == v2 and np.array_equal(g1, g2)

    def test_gaussian_reparam(self):
        """The packed draw and the two-operand ``uf.reparam`` both equal the
        elementary graph, with the leaf's halves sliced off by ``columns``."""
        rng = np.random.default_rng(41)
        x0 = np.concatenate([rng.normal(size=(2, 3)), rng.uniform(-2.0, 1.0, size=(2, 3))],
                            axis=1)
        eps, w = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))

        def build(reparam):
            return lambda x: dot(ad.tanh(reparam(x)), w)

        fused = build(lambda q: gaussian_reparam(q, eps))
        unfused = build(lambda q: unfused_reparam(*halves(q), eps))
        self.assert_matches_unfused(fused, unfused, x0, exact=True)
        self.assert_matches_unfused(build(lambda q: uf.reparam(*halves(q), eps)), unfused,
                                    x0, exact=True)
        self.assert_finite_differences(fused, x0)

    def test_gaussian_reparam_stacked_noise(self):
        # S stacked draws equal S single draws; the VJP sums over the stack
        # as the two-operand draw's VJPs do, bit for bit
        rng = np.random.default_rng(42)
        x0 = np.concatenate([rng.normal(size=(2, 3)), rng.uniform(-2.0, 1.0, size=(2, 3))],
                            axis=1)
        eps, w = rng.normal(size=(4, 2, 3)), rng.normal(size=(4, 2, 3))
        stacked = gaussian_reparam(x0, eps).data
        for s in range(4):
            assert np.array_equal(stacked[s], gaussian_reparam(x0, eps[s]).data)

        def build(x):
            return dot(ad.tanh(gaussian_reparam(x, eps)), w)

        (v1, g1), (v2, g2) = (value_and_grad(build, x0), value_and_grad(
            lambda x: dot(ad.tanh(uf.reparam(*halves(x), eps)), w), x0))
        assert v1 == v2 and np.array_equal(g1, g2)
        self.assert_finite_differences(build, x0)

    def test_gaussian_reparam_shape_mismatch(self):
        with pytest.raises(ValueError, match="reparam"):
            gaussian_reparam(np.zeros(4), np.zeros(3))
        with pytest.raises(ValueError, match="reparam"):
            gaussian_reparam(np.zeros(3), np.zeros(1))

    @pytest.mark.parametrize("k", [2, 4])
    def test_expected_log_prob_rows(self, k):
        rng = np.random.default_rng(42 + k)
        x0 = rng.uniform(0.3, 6.0, size=(5, k))
        labels = rng.integers(0, k, size=5)
        w = rng.normal(size=(5, 1))
        # a second consumer of alpha checks the order of accumulation
        w2 = rng.normal(size=(5, k))

        def build(rows):
            return lambda x: ad.add(dot(rows(x, labels), w), dot(ad.tanh(x), w2))

        self.assert_matches_unfused(build(dirichlet_expected_log_prob_rows),
                                    build(unfused_expected_log_prob_rows), x0, exact=k == 2)
        self.assert_finite_differences(build(dirichlet_expected_log_prob_rows), x0)

    @pytest.mark.parametrize("k", [2, 4])
    def test_kl_rows(self, k):
        rng = np.random.default_rng(46 + k)
        x0 = rng.uniform(0.3, 6.0, size=(5, k))
        p = rng.uniform(0.5, 2.0, size=k)
        w, w2 = rng.normal(size=(5, 1)), rng.normal(size=(5, k))

        def build(rows):
            return lambda x: ad.add(dot(ad.tanh(x), w2), dot(rows(x, p), w))

        self.assert_matches_unfused(build(dirichlet_kl_rows), build(unfused_kl_rows), x0,
                                    exact=k == 2)
        self.assert_finite_differences(build(dirichlet_kl_rows), x0)

    @pytest.mark.parametrize("k", [2, 4])
    def test_moments_rows(self, k):
        rng = np.random.default_rng(50 + k)
        x0 = rng.uniform(0.3, 6.0, size=(5, k))
        w1, w2, w3 = (rng.normal(size=(5, k)) for _ in range(3))

        def build(moments):
            def loss(x):
                mean, var = moments(x)
                return ad.add(ad.add(dot(mean, w1), dot(var, w2)), dot(ad.tanh(x), w3))
            return loss

        self.assert_matches_unfused(build(uf.dirichlet_moments_rows),
                                    build(unfused_moments_rows), x0, exact=k == 2)
        self.assert_finite_differences(build(uf.dirichlet_moments_rows), x0)


# ---------------------------------------------------------------------------
# the evidential losses, one record each, against the unfused graphs they fold


def unfused_evidential_nll(raw, labels, cap, beta_reg=0.0):
    """clip_upper, exp, the expected log-probability and KL primitives, tmean,
    scale and add: the graph ``evidential_nll`` folds into one record."""
    alpha = uf.exp(uf.clip_upper(raw, cap))
    enll = uf.scale(-1.0, uf.tmean(dirichlet_expected_log_prob_rows(alpha, labels)))
    if beta_reg > 0.0:
        reg = uf.tmean(dirichlet_kl_rows(alpha, np.ones(alpha.shape[1])))
        enll = ad.add(enll, uf.scale(beta_reg, reg))
    return enll


def unfused_edl_loss(raw, labels, lam, cap):
    """The graph ``edl_loss`` folds into one record: the moments primitive and
    the squared error, the KL primitive on the misleading evidence, lam and
    the batch mean."""
    alpha = uf.exp(uf.clip_upper(raw, cap))
    k = alpha.shape[1]
    onehot = np.eye(k)[labels]
    mean, var = uf.dirichlet_moments_rows(alpha)
    diff = uf.sub(as_tensor(onehot), mean)
    sq = uf.sum_rows(ad.add(uf.mul(diff, diff), var))
    misleading = ad.add(onehot, uf.mul(alpha, 1.0 - onehot))
    kl = dirichlet_kl_rows(misleading, np.ones(k))
    return uf.tmean(ad.add(sq, uf.scale(lam, kl)))


def raw_batch(n, k, seed):
    """Log-concentrations and labels; some entries sit at or above the cap."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, k)) * 3.0
    raw.flat[rng.integers(0, n * k, size=max(1, n * k // 8))] = LOG_ALPHA_CAP
    raw.flat[rng.integers(0, n * k, size=max(1, n * k // 8))] = LOG_ALPHA_CAP + 2.0
    return raw, rng.integers(0, k, size=n)


def loss_and_grad(loss, raw):
    """Value and raw gradient of a loss that also reaches the log-concentrations
    outside the evidential loss, as a network's output bias sees one adjoint."""
    tape = Tape()
    leaf = tape.leaf(raw)
    total = ad.add(loss(leaf), uf.scale(0.3, uf.tsum(ad.tanh(leaf))))
    return total.data, backward(total)[leaf.node_id]


def assert_same_bits(got, want):
    """Equal arrays, the signs of zeros included."""
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestEvidentialNll:
    @pytest.mark.parametrize("beta_reg", [0.0, 0.5])
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_matches_unfused_graph_bit_for_bit(self, n, k, beta_reg):
        raw, labels = raw_batch(n, k, seed=60 + n + k)
        value, grad = loss_and_grad(
            lambda x: evidential_nll(x, labels, LOG_ALPHA_CAP, beta_reg), raw)
        want_value, want_grad = loss_and_grad(
            lambda x: unfused_evidential_nll(x, labels, LOG_ALPHA_CAP, beta_reg), raw)
        assert_same_bits(value, want_value)
        assert_same_bits(grad, want_grad)

    @pytest.mark.parametrize("beta_reg", [0.0, 0.5])
    def test_finite_differences(self, beta_reg):
        rng = np.random.default_rng(61)
        raw, labels = rng.normal(size=(5, 3)), rng.integers(0, 3, size=5)

        def build(x):
            return evidential_nll(x, labels, LOG_ALPHA_CAP, beta_reg)

        _, analytic = value_and_grad(build, raw)
        np.testing.assert_allclose(analytic, finite_diff_grad(build, raw), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("beta_reg", [0.0, 0.5])
    def test_one_tape_record(self, beta_reg):
        tape = Tape()
        evidential_nll(tape.leaf(np.zeros((3, 4))), [0, 1, 3], LOG_ALPHA_CAP, beta_reg)
        assert len(tape._records) == 1

    def test_underflow_to_zero_is_a_domain_error(self):
        with pytest.raises(ad.DomainError, match="positive"):
            evidential_nll(np.array([[0.0, -1e4]]), [0], LOG_ALPHA_CAP)

    def test_bad_labels(self):
        with pytest.raises(IndexError):
            evidential_nll(np.zeros((2, 2)), [0, 2], LOG_ALPHA_CAP)
        with pytest.raises(ad.ShapeMismatchError, match="evidential-nll"):
            evidential_nll(np.zeros((3, 2)), [1], LOG_ALPHA_CAP)


class TestEdlLoss:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 10])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_matches_unfused_graph_bit_for_bit(self, n, k, lam):
        raw, labels = raw_batch(n, k, seed=70 + n + k)
        value, grad = loss_and_grad(lambda x: edl_loss(x, labels, lam, LOG_ALPHA_CAP), raw)
        want_value, want_grad = loss_and_grad(
            lambda x: unfused_edl_loss(x, labels, lam, LOG_ALPHA_CAP), raw)
        assert_same_bits(value, want_value)
        assert_same_bits(grad, want_grad)

    def test_terms_are_the_loss_rows(self):
        raw, labels = raw_batch(7, 3, seed=71)
        sq, kl, _ = edl_terms(np.exp(np.minimum(raw, LOG_ALPHA_CAP)), labels)
        want = float(edl_loss(raw, labels, 0.3, LOG_ALPHA_CAP).data)
        assert float((sq + 0.3 * kl).mean()) == want

    @pytest.mark.parametrize("lam", [0.0, 0.7])
    def test_finite_differences(self, lam):
        rng = np.random.default_rng(72)
        raw, labels = rng.normal(size=(5, 3)), rng.integers(0, 3, size=5)

        def build(x):
            return edl_loss(x, labels, lam, LOG_ALPHA_CAP)

        _, analytic = value_and_grad(build, raw)
        np.testing.assert_allclose(analytic, finite_diff_grad(build, raw), rtol=1e-5, atol=1e-7)

    def test_one_tape_record(self):
        tape = Tape()
        edl_loss(tape.leaf(np.zeros((3, 4))), [0, 1, 3], 0.5, LOG_ALPHA_CAP)
        assert len(tape._records) == 1

    def test_underflow_to_zero_is_a_domain_error(self):
        with pytest.raises(ad.DomainError, match="positive"):
            edl_loss(np.array([[0.0, -1e4]]), [0], 0.5, LOG_ALPHA_CAP)

    def test_overflowing_trigamma_at_zero_weight_diverges_as_unfused(self):
        """At lam = 0 the KL's adjoint is still evaluated: an off-label
        concentration of about 1e-174 overflows its trigamma, and the VJP
        forms 0 * inf, as the unfused graph's does."""
        raw, labels = np.array([[0.0, -400.0], [1.0, 0.5]]), [0, 1]
        for loss in (edl_loss, unfused_edl_loss):
            tape = Tape()
            out = loss(tape.leaf(raw), labels, 0.0, LOG_ALPHA_CAP)
            with np.errstate(over="raise", invalid="raise"):
                with pytest.raises(FloatingPointError):
                    backward(out)

    def test_label_minus_one_rejected(self):
        with pytest.raises(IndexError):
            edl_loss(np.zeros((2, 3)), [0, -1], 0.5, LOG_ALPHA_CAP)
        with pytest.raises(IndexError):
            edl_terms(np.ones((2, 3)), [0, -1])

    def test_one_label_for_many_rows_rejected(self):
        with pytest.raises(ad.ShapeMismatchError, match="edl-terms"):
            edl_terms(np.ones((3, 2)), [1])

    def test_trigamma_of_unit_entries_filled_in_bit_for_bit(self):
        rng = np.random.default_rng(73)
        a = rng.uniform(1e-3, 30.0, size=(50, 4))
        unit = rng.uniform(size=a.shape) < 0.3
        a[unit] = 1.0
        assert_same_bits(dist._trigamma(a, unit), special.zeta(2, a))
