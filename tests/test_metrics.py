"""Tests for the calibration metrics, variance decompositions, and the
Gaussian-mixture Bayes oracle. Brute-force oracles are reimplemented
here from first principles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from etproc.autodiff import DomainError

from etproc.metrics import (
    DecompositionTriple,
    MixtureOracle,
    PredictionSet,
    auroc,
    decompose_cbm,
    decompose_pbm,
    ece,
    entropy_rows,
    error_rate,
    nll,
    risk_product_check,
)


def random_prediction_set(rng, n, k):
    logits = rng.normal(size=(n, k)) * rng.uniform(0.5, 3.0)
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return PredictionSet(probs, rng.integers(0, k, size=n))


def brute_force_ece(probs, labels, n_bins):
    """Direct bin enumeration, independent of the library implementation."""
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    total = 0.0
    n = len(conf)
    for m in range(1, n_bins + 1):
        lo, hi = (m - 1) / n_bins, m / n_bins
        in_bin = (conf > lo) & (conf <= hi)
        if m == 1:
            in_bin = in_bin | (conf <= lo)
        cnt = in_bin.sum()
        if cnt:
            total += cnt / n * abs(correct[in_bin].mean() - conf[in_bin].mean())
    return total


def brute_force_auroc(scores_in, scores_out):
    """All-pairs comparison."""
    wins = 0.0
    for o in scores_out:
        for i in scores_in:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(scores_in) * len(scores_out))


class TestNll:
    def test_all_onehot_correct(self):
        preds = PredictionSet(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        assert nll(preds) == pytest.approx(0.0, abs=1e-11)

    def test_uniform(self):
        preds = PredictionSet(np.full((3, 2), 0.5), np.array([0, 1, 0]))
        assert nll(preds) == pytest.approx(np.log(2.0))

    def test_hand_value(self):
        preds = PredictionSet(np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 1]))
        assert nll(preds) == pytest.approx((-np.log(0.7) - np.log(0.8)) / 2, abs=1e-12)

    def test_empty_rejected(self):
        preds = PredictionSet(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            nll(preds)


class TestEce:
    def test_perfectly_confident_and_correct(self):
        preds = PredictionSet(np.array([[1.0, 0.0]] * 5), np.zeros(5, dtype=int))
        assert ece(preds, 10) == pytest.approx(0.0)

    def test_single_bin_hand_value(self):
        probs = np.array([[0.9, 0.1]] * 4)
        labels = np.array([0, 0, 0, 1])  # 3 of 4 correct at confidence 0.9
        assert ece(PredictionSet(probs, labels), 10) == pytest.approx(0.15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = random_prediction_set(rng, 50, 3)
        perm = rng.permutation(50)
        shuffled = PredictionSet(preds.probs[perm], preds.labels[perm])
        assert ece(preds, 10) == pytest.approx(ece(shuffled, 10), abs=1e-15)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            preds = random_prediction_set(rng, int(rng.integers(1, 60)),
                                          int(rng.integers(2, 5)))
            bins = int(rng.integers(1, 20))
            assert ece(preds, bins) == pytest.approx(
                brute_force_ece(preds.probs, preds.labels, bins), abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_equals_per_bin_mask_formula_bit_for_bit(self, k):
        """The slices of the stable sort hold each bin's rows in their order,
        so every bin mean, and the sum, round as the per-bin masks do. With
        K = 2 every bin below 1/2 is empty."""
        rng = np.random.default_rng(60 + k)
        # 255 to 257 bins cross the 8-bit to 16-bit edge of the sorted index dtype,
        # 70000 the 16-bit to 32-bit one
        for n, bins in ((1, 10), (37, 10), (500, 20), (10000, 10), (10000, 15),
                        (10000, 255), (10000, 256), (10000, 257), (2000, 70000)):
            preds = random_prediction_set(rng, n, k)
            conf, hits = preds.probs.max(axis=1), preds.probs.argmax(axis=1) == preds.labels
            idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
            want = 0.0
            for m in range(bins):
                mask = idx == m
                if mask.any():
                    want += mask.sum() / n * abs(hits[mask].mean() - conf[mask].mean())
            assert ece(preds, bins) == want, (n, bins)

    def test_invalid_bins(self):
        preds = PredictionSet(np.array([[0.5, 0.5]]), np.array([0]))
        with pytest.raises(ValueError):
            ece(preds, 0)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert auroc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5

    def test_interleaved(self):
        assert auroc([1.0, 3.0], [2.0, 4.0]) == pytest.approx(0.75)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.integers(0, 6, size=rng.integers(1, 200)).astype(float)
            b = rng.integers(0, 6, size=rng.integers(1, 200)).astype(float)
            assert auroc(a, b) == pytest.approx(brute_force_auroc(a, b), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(0, 4, size=30).astype(float)
            b = rng.integers(0, 4, size=25).astype(float)
            assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [1.0])

    def test_equals_midrank_loop(self):
        def loop_auroc(a, b):
            combined = np.concatenate([a, b])
            order = np.argsort(combined, kind="mergesort")
            combined = combined[order]
            is_out = np.concatenate([np.zeros(len(a), bool), np.ones(len(b), bool)])[order]
            ranks = np.empty(len(combined))
            i = 0
            while i < len(combined):
                j = i
                while j + 1 < len(combined) and combined[j + 1] == combined[i]:
                    j += 1
                ranks[i : j + 1] = 0.5 * (i + j) + 1.0
                i = j + 1
            u = ranks[is_out].sum() - len(b) * (len(b) + 1) / 2.0
            return u / (len(a) * len(b))

        rng = np.random.default_rng(4)
        for _ in range(30):
            a = rng.integers(0, 5, size=rng.integers(1, 300)).astype(float)
            b = rng.normal(size=rng.integers(1, 300)).round(1)
            assert auroc(a, b) == loop_auroc(a, b)
        # evaluation size with long runs of ties, some of them runs of -0.0 and 0.0
        signs = rng.choice([-1.0, 1.0], size=11000)
        for scores in (rng.normal(size=11000).round(1), rng.normal(size=11000).round(0) * signs,
                       rng.integers(-1, 2, size=11000) * signs):
            a, b = scores[:10000], scores[10000:]
            assert auroc(a, b) == loop_auroc(a, b)

    def test_nan_rejected(self):
        """NaN equals no score, not even NaN, so it has no rank."""
        with pytest.raises(ValueError, match="NaN"):
            auroc([0.1, np.nan], [0.5])


class TestEntropy:
    def test_onehot(self):
        assert entropy_rows(np.array([[1.0, 0.0, 0.0]]))[0] == 0.0

    def test_uniform(self):
        assert entropy_rows(np.full((1, 4), 0.25))[0] == pytest.approx(np.log(4.0))

    def test_hand_value(self):
        assert entropy_rows(np.array([[0.5, 0.25, 0.25]]))[0] == pytest.approx(1.5 * np.log(2.0))

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            entropy_rows(np.array([[0.5, 0.6]]))

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_rows_equal_per_row_loop(self, k):
        rng = np.random.default_rng(k)
        p = rng.uniform(size=(50, k)) * (rng.uniform(size=(50, k)) < 0.7)
        p[:, 0] += 1e-3
        p /= p.sum(axis=1, keepdims=True)
        loop = np.array([-np.sum(r[r > 0] * np.log(r[r > 0])) for r in p])
        assert np.array_equal(entropy_rows(p), loop)

    def test_rows_reject_one_row_off_simplex(self):
        p = np.full((3, 2), 0.5)
        p[1] = [0.5, 0.51]
        with pytest.raises(ValueError, match="simplex"):
            entropy_rows(p)

    def test_rows_reject_a_nan_row(self):
        p = np.full((3, 2), 0.5)
        p[1, 0] = np.nan
        with pytest.raises(ValueError, match="simplex"):
            entropy_rows(p)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=6))
    def test_range_property(self, raw):
        p = np.asarray(raw) / np.sum(raw)
        h = entropy_rows(p[None, :])[0]
        assert -1e-12 <= h <= np.log(len(p)) + 1e-12


class TestDecomposePbm:
    def test_constant_sampler(self):
        triple = decompose_pbm(np.full((100, 2), 0.5))
        np.testing.assert_allclose(triple.reducible, 0.0, atol=1e-15)
        np.testing.assert_allclose(triple.data, 0.25)
        np.testing.assert_allclose(triple.irreducible, 0.0)

    def test_pure_disagreement(self):
        triple = decompose_pbm(np.tile([[1.0, 0.0], [0.0, 1.0]], (50, 1)))
        np.testing.assert_allclose(triple.reducible, 0.25)
        np.testing.assert_allclose(triple.data, 0.0, atol=1e-15)

    def test_terms_sum_to_total_exactly(self):
        rng = np.random.default_rng(4)
        draws = rng.dirichlet([1.0, 1.0, 1.0], size=64)
        triple = decompose_pbm(draws)
        np.testing.assert_allclose(triple.reducible + triple.irreducible + triple.data,
                                   triple.total, atol=1e-14)

    def test_against_nested_simulation(self):
        # simulate y ~ Cat(h) under random h draws; indicator variance
        # should match the decomposition total within MC error
        rng = np.random.default_rng(5)
        draws = rng.dirichlet([2.0, 1.0, 0.5], size=200)
        triple = decompose_pbm(draws)
        n_sim = 200_000
        h = draws[rng.integers(0, 200, size=n_sim)]
        y = (rng.uniform(size=n_sim)[:, None] > h.cumsum(axis=1)).sum(axis=1)
        for k in range(3):
            ind = (y == k).astype(float)
            se = ind.std() / np.sqrt(n_sim) * 3.0 + 1e-4
            assert abs(ind.var() - triple.total[k]) <= se

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            decompose_pbm(np.array([[1.0, 0.0]]))

    def test_unstacked_vector_rejected(self):
        # one (K,) probability vector is not K draws of a scalar
        with pytest.raises(ValueError, match="\\(S, K\\) stack"):
            decompose_pbm(np.array([0.3, 0.7]))


class TestDecomposeCbm:
    def test_deterministic_outer_uniform_alpha(self):
        triple = decompose_cbm(np.ones((50, 2)))
        np.testing.assert_allclose(triple.reducible, 0.0, atol=1e-15)
        np.testing.assert_allclose(triple.irreducible, 1.0 / 12.0)
        np.testing.assert_allclose(triple.data, 1.0 / 6.0)

    def test_terms_sum_to_total_exactly(self):
        rng = np.random.default_rng(6)
        alphas = rng.uniform(0.3, 10.0, size=(40, 4))
        triple = decompose_cbm(alphas)
        np.testing.assert_allclose(triple.reducible + triple.irreducible + triple.data,
                                   triple.total, atol=1e-14)

    def test_against_nested_sampling_oracle(self):
        rng = np.random.default_rng(7)
        alphas = rng.uniform(0.5, 6.0, size=(100, 3))
        triple = decompose_cbm(alphas)
        n_sim = 200_000
        a = alphas[rng.integers(0, 100, size=n_sim)]
        pis = np.stack([rng.dirichlet(row) for row in a[:5000]])
        # irreducible + data at the sampled alphas, via pi draws
        mean_pi = pis.mean(axis=0)
        se = pis.std(axis=0) / np.sqrt(len(pis)) * 3.0 + 1e-3
        # E over outer draws of E[pi] should match the decomposition's
        # implied overall mean
        np.testing.assert_array_less(
            np.abs(mean_pi - (a[:5000] / a[:5000].sum(axis=1, keepdims=True)).mean(axis=0)),
            se)
        np.testing.assert_allclose(triple.reducible + triple.irreducible + triple.data,
                                   triple.total, atol=1e-14)

    def test_minimum_samples(self):
        with pytest.raises(ValueError):
            decompose_cbm(np.array([[1.0, 1.0]]))

    def test_unstacked_vector_rejected(self):
        with pytest.raises(ValueError, match="\\(S, K\\) stack"):
            decompose_cbm(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_concentration_rejected(self, bad):
        with pytest.raises(DomainError):
            decompose_cbm(np.array([[1.0, bad]] * 2))


class TestMixtureOracle:
    def setup_method(self):
        self.oracle = MixtureOracle(priors=[0.5, 0.5], means=[-1.0, 1.0],
                                    variances=[1.0, 1.0])

    def test_symmetry_point(self):
        x = np.array([0.0])
        f = self.oracle.f_true(x)[0]
        risk = self.oracle.point_risk(f, x)[0]
        r_star = self.oracle.irreducible_risk(x)[0]
        np.testing.assert_allclose(f, [0.5, 0.5], atol=1e-12)
        assert r_star == pytest.approx(0.5)
        assert risk == pytest.approx(0.5)

    def test_irreducible_risk_from_posterior(self):
        # at a point where f = (0.9, 0.1) the irreducible risk is 0.1
        x = np.array([0.5 * np.log(9.0) / 1.0])  # logit of the posterior is 2x here
        f = self.oracle.f_true(x)[0]
        assert f[1] == pytest.approx(0.9, abs=1e-12)
        assert self.oracle.irreducible_risk(x)[0] == pytest.approx(0.1, abs=1e-12)

    def test_bayes_error_matches_closed_form(self):
        # equal-variance symmetric case: error = Phi(-separation/2sigma)
        assert self.oracle.bayes_error() == pytest.approx(norm.cdf(-1.0), abs=1e-6)

    def test_f_true_sums_to_one(self):
        xs = np.linspace(-6.0, 6.0, 101)
        np.testing.assert_allclose(self.oracle.f_true(xs).sum(axis=1), 1.0, atol=1e-12)

    def test_r_star_range(self):
        xs = np.linspace(-8.0, 8.0, 101)
        r = self.oracle.irreducible_risk(xs)
        assert np.all(r >= 0.0) and np.all(r <= 0.5)

    def test_priors_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            MixtureOracle(priors=[0.7, 0.7], means=[0.0, 1.0], variances=[1.0, 1.0])

    def test_positive_variances(self):
        with pytest.raises(ValueError, match="positive"):
            MixtureOracle(priors=[0.5, 0.5], means=[0.0, 1.0], variances=[1.0, 0.0])


class TestRiskProductCheck:
    def test_equal_arguments(self):
        assert risk_product_check(0.7, 0.7)

    def test_hand_case(self):
        assert risk_product_check(0.6, 0.9)

    def test_random_pairs_no_violations(self):
        rng = np.random.default_rng(8)
        pairs = rng.uniform(0.5, 1.0, size=(10**5, 2))
        assert all(risk_product_check(p, q) for p, q in pairs)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            risk_product_check(0.4, 0.9)


class TestPredictionSet:
    def test_rejects_off_simplex_rows(self):
        with pytest.raises(ValueError, match="sum"):
            PredictionSet(np.array([[0.6, 0.6]]), np.array([0]))

    def test_rejects_nan_rows(self):
        with pytest.raises(ValueError, match="sum"):
            PredictionSet(np.array([[0.5, 0.5], [np.nan, 0.5]]), np.array([0, 1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="range"):
            PredictionSet(np.array([[0.5, 0.5]]), np.array([2]))

    def test_error_rate(self):
        preds = PredictionSet(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0, 0]))
        assert error_rate(preds) == pytest.approx(0.5)

    def test_entropies_shape(self):
        preds = PredictionSet(np.full((4, 2), 0.5), np.zeros(4, dtype=int))
        np.testing.assert_allclose(entropy_rows(preds.probs), np.log(2.0))
