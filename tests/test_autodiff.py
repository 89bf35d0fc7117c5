"""Tests for the reverse-mode autodiff core, and for the elementary ops of
``unfused`` from which the tests build their reference graphs.

Every primitive's analytic gradient is checked against central finite
differences; the special functions are checked against a high-precision
mpmath oracle.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etproc import autodiff as ad
from etproc.autodiff import (
    AdamState,
    ShapeMismatchError,
    Tape,
    Tensor,
    adam_step,
    backward,
)
from etproc.models import _dirichlet_mean

import unfused as uf

FD_STEP = 1e-5
FD_RTOL = 1e-4


def finite_diff_grad(fn, x, step=FD_STEP):
    """Central finite differences of a scalar-valued fn at array x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        grad[idx] = (fn(xp) - fn(xm)) / (2.0 * step)
    return grad


def assert_grad_matches(build_loss, x0, rtol=FD_RTOL):
    """build_loss(tensor) -> scalar Tensor; compares backward vs FD."""
    tape = Tape()
    leaf = tape.leaf(x0)
    loss = build_loss(leaf)
    grads = backward(loss)
    analytic = grads[leaf.node_id]

    def scalar_fn(x):
        t = Tape()
        return float(build_loss(t.leaf(x)).data)

    numeric = finite_diff_grad(scalar_fn, x0)
    scale = np.maximum(np.abs(numeric), 1.0)
    np.testing.assert_allclose(analytic, numeric, atol=rtol * scale.max())


class TestPrimitiveValues:
    def test_softmax_rows_symmetry(self):
        out = uf.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_softmax_rows_sum_and_positivity(self):
        rng = np.random.default_rng(0)
        out = uf.softmax_rows(Tensor(rng.normal(size=(7, 5)) * 10.0))
        assert np.all(out.data > 0.0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_tanh_origin_value_and_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([0.0]))
        y = ad.tanh(x)
        assert y.data[0] == 0.0
        g = backward(uf.tsum(y))
        np.testing.assert_allclose(g[x.node_id], [1.0])

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 3))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_allclose(out.data, a)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="non-positive"):
            uf.log(Tensor([1.0, 0.0]))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))

    def test_row_bias_add(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.array([10.0, 20.0, 30.0])
        out = ad.add(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a + b)

    def test_clip_upper_values(self):
        out = uf.clip_upper(Tensor([1.0, 5.0, 9.0]), 5.0)
        np.testing.assert_allclose(out.data, [1.0, 5.0, 5.0])

    def test_primitives_give_finite_values(self):
        a = Tensor(np.ones((2, 2)))
        outs = [ad.matmul(a, a), ad.add(a, a), uf.sub(a, a), uf.mul(a, a), uf.relu(a),
                ad.tanh(a), uf.exp(a), uf.log(a), uf.softmax_rows(a), uf.tsum(a),
                uf.tmean(a), ad.concat([a, a], axis=0), uf.scale(2.0, a)]
        for out in outs:
            assert np.all(np.isfinite(out.data))

    def test_stacked_ops_match_each_slice(self):
        # a leading stack axis gives each slice the result of the 2-D op, bit for bit
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(3, 4, 5)), rng.normal(size=(5, 2))
        shared, per_slice = rng.normal(size=2), rng.normal(size=(3, 2))
        out = ad.matmul(Tensor(a), Tensor(b))
        for i in range(3):
            assert np.array_equal(out.data[i], ad.matmul(Tensor(a[i]), Tensor(b)).data)
            assert np.array_equal(ad.matmul(Tensor(a[i].T), Tensor(a)).data[i],
                                  ad.matmul(Tensor(a[i].T), Tensor(a[i])).data)
        for op in (ad.add, uf.sub):
            for bias in (shared, per_slice):
                got = op(out, Tensor(bias)).data
                for i in range(3):
                    row_bias = bias if bias.ndim == 1 else bias[i]
                    assert np.array_equal(got[i], op(Tensor(out.data[i]), Tensor(row_bias)).data)
        assert np.array_equal(uf.transpose(Tensor(a)).data[1], a[1].T)
        assert np.array_equal(uf.softmax_rows(Tensor(a)).data[2],
                              uf.softmax_rows(Tensor(a[2])).data)

    def test_stack_shape_mismatches(self):
        with pytest.raises(ShapeMismatchError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))
        with pytest.raises(ShapeMismatchError, match="add"):
            ad.add(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4))))


class TestBackward:
    def test_quadratic(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        loss = uf.tsum(uf.mul(x, x))
        g = backward(loss)
        np.testing.assert_allclose(g[x.node_id], [2.0, 4.0])

    def test_untouched_leaf_gets_zeros(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        unused = tape.leaf(np.array([[3.0, 4.0]]))
        loss = uf.tsum(uf.mul(x, x))
        g = backward(loss)
        np.testing.assert_array_equal(g[unused.node_id], np.zeros((1, 2)))

    def test_nonscalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="scalar"):
            backward(uf.mul(x, x))

    def test_off_tape_loss_rejected(self):
        with pytest.raises(ValueError, match="tape"):
            backward(Tensor(np.array(1.0)))

    def test_two_layer_network_finite_differences(self):
        rng = np.random.default_rng(7)
        w1 = rng.normal(size=(4, 8))
        x = rng.normal(size=(5, 4))
        w2 = rng.normal(size=(8, 3))
        b = rng.normal(size=3)

        def loss_of_w1(w):
            t = Tape()
            leaf = t.leaf(w)
            h = uf.relu(ad.matmul(Tensor(x), leaf))
            out = ad.add(ad.matmul(h, Tensor(w2)), Tensor(b))
            return uf.tmean(uf.mul(out, out))

        tape = Tape()
        leaf = tape.leaf(w1)
        h = uf.relu(ad.matmul(Tensor(x), leaf))
        out = ad.add(ad.matmul(h, Tensor(w2)), Tensor(b))
        loss = uf.tmean(uf.mul(out, out))
        analytic = backward(loss)[leaf.node_id]
        numeric = finite_diff_grad(lambda w: float(loss_of_w1(w).data), w1)
        np.testing.assert_allclose(analytic, numeric, rtol=FD_RTOL, atol=1e-8)

    def test_determinism_bitwise(self):
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(3, 4))

        def run():
            tape = Tape()
            leaf = tape.leaf(x0)
            loss = uf.tsum(uf.softmax_rows(ad.tanh(leaf)))
            return backward(loss)[leaf.node_id]

        g1, g2 = run(), run()
        assert np.array_equal(g1, g2)


class TestPrimitiveGradients:
    """Central finite differences for every primitive kind."""

    def test_matmul(self):
        rng = np.random.default_rng(10)
        b = rng.normal(size=(4, 3))
        assert_grad_matches(
            lambda x: uf.tsum(uf.mul(ad.matmul(x, Tensor(b)), ad.matmul(x, Tensor(b)))),
            rng.normal(size=(2, 4)))

    def test_add_bias(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4))
        assert_grad_matches(
            lambda bias: uf.tsum(ad.tanh(ad.add(Tensor(a), bias))),
            rng.normal(size=4))

    def test_sub(self):
        rng = np.random.default_rng(12)
        b = rng.normal(size=(2, 3))
        assert_grad_matches(
            lambda x: uf.tmean(uf.mul(uf.sub(x, Tensor(b)), uf.sub(x, Tensor(b)))),
            rng.normal(size=(2, 3)))

    def test_mul(self):
        rng = np.random.default_rng(13)
        b = rng.normal(size=(3, 3))
        assert_grad_matches(lambda x: uf.tsum(uf.mul(x, Tensor(b))),
                            rng.normal(size=(3, 3)))

    def test_scale(self):
        rng = np.random.default_rng(14)
        assert_grad_matches(lambda x: uf.tsum(uf.scale(2.5, x)),
                            rng.normal(size=(2, 2)))

    def test_relu(self):
        rng = np.random.default_rng(15)
        # keep entries away from the kink
        x0 = rng.normal(size=(3, 3))
        x0[np.abs(x0) < 0.05] = 0.1
        assert_grad_matches(lambda x: uf.tsum(uf.mul(uf.relu(x), uf.relu(x))), x0)

    def test_tanh(self):
        rng = np.random.default_rng(16)
        assert_grad_matches(lambda x: uf.tsum(ad.tanh(x)), rng.normal(size=(2, 4)))

    def test_exp(self):
        rng = np.random.default_rng(17)
        assert_grad_matches(lambda x: uf.tsum(uf.exp(x)), rng.normal(size=(2, 2)))

    def test_log(self):
        rng = np.random.default_rng(18)
        assert_grad_matches(lambda x: uf.tsum(uf.log(x)),
                            rng.uniform(0.5, 3.0, size=(2, 3)))

    def test_reciprocal(self):
        rng = np.random.default_rng(19)
        assert_grad_matches(lambda x: uf.tsum(uf.reciprocal(x)),
                            rng.uniform(0.5, 2.0, size=(2, 2)))

    def test_softmax_rows(self):
        rng = np.random.default_rng(20)
        w = rng.normal(size=(3, 4))
        assert_grad_matches(
            lambda x: uf.tsum(uf.mul(uf.softmax_rows(x), Tensor(w))),
            rng.normal(size=(3, 4)))

    def test_sum_and_mean(self):
        rng = np.random.default_rng(21)
        assert_grad_matches(lambda x: uf.tsum(x), rng.normal(size=(2, 3)))
        assert_grad_matches(lambda x: uf.tmean(x), rng.normal(size=(2, 3)))

    def test_concat(self):
        rng = np.random.default_rng(22)
        b = rng.normal(size=(2, 3))
        assert_grad_matches(
            lambda x: uf.tsum(ad.tanh(ad.concat([x, Tensor(b)], axis=0))),
            rng.normal(size=(2, 3)))

    @pytest.mark.parametrize("axis, shape", [(1, (2, 3)), (1, (2, 3, 2)), (-1, (2, 3, 2))])
    def test_concat_inner_axis(self, axis, shape):
        rng = np.random.default_rng(24)
        b = rng.normal(size=shape)
        w = rng.normal(size=np.concatenate([b, b], axis=axis).shape)
        assert_grad_matches(
            lambda x: uf.tsum(uf.mul(ad.tanh(ad.concat([Tensor(b), x], axis=axis)), Tensor(w))),
            rng.normal(size=shape))

    def test_transpose(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=(3, 2))
        assert_grad_matches(
            lambda x: uf.tsum(ad.matmul(Tensor(w), uf.transpose(x))),
            rng.normal(size=(4, 2)))

    def test_clip_upper_blocks_gradient(self):
        tape = Tape()
        x = tape.leaf(np.array([1.0, 9.0]))
        loss = uf.tsum(uf.clip_upper(x, 5.0))
        g = backward(loss)[x.node_id]
        np.testing.assert_allclose(g, [1.0, 0.0])

    def test_lgamma(self):
        rng = np.random.default_rng(24)
        assert_grad_matches(lambda x: uf.tsum(uf.lgamma(x)),
                            rng.uniform(0.5, 5.0, size=(2, 3)))

    def test_digamma(self):
        rng = np.random.default_rng(25)
        assert_grad_matches(lambda x: uf.tsum(uf.digamma(x)),
                            rng.uniform(0.5, 5.0, size=(2, 3)))

    def test_sum_rows(self):
        rng = np.random.default_rng(26)
        w = rng.normal(size=(3, 1))
        assert_grad_matches(lambda x: uf.tsum(uf.mul(uf.sum_rows(ad.tanh(x)), Tensor(w))),
                            rng.normal(size=(3, 4)))

    def test_take_labels(self):
        rng = np.random.default_rng(27)
        w = rng.normal(size=(4, 1))
        labels = np.array([2, 0, 2, 1])
        assert_grad_matches(
            lambda x: uf.tsum(uf.mul(uf.take_labels(ad.tanh(x), labels), Tensor(w))),
            rng.normal(size=(4, 3)))

    def test_columns(self):
        rng = np.random.default_rng(29)
        w = rng.normal(size=(3, 2))
        assert_grad_matches(
            lambda x: uf.tsum(uf.mul(ad.tanh(uf.columns(x, 1, 3)), Tensor(w))),
            rng.normal(size=(3, 4)))

    def test_unstack(self):
        rng = np.random.default_rng(28)
        w = rng.normal(size=(2, 3))

        def build(x):
            first, second = uf.unstack(ad.tanh(x))
            return uf.tsum(uf.mul(uf.mul(first, second), Tensor(w)))

        assert_grad_matches(build, rng.normal(size=(2, 2, 3)))


class TestStackedGradients:
    """Central finite differences for the ops that take a leading stack axis."""

    def test_matmul_stack_times_matrix(self):
        rng = np.random.default_rng(40)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(4, 3))
        assert_grad_matches(lambda x: uf.tsum(ad.tanh(ad.matmul(x, Tensor(b)))), a)
        assert_grad_matches(lambda w: uf.tsum(ad.tanh(ad.matmul(Tensor(a), w))), b)

    def test_matmul_matrix_times_stack(self):
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(2, 4)), rng.normal(size=(3, 4, 3))
        assert_grad_matches(lambda x: uf.tsum(ad.tanh(ad.matmul(x, Tensor(b)))), a)
        assert_grad_matches(lambda w: uf.tsum(ad.tanh(ad.matmul(Tensor(a), w))), b)

    def test_matmul_stack_times_stack(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 2))
        assert_grad_matches(lambda x: uf.tsum(ad.tanh(ad.matmul(x, Tensor(b)))), a)
        assert_grad_matches(lambda w: uf.tsum(ad.tanh(ad.matmul(Tensor(a), w))), b)

    @pytest.mark.parametrize("op", [ad.add, uf.sub])
    @pytest.mark.parametrize("bias_shape", [(4,), (3, 4)])
    def test_bias_on_a_stack(self, op, bias_shape):
        rng = np.random.default_rng(43)
        a, bias = rng.normal(size=(3, 2, 4)), rng.normal(size=bias_shape)
        assert_grad_matches(lambda x: uf.tsum(ad.tanh(op(x, Tensor(bias)))), a)
        assert_grad_matches(lambda b: uf.tsum(ad.tanh(op(Tensor(a), b))), bias)

    def test_transpose_of_a_stack(self):
        rng = np.random.default_rng(44)
        w = rng.normal(size=(3, 4, 2))
        assert_grad_matches(
            lambda x: uf.tsum(ad.tanh(ad.matmul(uf.transpose(x), Tensor(w)))),
            rng.normal(size=(3, 4, 2)))

    def test_softmax_rows_of_a_stack(self):
        rng = np.random.default_rng(45)
        w = rng.normal(size=(3, 2, 4))
        assert_grad_matches(
            lambda x: uf.tsum(uf.mul(uf.softmax_rows(x), Tensor(w))),
            rng.normal(size=(3, 2, 4)))


def value_and_grad(build_loss, x0):
    tape = Tape()
    leaf = tape.leaf(x0)
    loss = build_loss(leaf)
    return float(loss.data), backward(loss)[leaf.node_id]


class TestRowPrimitiveOracles:
    """Each row primitive against the matmul-with-ones graph it replaced."""

    def assert_same(self, fused, unfused, x0):
        v1, g1 = value_and_grad(fused, x0)
        v2, g2 = value_and_grad(unfused, x0)
        assert v1 == pytest.approx(v2, rel=0, abs=1e-12)
        np.testing.assert_allclose(g1, g2, rtol=0, atol=1e-12)

    def test_sum_rows_matches_matmul_with_ones(self):
        rng = np.random.default_rng(29)
        w = Tensor(rng.normal(size=(5, 1)))
        self.assert_same(
            lambda x: uf.tsum(uf.mul(uf.sum_rows(uf.exp(x)), w)),
            lambda x: uf.tsum(uf.mul(ad.matmul(uf.exp(x), np.ones((4, 1))), w)),
            rng.normal(size=(5, 4)))

    def test_take_labels_matches_onehot_row_sum(self):
        rng = np.random.default_rng(30)
        w = Tensor(rng.normal(size=(6, 1)))
        labels = rng.integers(0, 3, size=6)
        onehot = np.eye(3)[labels]
        self.assert_same(
            lambda x: uf.tsum(uf.mul(uf.take_labels(uf.exp(x), labels), w)),
            lambda x: uf.tsum(uf.mul(
                ad.matmul(uf.mul(uf.exp(x), onehot), np.ones((3, 1))), w)),
            rng.normal(size=(6, 3)))

    def test_unstack_matches_selector_products(self):
        rng = np.random.default_rng(31)
        w = rng.normal(size=3)
        sel = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])]

        def fused(x):
            first, second = uf.unstack(uf.exp(x))
            return uf.tsum(uf.mul(uf.mul(first, Tensor(w)), second))

        def unfused(x):
            e = uf.exp(x)
            first, second = (ad.matmul(s, e) for s in sel)
            return uf.tsum(uf.mul(uf.mul(first, Tensor(w[None, :])), second))

        self.assert_same(fused, unfused, rng.normal(size=(2, 3)))

    def test_labels_out_of_range(self):
        with pytest.raises(IndexError):
            uf.take_labels(Tensor(np.ones((2, 2))), np.array([0, 2]))


class TestPairwiseSum:
    """``_pairwise_sum`` equals ``np.sum`` over a unit-stride axis bit for bit.

    This pins NumPy's summation order (its ``pairwise_sum``: sequential below
    8 terms, eight accumulators up to 128, two halves split at a multiple of
    8 above), on which the fused attention and the Dirichlet mean rely to
    match the unfused graph. A NumPy that sums in another order fails here.
    """

    @pytest.mark.parametrize("lead", [(3,), (2, 3)])
    def test_matches_numpy_sum(self, lead):
        rng = np.random.default_rng(50)
        for n in range(1, 261):
            x = rng.normal(size=(*lead, n))
            assert np.array_equal(ad._pairwise_sum(x, -1), x.sum(axis=-1, keepdims=True)), n
            t = np.swapaxes(x, -1, -2)  # axis -2 of this view has unit stride
            assert np.array_equal(ad._pairwise_sum(t, -2), t.sum(axis=-2, keepdims=True)), n


class TestRowReductions:
    """``row_max``, ``row_sum`` and ``row_argmax`` equal NumPy's ``max``,
    ``sum`` and ``argmax`` over the last axis bit for bit, on 2-D and
    stacked inputs from one row to many, with ties drawn from few integer
    values. A transposed view, whose rows are not contiguous, sums as NumPy
    sums the same rows laid out C-contiguous, which NumPy's own sum of the
    view does not."""

    @staticmethod
    def same(got, want):
        return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 7, 42, 43, 127, 128, 10000])
    def test_match_numpy(self, n, lead):
        rng, views = np.random.default_rng(55), np.random.default_rng(59)
        for k in range(1, 13):
            for x in (rng.normal(size=(*lead, n, k)),
                      rng.integers(0, 3, size=(*lead, n, k)).astype(np.float64),
                      np.swapaxes(views.normal(size=(*lead, k, n)), -1, -2)):
                assert self.same(ad.row_max(x), x.max(axis=-1, keepdims=True)), k
                assert self.same(ad.row_sum(x), x.copy().sum(axis=-1, keepdims=True)), k
                assert self.same(ad.row_argmax(x), x.argmax(axis=-1)), k

    def test_first_index_wins_ties(self):
        x = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0], [-1.0, -0.0, 0.0]])
        assert ad.row_argmax(x).tolist() == [0, 1, 0, 1]


class TestRowBroadcast:
    """The row broadcasts that run in whole columns on short rows, many rows
    of at most 4, equal NumPy's broadcast expressions bit for bit: the
    softmax's shift and normalisation, the Dirichlet mean's division and a
    bias added to every row."""

    @staticmethod
    def same(got, want):
        return (got.shape, got.tobytes()) == (want.shape, want.tobytes())

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("n", [1, 7, 40, 10000])
    def test_softmax_rows(self, n, lead):
        rng = np.random.default_rng(56)
        for k in range(1, 13):
            x = rng.normal(size=(*lead, n, k)) * 5.0
            want = x - ad.row_max(x)
            np.exp(want, out=want)
            want /= ad.row_sum(want)
            assert self.same(ad.softmax_rows(x), want), k

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("n", [1, 7, 40, 10000])
    def test_dirichlet_mean(self, n, lead):
        rng = np.random.default_rng(57)
        for k in range(1, 13):
            alpha = np.exp(rng.normal(size=(*lead, n, k)) * 3.0)
            assert self.same(_dirichlet_mean(alpha), alpha / ad.row_sum(alpha)), k

    @pytest.mark.parametrize("n", [1, 7, 40, 10000])
    def test_bias_rows(self, n):
        """A bias row, (K,), and one bias row per slice, (S, 1, K), with
        signed zeros on both sides."""
        rng = np.random.default_rng(58)
        for k in range(1, 13):
            x = rng.normal(size=(3, n, k))
            x[:, ::3] = -0.0
            for b in (rng.normal(size=k), rng.normal(size=(3, 1, k))):
                b[..., ::2] = -0.0
                want = x + b
                assert self.same(ad.row_broadcast(np.add, x, b, x.copy()), want), k
                if b.ndim == 1:
                    assert self.same(ad.row_broadcast(np.add, x[0], b, x[0].copy()), want[0])

    @pytest.mark.parametrize("op", [np.add, np.subtract])
    @pytest.mark.parametrize("k", [5, 10, 32])
    @pytest.mark.parametrize("n", [1499, 1500, 1501, 10000, 10007])
    def test_bias_long_rows(self, n, k, op):
        """A bias row, (K,), over many rows of more than 4, on both sides of
        the 1500-row rule and with rows left over after the long rows, with
        signed zeros in x and the bias; in place and into a separate out.
        Stacked too: a stack of one under its (1, 1, K) bias, the (K,) bias
        shared by two slices, and a bias per slice, (2, 1, K)."""
        rng = np.random.default_rng(60)
        x = rng.normal(size=(n, k))
        x[::3, ::2] = -0.0
        x[1::3, ::2] = 0.0
        b = rng.normal(size=k)
        b[::3] = -0.0
        b[1::3] = 0.0
        want = op(x, b)
        out = np.full(x.shape, np.nan)
        assert ad.row_broadcast(op, x, b, out) is out and self.same(out, want)
        got = x.copy()
        assert ad.row_broadcast(op, got, b, got) is got and self.same(got, want)
        two = np.stack([x, x[::-1]])
        for xs, bs in ((x[None], b[None, None]), (two, b), (two, np.stack([b, -b])[:, None])):
            out = np.full(xs.shape, np.nan)
            assert ad.row_broadcast(op, xs, bs, out) is out and self.same(out, op(xs, bs))

    def test_rule(self):
        """Columns from 512 rows per column on rows of at most 4; long rows
        from 1500 rows in all for one bias row on C-contiguous x and out."""
        assert [ad._short_rows(np.empty((n, 2))) for n in (1023, 1024)] == [False, True]
        assert [ad._short_rows(np.empty((n, 4))) for n in (2047, 2048)] == [False, True]
        assert ad._short_rows(np.empty((4, 512, 2))) and not ad._short_rows(np.empty((10**5, 5)))
        b = np.empty(32)
        x = np.empty((1500, 32))
        assert [ad._long_rows(np.empty((n, 32)), b, np.empty((n, 32))) for n in (1499, 1500)] \
            == [False, True]
        assert not ad._long_rows(x, np.empty((1500, 1)), x)  # a column
        one = [np.empty((1, n, 32)) for n in (1499, 1500)]  # a stack of one
        assert [ad._long_rows(s, np.empty((1, 1, 32)), s) for s in one] == [False, True]
        two = np.empty((2, 1500, 32))
        assert ad._long_rows(two, b, two)  # one bias shared by two slices
        assert not ad._long_rows(two, np.empty((2, 1, 32)), two)  # a bias per slice
        t = np.empty((32, 1500)).T
        assert not ad._long_rows(t, b, x) and not ad._long_rows(x, b, t)


def attention_unfused(v, keys, z, scale):
    """The graph that ``ad.attention`` fuses, with its weights as an array."""
    phi = uf.softmax_rows(uf.scale(scale, ad.matmul(v, uf.transpose(keys))))
    return ad.matmul(phi, z), phi.data


def attention_memory_major(v, keys, z, scale):
    """Read and weights from scores formed as ``keys @ v.T``, (R, N), then a
    row softmax of their transposed copy: the layout of ``ad.attention``."""
    scores = scale * (keys @ np.swapaxes(v, -1, -2))
    phi = uf.softmax_rows(np.swapaxes(scores, -1, -2).copy()).data
    return phi @ z, phi


class TestAttention:
    K = 3

    def operands(self, n, r, stack, seed=51):
        """v, keys and z, each 2-D or leading with a stack of 4 draws."""
        rng = np.random.default_rng(seed)
        s_v = (4,) if stack in ("queries", "both") else ()
        s_m = (4,) if stack in ("memory", "both") else ()
        return {"v": rng.normal(size=(*s_v, n, self.K)) * 2.0,
                "keys": rng.normal(size=(*s_m, r, self.K)),
                "z": rng.normal(size=(*s_m, r, self.K))}

    @staticmethod
    def run(attend, arrays, shared_keys):
        """read, phi and each operand's gradient of a loss that also reaches v
        and z outside the attention, as ETP's v + tanh(read) reaches v.
        The keys pass through a linear map, as through ETP's key net; with
        ``shared_keys`` z is its own keys, as with ETP's identity keys, and
        gets three adjoint terms, so the order of the terms counts."""
        rng = np.random.default_rng(52)
        tape = Tape()
        leaves = {name: tape.leaf(a) for name, a in arrays.items()}
        v, z = leaves["v"], leaves["z"]
        keys = z if shared_keys else ad.matmul(leaves["keys"], Tensor(rng.normal(size=(3, 3))))
        read, phi = attend(v, keys, z, 1.0 / np.sqrt(3.0))
        out = ad.tanh(read)
        if read.shape == v.shape:
            out = ad.add(v, out)
        loss = ad.add(uf.tsum(uf.mul(out, Tensor(rng.normal(size=read.shape)))),
                      uf.tsum(ad.tanh(z)))
        grads = backward(loss)
        return read.data, phi, {name: grads[leaf.node_id] for name, leaf in leaves.items()}

    @pytest.mark.parametrize("shared_keys", [False, True])
    @pytest.mark.parametrize("stack", ["none", "queries", "memory", "both"])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    @pytest.mark.parametrize("r", [5, 16, 130])
    def test_matches_unfused_graph_bit_for_bit(self, r, n, stack, shared_keys):
        arrays = self.operands(n, r, stack)
        read, phi, grads = self.run(ad.attention, arrays, shared_keys)
        want_read, want_phi, want_grads = self.run(attention_unfused, arrays, shared_keys)
        assert np.array_equal(read, want_read)
        assert np.array_equal(phi, want_phi) and phi.flags.c_contiguous
        for name in arrays:
            assert np.array_equal(grads[name], want_grads[name]), name

    @pytest.mark.parametrize("stack", ["none", "queries", "memory", "both"])
    @pytest.mark.parametrize("n", [1, 2, 40, 300, 1000, 1500, 10000])
    @pytest.mark.parametrize("r", [5, 16, 130])
    def test_prediction_sizes_match_unfused_forward(self, r, n, stack):
        """At N >= 2 the scores are formed as keys @ v.T, in the softmax's
        (R, N) layout, and equal the memory-major reference bit for bit. They
        need not round as the unfused v @ keys.T: at R >= 16 they differ for
        some N between 257 and 1999 (300 and 1500 here; 1500 is wide-idx's
        ETP prediction), by up to about 1e-15 on the read and 1e-14 relative
        on phi, so the unfused graph is held to a tolerance. One query keeps
        the unfused form, bit for bit. Query widths K of 2, 3 and 10, as the
        tasks have."""
        rng = np.random.default_rng(56)
        s_v = (2,) if stack in ("queries", "both") else ()
        s_m = (2,) if stack in ("memory", "both") else ()
        for k in (2, 3, 10):
            v = rng.normal(size=(*s_v, n, k)) * 2.0
            keys, z = rng.normal(size=(2, *s_m, r, k))
            read, phi = ad.attention(v, keys, z, 1.0 / np.sqrt(k))
            want_read, want_phi = attention_unfused(v, keys, z, 1.0 / np.sqrt(k))
            want_read = want_read.data
            np.testing.assert_allclose(read.data, want_read, rtol=1e-13, atol=1e-14)
            np.testing.assert_allclose(phi, want_phi, rtol=1e-13, atol=0.0)
            if n > 1:
                want_read, want_phi = attention_memory_major(v, keys, z, 1.0 / np.sqrt(k))
            assert np.array_equal(read.data, want_read), k
            assert np.array_equal(phi, want_phi) and phi.flags.c_contiguous, k

    @pytest.mark.parametrize("width", [3, 6])  # identity keys (ETP), [mu | lv] values (ENP)
    @pytest.mark.parametrize("stack", ["none", "queries", "memory", "both"])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_keys_from_values_match_column_graph(self, n, stack, width):
        """``keys`` None keys the cells by z's first K columns: read, phi and
        the adjoints of v and z, and of the leaves under them, equal the
        graph that slices those columns in a ``columns`` record, byte for
        byte, zero signs included."""
        rng = np.random.default_rng(57)
        s_v = (4,) if stack in ("queries", "both") else ()
        s_m = (4,) if stack in ("memory", "both") else ()
        arrays = {"v": rng.normal(size=(*s_v, n, self.K)) * 2.0,
                  "z": rng.normal(size=(*s_m, 5, width))}
        arrays["v"][..., ::3, 0] = -0.0
        arrays["z"][..., ::2, 1], arrays["z"][..., 1::2, 0] = -0.0, 0.0
        w = rng.normal(size=np.broadcast_shapes(s_v, s_m) + (n, width))
        w[..., ::2, 0], w[..., 1::2, -1] = -0.0, 0.0

        def run(keys_of):
            tape = Tape()
            leaves = {name: tape.leaf(a) for name, a in arrays.items()}
            v, z = (uf.scale(1.0, leaves[name]) for name in ("v", "z"))  # keeps -0
            read, phi = ad.attention(v, keys_of(z), z, 1.0 / np.sqrt(self.K))
            grads = backward(uf.tsum(uf.mul(read, Tensor(w))))
            tensors = (read, v, z, *leaves.values())
            return [read.data.tobytes(), phi.tobytes(),
                    *(grads[t.node_id].tobytes() for t in tensors[1:])], tape

        got, tape = run(lambda z: None)
        want, want_tape = run(lambda z: uf.columns(z, 0, self.K))
        assert got == want
        assert len(tape._records) == len(want_tape._records) - 1  # no columns record

    def test_keys_from_values_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="attention"):
            ad.attention(Tensor(np.ones((2, 4))), None, Tensor(np.ones((5, 3))), 1.0)

    def test_one_tape_record(self):
        tape = Tape()
        v, keys, z = (tape.leaf(a) for a in self.operands(4, 5, "none").values())
        read, phi = ad.attention(v, keys, z, 0.5)
        assert len(tape._records) == 1 and isinstance(phi, np.ndarray)

    @pytest.mark.parametrize("operand", ["v", "keys", "z"])
    @pytest.mark.parametrize("stack", ["none", "both"])
    def test_finite_differences(self, operand, stack):
        arrays = self.operands(3, 5, stack, seed=53)
        w = np.random.default_rng(54).normal(size=np.broadcast_shapes(
            arrays["v"].shape[:-2], arrays["z"].shape[:-2]) + (3, self.K))

        def build(x):
            args = {**{k: Tensor(a) for k, a in arrays.items()}, operand: x}
            read, _ = ad.attention(args["v"], args["keys"], args["z"], 0.7)
            return uf.tsum(uf.mul(ad.tanh(read), Tensor(w)))

        assert_grad_matches(build, arrays[operand])

    @pytest.mark.parametrize("shapes", [
        ((2, 3), (5, 4), (5, 3)),        # query and key widths differ
        ((2, 3), (5, 3), (4, 3)),        # keys and values differ in cell count
        ((2, 2, 3), (3, 5, 3), (3, 5, 3)),  # stacks of different sizes
        ((3,), (5, 3), (5, 3)),          # a 1-D query
    ])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ShapeMismatchError, match="attention"):
            ad.attention(*(Tensor(np.ones(s)) for s in shapes), 1.0)


def mlp_layout(dims):
    """(offset, fan_in, fan_out) per layer of a block that holds W0, b0, W1, ..."""
    layout, offset = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        layout.append((offset, fan_in, fan_out))
        offset += (fan_in + 1) * fan_out
    return layout, offset


def mlp_unfused(x, layout, arrays, eps=None):
    """The graph that ``ad.mlp`` fuses, on one leaf per array: a
    ``gaussian_reparam`` per array when there is noise, then matmul, add
    and relu per layer. ``arrays`` maps "W0", "b0", ... (and "W0.lv", ...
    with noise) to leaves."""
    h = x
    for i, (off, fan_in, fan_out) in enumerate(layout):
        layer = []
        for name, start, shape in ((f"W{i}", off, (fan_in, fan_out)),
                                   (f"b{i}", off + fan_in * fan_out, (fan_out,))):
            w = arrays[name]
            if eps is not None:
                noise = eps[..., start:start + w.data.size]
                w = uf.reparam(w, arrays[f"{name}.lv"], noise.reshape(*eps.shape[:-1], *shape))
            layer.append(w)
        h = ad.add(ad.matmul(h, layer[0]), layer[1])
        if i < len(layout) - 1:
            h = uf.relu(h)
    return h


class TestMlp:
    """``ad.mlp`` equals the unfused graph, forward and backward, bit for bit."""

    DIMS = [(3, 5, 2), (3, 5, 10), (3, 4, 6, 2), (3, 3)]  # the last: hidden (), a linear net

    @staticmethod
    def leaves(dims, variational, seed=60):
        """A tape with one flat vector, the means then, when variational, the
        log-variances, spanned whole ("block") and per array."""
        layout, size = mlp_layout(dims)
        rng = np.random.default_rng(seed)
        vector = rng.normal(size=size) * 0.8
        if variational:
            vector = np.concatenate([vector, rng.uniform(-3.0, -0.5, size=size)])
        spans = {"block": (0, vector.size, vector.shape)}
        for i, (off, fan_in, fan_out) in enumerate(layout):
            for name, start, shape in ((f"W{i}", off, (fan_in, fan_out)),
                                       (f"b{i}", off + fan_in * fan_out, (fan_out,))):
                stop = start + int(np.prod(shape))
                spans[name] = (start, stop, shape)
                if variational:
                    spans[f"{name}.lv"] = (start + size, stop + size, shape)
        tape = Tape()
        return tape, tape.flat_leaves(vector, spans), layout, size

    def run(self, fused, dims, inputs, noise):
        """Output, the flat gradient and x's gradient of a loss that also
        reaches x outside the network, as ENP's loss reaches its head's input."""
        rng = np.random.default_rng(61)
        tape, leaves, layout, size = self.leaves(dims, noise is not None)
        stack = (4,) if inputs == "stacked" else ()
        x_data = rng.normal(size=(*stack, 7, dims[0]))
        x = tape.leaf(x_data) if inputs == "tracked" else Tensor(x_data)
        eps = None
        if noise is not None:
            eps = rng.normal(size=(4, size) if noise == "stacked" else size)
        if fused:
            out = ad.mlp(x, layout, leaves["block"], eps)
        else:
            out = mlp_unfused(x, layout, leaves, eps)
        loss = uf.tsum(uf.mul(ad.tanh(out), Tensor(rng.normal(size=out.shape))))
        if inputs == "tracked":
            loss = ad.add(loss, uf.tsum(ad.tanh(x)))
        grads = backward(loss)
        g_x = grads[x.node_id] if inputs == "tracked" else None
        return out.data, grads[leaves["block"].node_id], g_x

    @pytest.mark.parametrize("noise", [None, "one", "stacked"])
    @pytest.mark.parametrize("inputs", ["plain", "stacked", "tracked"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_unfused_graph_bit_for_bit(self, dims, inputs, noise):
        out, flat, g_x = self.run(True, dims, inputs, noise)
        want_out, want_flat, want_g_x = self.run(False, dims, inputs, noise)
        assert np.array_equal(out, want_out)
        assert np.array_equal(flat, want_flat)
        assert np.array_equal(g_x, want_g_x)

    @pytest.mark.parametrize("noise", [None, "one", "stacked"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_untracked_matches_unfused_graph(self, dims, noise):
        _, leaves, layout, size = self.leaves(dims, noise is not None)
        arrays = {name: Tensor(leaf.data) for name, leaf in leaves.items()}
        rng = np.random.default_rng(62)
        x = Tensor(rng.normal(size=(7, dims[0])))
        eps = None if noise is None else rng.normal(size=(4, size) if noise == "stacked" else size)
        out = ad.mlp(x, layout, arrays["block"], eps)
        assert out.tape is None
        assert np.array_equal(out.data, mlp_unfused(x, layout, arrays, eps).data)

    def test_one_tape_record(self):
        tape, leaves, layout, size = self.leaves((3, 5, 2), True)
        x = tape.leaf(np.ones((2, 3)))
        ad.mlp(x, layout, leaves["block"], np.zeros(size))
        ad.mlp(x, layout, np.zeros(size))
        assert len(tape._records) == 2

    @pytest.mark.parametrize("operand, noise", [
        ("x", None), ("weights", None), ("x", "one"), ("weights", "one"), ("logvars", "one"),
        ("x", "stacked"), ("weights", "stacked"), ("logvars", "stacked")])
    def test_finite_differences(self, operand, noise):
        dims = (3, 4, 6, 2)
        layout, size = mlp_layout(dims)
        rng = np.random.default_rng(63)
        arrays = {"x": rng.normal(size=(5, 3)), "weights": rng.normal(size=size) * 0.8,
                  "logvars": rng.uniform(-3.0, -0.5, size=size)}
        eps = rng.normal(size=(3, size) if noise == "stacked" else size)
        w = rng.normal(size=(3, 5, 2) if noise == "stacked" else (5, 2))

        def build(t):
            args = {**{k: Tensor(a) for k, a in arrays.items()}, operand: t}
            block = args["weights"]
            if noise is not None:  # the packed block [weights | logvars]
                block = ad.concat([block, args["logvars"]])
            out = ad.mlp(args["x"], layout, block, None if noise is None else eps)
            return uf.tsum(uf.mul(ad.tanh(out), Tensor(w)))

        assert_grad_matches(build, arrays[operand])

    @pytest.mark.parametrize("x_shape, block, logvars, noise", [
        ((2, 4), 21, None, None),   # input width is not the first fan-in
        ((2, 3), 20, None, None),   # block shorter than the layout
        ((3,), 21, None, None),     # a 1-D input
        ((2, 3), 21, 20, 21),       # log-variances of another size
        ((2, 3), 21, 21, 20),       # noise of another size
        ((2, 3), 21, 21, (2, 2, 21)),  # two stack axes of noise
    ])
    def test_shape_mismatch(self, x_shape, block, logvars, noise):
        """``block`` means, and ``logvars`` log-variances packed after them."""
        layout, _ = mlp_layout((3, 4, 1))  # a block of 21
        packed = block + (logvars or 0)
        eps = None if noise is None else np.zeros(noise)
        with pytest.raises(ShapeMismatchError, match="mlp"):
            ad.mlp(Tensor(np.ones(x_shape)), layout, Tensor(np.zeros(packed)), eps)


class TestMlpOneInput:
    """A one-input network, whose first layer forms its products through
    einsum above 2048 of them and adds a short output bias in whole columns,
    equals the unfused matmul/add/relu graph bit for bit, forward and
    backward, zero signs included."""

    @staticmethod
    def bits(a):
        return a.shape, np.ascontiguousarray(a).tobytes()

    def run(self, fused, dims, n, noise):
        """Output, flat gradient and, fused, the untracked output, with +0 and
        -0 planted in the input, W0, the output bias and the noise."""
        rng = np.random.default_rng(64)
        _, leaves, layout, size = TestMlp.leaves(dims, noise is not None, seed=64)
        block = leaves["block"].data  # a view of the tape's flat vector, as every leaf is
        zeros = np.arange(dims[1]) % 3  # W0 is the block's first dims[1] entries
        block[:dims[1]][zeros == 0] = -0.0
        block[:dims[1]][zeros == 1] = 0.0
        block[size - dims[-1]:size:2] = -0.0  # the output bias
        eps = None
        if noise is not None:
            eps = rng.normal(size=(3, size) if noise == "stacked" else size)
            eps[..., :dims[1]][..., zeros < 2] = -0.0  # keeps a -0 weight at -0
            eps[..., size - dims[-1]::2] = -0.0
        x = Tensor(rng.normal(size=(n, 1)))
        x.data[::4], x.data[1::4] = 0.0, -0.0
        out = (ad.mlp(x, layout, leaves["block"], eps) if fused
               else mlp_unfused(x, layout, leaves, eps))
        loss = uf.tsum(uf.mul(ad.tanh(out), Tensor(rng.normal(size=out.shape))))
        untracked = None
        if fused:
            untracked = ad.mlp(x, layout, Tensor(block), eps).data
        return out.data, backward(loss)[leaves["block"].node_id], untracked

    @pytest.mark.parametrize("noise", [None, "one", "stacked"])
    @pytest.mark.parametrize("n", [1, 10, 40, 64, 65, 1000, 10000])
    @pytest.mark.parametrize("dims", [(1, 32, 2), (1, 3)])
    def test_matches_unfused_graph_bit_for_bit(self, dims, n, noise):
        out, flat, untracked = self.run(True, dims, n, noise)
        want_out, want_flat, _ = self.run(False, dims, n, noise)
        assert self.bits(out) == self.bits(want_out)
        assert self.bits(untracked) == self.bits(want_out)
        assert self.bits(flat) == self.bits(want_flat)

    def test_signed_zero_products(self):
        """-0 products meet -0 biases: matmul and einsum both give +0."""
        h = np.array([[-0.0], [0.0], [1.0], [-1.0]] * 600)
        w = np.array([[1.0, -1.0, 0.0, -0.0] * 8])
        got = ad._layer_product(h, w)
        assert got.size > 2048 and self.bits(got) == self.bits(h @ w)
        got += -0.0
        assert not np.signbit(got[np.equal(got, 0.0)]).any()

    def test_stacked_weights_of_one_input(self):
        """One input against 256 stacked weight draws, as a decomposition runs."""
        rng = np.random.default_rng(65)
        h, w = rng.normal(size=(1, 1)), rng.normal(size=(256, 1, 32))
        w[:, :, ::5] = -0.0
        assert self.bits(ad._layer_product(h, w)) == self.bits(h @ w)


class TestStackedLayerProduct:
    """An input shared by S stacked weights (S, D, H) with D >= S * H is one
    GEMM, whose (S, N, H) view equals ``h @ w[s]`` slice by slice, byte for
    byte; a narrower input keeps NumPy's stacked matmul."""

    @pytest.mark.parametrize("n, d, s, h", [
        (1500, 784, 16, 32),  # wide-idx's test split under 16 weight draws
        (300, 100, 3, 32),    # a chunk of an uneven split
        (1, 784, 24, 32),     # one row, S * H just under D
        (40, 96, 3, 32)])     # D = S * H
    def test_one_gemm_matches_per_slice_products(self, n, d, s, h):
        rng = np.random.default_rng(66)
        x, w = rng.normal(size=(n, d)), rng.normal(size=(s, d, h))
        x[::3, ::5], w[:, ::7, ::3] = -0.0, -0.0
        got = ad._layer_product(x, w)
        assert got.shape == (s, n, h)
        for i in range(s):
            assert TestMlpOneInput.bits(got[i]) == TestMlpOneInput.bits(x @ w[i])

    def test_narrow_input_keeps_stacked_matmul(self):
        x, w = np.ones((5, 10)), np.ones((3, 10, 4))  # D = 10 < S * H = 12
        got = ad._layer_product(x, w)  # the one GEMM would give a transposed view
        assert got.flags.c_contiguous and TestMlpOneInput.bits(got) == TestMlpOneInput.bits(x @ w)


def softmax_nll_unfused(logits, labels):
    """The graph that ``ad.softmax_nll`` fuses."""
    log_p = uf.log(uf.softmax_rows(logits))
    return uf.tmean(uf.scale(-1.0, uf.take_labels(log_p, labels)))


class TestSoftmaxNll:
    @staticmethod
    def run(nll, n, k, seed=70):
        """Value and logits gradient of a loss that also reaches the logits
        outside the NLL, as a network's output bias sees one adjoint."""
        rng = np.random.default_rng(seed)
        tape = Tape()
        logits = tape.leaf(rng.normal(size=(n, k)) * 3.0)
        labels = rng.integers(0, k, size=n)
        loss = ad.add(nll(logits, labels), uf.scale(0.3, uf.tsum(ad.tanh(logits))))
        return loss.data, backward(loss)[logits.node_id]

    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("n", [1, 7, 64, 200])
    def test_matches_unfused_graph_bit_for_bit(self, n, k):
        value, grad = self.run(ad.softmax_nll, n, k)
        want_value, want_grad = self.run(softmax_nll_unfused, n, k)
        assert np.array_equal(value, want_value)
        assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("k", [2, 10])
    def test_finite_differences(self, k):
        rng = np.random.default_rng(71)
        labels = rng.integers(0, k, size=6)
        assert_grad_matches(lambda x: ad.softmax_nll(x, labels), rng.normal(size=(6, k)))

    def test_one_tape_record(self):
        tape = Tape()
        ad.softmax_nll(tape.leaf(np.zeros((3, 4))), np.array([0, 1, 3]))
        assert len(tape._records) == 1

    def test_value(self):
        logits = np.log(np.array([[0.25, 0.75], [0.5, 0.5]]))
        nll = ad.softmax_nll(logits, np.array([1, 0]))
        assert float(nll.data) == pytest.approx(-(np.log(0.75) + np.log(0.5)) / 2, rel=1e-14)

    def test_underflow_is_a_domain_error(self):
        """A probability that underflows to 0, even off the labels, raises as
        ``log`` of it does; training reports that as divergence."""
        with pytest.raises(ad.DomainError, match="non-positive"):
            ad.softmax_nll(np.array([[0.0, -1e4, 1.0]]), np.array([0]))

    def test_nan_is_a_domain_error(self):
        with pytest.raises(ad.DomainError, match="non-positive"):
            ad.softmax_nll(np.array([[0.0, 1.0], [np.nan, 1.0]]), np.array([0, 1]))

    def test_bad_labels(self):
        with pytest.raises(IndexError):
            ad.softmax_nll(np.zeros((2, 2)), np.array([0, 2]))
        with pytest.raises(ShapeMismatchError, match="softmax-nll"):
            ad.softmax_nll(np.zeros((2, 2)), np.array([0]))


class TestFlatLeaves:
    SPANS = {"all": (0, 9, (9,)), "w": (0, 6, (2, 3)), "b": (6, 9, (3,))}

    def loss(self, leaves):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(4, 2)))
        h = ad.add(ad.matmul(x, leaves["w"]), ad.tanh(uf.exp(leaves["b"])))
        return uf.tmean(uf.mul(h, h))

    def test_views_share_one_flat_gradient(self):
        vector = np.random.default_rng(33).normal(size=9)
        tape = Tape()
        leaves = tape.flat_leaves(vector, self.SPANS)
        grads = backward(self.loss(leaves))
        # oracle: the same loss on separate leaves
        ref_tape = Tape()
        ref = {"w": ref_tape.leaf(vector[:6].reshape(2, 3)), "b": ref_tape.leaf(vector[6:])}
        ref_grads = backward(self.loss(ref))
        flat = grads[leaves["all"].node_id]
        assert np.array_equal(flat, np.concatenate(
            [ref_grads[ref["w"].node_id].ravel(), ref_grads[ref["b"].node_id]]))
        assert np.array_equal(grads[leaves["w"].node_id], flat[:6].reshape(2, 3))
        assert np.array_equal(grads[leaves["b"].node_id], flat[6:])
        assert np.shares_memory(grads[leaves["w"].node_id], flat)

    def test_flat_gradient_finite_differences(self):
        vector = np.random.default_rng(34).normal(size=9)
        tape = Tape()
        leaves = tape.flat_leaves(vector, self.SPANS)
        analytic = backward(self.loss(leaves))[leaves["all"].node_id]

        def value(v):
            return float(self.loss(Tape().flat_leaves(v, self.SPANS)).data)

        numeric = finite_diff_grad(value, vector)
        np.testing.assert_allclose(analytic, numeric, rtol=FD_RTOL, atol=1e-8)

    def test_flat_vectors_and_leaf_get_own_gradients(self):
        vectors = np.random.default_rng(35).normal(size=(2, 9))
        tape = Tape()
        first, second = (tape.flat_leaves(v, self.SPANS) for v in vectors)
        c = tape.leaf(np.array(3.0))
        unused = tape.leaf(np.ones((2, 2)))
        loss = ad.add(self.loss(first), uf.scale(2.0, self.loss(second)))
        grads = backward(uf.mul(loss, c))

        def alone(v):  # oracle: the vector's loss on a tape of its own
            leaves = Tape().flat_leaves(v, self.SPANS)
            return backward(self.loss(leaves))[leaves["all"].node_id]

        one, two = (grads[leaves["all"].node_id] for leaves in (first, second))
        assert not np.shares_memory(one, two)
        np.testing.assert_allclose(one, 3.0 * alone(vectors[0]), rtol=1e-12)
        np.testing.assert_allclose(two, 6.0 * alone(vectors[1]), rtol=1e-12)
        assert float(grads[c.node_id]) == pytest.approx(float(loss.data), rel=1e-12)
        assert np.array_equal(grads[unused.node_id], np.zeros((2, 2)))

    def test_leaves_are_copies(self):
        vector = np.zeros(9)
        leaves = Tape().flat_leaves(vector, self.SPANS)
        vector[:] = 1.0
        assert np.all(leaves["all"].data == 0.0)


class TestSpecialFunctions:
    def test_lgamma_factorial_values(self):
        assert float(uf.lgamma(Tensor(np.array(1.0))).data) == pytest.approx(0.0, abs=1e-12)
        assert float(uf.lgamma(Tensor(np.array(5.0))).data) == pytest.approx(
            np.log(24.0), abs=1e-12)

    def test_digamma_recurrence(self):
        xs = np.geomspace(0.01, 100.0, 50)
        lhs = uf.digamma(Tensor(xs + 1.0)).data
        rhs = uf.digamma(Tensor(xs)).data + 1.0 / xs
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_digamma_at_one(self):
        val = float(uf.digamma(Tensor(np.array(1.0))).data)
        assert val == pytest.approx(-0.5772156649015329, abs=1e-12)

    def test_against_mpmath_oracle(self):
        xs = np.geomspace(1e-3, 1e4, 40)
        for x in xs:
            got_lg = float(uf.lgamma(Tensor(np.array(x))).data)
            got_dg = float(uf.digamma(Tensor(np.array(x))).data)
            want_lg = float(mpmath.loggamma(mpmath.mpf(x)).real)
            want_dg = float(mpmath.digamma(mpmath.mpf(x)))
            assert abs(got_lg - want_lg) <= 1e-10 * max(1.0, abs(want_lg))
            assert abs(got_dg - want_dg) <= 1e-10 * max(1.0, abs(want_dg))

    def test_reject_nonpositive(self):
        with pytest.raises(ValueError):
            uf.lgamma(Tensor(np.array(-1.0)))
        with pytest.raises(ValueError):
            uf.digamma(Tensor(np.array(0.0)))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        theta = np.array([1.0, -2.0])
        state = AdamState(theta.shape)
        adam_step(theta, np.zeros(2), state, lr=0.1)
        np.testing.assert_allclose(theta, [1.0, -2.0])
        assert state.t == 1

    def test_constant_gradient_descends(self):
        theta = np.array([0.0])
        state = AdamState(theta.shape)
        for _ in range(50):
            adam_step(theta, np.array([3.0]), state, lr=0.01)
        assert theta[0] < 0.0

    def test_single_step_hand_evaluation(self):
        # f(w) = w^2 at w=1: g=2; with bias correction the t=1 step is
        # lr * g/(|g| + eps) which is essentially lr.
        theta = np.array([1.0])
        state = AdamState(theta.shape)
        adam_step(theta, np.array([2.0]), state, lr=0.1)
        m_hat = 0.1 * 2.0 / (1.0 - 0.9)
        v_hat = 0.001 * 4.0 / (1.0 - 0.999)
        expected = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert theta[0] == pytest.approx(expected, abs=1e-12)
        assert theta[0] == pytest.approx(0.9, abs=1e-6)

    def test_nonfinite_gradient_rejected(self):
        theta = np.array([1.0, 2.0])
        state = AdamState(theta.shape)
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            adam_step(theta, np.array([0.5, np.nan]), state)
        assert state.t == 0 and np.array_equal(theta, [1.0, 2.0])

    def test_shape_mismatch_rejected(self):
        theta = np.ones(3)
        state = AdamState(theta.shape)
        with pytest.raises(ShapeMismatchError, match="adam_step"):
            adam_step(theta, np.ones(2), state)

    def test_matches_expression_order_bit_for_bit(self):
        """theta, m and v over 50 steps of random gradients equal Kingma &
        Ba's update evaluated in one fixed expression order, so a rewrite of
        the step cannot move a trained model's rounding."""
        rng = np.random.default_rng(60)
        theta = rng.normal(size=260)
        want_theta, m, v = theta.copy(), np.zeros(260), np.zeros(260)
        state = AdamState(theta.shape)
        for t in range(1, 51):
            grad = rng.normal(size=260) * 10.0 ** rng.integers(-6, 3)
            adam_step(theta, grad, state, lr=0.003)
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            want_theta = want_theta - 0.003 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v), t
            assert np.array_equal(theta, want_theta), t


@settings(max_examples=30, deadline=None)
@given(arrays(np.float64, (3, 4), elements=st.floats(-20.0, 20.0)))
def test_softmax_rows_simplex_property(x):
    out = uf.softmax_rows(Tensor(x))
    assert np.all(out.data > 0.0)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_mixed_network_gradients_property(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[np.abs(x) < 0.05] = 0.1  # keep relu inputs off the kink
    assert_grad_matches(
        lambda t: uf.tmean(uf.log(uf.softmax_rows(uf.relu(t)))), x)
