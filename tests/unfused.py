"""Tape ops that no training step records, for the tests.

The fused ops of ``etproc.autodiff`` and ``etproc.distributions`` equal
graphs of elementary ops bit for bit, and the tests build those reference
graphs from the ops here. Each op records one tape entry through
``autodiff.emit``, as the library's own ops do, and has its own gradient
tests in ``test_autodiff`` or ``test_distributions``. ``exp``,
``clip_upper``, ``softmax_rows`` and ``dirichlet_moments_rows`` are the
tape forms of array functions that the library runs untracked.
``columns`` slices a packed diagonal Gaussian into its mean and
log-variance, and ``reparam`` and ``gaussian_kl`` take those as two
operands, where the library takes one packed tensor: the reference graphs
of the packed ops are built from these.
"""

import numpy as np
from scipy import special

from etproc import autodiff as ad
from etproc import distributions as dist
from etproc.autodiff import DomainError, ShapeMismatchError, Tensor, as_tensor, emit


def transpose(a) -> Tensor:
    """Swap the last two axes of a 2-D tensor or of each slice of a stack."""
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ShapeMismatchError(f"transpose: expected 2-D or 3-D, got {a.shape}")
    return emit(ad._swap(a.data).copy(), (a,), (ad._swap,))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    bd, reduce = ad._broadcast_operand("sub", a, b)
    return emit(a.data - bd, (a, b), (lambda g: g, lambda g: -reduce(g)))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"elementwise-mul: {a.shape} * {b.shape}")
    out = a.data * b.data
    return emit(out, (a, b), (lambda g, b=b: g * b.data, lambda g, a=a: g * a.data))


def scale(c: float, a) -> Tensor:
    a = as_tensor(a)
    c = float(c)
    return emit(c * a.data, (a,), (lambda g: c * g,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    return emit(np.maximum(a.data, 0.0), (a,), (lambda g: g * (a.data > 0.0),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return emit(out, (a,), (lambda g: g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("log: non-positive input")
    return emit(np.log(a.data), (a,), (lambda g: g / a.data,))


def reciprocal(a) -> Tensor:
    a = as_tensor(a)
    out = 1.0 / a.data
    return emit(out, (a,), (lambda g: -g * out * out,))


def columns(a, start: int, stop: int) -> Tensor:
    """Entries start:stop of a tensor's last axis: columns of a 2-D tensor
    or of each slice of a stack. The VJP writes the adjoint into zeros."""
    a = as_tensor(a)
    if a.data.ndim not in (1, 2, 3) or not 0 <= start < stop <= a.shape[-1]:
        raise ShapeMismatchError(f"columns: {start}:{stop} of {a.shape}")

    def vjp(g):
        out = np.zeros(a.shape)
        out[..., start:stop] = g
        return out

    return emit(a.data[..., start:stop], (a,), (vjp,))


def reparam(mean, logvar, eps) -> Tensor:
    """mean + exp(0.5 * logvar) * eps of two operands in one record, with
    the expressions of the graph add(mean, mul(exp(scale(0.5, logvar)),
    eps)). The noise may lead with stack axes; each VJP then sums over them."""
    mean, logvar = as_tensor(mean), as_tensor(logvar)
    eps = np.asarray(eps, dtype=np.float64)
    sd = np.exp(0.5 * logvar.data)
    stack = tuple(range(eps.ndim - mean.data.ndim))
    unstack = (lambda t: t.sum(axis=stack)) if stack else (lambda t: t)
    return emit(mean.data + sd * eps, (mean, logvar),
                (unstack, lambda g: unstack(0.5 * (g * eps * sd))))


def gaussian_kl(mq, lq, mp, lp) -> Tensor:
    """KL(N(mq, diag exp lq) || N(mp, diag exp lp)) summed over all entries,
    as a graph of elementary ops; the prior is two arrays of mq's shape."""
    inv_var_p = as_tensor(1.0 / np.exp(lp))
    diff = sub(mq, as_tensor(mp))
    quad = mul(ad.add(exp(lq), mul(diff, diff)), inv_var_p)
    inner = sub(ad.add(quad, as_tensor(lp)), lq)
    total = ad.add(tsum(inner), as_tensor(np.array(-float(as_tensor(mq).data.size))))
    return scale(0.5, total)


def clip_upper(a, hi: float) -> Tensor:
    """min(a, hi) elementwise; gradient blocked where clipped."""
    a = as_tensor(a)
    return emit(np.minimum(a.data, hi), (a,), (lambda g: g * (a.data < hi),))


def softmax_rows(a) -> Tensor:
    """``autodiff.softmax_rows`` on the tape: over the last axis of a 2-D
    tensor or of each slice of a stack."""
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ShapeMismatchError(f"softmax-rows: expected 2-D or 3-D, got {a.shape}")
    out = ad.softmax_rows(a.data)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return out * (g - dot)

    return emit(out, (a,), (vjp,))


def tsum(a) -> Tensor:
    a = as_tensor(a)
    return emit(np.array(a.data.sum()), (a,), (lambda g: np.full(a.shape, float(g)),))


def tmean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return emit(np.array(a.data.mean()), (a,), (lambda g: np.full(a.shape, float(g) / n),))


def sum_rows(a) -> Tensor:
    """Row sums of an (N, K) tensor, as an (N, 1) column."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeMismatchError(f"sum-rows: expected 2-D, got {a.shape}")
    k = a.shape[1]
    return emit(a.data.sum(axis=1, keepdims=True), (a,), (lambda g: np.repeat(g, k, axis=1),))


def take_labels(a, labels) -> Tensor:
    """Entry (i, labels[i]) of each row of an (N, K) tensor, as an (N, 1) column."""
    a = as_tensor(a)
    labels = ad._check_labels("take-labels", a.shape, labels)
    rows = np.arange(len(labels))

    def vjp(g):
        out = np.zeros(a.shape)
        out[rows, labels] = g[:, 0]
        return out

    return emit(a.data[rows, labels][:, None], (a,), (vjp,))


def unstack(a) -> tuple:
    """The slices a[0], a[1], ... of a stacked tensor, one record each."""
    a = as_tensor(a)

    def part(i):
        def vjp(g):
            out = np.zeros(a.shape)
            out[i] = g
            return out

        return emit(a.data[i], (a,), (vjp,))

    return tuple(part(i) for i in range(a.shape[0]))


def lgamma(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("lgamma: input must be positive")
    return emit(special.gammaln(a.data), (a,), (lambda g: g * special.psi(a.data),))


def digamma(a) -> Tensor:
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise DomainError("digamma: input must be positive")
    return emit(special.psi(a.data), (a,), (lambda g: g * special.zeta(2, a.data),))


def dirichlet_moments_rows(alpha):
    """``distributions.dirichlet_moments_rows`` on the tape: one record holds
    both moments stacked, and one record each takes them apart."""
    alpha = as_tensor(alpha)
    mean, var, vjp = dist._moments_kernel(dist._check_alpha(alpha.data))
    return unstack(emit(np.stack([mean, var]), (alpha,), (lambda g: vjp(*g),)))
