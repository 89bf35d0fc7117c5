"""Minimal reverse-mode automatic differentiation on dense float64 tensors.

A Tape records primitive applications; backward() replays the tape in
reverse to accumulate vector-Jacobian products. Tapes are meant to be
re-created per training step (dynamic tape). Single-threaded per tape.

A model's trainables enter the tape as one flat vector
(``Tape.flat_leaves``): its named spans are leaves that share one flat
gradient, so an optimizer step needs no gathering of per-array gradients.
"""

from __future__ import annotations

import numpy as np
from scipy import special


class DomainError(ValueError):
    """An op input outside the op's domain, such as the log of a value <= 0."""


class ShapeMismatchError(ValueError):
    pass


class Tape:
    """Ordered record of primitive applications plus the leaf registry."""

    def __init__(self):
        self._records = []  # (out_id, [(parent_id, vjp_fn), ...])
        self._leaf_shapes = {}  # node_id -> shape
        self._flat_sizes = []  # size of each flat parameter vector
        self._views = {}  # node_id -> (flat vector index, start, stop, shape)
        self._next_id = 0

    def _new_id(self):
        nid = self._next_id
        self._next_id += 1
        return nid

    def leaf(self, data) -> "Tensor":
        arr = np.array(data, dtype=np.float64)
        nid = self._new_id()
        self._leaf_shapes[nid] = arr.shape
        return Tensor(arr, tape=self, node_id=nid)

    def flat_leaves(self, vector, spans) -> dict:
        """Leaves for named spans of one flat parameter vector.

        ``spans`` maps a name to (start, stop, shape). Each leaf is a view
        into one copy of ``vector``; backward accumulates the gradients of
        all of them in place into one flat gradient of the vector's size, so
        a span's gradient is the matching view of that flat gradient.
        """
        data = np.array(vector, dtype=np.float64)
        if data.ndim != 1:
            raise ShapeMismatchError(f"flat_leaves: expected 1-D, got {data.shape}")
        index = len(self._flat_sizes)
        self._flat_sizes.append(data.size)
        leaves = {}
        for name, (start, stop, shape) in spans.items():
            nid = self._new_id()
            self._views[nid] = (index, start, stop, shape)
            leaves[name] = Tensor(data[start:stop].reshape(shape), tape=self, node_id=nid)
        return leaves

    def _record(self, data, parents) -> "Tensor":
        nid = self._new_id()
        self._records.append((nid, parents))
        return Tensor(data, tape=self, node_id=nid)


class Tensor:
    """Dense float64 array, optionally tracked on a gradient tape."""

    __slots__ = ("data", "tape", "node_id")

    def __init__(self, data, tape=None, node_id=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self.node_id is not None})"


def as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _tape_of(*tensors):
    tape = None
    for t in tensors:
        if t.tape is not None:
            if tape is not None and tape is not t.tape:
                raise ValueError("operands live on different tapes")
            tape = t.tape
    return tape


def emit(data, parent_tensors, vjps):
    """Record an op result with one VJP per operand; untracked when no
    operand is on a tape.

    A VJP maps the output's adjoint to the operand's contribution. A fused
    op may return a tuple of terms instead: backward adds them one by one,
    in order, as the separate records of the unfused graph would have, which
    keeps that graph's rounding.
    """
    tape = _tape_of(*parent_tensors)
    if tape is None:
        return Tensor(data)
    parents = [
        (t.node_id, vjp)
        for t, vjp in zip(parent_tensors, vjps)
        if t.node_id is not None
    ]
    return tape._record(data, parents)


# ---------------------------------------------------------------------------
# primitives


def _swap(x):
    return np.swapaxes(x, -1, -2)


def _sum_stack(x, ndim):
    """Sum a VJP term over the stack axis its operand does not have."""
    return x.sum(axis=0) if x.ndim > ndim else x


def matmul(a, b) -> Tensor:
    """a @ b of 2-D operands; either may lead with a stack axis of S slices,
    and a 2-D operand then meets every slice."""
    a, b = as_tensor(a), as_tensor(b)
    na, nb = a.data.ndim, b.data.ndim
    if (na not in (2, 3) or nb not in (2, 3) or a.shape[-1] != b.shape[-2]
            or (na == nb == 3 and a.shape[0] != b.shape[0])):
        raise ShapeMismatchError(f"matmul: {a.shape} @ {b.shape}")
    return emit(a.data @ b.data, (a, b),
                (lambda g: _sum_stack(g @ _swap(b.data), na),
                 lambda g: _sum_stack(_swap(a.data) @ g, nb)))


def transpose(a) -> Tensor:
    """Swap the last two axes of a 2-D tensor or of each slice of a stack."""
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ShapeMismatchError(f"transpose: expected 2-D or 3-D, got {a.shape}")
    return emit(_swap(a.data).copy(), (a,), (_swap,))


def _broadcast_operand(name, a, b):
    """b's data laid out to broadcast against a, and the VJP that reduces an
    adjoint of a's shape to b's shape."""
    if a.shape == b.shape:
        return b.data, lambda g: g
    if a.data.ndim >= 2 and b.shape == a.shape[-1:]:
        # one bias for every row (of every slice)
        return b.data, lambda g: g.reshape(-1, g.shape[-1]).sum(axis=0)
    if a.data.ndim == 3 and b.shape == (a.shape[0], a.shape[2]):
        # one bias per slice
        return b.data[:, None, :], lambda g: g.sum(axis=1)
    raise ShapeMismatchError(f"{name}: {a.shape} with {b.shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    bd, reduce = _broadcast_operand("add", a, b)
    return emit(a.data + bd, (a, b), (lambda g: g, reduce))


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    bd, reduce = _broadcast_operand("sub", a, b)
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


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return emit(out, (a,), (lambda g: g * (1.0 - out * out),))


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


def clip_upper(a, hi: float) -> Tensor:
    """min(a, hi) elementwise; gradient blocked where clipped."""
    a = as_tensor(a)
    return emit(np.minimum(a.data, hi), (a,), (lambda g: g * (a.data < hi),))


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis of a 2-D tensor or of each slice of a stack."""
    a = as_tensor(a)
    if a.data.ndim not in (2, 3):
        raise ShapeMismatchError(f"softmax-rows: expected 2-D or 3-D, got {a.shape}")
    # one buffer for the shift, the exponential and the normalisation
    out = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

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


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    vjps = []
    for i in range(len(tensors)):
        lo, hi = offsets[i], offsets[i + 1]
        if axis == 0:
            vjps.append(lambda g, lo=lo, hi=hi: g[lo:hi])
        else:
            vjps.append(lambda g, lo=lo, hi=hi: g[..., lo:hi])
    return emit(out, tuple(tensors), tuple(vjps))


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
    labels = np.asarray(labels)
    if a.data.ndim != 2 or labels.shape != (a.shape[0],):
        raise ShapeMismatchError(f"take-labels: {a.shape} with labels {labels.shape}")
    if len(labels) and (labels.min() < 0 or labels.max() >= a.shape[1]):
        raise IndexError("label out of range")
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


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> dict:
    """Gradients of a scalar loss w.r.t. every node on its tape.

    Returns a map node-id -> gradient array. Leaves that did not
    influence the loss get zeros. The gradients of the leaves of a flat
    parameter vector are views into one flat gradient.
    """
    if loss.tape is None or loss.node_id is None:
        raise ValueError("backward: loss is not on a tape")
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = loss.tape
    views = tape._views
    adjoints = {loss.node_id: np.ones_like(loss.data)}
    flat = [np.zeros(n) for n in tape._flat_sizes]
    for nid, (index, start, stop, shape) in views.items():
        adjoints[nid] = flat[index][start:stop].reshape(shape)
    for out_id, parents in reversed(tape._records):
        g = adjoints.get(out_id)
        if g is None:
            continue
        for pid, vjp in parents:
            contrib = vjp(g)
            for term in contrib if isinstance(contrib, tuple) else (contrib,):
                if pid in views:
                    adjoints[pid] += term
                elif pid in adjoints:
                    adjoints[pid] = adjoints[pid] + term
                else:
                    adjoints[pid] = np.asarray(term, dtype=np.float64)
    for nid, shape in tape._leaf_shapes.items():
        if nid not in adjoints:
            adjoints[nid] = np.zeros(shape)
    return adjoints


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    def __init__(self):
        self.t = 0
        self.m = {}
        self.v = {}


def adam_step(params, grads, state, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update in place on a dict of parameter arrays."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for parameter '{name}'")
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if p.shape != g.shape:
            raise ShapeMismatchError(f"adam_step: '{name}' {p.shape} vs grad {g.shape}")
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params, state
