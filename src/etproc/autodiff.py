"""Minimal reverse-mode automatic differentiation on dense float64 tensors.

A Tape records primitive applications; backward() replays the tape in
reverse to accumulate vector-Jacobian products. Tapes are meant to be
re-created per training step (dynamic tape). Single-threaded per tape.

Every leaf is a named span of a flat vector (``Tape.flat_leaves``); a
tape may hold any number of flat vectors, and a lone ``Tape.leaf`` is a
flat vector with one span. The leaves of one vector share one flat
gradient, so an optimizer step needs no gathering of per-array gradients.

The module holds the ops that a training step records, besides the laws
of ``distributions``: ``matmul``, ``add``, ``tanh`` and ``concat``, and
three fused ops that each make one tape record. A fused op equals the
unfused graph of elementary ops bit for bit, forward and backward: its
VJPs evaluate that graph's own expressions. The elementary ops of those
graphs live with the tests (``tests/unfused.py``). ``attention`` forms
its scores memory-major and reduces its softmax over that leading axis,
adding in NumPy's own summation order (``_pairwise_sum``, pinned by a
test); at some prediction sizes its scores round apart from the unfused
graph's in the last bit (see its docstring). ``mlp`` runs a ReLU network
from its whole parameter block, with the reparameterised draw of a
variational network's block, packed as [means | log-variances], folded in
(``gaussian_draw``, which ``distributions.gaussian_reparam`` shares), and
returns one flat block gradient. ``softmax_nll`` is the batch-mean
categorical NLL of softmax logits.

The array functions ``softmax_rows``, ``row_max``, ``row_sum``,
``row_argmax`` and ``row_broadcast`` run off the tape and equal NumPy bit
for bit. NumPy loops over rows, so the reductions always work in whole
columns, and the argmax and the broadcasts do so on many short rows
(``_short_rows``). A bias row met by many longer rows, of one array or of
a stack, is added in long rows of about ``LONG_ROW`` entries instead
(``_long_rows``). ``matmul`` takes its non-BLAS loop for a column times a
row, so a one-input layer of ``mlp`` with many rows goes through
``np.einsum``, and a wide input shared by stacked weight draws goes
through one GEMM for all of them, both with the same bits
(``_layer_product``). These are the module's four size rules.
"""

from __future__ import annotations

import numpy as np


class DomainError(ValueError):
    """An op input outside the op's domain, such as the log of a value <= 0."""


class ShapeMismatchError(ValueError):
    pass


class Tape:
    """Ordered record of primitive applications plus the leaf registry."""

    def __init__(self):
        self._records = []  # (out_id, [(parent_id, vjp_fn), ...])
        self._flats = []  # per flat vector: (size, {node_id: (start, stop, shape)})
        self._next_id = 0

    def _new_id(self):
        nid = self._next_id
        self._next_id += 1
        return nid

    def leaf(self, data) -> "Tensor":
        """A leaf holding a copy of ``data``: a flat vector with one span."""
        arr = np.asarray(data, dtype=np.float64)
        return self.flat_leaves(arr.ravel(), {"leaf": (0, arr.size, arr.shape)})["leaf"]

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
        views = {}
        self._flats.append((data.size, views))
        leaves = {}
        for name, (start, stop, shape) in spans.items():
            nid = self._new_id()
            views[nid] = (start, stop, shape)
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
    return x.swapaxes(-1, -2)


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


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return emit(out, (a,), (lambda g: g * (1.0 - out * out),))


def softmax_rows(x):
    """Softmax over the last axis of an array: one new buffer for shift, exp
    and normalisation, whose max and sum are NumPy's (``row_max``, ``row_sum``)
    and whose broadcasts run in columns on short rows (``row_broadcast``)."""
    out = row_broadcast(np.subtract, x, row_max(x), np.empty(x.shape))
    np.exp(out, out=out)
    return row_broadcast(np.divide, out, row_sum(out), out)


def _check_labels(name, shape, labels):
    """``labels`` as an array, checked to hold one label in [0, K) per row of
    an (N, K) operand of the given shape."""
    labels = np.asarray(labels)
    if len(shape) != 2 or labels.shape != shape[:1]:
        raise ShapeMismatchError(f"{name}: {shape} with labels {labels.shape}")
    if len(labels) and (labels.min() < 0 or labels.max() >= shape[1]):
        raise IndexError("label out of range")
    return labels


def _pairwise_sum(x, axis):
    """Sums over ``axis``, kept as a length-1 axis, added in the order in
    which NumPy sums a unit-stride axis (``pairwise_sum`` in its umath
    loops), but with elementwise adds of whole slices. So a short axis of a
    C-contiguous array can be summed bit for bit from the transposed layout,
    where every add is one long vector op instead of many short reductions.
    The order is NumPy's, not an API: tests pin it."""
    return _pairwise_sum_lead(x.swapaxes(axis, 0)).swapaxes(0, axis)


def _pairwise_sum_lead(x):
    """``_pairwise_sum`` over axis 0: sequential below 8 terms, eight
    accumulators up to 128, above that two halves split at a multiple of 8."""
    n = len(x)
    if n < 8:
        total = x[:1] + x[1:2] if n > 1 else x[:1].copy()
        for i in range(2, n):
            total += x[i]
        return total
    if n <= 128:
        stop = n - n % 8
        r = x[:8] + x[8:16] if stop > 8 else x[:8].copy()  # eight accumulators
        for i in range(16, stop, 8):
            r += x[i:i + 8]
        # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        total = r[0::2] + r[1::2]
        for i in range(stop, n):
            total += x[i]
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum_lead(x[:half]) + _pairwise_sum_lead(x[half:])


def row_sum(x):
    """``x.sum(axis=-1, keepdims=True)`` bit for bit, in whole columns
    (``_pairwise_sum``)."""
    return _pairwise_sum(x, -1)


def row_max(x):
    """``x.max(axis=-1, keepdims=True)`` from elementwise maxima of column
    halves (a view of x when the axis has length 1). A max is exact in any
    order; only the sign of a zero maximum may differ, and no caller sees
    it: a softmax subtracts the maximum before ``exp``, where both zeros
    give 1, and a probability row's maximum is at least 1/K."""
    m = np.swapaxes(x, -1, 0)
    while len(m) > 1:
        h = (len(m) + 1) // 2
        m = np.maximum(m[:h], m[len(m) - h:], order="C")  # loops along whole columns
    return np.swapaxes(m, 0, -1)


def _short_rows(x):
    """Whether an op over x's last axis is faster a column at a time: rows of
    at most 4, at least 512 per column. A row subtraction in columns took
    65 -> 22 us at (10000, 2), but 23 -> 46 at (1500, 10) and 2.1 -> 4.2 at
    (40, 2) (``timeit`` min, 2-core host); at 4 columns they meet near 2048 rows."""
    k = x.shape[-1]
    return k <= 4 and x.size >= 512 * k * k


LONG_ROW = 8000  # entries per long row of a bias row's broadcast (``_long_rows``)


def _long_rows(x, y, out):
    """Whether one bias row y, of K entries, is faster added to x, (..., K),
    and out, both C-contiguous, as long rows of about ``LONG_ROW`` entries
    against a tiled bias: from 1500 rows in all, any leading axes included.
    The add took 214 -> 128 us at (10000, 32) and 27 -> 19 at (1500, 32),
    but 14 -> 18 at (1000, 16) (``timeit`` min, 2-core host)."""
    return (y.size == y.shape[-1] == x.shape[-1] and x.size >= 1500 * x.shape[-1]
            and x.flags.c_contiguous and out.flags.c_contiguous)


def row_broadcast(op, x, y, out):
    """``op(x, y, out=out)`` of rows x, (..., K), and y, which broadcasts
    against x as a column, (..., 1), or as rows of K; in whole columns when
    the rows are short (``_short_rows``), in long rows when many rows meet
    one bias row (``_long_rows``), else as NumPy's broadcast. Only
    elementwise ops are laid out anew, so each entry keeps the bits of
    NumPy's broadcast; an assignment such as ``np.copyto(out, y)`` may stand
    in for op. Returns out."""
    if _short_rows(x):
        for j in range(x.shape[-1]):
            op(x[..., j], y[..., 0 if y.shape[-1] == 1 else j], out=out[..., j])
    elif _long_rows(x, y, out):
        k = x.shape[-1]
        rows, y, dst = x.reshape(-1, k), y.reshape(k), out.reshape(-1, k)
        n = len(rows)
        m = max(1, (n * k + LONG_ROW // 2) // LONG_ROW)  # long rows
        r = n // m  # rows per long row; the n - m * r < m rows left take the broadcast
        top = m * r
        op(rows[:top].reshape(m, r * k), np.tile(y, r), out=dst[:top].reshape(m, r * k))
        op(rows[top:], y, out=dst[top:])
    else:
        op(x, y, out=out)
    return out


def row_argmax(x):
    """``x.argmax(axis=-1)`` of NaN-free x; on short rows (``_short_rows``)
    in whole columns, where a later column wins only when strictly greater
    than every column before it."""
    if not _short_rows(x):
        return x.argmax(axis=-1)
    cols = np.swapaxes(x, -1, 0)
    best, idx = cols[:1], np.zeros(cols[:1].shape, dtype=np.intp)
    for i in range(1, len(cols)):
        col = cols[i:i + 1]
        np.maximum(idx, (col > best) * i, out=idx)  # i exceeds every index before it
        if i + 1 < len(cols):
            best = np.maximum(best, col)
    return np.swapaxes(idx, 0, -1)[..., 0]


def attention(v, keys, z, scale: float):
    """Attention of queries v, (N, K), over R cells with keys (R, K) and
    values z, (R, Kz): ``read = softmax_rows(scale * v @ keys.T) @ z``, as
    one tape record. Any operand may lead with a stack axis of S slices.
    ``keys`` None keys the cells by the values' first K columns, z[..., :K];
    z's VJP then adds their adjoint after its own, zero-padded to Kz
    columns, as a separate column-slice record would have.

    Returns ``read`` and the attention weights ``phi``, (N, R), as an
    untracked array. The scores are formed memory-major, (R, N), so the
    softmax's max and sum reduce over the leading memory axis; the sum keeps
    NumPy's order (``_pairwise_sum``). The VJPs evaluate the unfused
    transpose/matmul/scale/softmax_rows/matmul graph's own expressions on
    its own layouts and deliver their terms in its reverse order, z first,
    then v, then keys. The op equals that graph bit for bit at training
    sizes, but ``keys @ v.T`` need not round as its ``v @ keys.T``: at
    R >= 16 they differ in the last bit for some N between 257 and 1999
    (wide-idx's N = 1500 prediction among them), by about 1e-15 on the read.
    """
    operands = (as_tensor(z), as_tensor(v)) + (() if keys is None else (as_tensor(keys),))
    z, v = operands[:2]
    kd = z.data[..., :v.shape[-1]] if keys is None else operands[2].data
    stacks = {t.shape[0] for t in operands if t.data.ndim == 3}
    if (any(t.data.ndim not in (2, 3) for t in operands) or len(stacks) > 1
            or v.shape[-1] != kd.shape[-1] or kd.shape[-2] != z.shape[-2]):
        raise ShapeMismatchError(f"attention: {v.shape} over {kd.shape}, {z.shape}")
    scale = float(scale)
    vd, zd, pad = v.data, z.data, keys is None  # the VJPs keep no Tensor: no cycle holds the tape
    kT = _swap(kd).copy()
    # the scores, C-ordered (..., R, N); one query keeps v @ keys.T, since
    # NumPy takes its vector path for keys @ v.T there
    weights = kd @ _swap(vd) if v.shape[-2] > 1 else _swap(vd @ kT).copy()
    weights *= scale
    weights -= weights.max(axis=-2, keepdims=True)
    np.exp(weights, out=weights)
    weights /= _pairwise_sum(weights, -2)
    phi = _swap(weights).copy()  # C-ordered (..., N, R), as softmax_rows leaves it
    memo = {}

    def scores_adjoint(g):
        """The softmax_rows VJP of phi's adjoint, times ``scale``; once per g."""
        if memo.get("g") is not g:
            g_phi = g @ _swap(zd)
            dot = (g_phi * phi).sum(axis=-1, keepdims=True)
            memo.update(g=g, g_s=scale * (phi * (g_phi - dot)))
        return memo["g_s"]

    def keys_vjp(g):
        return _swap(_sum_stack(_swap(vd) @ scores_adjoint(g), kT.ndim))

    def z_vjp(g):
        term = _sum_stack(_swap(phi) @ g, zd.ndim)
        if not pad:
            return term
        padded = np.zeros(zd.shape)
        padded[..., :kd.shape[-1]] = keys_vjp(g)
        return term, padded

    read = emit(phi @ zd, operands,
                (z_vjp, lambda g: _sum_stack(scores_adjoint(g) @ _swap(kT), vd.ndim), keys_vjp))
    return read, phi


def _layer_product(h, w):
    """``h @ w``; with one input and over 2048 products, ``np.einsum``, which
    forms each as 0 + h * w as ``matmul``'s non-BLAS loop does, zero signs
    included, in half the time: (10000, 1) @ (1, 32) 540 -> 230 us and
    (1, 1) @ (256, 1, 32) 15 -> 7 us; at (32, 1) @ (1, 32) 2.7 against 3.0.

    An input h, (N, D), shared by S stacked weights w, (S, D, H), with
    D >= S * H, is one GEMM on w laid out as (D, S * H), returned as an
    (S, N, H) view: NumPy's stacked matmul calls one GEMM per slice, and
    each call packs the whole input again. Every product keeps its bits
    (tests pin them at one and two BLAS threads). At (1500, 784) under 16
    (784, 32) slices it took 9.4 against 16.4 ms at two threads, 17.6
    against 39.2 at one. The layout's copy of w, D * S * H entries, is
    never larger than D * D; at 64 rows it costs more than it saves (0.88
    against 0.80 ms)."""
    if w.shape[-2] == 1 and h.size * (w.size if h.ndim < w.ndim else w.shape[-1]) > 2048:
        return np.einsum("...ni,...io->...no", h, w)
    if h.ndim == 2 < w.ndim and w.shape[1] >= w.shape[0] * w.shape[2]:
        s, d, k = w.shape
        return (h @ w.transpose(1, 0, 2).reshape(d, s * k)).reshape(len(h), s, k).transpose(1, 0, 2)
    return h @ w


def gaussian_draw(q, eps):
    """The draw ``mean + exp(0.5 * logvar) * eps`` of a diagonal Gaussian q
    packed as [mean | logvar] on its last axis, for standard-normal noise
    eps that may lead with a stack axis, and its VJP. The VJP maps the
    draw's adjoint g to q's, packed as ``[g | 0.5 * (g * eps * sd)]``, each
    half summed over the stack (Kingma & Welling 2014, arXiv 1312.6114)."""
    p = q.shape[-1] // 2
    sd = np.exp(0.5 * q[..., p:])

    def vjp(g):
        out = np.empty(q.shape)
        out[..., :p] = _sum_stack(g, q.ndim)
        out[..., p:] = _sum_stack(0.5 * (g * eps * sd), q.ndim)
        return out

    return q[..., :p] + sd * eps, vjp


def mlp(x, layout, weights, eps=None) -> Tensor:
    """A ReLU MLP on input x, (N, D) or (S, N, D), as one tape record.

    ``weights`` is the network's whole parameter block, a (P,) tensor;
    ``layout`` holds each layer's (offset, fan_in, fan_out) in it: W,
    (fan_in, fan_out), starts at the offset and b, (fan_out,), follows. A
    variational network passes its block packed as [means | log-variances],
    (2P,), with standard-normal noise, (P,) or (S, P) for S stacked draws,
    and runs under the weights ``gaussian_draw`` forms from them. Each
    stacked draw meets only its own slice, as bias ``add`` lays it out.

    Forward and VJPs equal the unfused matmul/add/relu graph bit for bit:
    the VJPs evaluate that graph's own expressions, once per adjoint, and
    fill one flat gradient per block, plus x's adjoint when x is tracked.
    Untracked, the op keeps no intermediates.
    """
    x, weights = as_tensor(x), as_tensor(weights)
    off, fan_in, fan_out = layout[-1]
    size = off + fan_in * fan_out + fan_out
    noise = None if eps is None else np.shape(eps)
    if (weights.shape != (size if noise is None else 2 * size,) or x.data.ndim not in (2, 3)
            or x.shape[-1] != layout[0][1]
            or noise is not None and (len(noise) not in (1, 2) or noise[-1] != size)):
        raise ShapeMismatchError(f"mlp: input {x.shape}, block {weights.shape}, noise {noise}, "
                                 f"layout {layout}")
    block, block_vjp = ((weights.data, lambda flat: flat) if eps is None
                        else gaussian_draw(weights.data, np.asarray(eps, dtype=np.float64)))
    stack, last = block.shape[:-1], len(layout) - 1
    tracked = _tape_of(x, weights) is not None
    h, layers = x.data, []  # per layer, on a tape only: its input, W and where W and b sit
    for i, (off, fan_in, fan_out) in enumerate(layout):
        mid = off + fan_in * fan_out
        w, b = block[..., off:mid].reshape(*stack, fan_in, fan_out), block[..., mid:mid + fan_out]
        if tracked:
            layers.append((h, w, off, mid, mid + fan_out))
        h = _layer_product(h, w)
        row_broadcast(np.add, h, b[:, None, :] if stack else b, h)
        if i < last:
            np.maximum(h, 0.0, out=h)  # a new array: the next layer's input
    if not tracked:
        return Tensor(h)
    memo, x_tracked = {}, x.node_id is not None  # the VJPs keep no Tensor: no cycle holds the tape

    def backprop(g):
        """The drawn block's gradient, per draw when stacked, and x's adjoint; once per g."""
        if memo.get("g") is not g:
            memo["g"], flat = g, np.empty(block.shape)
            for i in range(last, -1, -1):
                a, w, off, mid, end = layers[i]
                if i < last:
                    g = g * (layers[i + 1][0] > 0.0)  # relu(pre) > 0 exactly where pre > 0
                flat[..., mid:end] = (np.add.reduce(g, axis=1) if stack
                                      else np.add.reduce(g.reshape(-1, end - mid), axis=0))
                flat[..., off:mid] = _sum_stack(_swap(a) @ g, w.ndim).reshape(*stack, -1)
                if i or x_tracked:
                    g = _sum_stack(g @ _swap(w), a.ndim)
            memo.update(flat=flat, x=g)
        return memo

    return emit(h, (x, weights), (lambda g: backprop(g)["x"],
                                  lambda g: block_vjp(backprop(g)["flat"])))


def softmax_nll(logits, labels) -> Tensor:
    """Batch-mean -log p_y of labels under the row softmax of (N, K) logits,
    as one tape record.

    It keeps the arithmetic of the unfused softmax_rows/log/take_labels/
    scale/tmean graph, softmax first and then log, and its VJP evaluates
    that graph's expressions, so both round as that graph did. Like ``log``,
    it raises DomainError when any probability is 0; a NaN one raises too.
    The mean is ``np.add.reduce(nll) / n``, the arithmetic of ``nll.mean()``.
    """
    logits = as_tensor(logits)
    labels = _check_labels("softmax-nll", logits.shape, labels)
    probs = softmax_rows(logits.data)
    if not np.minimum.reduce(probs, axis=None) > 0.0:
        raise DomainError("log: non-positive input")
    n = len(labels)
    rows = np.arange(n)
    nll = -1.0 * np.log(probs[rows, labels])

    def vjp(g):
        g_log = np.zeros(probs.shape)
        g_log[rows, labels] = -1.0 * (float(g) / n)
        g_probs = g_log / probs
        return probs * (g_probs - np.add.reduce(g_probs * probs, axis=-1, keepdims=True))

    return emit(np.add.reduce(nll) / n, (logits,), (vjp,))


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    lead = (slice(None),) * (axis % out.ndim)  # the axes before ``axis``
    vjps = tuple(lambda g, part=lead + (slice(lo, hi),): g[part]
                 for lo, hi in zip(offsets[:-1], offsets[1:]))
    return emit(out, tuple(tensors), vjps)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> dict:
    """Gradients of a scalar loss w.r.t. every node on its tape.

    Returns a map node-id -> gradient array. Each flat vector gets its own
    zero gradient buffer and its leaves' gradients are views into it, so a
    leaf that did not influence the loss gets zeros.
    """
    if loss.tape is None or loss.node_id is None:
        raise ValueError("backward: loss is not on a tape")
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    adjoints = {}
    for size, spans in loss.tape._flats:
        flat = np.zeros(size)
        for nid, (start, stop, shape) in spans.items():
            adjoints[nid] = flat[start:stop].reshape(shape)
    views = set(adjoints)
    adjoints[loss.node_id] = np.ones(loss.data.shape)
    for out_id, parents in reversed(loss.tape._records):
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
    return adjoints


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """Step count and first/second moment accumulators of one parameter array."""

    def __init__(self, shape):
        self.t = 0
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)


def adam_step(theta, grad, state, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update of the array ``theta`` in place (Kingma & Ba 2015)."""
    if theta.shape != grad.shape:
        raise ShapeMismatchError(f"adam_step: parameters {theta.shape} vs gradient {grad.shape}")
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient")
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    m[...] = beta1 * m + (1.0 - beta1) * grad
    v[...] = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
