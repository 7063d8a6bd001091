"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a row-major numpy float64 array together with optional
gradient state.  Every differentiable operation records its input tensors
and a backward closure on the output; calling ``backward()`` on a scalar
walks the recorded graph in reverse topological order and accumulates
gradients additively into every tensor that has ``requires_grad`` set.

Each op writes its forward once, as a closure that the node keeps: the
closure computes the node's value when the op is called, and ``replay()``
calls it again over the recorded graph.  Only dropout masks are drawn once
and reused, so a replay on unchanged inputs reproduces the original outputs
bit for bit.  Each forward call refills a closure-local cell with what its
backward reads: the output of ``softmax`` and ``tanh``, ``layer_norm``'s
row mean and 1/std, ``conv1d_maxpool``'s pooling indices.  A backward
closure never refers to its own output node, so a finished graph holds no
reference cycle and is freed as soon as the last reference to it goes.

Only the operations the two sentence-pair classifiers need are implemented,
in the batch forms the models call.  Shape-changing ops work on the last
axes, so a batch of B matrices is one (B, rows, cols) tensor: ``matmul``
multiplies operands of at least two axes and treats leading axes as batch
axes, ``transpose`` swaps the last two axes, ``slice_rows``/``slice_cols``
slice the second-to-last/last axis, ``stack_cols`` stacks along a new last
axis and ``layer_norm`` normalizes the last axis.  ``conv1d_maxpool`` takes
a (B, features, positions) batch with a valid length per item, and pools
each item as it would alone.
``add`` and ``mul`` follow numpy broadcasting, and each operand's gradient
is summed back to that operand's own shape, so a bias vector shared by every
row of a (B, L, d) batch receives the sum over all B x L rows.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    DataError,
    DimensionError,
    NumericError,
)

__all__ = [
    "Tensor",
    "add",
    "backward",
    "concat",
    "conv1d_maxpool",
    "dropout",
    "layer_norm",
    "matmul",
    "mul",
    "nll_from_probs",
    "ravel",
    "record",
    "relu",
    "replay",
    "reshape",
    "scale",
    "slice_cols",
    "slice_rows",
    "softmax",
    "stack_cols",
    "sum_all",
    "take_rows",
    "tanh",
    "transpose",
    "xavier_uniform",
    "zero_grads",
]


class Tensor:
    """Dense float64 array with optional reverse-mode gradient state."""

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward", "_forward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._forward: Callable[[], np.ndarray] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g``, summed back to ``t``'s shape, to ``t.grad``.  The first
    gradient is copied, so each tensor owns its grad array."""
    if not t.requires_grad:
        return
    g = _unbroadcast(g, t.shape)
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _result(
    forward_fn: Callable[[], np.ndarray],
    parents: Sequence[Tensor],
    op: str,
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    """The output node of an op: its value is ``forward_fn()``, and the node
    keeps ``forward_fn`` for ``replay`` when any parent requires grad."""
    out = Tensor(forward_fn())
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out.op = op
            out._parents = tuple(parents)
            out._backward = backward_fn
            out._forward = forward_fn
            break
    return out


# ---------------------------------------------------------------------------
# graph walking


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar.  Nodes run their backward in reverse
    ``record`` order, so a node's gradient is complete before it is passed
    on; gradients accumulate additively across every use of a tensor.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(record(loss)):
        if node._backward is not None:
            node._backward(node.grad)


def record(root: Tensor) -> list[Tensor]:
    """The computation record reaching ``root``: nodes in forward topological
    order (every node's inputs precede it).  Leaves are included.  The walk
    is an iterative depth-first post-order, so graph depth is not limited by
    the interpreter's recursion limit."""
    order: list[Tensor] = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            stack.pop()
            order.append(node)
    return order


def replay(root: Tensor) -> np.ndarray:
    """Re-run the recorded forward pass for ``root`` on the current leaf
    values.

    Dropout masks are reused; every other intermediate, and every value a
    forward saved for its backward, is recomputed, so a later ``backward``
    sees the replayed values.  On unchanged inputs the result is
    bit-identical to the original run.
    """
    for n in record(root):
        if n._forward is not None:
            n.data = n._forward()
    return root.data


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# binary elementwise ops with numpy broadcasting


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the gradient of a broadcast result back to an operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes).reshape(shape)


def _broadcast_result(forward_fn, a: Tensor, b: Tensor, op: str, backward_fn) -> Tensor:
    try:
        return _result(forward_fn, (a, b), op, backward_fn)
    except ValueError:  # numpy rejected the operands' shapes
        raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _broadcast_result(lambda: a.data + b.data, a, b, "add", backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _broadcast_result(lambda: a.data * b.data, a, b, "mul", backward_fn)


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * f)

    return _result(lambda: a.data * f, (a,), "scale", backward_fn)


# ---------------------------------------------------------------------------
# unary nonlinearities


def tanh(a: Tensor) -> Tensor:
    saved = [None]  # the output, read by the backward

    def fwd() -> np.ndarray:
        saved[0] = np.tanh(a.data)
        return saved[0]

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - saved[0] ** 2))

    return _result(fwd, (a,), "tanh", backward_fn)


def relu(a: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (a.data > 0))

    return _result(lambda: np.maximum(a.data, 0.0), (a,), "relu", backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of operands of at least two axes.  Leading axes are
    batch axes and broadcast; a 2-D right operand is shared by the whole
    batch, so its gradient sums over it."""
    nb = b.data.ndim

    def backward_fn(g: np.ndarray) -> None:
        ga = g @ np.swapaxes(b.data, -1, -2)
        if nb == 2:
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = np.swapaxes(a.data, -1, -2) @ g
        _accumulate(a, ga)
        _accumulate(b, gb)

    if min(a.data.ndim, nb) < 2:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return _broadcast_result(lambda: a.data @ b.data, a, b, "matmul", backward_fn)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise DimensionError(f"transpose expects at least a matrix, got shape {a.shape}")

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, np.swapaxes(g, -1, -2))

    return _result(lambda: np.swapaxes(a.data, -1, -2).copy(), (a,), "transpose", backward_fn)


def softmax(x: Tensor, axis: int) -> Tensor:
    """Exponent-normalize along ``axis`` with max-subtraction for stability.

    Output slices along the axis are positive and sum to 1.
    """
    if not -x.data.ndim <= axis < x.data.ndim:
        raise DimensionError(f"softmax axis {axis} out of range for shape {x.shape}")
    saved = [None]  # the output, read by the backward

    def fwd() -> np.ndarray:
        top = x.data.max(axis=axis, keepdims=True)
        if not np.isfinite(top).all():  # max propagates NaN, so this also catches a NaN anywhere
            raise NumericError("softmax input contains NaN or a slice whose max is infinite")
        e = np.exp(x.data - top)
        saved[0] = e / e.sum(axis=axis, keepdims=True)
        return saved[0]

    def backward_fn(g: np.ndarray) -> None:
        p = saved[0]
        _accumulate(x, p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return _result(fwd, (x,), "softmax", backward_fn)


def sum_all(a: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, np.full_like(a.data, float(g)))

    return _result(lambda: np.asarray(a.data.sum()), (a,), "sum", backward_fn)


# ---------------------------------------------------------------------------
# shape ops


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ContractError("concat of zero tensors")
    ndim = parts[0].data.ndim
    if any(p.data.ndim != ndim for p in parts):
        raise DimensionError("concat: mixed ranks")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(g: np.ndarray) -> None:
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * ndim
            sl[axis] = slice(start, stop)
            _accumulate(p, g[tuple(sl)])

    return _result(lambda: np.concatenate([p.data for p in parts], axis=axis), parts, "concat", backward_fn)


def stack_cols(cols: Sequence[Tensor]) -> Tensor:
    """Stack equal-shape tensors along a new last axis: vectors become the
    columns of a matrix, (B, n) matrices the columns of a (B, n, k) batch."""
    cols = list(cols)
    if not cols:
        raise ContractError("stack_cols of zero tensors")
    if any(c.shape != cols[0].shape for c in cols):
        raise DimensionError("stack_cols expects equal-shape tensors")

    def backward_fn(g: np.ndarray) -> None:
        for j, c in enumerate(cols):
            _accumulate(c, g[..., j])

    return _result(lambda: np.stack([c.data for c in cols], axis=-1), cols, "stack_cols", backward_fn)


def _slice_axis(a: Tensor, start: int, stop: int, axis: int, op: str) -> Tensor:
    if a.data.ndim < 2:
        raise DimensionError(f"{op} expects at least a matrix, got shape {a.shape}")
    if not (0 <= start < stop <= a.shape[axis]):
        raise DimensionError(f"{op}: range [{start}, {stop}) invalid for shape {a.shape}")
    sl = (Ellipsis, slice(start, stop)) if axis == -1 else (Ellipsis, slice(start, stop), slice(None))

    def backward_fn(g: np.ndarray) -> None:
        buf = np.zeros_like(a.data)
        buf[sl] = g
        _accumulate(a, buf)

    return _result(lambda: a.data[sl].copy(), (a,), op, backward_fn)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start, stop) along the second-to-last axis."""
    return _slice_axis(a, start, stop, -2, "slice_rows")


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) along the last axis."""
    return _slice_axis(a, start, stop, -1, "slice_cols")


def ravel(a: Tensor) -> Tensor:
    return reshape(a, (-1,))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    """The same entries in row-major order under a new shape (one axis may
    be -1)."""
    shape = tuple(shape)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    try:
        return _result(lambda: a.data.reshape(shape).copy(), (a,), "reshape", backward_fn)
    except ValueError:
        raise DimensionError(f"reshape: cannot view shape {a.shape} as {shape}") from None


def take_rows(table: Tensor, ids) -> Tensor:
    """Gather rows of ``table`` by index; gradients scatter-add back.  An id
    array of shape S gives a result of shape S + (table width,)."""
    if table.data.ndim != 2:
        raise DimensionError(f"take_rows expects a matrix, got shape {table.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.size == 0:
        raise ContractError("take_rows with no indices")
    if idx.min() < 0 or idx.max() >= table.shape[0]:
        raise DataError(
            f"take_rows: id out of bounds (ids span [{idx.min()}, {idx.max()}], table has {table.shape[0]} rows)"
        )

    def backward_fn(g: np.ndarray) -> None:
        # one bincount over flat (id, column) indices: it adds in index order, as np.add.at does
        rows, width = table.shape
        flat = (idx.reshape(-1, 1) * width + np.arange(width)).ravel()
        _accumulate(table, np.bincount(flat, g.ravel(), rows * width).reshape(rows, width))

    return _result(lambda: table.data[idx], (table,), "take_rows", backward_fn)


# ---------------------------------------------------------------------------
# normalization, convolution, dropout, loss


_LN_EPS = 1e-5  # added to the variance


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize ``x`` to zero mean and unit variance along its last axis,
    then apply a per-feature affine transform."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects at least a matrix, got shape {x.shape}")
    width = x.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {width}"
        )

    saved = [None, None]  # row mean and 1/std, (..., 1) each, read by the backward

    # sum / width in the op order of np.mean and np.var, so the bits are theirs
    def fwd() -> np.ndarray:
        mu = x.data.sum(axis=-1, keepdims=True) / width
        c = x.data - mu
        saved[:] = mu, 1.0 / np.sqrt((c * c).sum(axis=-1, keepdims=True) / width + _LN_EPS)
        return c * saved[1] * gain.data + bias.data

    def backward_fn(g: np.ndarray) -> None:
        mu, inv = saved
        xhat = (x.data - mu) * inv
        _accumulate(gain, g * xhat)
        _accumulate(bias, g)
        dxhat = g * gain.data
        m1 = dxhat.sum(axis=-1, keepdims=True) / width
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / width
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _result(fwd, (x, gain, bias), "layer_norm", backward_fn)


def _window_matrix(x: np.ndarray, width: int) -> np.ndarray:
    """The (features x width, batch x positions) matrix of a (batch,
    features, positions) array whose column ``i * span + t`` holds the window
    ``x[i, :, t : t + width]``, row-major like a (features, width) filter.
    One slice copy per offset: at the model's sizes that is 2-4x faster than
    reshaping a ``sliding_window_view``."""
    bsz, d, m = x.shape
    span = m - width + 1
    cols = np.empty((d, width, bsz, span))
    x = x.transpose(1, 0, 2)
    for k in range(width):
        cols[:, k] = x[:, :, k : k + span]
    return cols.reshape(d * width, bsz * span)


def conv1d_maxpool(x: Tensor, banks: Sequence[tuple[Tensor, Tensor]], lengths=None) -> Tensor:
    """Convolve each (features, positions) item of the batch ``x`` with each
    filter bank, apply relu, max-pool over positions, and concatenate the
    pooled scalars into a (B, filters) result.

    Each bank is a (weight, bias) pair with weight shaped
    (num_filters, features, width) and bias shaped (num_filters,).  Each
    bank is one matrix product (im2col): the (num_filters, features x width)
    weight times the (features x width, B x positions) window matrix of
    ``x``.  The backward puts the gated gradient at each filter's pooled
    position (the first, on ties) in a dense (num_filters, B, positions)
    array and rebuilds the window matrix.

    ``lengths`` holds each item's valid length (None: every item is full
    length): windows that reach past it get -inf before the max, so an item
    pools exactly as it would alone, cut to its length.
    """
    if x.data.ndim != 3:
        raise DimensionError(f"conv1d_maxpool expects a (batch, features, positions) tensor, got shape {x.shape}")
    bsz, d, m = x.shape
    if m == 0:
        raise ContractError("conv1d_maxpool on an empty sequence")
    banks = [(w, b) for w, b in banks]
    for w, b in banks:
        if w.data.ndim != 3 or w.shape[1] != d:
            raise DimensionError(f"filter bank shape {w.shape} does not match input features {d}")
        if b.shape != (w.shape[0],):
            raise DimensionError(f"bias shape {b.shape} does not match {w.shape[0]} filters")
        if w.shape[2] > m:
            raise DimensionError(f"filter width {w.shape[2]} exceeds sequence length {m}; pad the input")
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        widest = max((w.shape[2] for w, _ in banks), default=1)
        if lengths.shape != (bsz,) or lengths.min() < widest or lengths.max() > m:
            raise DimensionError(f"lengths {lengths.tolist()} invalid for shape {x.shape} and widest filter {widest}")
        if lengths.min() == m:  # no item is short: nothing to mask
            lengths = None
    saved: list[tuple[np.ndarray, np.ndarray]] = []  # (pooling indices, pre-activations) per bank

    def fwd() -> np.ndarray:
        saved.clear()
        pooled = []
        for w, b in banks:
            nf, _, width = w.shape
            span = m - width + 1
            cols = _window_matrix(x.data, width)
            pre = (w.data.reshape(nf, d * width) @ cols).reshape(nf, bsz, span) + b.data[:, None, None]
            act = np.maximum(pre, 0.0)
            if lengths is not None:
                act[:, np.arange(span) > (lengths - width)[:, None]] = -np.inf
            saved.append((act.argmax(axis=-1), pre))
            pooled.append(act.max(axis=-1))
        return np.concatenate(pooled).T  # (B, filters)

    def backward_fn(g: np.ndarray) -> None:
        dx = np.zeros((d, bsz, m))
        offset = 0
        for (w, b), (args, pre) in zip(banks, saved):
            nf, _, width = w.shape
            span = pre.shape[-1]
            f_idx, b_idx = np.ogrid[:nf, :bsz]
            gf = g[:, offset : offset + nf].T * (pre[f_idx, b_idx, args] > 0)
            offset += nf
            gpos = np.zeros_like(pre)  # gf at each filter's pooled position, zero elsewhere
            gpos[f_idx, b_idx, args] = gf
            gpos = gpos.reshape(nf, bsz * span)
            _accumulate(w, (gpos @ _window_matrix(x.data, width).T).reshape(w.shape))
            _accumulate(b, gf.sum(axis=1))
            dcols = (w.data.reshape(nf, d * width).T @ gpos).reshape(d, width, bsz, span)
            for k in range(width):  # window row k of column t is input position t + k
                dx[:, :, k : k + span] += dcols[:, k]
        _accumulate(x, dx.transpose(1, 0, 2))

    parents = [x]
    for w, b in banks:
        parents.extend((w, b))
    return _result(fwd, parents, "conv1d_maxpool", backward_fn)


def dropout(x: Tensor, ratio: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: zero entries with probability ``ratio`` and scale
    survivors by 1/(1-ratio), the mask drawn once from ``rng`` (so ``replay``
    reuses it); ``x`` itself when ``rng`` is None or ``ratio`` is 0."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"dropout ratio must be in [0, 1), got {ratio}")
    if rng is None or ratio == 0.0:
        return x
    keep = (rng.random(x.shape) >= ratio) / (1.0 - ratio)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g * keep)

    return _result(lambda: x.data * keep, (x,), "dropout", backward_fn)


_NLL_EPS = 1e-12


def nll_from_probs(probs: Tensor, gold: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of the gold classes.

    ``probs`` is a (batch, classes) matrix of per-example probability rows;
    ``gold`` the matching class indices.  Zero probabilities at the gold
    class are clamped at 1e-12, and clamped entries get zero gradient.
    """
    gold = np.asarray([int(g) for g in gold], dtype=np.int64)
    if probs.data.ndim != 2:
        raise DimensionError(f"probabilities must be a (batch, classes) matrix, got shape {probs.shape}")
    if probs.shape[0] != gold.size or not gold.size:
        raise ContractError(f"nll_from_probs: {probs.shape[0]} probability rows vs {gold.size} labels")
    if gold.min() < 0 or gold.max() >= probs.shape[1]:
        raise DataError(f"gold class out of range for {probs.shape[1]} classes (labels {gold.tolist()})")
    rows = np.arange(gold.size)

    def fwd() -> np.ndarray:
        # sequential sum in batch order; a pairwise np.sum would change the loss bits
        total = 0.0
        for p in probs.data[rows, gold].tolist():
            total -= math.log(max(p, _NLL_EPS))
        return np.asarray(total)

    def backward_fn(gout: np.ndarray) -> None:
        picked = probs.data[rows, gold]
        kept = picked >= _NLL_EPS
        buf = np.zeros_like(probs.data)
        buf[rows[kept], gold[kept]] = -float(gout) / picked[kept]
        _accumulate(probs, buf)

    return _result(fwd, (probs,), "nll", backward_fn)


# ---------------------------------------------------------------------------
# initialization


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Variance-scaled uniform init with fans from the last two axes
    (for 3-D conv filters: fan_in = features x width, fan_out = filters)."""
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    elif len(shape) == 3:
        fan_in, fan_out = shape[1] * shape[2], shape[0]
    else:
        raise ConfigError(f"cannot infer fans for shape {shape}")
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)
