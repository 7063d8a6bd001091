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
bit for bit; everything else a backward needs, such as ``conv1d_maxpool``'s
pooling indices, is recomputed from the current inputs.  A backward closure
never refers to its own output node, so a finished graph holds no reference
cycle and is freed as soon as the last reference to it goes.

Only the operations the two sentence-pair classifiers need are implemented.
Shape-changing ops work on the last axes, so a batch of B matrices is one
(B, rows, cols) tensor: ``matmul`` treats leading axes as batch axes,
``transpose`` swaps the last two axes, ``slice_rows``/``slice_cols`` slice
the second-to-last/last axis and ``layer_norm`` normalizes the last axis.
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
    "nll_clamp_count",
    "nll_from_probs",
    "ravel",
    "record",
    "relu",
    "replay",
    "reshape",
    "reset_nll_clamp_count",
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

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad = t.grad + g


def _result(
    forward_fn: Callable[[], np.ndarray],
    parents: Sequence[Tensor],
    op: str,
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    """The output node of an op: its value is ``forward_fn()``, and the node
    keeps ``forward_fn`` for ``replay`` when any parent requires grad."""
    out = Tensor(forward_fn())
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out._parents = tuple(parents)
        out._backward = backward_fn
        out._forward = forward_fn
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

    Dropout masks are reused; every other intermediate, pooling indices
    included, is recomputed, so a later ``backward`` sees the replayed
    values.  On unchanged inputs the result is bit-identical to the
    original run.
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


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise DimensionError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the gradient of a broadcast result back to an operand's shape."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return g.sum(axis=axes).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _result(lambda: a.data + b.data, (a, b), "add", backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _result(lambda: a.data * b.data, (a, b), "mul", backward_fn)


def scale(a: Tensor, factor: float) -> Tensor:
    f = float(factor)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * f)

    return _result(lambda: a.data * f, (a,), "scale", backward_fn)


# ---------------------------------------------------------------------------
# unary nonlinearities


def tanh(a: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - np.tanh(a.data) ** 2))

    return _result(lambda: np.tanh(a.data), (a,), "tanh", backward_fn)


def relu(a: Tensor) -> Tensor:
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g * (a.data > 0))

    return _result(lambda: np.maximum(a.data, 0.0), (a,), "relu", backward_fn)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.  A 1-D operand is a vector multiplying a matrix; the
    leading axes of N-D operands are batch axes and broadcast.  A 2-D right
    operand is shared by the whole batch, so its gradient sums over it."""
    na, nb = a.data.ndim, b.data.ndim

    def backward_fn(g: np.ndarray) -> None:
        if na == 1:
            ga, gb = b.data @ g, np.outer(a.data, g)
        elif nb == 1:
            ga, gb = np.outer(g, b.data), a.data.T @ g
        else:
            ga = g @ np.swapaxes(b.data, -1, -2)
            if nb == 2:
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
        _accumulate(a, _unbroadcast(ga, a.shape))
        _accumulate(b, _unbroadcast(gb, b.shape))

    try:
        if min(na, nb) == 0 or (min(na, nb) == 1 and max(na, nb) != 2):
            raise ValueError
        return _result(lambda: a.data @ b.data, (a, b), "matmul", backward_fn)
    except ValueError:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}") from None


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
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")

    def fwd() -> np.ndarray:
        shifted = x.data - x.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)

    def backward_fn(g: np.ndarray) -> None:
        p = fwd()
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
    """Stack 1-D tensors of equal length as the columns of a matrix."""
    cols = list(cols)
    if not cols:
        raise ContractError("stack_cols of zero vectors")
    if any(c.data.ndim != 1 or c.shape != cols[0].shape for c in cols):
        raise DimensionError("stack_cols expects equal-length vectors")

    def backward_fn(g: np.ndarray) -> None:
        for j, c in enumerate(cols):
            _accumulate(c, g[:, j])

    return _result(lambda: np.stack([c.data for c in cols], axis=1), cols, "stack_cols", backward_fn)


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
    def backward_fn(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    return _result(lambda: a.data.reshape(-1).copy(), (a,), "ravel", backward_fn)


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
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx, g)
        _accumulate(table, buf)

    return _result(lambda: table.data[idx], (table,), "take_rows", backward_fn)


# ---------------------------------------------------------------------------
# normalization, convolution, dropout, loss


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize ``x`` to zero mean and unit variance along its last axis,
    then apply a per-feature affine transform."""
    if x.data.ndim < 2:
        raise DimensionError(f"layer_norm expects at least a matrix, got shape {x.shape}")
    width = x.shape[-1]
    if gain.shape != (width,) or bias.shape != (width,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {width}"
        )

    def stats():
        mu = x.data.mean(axis=-1, keepdims=True)
        var = x.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu) * inv
        return xhat, inv

    def backward_fn(g: np.ndarray) -> None:
        xhat, inv = stats()
        _accumulate(gain, _unbroadcast(g * xhat, gain.shape))
        _accumulate(bias, _unbroadcast(g, bias.shape))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _result(lambda: stats()[0] * gain.data + bias.data, (x, gain, bias), "layer_norm", backward_fn)


def conv1d_maxpool(x: Tensor, banks: Sequence[tuple[Tensor, Tensor]]) -> Tensor:
    """Convolve ``x`` (features x positions) with each filter bank, apply
    relu, max-pool over positions, and concatenate the pooled scalars.

    Each bank is a (weight, bias) pair with weight shaped
    (num_filters, features, width) and bias shaped (num_filters,).
    """
    if x.data.ndim != 2:
        raise DimensionError(f"conv1d_maxpool expects a matrix, got shape {x.shape}")
    d, m = x.shape
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
    saved: list[tuple[np.ndarray, np.ndarray]] = []  # (pooling indices, pre-activations) per bank

    def fwd() -> np.ndarray:
        saved.clear()
        pooled = []
        for w, b in banks:
            width = w.shape[2]
            windows = np.lib.stride_tricks.sliding_window_view(x.data, width, axis=1)
            pre = np.einsum("fdw,dtw->ft", w.data, windows) + b.data[:, None]
            act = np.maximum(pre, 0.0)
            saved.append((act.argmax(axis=1), pre))
            pooled.append(act.max(axis=1))
        return np.concatenate(pooled)

    def backward_fn(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        offset = 0
        for (w, b), (args, pre) in zip(banks, saved):
            nf, _, width = w.shape
            g_bank = g[offset : offset + nf]
            offset += nf
            gate = pre[np.arange(nf), args] > 0
            gf = g_bank * gate
            dw = np.zeros_like(w.data)
            db = gf.copy()
            for f in range(nf):
                if gf[f] == 0.0:
                    continue
                t = args[f]
                dw[f] = gf[f] * x.data[:, t : t + width]
                dx[:, t : t + width] += gf[f] * w.data[f]
            _accumulate(w, dw)
            _accumulate(b, db)
        _accumulate(x, dx)

    parents = [x]
    for w, b in banks:
        parents.extend((w, b))
    return _result(fwd, parents, "conv1d_maxpool", backward_fn)


def dropout(x: Tensor, ratio: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero entries with probability ``ratio`` and scale
    survivors by 1/(1-ratio) in training mode; identity in inference mode.
    The mask is drawn once, so ``replay`` reuses it."""
    if not 0.0 <= ratio < 1.0:
        raise ConfigError(f"dropout ratio must be in [0, 1), got {ratio}")
    if not training or ratio == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in training mode requires an rng")
    keep = (rng.random(x.shape) >= ratio) / (1.0 - ratio)

    def backward_fn(g: np.ndarray) -> None:
        _accumulate(x, g * keep)

    return _result(lambda: x.data * keep, (x,), "dropout", backward_fn)


_NLL_EPS = 1e-12
_nll_clamp_count = 0


def nll_clamp_count() -> int:
    """How many gold-class probabilities have been clamped at 1e-12 so far."""
    return _nll_clamp_count


def reset_nll_clamp_count() -> None:
    global _nll_clamp_count
    _nll_clamp_count = 0


def nll_from_probs(probs: Tensor, gold: Sequence[int]) -> Tensor:
    """Summed negative log-likelihood of the gold classes.

    ``probs`` is a (batch, classes) matrix of per-example probability rows;
    ``gold`` the matching class indices.  Zero probabilities at the gold
    class are clamped at 1e-12 (counted via ``nll_clamp_count``); clamped
    entries get zero gradient.
    """
    global _nll_clamp_count
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

    _nll_clamp_count += int((probs.data[rows, gold] < _NLL_EPS).sum())

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
