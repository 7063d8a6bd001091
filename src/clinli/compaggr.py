"""Compare-aggregate sentence-pair matcher over word-level inputs.

Each sentence is encoded column-wise by a bidirectional tanh recurrence
(forward and backward states concatenated), the premise is soft-aligned
onto each hypothesis position through a learned projection and a softmax
over premise positions, aligned and original columns are compared by
element-wise multiplication, and a bank of convolution filters of each
width in ``FILTER_WIDTHS`` (1..5, fixed; the config sets only how many per
width) with relu and max-over-time pooling aggregates the comparison into a
fixed vector for a three-way softmax head.

``CompAggrModel.encode`` turns a pair into its premise's and its
hypothesis's word ids, and ``forward`` runs B encoded pairs as one graph:
its B premises, then its B hypotheses, padded at the end with [PAD] to the
longest of both, L = max(p, h) words, encode in one pass to a (2B, d, L)
tensor cut into a (B, d, L) half per side.  Each direction projects every
step at once, then records five nodes per step (three on its first step,
six on a backward step where some row is padding: the row-mask ``mul``).
Neither direction needs a blend of old and new states: the forward one reads
padding only after a row's last word, and the backward one reads it first,
from a zero state that a multiply by the step's row mask keeps exactly zero.
Padded premise columns get -1e9 alignment logits, so exactly zero weight.
Padded hypothesis columns of the comparison are zeroed, and the convolution
masks each window past a row's length, or past the widest filter for a
shorter row, zero-padded as when it runs alone.  So a pair's probabilities
do not depend on its batch beyond the last bits of the float sums.

The recurrent encoder is a self-contained, trainable stand-in for a large
pretrained contextual embedder, and trains with the rest of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import LABELS
from .errors import ConfigError, DataError, DimensionError
from .model import MASK_LOGIT, PairClassifier
from .tokenizer import pad_ids, tokenize_sides, word_tokenize

__all__ = [
    "FILTER_WIDTHS",
    "CompAggrConfig",
    "CompAggrModel",
    "EncoderDirection",
    "aggregate_classify",
    "compare",
    "contextual_encode",
    "cross_attention",
]


FILTER_WIDTHS = (1, 2, 3, 4, 5)


@dataclass
class CompAggrConfig:
    word_dim: int = 16
    repr_dim: int = 16
    filters_per_width: int = 20
    dropout: float = 0.7

    def __post_init__(self):
        if self.repr_dim < 2 or self.repr_dim % 2 != 0:
            raise ConfigError(f"repr_dim must be even and >= 2, got {self.repr_dim}")
        if min(self.word_dim, self.filters_per_width) < 1:
            raise ConfigError("word_dim and filters_per_width must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def total_filters(self) -> int:
        return self.filters_per_width * len(FILTER_WIDTHS)

    @classmethod
    def full_scale(cls) -> "CompAggrConfig":
        """100-wide representations and 100 filters per width (500 total)."""
        return cls(word_dim=100, repr_dim=100, filters_per_width=100)


@dataclass
class EncoderDirection:
    wx: T.Tensor
    wh: T.Tensor
    b: T.Tensor


def contextual_encode(
    batch_ids,
    emb_table: T.Tensor,
    fwd: EncoderDirection,
    bwd: EncoderDirection,
) -> tuple[T.Tensor, np.ndarray]:
    """Context-dependent column representations of a batch of word
    sequences, and their lengths.

    Sequence i is padded at the end to the longest, L words; column t of
    row i concatenates the forward recurrent state after reading words 0..t
    with the backward state after reading words t..end, giving a (B, d, L)
    tensor whose columns past a row's length are padding.
    """
    lengths = np.array([len(ids) for ids in batch_ids], dtype=np.int64)
    if not lengths.size or lengths.min() == 0:
        raise DataError("cannot encode an empty word sequence")
    ids = pad_ids(batch_ids)
    batch, width = ids.shape
    rows = T.take_rows(emb_table, ids)
    valid = np.arange(width) < lengths[:, None]

    def run(direction: EncoderDirection, order, masked: bool) -> T.Tensor:
        inputs = T.add(T.matmul(rows, T.transpose(direction.wx)), direction.b)  # (B, L, hidden), every step at once
        wh = T.transpose(direction.wh)
        states: list[T.Tensor] = [None] * width
        h = None
        for t in order:
            x_t = T.reshape(T.slice_rows(inputs, t, t + 1), (batch, -1))
            h = T.tanh(x_t if h is None else T.add(x_t, T.matmul(h, wh)))
            if masked and not valid[:, t].all():
                h = T.mul(h, T.Tensor(valid[:, t : t + 1]))
            states[t] = h
        return T.stack_cols(states)

    f_states = run(fwd, range(width), masked=False)
    b_states = run(bwd, reversed(range(width)), masked=True)
    return T.concat([f_states, b_states], axis=-2), lengths


def cross_attention(ep: T.Tensor, eh: T.Tensor, w: T.Tensor, premise_lengths) -> T.Tensor:
    """Soft-align each batch row's premise columns onto its hypothesis
    columns.

    ``ep`` and ``eh`` are (B, d, n) and (B, d, m) batches, and
    ``premise_lengths`` gives each row's premise length.  Output column j of
    a row is the softmax-weighted sum of its premise columns, where the
    weights normalize over premise positions using logits (w @ ep)^T @ eh;
    padded premise columns get -1e9 logits.
    """
    if ep.data.ndim != 3 or eh.data.ndim != 3 or ep.shape[:-1] != eh.shape[:-1]:
        raise DimensionError(f"cross_attention expects (B, d, n) and (B, d, m) batches, got {ep.shape} and {eh.shape}")
    d, n = ep.shape[-2:]
    if w.shape != (d, d):
        raise DimensionError(f"cross_attention: projection shape {w.shape} does not match width {d}")
    logits = T.matmul(T.transpose(T.matmul(w, ep)), eh)
    premise_lengths = np.asarray(premise_lengths)
    if premise_lengths.min() < n:
        padded = np.arange(n) >= premise_lengths[:, None]
        logits = T.add(logits, T.Tensor(np.where(padded, MASK_LOGIT, 0.0)[:, :, None]))
    weights = T.softmax(logits, axis=-2)
    return T.matmul(ep, weights)


def compare(ap: T.Tensor, eh: T.Tensor) -> T.Tensor:
    """Element-wise product of aligned premise and hypothesis columns."""
    if ap.shape != eh.shape:
        raise DimensionError(f"compare: shape mismatch {ap.shape} vs {eh.shape}")
    return T.mul(ap, eh)


def aggregate_classify(
    c: T.Tensor,
    banks,
    cls_w: T.Tensor,
    cls_b: T.Tensor,
    lengths,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> T.Tensor:
    """Convolve, pool, and classify a (B, d, m) batch of comparison matrices,
    with each row's valid length in ``lengths``, into a (B, classes) matrix
    of class probabilities, with dropout on the pooled features when ``rng``
    is given.  Padded columns are zeroed first; a batch narrower than the
    widest filter is padded with zero columns."""
    if c.data.ndim != 3:
        raise DimensionError(f"aggregate_classify expects a (B, d, m) batch, got {c.shape}")
    max_width = max(w.shape[2] for w, _ in banks)
    m = c.shape[-1]
    lengths = np.asarray(lengths)
    if lengths.min() < m:
        c = T.mul(c, T.Tensor((np.arange(m) < lengths[:, None])[:, None, :]))
    if m < max_width:
        c = T.concat([c, T.Tensor(np.zeros(c.shape[:-1] + (max_width - m,)))], axis=-1)
    pooled = T.conv1d_maxpool(c, banks, np.maximum(lengths, max_width))
    pooled = T.dropout(pooled, dropout, rng)
    logits = T.add(T.matmul(pooled, cls_w), cls_b)
    return T.softmax(logits, axis=-1)


class CompAggrModel(PairClassifier):
    """Three-way sentence-pair classifier with align/compare/aggregate flow."""

    kind = "compaggr"
    config_class = CompAggrConfig
    tokenizer_mode = "word"

    def _make_parameters(self, mat, zeros, ones):
        config = self.config
        hidden = config.repr_dim // 2
        self.emb_table = mat("emb.word", len(self.vocab), config.word_dim)
        self.enc_fwd, self.enc_bwd = (
            EncoderDirection(wx=mat(f"enc.{d}.wx", hidden, config.word_dim), wh=mat(f"enc.{d}.wh", hidden, hidden),
                             b=zeros(f"enc.{d}.b", hidden))
            for d in ("fwd", "bwd")
        )
        self.attn_w = mat("attn.w", config.repr_dim, config.repr_dim)
        self.banks: list[tuple[T.Tensor, T.Tensor]] = []
        for width in FILTER_WIDTHS:
            weight = mat(f"conv.w{width}.weight", config.filters_per_width, config.repr_dim, width)
            self.banks.append((weight, zeros(f"conv.w{width}.bias", config.filters_per_width)))
        self.cls_w = mat("cls.w", config.total_filters, len(LABELS))
        self.cls_b = zeros("cls.b", len(LABELS))

    def encode(self, premise: str, hypothesis: str) -> tuple[list[int], list[int]]:
        return tokenize_sides(premise, hypothesis, lambda text: word_tokenize(text, self.vocab))

    def forward(self, batch, rng: np.random.Generator | None = None) -> T.Tensor:
        """(B, 3) class probabilities for B encoded pairs, from one graph; dropout given an ``rng``."""
        sides = [p for p, _ in batch] + [h for _, h in batch]
        e, lengths = contextual_encode(sides, self.emb_table, self.enc_fwd, self.enc_bwd)
        halves = T.reshape(T.dropout(e, self.config.dropout, rng), (2, -1))  # premises, then hypotheses
        ep, eh = (T.reshape(T.slice_rows(halves, i, i + 1), (-1,) + e.shape[1:]) for i in (0, 1))
        aligned = cross_attention(ep, eh, self.attn_w, lengths[: len(batch)])
        c = compare(aligned, eh)
        return aggregate_classify(
            c, self.banks, self.cls_w, self.cls_b, lengths[len(batch) :], dropout=self.config.dropout, rng=rng,
        )

    def predict_proba(self, premise: str, hypothesis: str) -> np.ndarray:
        return self.forward([self.encode(premise, hypothesis)]).data[0].copy()

    def batch_loss(self, batch, training: bool = False, rng: np.random.Generator | None = None):
        probs = self.forward([self.encode(ex.premise, ex.hypothesis) for ex in batch], rng=rng if training else None)
        return self._scored(probs, batch)
