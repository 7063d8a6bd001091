"""Compare-aggregate sentence-pair matcher over word-level inputs.

Each sentence is encoded column-wise by a bidirectional tanh recurrence
(forward and backward states concatenated), the premise is soft-aligned
onto each hypothesis position through a learned projection and a softmax
over premise positions, aligned and original columns are compared by
element-wise multiplication, and a bank of convolution filters of each
width in ``FILTER_WIDTHS`` (1..5, fixed; the config sets only how many per
width) with relu and max-over-time pooling aggregates the comparison into a
fixed vector for a three-way softmax head.

The recurrent encoder is a self-contained, trainable stand-in for a large
pretrained contextual embedder; it sits behind the ``contextual_encode``
interface so it can be swapped out, and it can be frozen via
``freeze_encoder`` when a fixed embedder is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import LABELS
from .errors import ConfigError, DataError, DimensionError
from .model import PairClassifier, initializers
from .tokenizer import Vocabulary, word_tokenize

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
    word_ids,
    emb_table: T.Tensor,
    fwd: EncoderDirection,
    bwd: EncoderDirection,
) -> T.Tensor:
    """Context-dependent column representations of a word sequence.

    Column t concatenates the forward recurrent state after reading words
    0..t with the backward state after reading words t..end, giving a matrix
    of width len(word_ids).
    """
    ids = list(word_ids)
    if not ids:
        raise DataError("cannot encode an empty word sequence")
    rows = T.take_rows(emb_table, ids)
    length = len(ids)
    hidden = fwd.b.shape[0]

    def run(direction: EncoderDirection, order):
        states: dict[int, T.Tensor] = {}
        h = T.Tensor(np.zeros(hidden))
        for t in order:
            x_t = T.ravel(T.slice_rows(rows, t, t + 1))
            h = T.tanh(T.add(T.add(T.matmul(direction.wx, x_t), T.matmul(direction.wh, h)), direction.b))
            states[t] = h
        return states

    f_states = run(fwd, range(length))
    b_states = run(bwd, reversed(range(length)))
    return T.stack_cols([T.concat([f_states[t], b_states[t]], axis=0) for t in range(length)])


def cross_attention(ep: T.Tensor, eh: T.Tensor, w: T.Tensor) -> T.Tensor:
    """Soft-align premise columns onto each hypothesis column.

    Output column j is the softmax-weighted sum of premise columns, where the
    weights normalize over premise positions using logits (w @ ep)^T @ eh.
    """
    if ep.data.ndim != 2 or eh.data.ndim != 2 or ep.shape[0] != eh.shape[0]:
        raise DimensionError(f"cross_attention: width mismatch {ep.shape} vs {eh.shape}")
    if w.shape != (ep.shape[0], ep.shape[0]):
        raise DimensionError(f"cross_attention: projection shape {w.shape} does not match width {ep.shape[0]}")
    logits = T.matmul(T.transpose(T.matmul(w, ep)), eh)
    weights = T.softmax(logits, axis=0)
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
    dropout: float = 0.0,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> T.Tensor:
    """Convolve, pool, and classify a comparison matrix into class
    probabilities.  Inputs narrower than the widest filter are padded with
    zero columns."""
    max_width = max(w.shape[2] for w, _ in banks)
    d, m = c.shape
    if m < max_width:
        c = T.concat([c, T.Tensor(np.zeros((d, max_width - m)))], axis=1)
    pooled = T.conv1d_maxpool(c, banks)
    pooled = T.dropout(pooled, dropout, training, rng)
    logits = T.add(T.matmul(pooled, cls_w), cls_b)
    return T.softmax(logits, axis=0)


def _stack_rows(rows) -> T.Tensor:
    """Per-example probability vectors as one (batch, classes) matrix."""
    return T.reshape(T.concat(rows, axis=0), (len(rows), -1))


class CompAggrModel(PairClassifier):
    """Three-way sentence-pair classifier with align/compare/aggregate flow."""

    kind = "compaggr"
    config_class = CompAggrConfig
    tokenizer_modes = ("word",)

    def __init__(self, config: CompAggrConfig, vocab: Vocabulary, seed: int = 0, tokenizer_mode: str = "word"):
        super().__init__(config, vocab, tokenizer_mode)
        self.freeze_encoder = False
        mat, zeros, _ = initializers(seed, self._params)
        hidden = config.repr_dim // 2
        self.emb_table = mat("emb.word", len(vocab), config.word_dim)
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

    def _ids(self, text: str) -> list[int]:
        ids = word_tokenize(text, self.vocab)
        if not ids:
            raise DataError(f"text tokenized to nothing: {text!r}")
        return ids

    def encode_sentence(self, text: str) -> T.Tensor:
        return contextual_encode(self._ids(text), self.emb_table, self.enc_fwd, self.enc_bwd)

    def forward(
        self, premise: str, hypothesis: str,
        training: bool = False, rng: np.random.Generator | None = None,
    ) -> T.Tensor:
        if self.freeze_encoder:
            ep = self.encode_sentence(premise).detach()
            eh = self.encode_sentence(hypothesis).detach()
        else:
            ep = self.encode_sentence(premise)
            eh = self.encode_sentence(hypothesis)
        ep = T.dropout(ep, self.dropout, training, rng)
        eh = T.dropout(eh, self.dropout, training, rng)
        aligned = cross_attention(ep, eh, self.attn_w)
        c = compare(aligned, eh)
        return aggregate_classify(
            c, self.banks, self.cls_w, self.cls_b,
            dropout=self.dropout, training=training, rng=rng,
        )

    def predict_proba(self, premise: str, hypothesis: str) -> np.ndarray:
        return self.forward(premise, hypothesis).data.copy()

    def batch_loss(self, batch, training: bool = False, rng: np.random.Generator | None = None):
        probs = _stack_rows([self.forward(ex.premise, ex.hypothesis, training=training, rng=rng) for ex in batch])
        return self._scored(probs, batch)
