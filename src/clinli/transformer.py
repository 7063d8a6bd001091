"""Sequence-pair classifier built on stacked self-attention blocks.

A pair is its token ids, ``[CLS] premise [SEP] hypothesis [SEP]``, embedded
as summed token, position, and segment embeddings and run through post-norm
attention blocks (multi-head attention, residual, layer norm, position-wise
feed-forward, residual, layer norm); the hidden state at the leading [CLS]
position feeds an affine three-way softmax head.

A batch runs as one graph.  ``forward`` pads its pairs at the end with [PAD]
into one (B, n) id matrix, n the longest pair's length (``max_len`` is the
truncation budget and position-table size), which gives both the segments
(1 after a row's first [SEP] and before its padding) and the key mask (every
id but [PAD]).  The pairs embed to one (B, n, d_e) tensor, and each head's
keys and values are (B, n, d_k) column slices.  Its queries and attention
weights are (B, n, d_k) and (B, n, n), but (B, 1, d_k) and (B, 1, n) in the
last block, which computes only the [CLS] row that the (B, 3) probability
head reads.  The block and attention functions also accept a single
unbatched (L, d_e) sequence.

Padded key positions receive -1e9 attention logits before the softmax, so
padding never changes the classification of a pair.  Position embeddings
are learned.  Head width is the embedding width divided by the head count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import LABELS
from .errors import ConfigError, ContractError, DataError, DimensionError
from .model import MASK_LOGIT, PairClassifier
from .tokenizer import Vocabulary, encode_pair

__all__ = [
    "AttentionParams",
    "BlockParams",
    "TransformerClassifier",
    "TransformerConfig",
    "embed",
    "multi_head_attention",
    "transformer_block",
]


@dataclass
class TransformerConfig:
    d_e: int = 64
    num_heads: int = 4
    num_blocks: int = 2
    d_ff: int = 128
    max_len: int = 64
    dropout: float = 0.1

    def __post_init__(self):
        if min(self.d_e, self.num_heads, self.num_blocks, self.d_ff) < 1:
            raise ConfigError("d_e, num_heads, num_blocks and d_ff must be positive")
        if self.max_len < 5:  # [CLS], [SEP], [SEP] and one token of each sentence
            raise ConfigError(f"max_len must be at least 5, got {self.max_len}")
        if self.d_e % self.num_heads != 0:
            raise ConfigError(f"d_e {self.d_e} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class AttentionParams:
    wq: T.Tensor
    bq: T.Tensor
    wk: T.Tensor
    bk: T.Tensor
    wv: T.Tensor
    bv: T.Tensor
    wo: T.Tensor
    bo: T.Tensor


@dataclass
class BlockParams:
    attn: AttentionParams
    ln1_gain: T.Tensor
    ln1_bias: T.Tensor
    ffn_w1: T.Tensor
    ffn_b1: T.Tensor
    ffn_w2: T.Tensor
    ffn_b2: T.Tensor
    ln2_gain: T.Tensor
    ln2_bias: T.Tensor


def embed(ids: np.ndarray, token_table: T.Tensor, pos_table: T.Tensor, seg_table: T.Tensor) -> T.Tensor:
    """(B, n, d_e) per-position sums of token, position, and segment
    embedding rows for the (B, n) ids of B encoded pairs padded at the end
    with [PAD]; token i at position i, in segment 1 after its row's first
    [SEP] and before its padding, and in segment 0 elsewhere."""
    if not len(ids):
        raise ContractError("embed of an empty batch")
    batch, length = ids.shape
    if length > pos_table.shape[0]:
        raise DataError(f"sequence length {length} exceeds position table {pos_table.shape[0]}")
    sep = ids == Vocabulary.sep_id
    segments = ((np.cumsum(sep, axis=1) - sep > 0) & (ids != Vocabulary.pad_id)).astype(np.int64)
    tok = T.take_rows(token_table, ids)
    pos = T.take_rows(pos_table, np.tile(np.arange(length), (batch, 1)))
    seg = T.take_rows(seg_table, segments)
    return T.add(T.add(tok, pos), seg)


def multi_head_attention(
    x: T.Tensor,
    mask,
    p: AttentionParams,
    num_heads: int,
    return_weights: bool = False,
    queries: T.Tensor | None = None,
):
    """Scaled dot-product attention over ``num_heads`` column slices of the
    projected queries/keys/values, concatenated and projected back.

    ``x`` is (L, d_e) or a (B, L, d_e) batch; ``mask`` has the shape of
    ``x`` without its last axis and marks valid key positions with 1.
    Masked keys get -1e9 logits.  Keys and values come from ``x``, queries
    from ``queries`` (default ``x``), and each query row gives one output row.
    """
    d_e = x.shape[-1]
    if d_e % num_heads != 0:
        raise DimensionError(f"width {d_e} not divisible by {num_heads} heads")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:-1]:
        raise DimensionError(f"mask shape {mask.shape} does not match sequence shape {x.shape[:-1]}")
    d_k = d_e // num_heads
    q = T.add(T.matmul(x if queries is None else queries, p.wq), p.bq)
    k = T.add(T.matmul(x, p.wk), p.bk)
    v = T.add(T.matmul(x, p.wv), p.bv)
    # one row of key biases per sequence, shared by all its query positions
    bias = T.Tensor(np.where(mask, 0.0, MASK_LOGIT)[..., None, :])
    heads = []
    weights = []
    for h in range(num_heads):
        lo, hi = h * d_k, (h + 1) * d_k
        qh = T.slice_cols(q, lo, hi)
        kh = T.slice_cols(k, lo, hi)
        vh = T.slice_cols(v, lo, hi)
        logits = T.add(T.scale(T.matmul(qh, T.transpose(kh)), 1.0 / math.sqrt(d_k)), bias)
        attn = T.softmax(logits, axis=-1)
        if return_weights:
            weights.append(attn.data.copy())
        heads.append(T.matmul(attn, vh))
    out = T.add(T.matmul(T.concat(heads, axis=-1), p.wo), p.bo)
    return (out, weights) if return_weights else out


def transformer_block(
    x: T.Tensor,
    mask,
    bp: BlockParams,
    num_heads: int,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
    rows: int | None = None,
) -> T.Tensor:
    """Post-norm block: attention and feed-forward sublayers, each wrapped in
    residual + layer norm, with dropout on the sublayer outputs given an ``rng``.
    Only the first ``rows`` positions (all when None) attend and come out."""
    q = x if rows is None else T.slice_rows(x, 0, rows)
    a = multi_head_attention(x, mask, bp.attn, num_heads, queries=q)
    a = T.dropout(a, dropout, rng)
    x = T.layer_norm(T.add(q, a), bp.ln1_gain, bp.ln1_bias)
    f = T.add(T.matmul(T.relu(T.add(T.matmul(x, bp.ffn_w1), bp.ffn_b1)), bp.ffn_w2), bp.ffn_b2)
    f = T.dropout(f, dropout, rng)
    return T.layer_norm(T.add(x, f), bp.ln2_gain, bp.ln2_bias)


class TransformerClassifier(PairClassifier):
    """Three-way sentence-pair classifier over sub-word encodings."""

    kind = "transformer"
    config_class = TransformerConfig
    tokenizer_mode = "wordpiece"

    def _make_parameters(self, mat, zeros, ones):
        d_e, d_ff = self.config.d_e, self.config.d_ff
        self.token_table = mat("emb.token", len(self.vocab), d_e)
        self.pos_table = mat("emb.pos", self.config.max_len, d_e)
        self.seg_table = mat("emb.seg", 2, d_e)
        self.blocks: list[BlockParams] = []
        for i in range(self.config.num_blocks):
            b = f"block{i}."
            self.blocks.append(
                BlockParams(
                    attn=AttentionParams(
                        wq=mat(b + "attn.wq", d_e, d_e), bq=zeros(b + "attn.bq", d_e),
                        wk=mat(b + "attn.wk", d_e, d_e), bk=zeros(b + "attn.bk", d_e),
                        wv=mat(b + "attn.wv", d_e, d_e), bv=zeros(b + "attn.bv", d_e),
                        wo=mat(b + "attn.wo", d_e, d_e), bo=zeros(b + "attn.bo", d_e),
                    ),
                    ln1_gain=ones(b + "ln1.gain", d_e), ln1_bias=zeros(b + "ln1.bias", d_e),
                    ffn_w1=mat(b + "ffn.w1", d_e, d_ff), ffn_b1=zeros(b + "ffn.b1", d_ff),
                    ffn_w2=mat(b + "ffn.w2", d_ff, d_e), ffn_b2=zeros(b + "ffn.b2", d_e),
                    ln2_gain=ones(b + "ln2.gain", d_e), ln2_bias=zeros(b + "ln2.bias", d_e),
                )
            )
        self.cls_w = mat("cls.w", d_e, len(LABELS))
        self.cls_b = zeros("cls.b", len(LABELS))

    def encode(self, premise: str, hypothesis: str) -> list[int]:
        return encode_pair(premise, hypothesis, self.vocab, self.config.max_len)

    def forward(self, batch: Sequence[list[int]], rng: np.random.Generator | None = None) -> T.Tensor:
        """(B, 3) class probabilities for B encoded pairs, each masked past its length; dropout given an ``rng``."""
        ids = np.full((len(batch), max(map(len, batch), default=0)), Vocabulary.pad_id)
        for row, token_ids in enumerate(batch):
            ids[row, : len(token_ids)] = token_ids
        x = embed(ids, self.token_table, self.pos_table, self.seg_table)
        mask = ids != Vocabulary.pad_id
        for bp in self.blocks:  # the head reads only [CLS], so the last block computes only that row
            x = transformer_block(
                x, mask, bp, self.config.num_heads,
                dropout=self.config.dropout, rng=rng, rows=1 if bp is self.blocks[-1] else None,
            )
        pooled = T.reshape(x, (len(batch), self.config.d_e))
        logits = T.add(T.matmul(pooled, self.cls_w), self.cls_b)
        return T.softmax(logits, axis=-1)

    def predict_proba(self, premise: str, hypothesis: str) -> np.ndarray:
        return self.forward([self.encode(premise, hypothesis)]).data[0].copy()

    def batch_loss(self, batch, training: bool = False, rng: np.random.Generator | None = None):
        probs = self.forward([self.encode(ex.premise, ex.hypothesis) for ex in batch], rng=rng if training else None)
        return self._scored(probs, batch)
