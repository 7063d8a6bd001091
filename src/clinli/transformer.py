"""Sequence-pair classifier built on stacked self-attention blocks.

The input pair is encoded as summed token, position, and segment embeddings,
run through post-norm attention blocks (multi-head attention, residual,
layer norm, position-wise feed-forward, residual, layer norm), and the
hidden state at the leading [CLS] position feeds an affine three-way
softmax head.

A batch runs as one graph.  Every pair is padded to ``max_len`` = L, so B
pairs embed to one (B, L, d_e) tensor; each head's queries, keys and values
are (B, L, d_k) column slices, its attention weights are (B, L, L), and the
head returns a (B, num_classes) probability matrix.  The block and attention
functions also accept a single unbatched (L, d_e) sequence with an (L,) mask.

Padded key positions receive -1e9 attention logits before the softmax, so
appending padding to an input never changes the classification.  Position
embeddings are learned.  Head width is the embedding width divided by the
head count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DataError, DimensionError
from .model import PairClassifier, initializers
from .tokenizer import EncodedPair, Vocabulary, encode_pair

__all__ = [
    "AttentionParams",
    "BlockParams",
    "TransformerClassifier",
    "TransformerConfig",
    "embed",
    "multi_head_attention",
    "transformer_block",
]

MASK_LOGIT = -1e9


@dataclass
class TransformerConfig:
    d_e: int = 64
    num_heads: int = 4
    num_blocks: int = 2
    d_ff: int = 128
    max_len: int = 64
    num_classes: int = 3
    dropout: float = 0.1

    def __post_init__(self):
        if self.num_heads < 1 or self.num_blocks < 1:
            raise ConfigError("need at least one head and one block")
        if self.d_e % self.num_heads != 0:
            raise ConfigError(f"d_e {self.d_e} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_k(self) -> int:
        return self.d_e // self.num_heads


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


def embed(batch: Sequence[EncodedPair], token_table: T.Tensor, pos_table: T.Tensor, seg_table: T.Tensor) -> T.Tensor:
    """(B, L, d_e) per-position sums of token, position, and segment
    embedding rows for a batch of encoded pairs of one padded length L."""
    if not batch:
        raise ContractError("embed of an empty batch")
    length = len(batch[0].token_ids)
    if any(len(e.token_ids) != length for e in batch):
        raise DimensionError("encoded pairs in one batch must share one padded length")
    if length > pos_table.shape[0]:
        raise DataError(f"sequence length {length} exceeds position table {pos_table.shape[0]}")
    tok = T.take_rows(token_table, [e.token_ids for e in batch])
    pos = T.take_rows(pos_table, [e.position_ids for e in batch])
    seg = T.take_rows(seg_table, [e.segment_ids for e in batch])
    return T.add(T.add(tok, pos), seg)


def multi_head_attention(
    x: T.Tensor,
    mask,
    p: AttentionParams,
    num_heads: int,
    return_weights: bool = False,
):
    """Scaled dot-product attention over ``num_heads`` column slices of the
    projected queries/keys/values, concatenated and projected back.

    ``x`` is (L, d_e) or a (B, L, d_e) batch; ``mask`` has the shape of
    ``x`` without its last axis and marks valid key positions with 1.
    Masked keys get -1e9 logits.
    """
    d_e = x.shape[-1]
    if d_e % num_heads != 0:
        raise DimensionError(f"width {d_e} not divisible by {num_heads} heads")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:-1]:
        raise DimensionError(f"mask shape {mask.shape} does not match sequence shape {x.shape[:-1]}")
    d_k = d_e // num_heads
    q = T.add(T.matmul(x, p.wq), p.bq)
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
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> T.Tensor:
    """Post-norm block: attention and feed-forward sublayers, each wrapped
    in residual + layer norm, with dropout on the sublayer outputs."""
    a = multi_head_attention(x, mask, bp.attn, num_heads)
    a = T.dropout(a, dropout, training, rng)
    x = T.layer_norm(T.add(x, a), bp.ln1_gain, bp.ln1_bias)
    f = T.add(T.matmul(T.relu(T.add(T.matmul(x, bp.ffn_w1), bp.ffn_b1)), bp.ffn_w2), bp.ffn_b2)
    f = T.dropout(f, dropout, training, rng)
    return T.layer_norm(T.add(x, f), bp.ln2_gain, bp.ln2_bias)


class TransformerClassifier(PairClassifier):
    """Three-way sentence-pair classifier over sub-word encodings."""

    kind = "transformer"
    config_class = TransformerConfig
    tokenizer_modes = ("wordpiece", "word")

    def __init__(
        self,
        config: TransformerConfig,
        vocab: Vocabulary,
        seed: int = 0,
        tokenizer_mode: str = "wordpiece",
    ):
        super().__init__(config, vocab, tokenizer_mode)
        mat, zeros, ones = initializers(seed)
        d_e, d_ff = config.d_e, config.d_ff
        self.token_table = mat(len(vocab), d_e)
        self.pos_table = mat(config.max_len, d_e)
        self.seg_table = mat(2, d_e)
        self.blocks: list[BlockParams] = []
        for _ in range(config.num_blocks):
            self.blocks.append(
                BlockParams(
                    attn=AttentionParams(
                        wq=mat(d_e, d_e), bq=zeros(d_e),
                        wk=mat(d_e, d_e), bk=zeros(d_e),
                        wv=mat(d_e, d_e), bv=zeros(d_e),
                        wo=mat(d_e, d_e), bo=zeros(d_e),
                    ),
                    ln1_gain=ones(d_e), ln1_bias=zeros(d_e),
                    ffn_w1=mat(d_e, d_ff), ffn_b1=zeros(d_ff),
                    ffn_w2=mat(d_ff, d_e), ffn_b2=zeros(d_e),
                    ln2_gain=ones(d_e), ln2_bias=zeros(d_e),
                )
            )
        self.cls_w = mat(d_e, config.num_classes)
        self.cls_b = zeros(config.num_classes)

    def parameters(self) -> dict[str, T.Tensor]:
        params = {
            "emb.token": self.token_table,
            "emb.pos": self.pos_table,
            "emb.seg": self.seg_table,
        }
        for i, bp in enumerate(self.blocks):
            a = bp.attn
            params.update(
                {
                    f"block{i}.attn.wq": a.wq, f"block{i}.attn.bq": a.bq,
                    f"block{i}.attn.wk": a.wk, f"block{i}.attn.bk": a.bk,
                    f"block{i}.attn.wv": a.wv, f"block{i}.attn.bv": a.bv,
                    f"block{i}.attn.wo": a.wo, f"block{i}.attn.bo": a.bo,
                    f"block{i}.ln1.gain": bp.ln1_gain, f"block{i}.ln1.bias": bp.ln1_bias,
                    f"block{i}.ffn.w1": bp.ffn_w1, f"block{i}.ffn.b1": bp.ffn_b1,
                    f"block{i}.ffn.w2": bp.ffn_w2, f"block{i}.ffn.b2": bp.ffn_b2,
                    f"block{i}.ln2.gain": bp.ln2_gain, f"block{i}.ln2.bias": bp.ln2_bias,
                }
            )
        params["cls.w"] = self.cls_w
        params["cls.b"] = self.cls_b
        return params

    def encode(self, premise: str, hypothesis: str) -> EncodedPair:
        return encode_pair(premise, hypothesis, self.vocab, self.config.max_len, mode=self.tokenizer_mode)

    def forward(self, batch: Sequence[EncodedPair], training: bool = False, rng: np.random.Generator | None = None) -> T.Tensor:
        """(B, num_classes) class probabilities for a list of B encoded pairs."""
        x = embed(batch, self.token_table, self.pos_table, self.seg_table)
        mask = [e.attention_mask for e in batch]
        for bp in self.blocks:
            x = transformer_block(
                x, mask, bp, self.config.num_heads,
                dropout=self.dropout, training=training, rng=rng,
            )
        pooled = T.reshape(T.slice_rows(x, 0, 1), (len(batch), self.config.d_e))
        logits = T.add(T.matmul(pooled, self.cls_w), self.cls_b)
        return T.softmax(logits, axis=-1)

    def predict_proba(self, premise: str, hypothesis: str) -> np.ndarray:
        return self.forward([self.encode(premise, hypothesis)]).data[0].copy()

    def batch_loss(self, batch, training: bool = False, rng: np.random.Generator | None = None):
        """Summed negative log-likelihood over a batch of examples, plus the
        number of correct argmax predictions."""
        probs = self.forward([self.encode(ex.premise, ex.hypothesis) for ex in batch], training=training, rng=rng)
        return self._scored(probs, batch)
