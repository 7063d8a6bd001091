"""What the two attention mechanisms compute, next to naive loop versions.

The encoder classifier uses masked multi-head self-attention over one
packed sequence; the compare-aggregate matcher soft-aligns premise columns
onto hypothesis columns.  Both are checked here against explicit loops.
"""

import math

import numpy as np

from clinli import tensor as T
from clinli.compaggr import cross_attention
from clinli.transformer import AttentionParams, multi_head_attention

rng = np.random.default_rng(3)

# --- masked multi-head self-attention on a length-4 sequence, 2 heads
d_e, length = 4, 4
x = rng.uniform(-1, 1, (length, d_e))
mask = [1, 1, 1, 0]  # last position is padding

mats = {name: rng.uniform(-1, 1, (d_e, d_e)) for name in ("wq", "wk", "wv", "wo")}
p = AttentionParams(
    wq=T.Tensor(mats["wq"]), bq=T.Tensor(np.zeros(d_e)),
    wk=T.Tensor(mats["wk"]), bk=T.Tensor(np.zeros(d_e)),
    wv=T.Tensor(mats["wv"]), bv=T.Tensor(np.zeros(d_e)),
    wo=T.Tensor(mats["wo"]), bo=T.Tensor(np.zeros(d_e)),
)
out, weights = multi_head_attention(T.Tensor(x), mask, p, num_heads=2, return_weights=True)
print("attention weights, head 0 (rows = queries, cols = keys):")
print(np.round(weights[0], 3))
print("masked key column is exactly zero:", np.all(weights[0][:, 3] == 0.0))
print("rows sum to one:", np.allclose(weights[0].sum(axis=1), 1.0))

# hand-computed row 0 of head 0
d_k = d_e // 2
q = x @ mats["wq"]
k = x @ mats["wk"]
logits = np.array([q[0, :d_k] @ k[j, :d_k] / math.sqrt(d_k) for j in range(length)])
logits[3] = -1e9
e = np.exp(logits - logits.max())
print("loop weights row 0:", np.round(e / e.sum(), 3))

# --- premise-to-hypothesis soft alignment, on a batch of one pair
d, n, m = 3, 4, 2
ep = rng.uniform(-1, 1, (d, n))
eh = rng.uniform(-1, 1, (d, m))
w = rng.uniform(-1, 1, (d, d))
aligned = cross_attention(T.Tensor(ep[None]), T.Tensor(eh[None]), T.Tensor(w), premise_lengths=[n]).data[0]
print("\naligned premise (one column per hypothesis word):")
print(np.round(aligned, 4))
col_weights = np.exp((w @ ep).T @ eh)
col_weights /= col_weights.sum(axis=0)
print("alignment weights sum to one per column:", np.allclose(col_weights.sum(axis=0), 1.0))
print("each output column is a convex mix of premise columns:",
      np.allclose(aligned, ep @ col_weights))
