"""Independent reference implementations used as test oracles.

Everything here is written the slow, obvious way (explicit loops, finite
differences, exhaustive search) and stays independent of the library code
paths it checks.
"""

import itertools
import math
from collections import Counter

import numpy as np

from clinli.errors import ConfigError, DataError
from clinli.tokenizer import CONTINUATION_PREFIX, SPECIAL_TOKENS, Vocabulary, pretokenize


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar f with respect to array x,
    perturbing each entry independently."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_err(a, b, floor=1e-6):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def loop_softmax(x, axis):
    """Softmax via explicit slice loops."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    moved = np.moveaxis(x, axis, -1)
    out_moved = np.moveaxis(out, axis, -1)
    for idx in np.ndindex(moved.shape[:-1]):
        row = moved[idx]
        m = row.max()
        e = np.array([math.exp(v - m) for v in row])
        out_moved[idx] = e / e.sum()
    return out


def loop_conv_maxpool(x, banks):
    """Naive convolution + relu + max-over-time, one filter at a time.

    banks: list of (weight[f, d, w], bias[f]) arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    d, m = x.shape
    pooled = []
    for weight, bias in banks:
        nf, _, w = weight.shape
        for f in range(nf):
            best = -np.inf
            for t in range(m - w + 1):
                s = bias[f]
                for r in range(d):
                    for c in range(w):
                        s += weight[f, r, c] * x[r, t + c]
                s = max(s, 0.0)
                best = max(best, s)
            pooled.append(best)
    return np.array(pooled)


def loop_conv_maxpool_backward(x, banks, g):
    """Gradients of ``loop_conv_maxpool`` for the output gradient ``g``, one
    filter at a time: a filter whose pooled pre-activation is positive sends
    its gradient to the window at its first maximal position.

    Returns (dx, [dweight per bank], [dbias per bank]).
    """
    x = np.asarray(x, dtype=np.float64)
    d, m = x.shape
    dx = np.zeros_like(x)
    dws, dbs = [], []
    offset = 0
    for weight, bias in banks:
        nf, _, w = weight.shape
        dw = np.zeros_like(weight)
        db = np.zeros(nf)
        for f in range(nf):
            pre = [float(np.sum(weight[f] * x[:, t : t + w])) + bias[f] for t in range(m - w + 1)]
            t = int(np.argmax(pre))
            if pre[t] <= 0.0:
                continue
            gf = g[offset + f]
            db[f] = gf
            dw[f] = gf * x[:, t : t + w]
            dx[:, t : t + w] += gf * weight[f]
        offset += nf
        dws.append(dw)
        dbs.append(db)
    return dx, dws, dbs


def loop_multi_head_attention(x, mask, wq, bq, wk, bk, wv, bv, wo, bo, num_heads):
    """Multi-head attention via explicit per-head, per-query, per-key loops."""
    x = np.asarray(x, dtype=np.float64)
    length, d_e = x.shape
    d_k = d_e // num_heads
    q = np.array([[sum(x[i, a] * wq[a, j] for a in range(d_e)) + bq[j] for j in range(d_e)] for i in range(length)])
    k = np.array([[sum(x[i, a] * wk[a, j] for a in range(d_e)) + bk[j] for j in range(d_e)] for i in range(length)])
    v = np.array([[sum(x[i, a] * wv[a, j] for a in range(d_e)) + bv[j] for j in range(d_e)] for i in range(length)])
    heads = []
    for h in range(num_heads):
        lo, hi = h * d_k, (h + 1) * d_k
        out_h = np.zeros((length, d_k))
        for i in range(length):
            logits = []
            for j in range(length):
                dot = sum(q[i, a] * k[j, a] for a in range(lo, hi)) / math.sqrt(d_k)
                if mask[j] == 0:
                    dot = dot - 1e9
                logits.append(dot)
            mx = max(logits)
            ex = [math.exp(z - mx) for z in logits]
            tot = sum(ex)
            weights = [e / tot for e in ex]
            for a in range(d_k):
                out_h[i, a] = sum(weights[j] * v[j, lo + a] for j in range(length))
        heads.append(out_h)
    cat = np.concatenate(heads, axis=1)
    return np.array(
        [[sum(cat[i, a] * wo[a, j] for a in range(d_e)) + bo[j] for j in range(d_e)] for i in range(length)]
    )


def loop_cross_attention(ep, eh, w):
    """Weighted sum of premise columns for each hypothesis column, computed
    with explicit double loops."""
    ep = np.asarray(ep, dtype=np.float64)
    eh = np.asarray(eh, dtype=np.float64)
    d, n = ep.shape
    _, m = eh.shape
    proj = w @ ep
    out = np.zeros((d, m))
    for j in range(m):
        logits = np.array([sum(proj[a, i] * eh[a, j] for a in range(d)) for i in range(n)])
        mx = logits.max()
        ex = np.exp(logits - mx)
        weights = ex / ex.sum()
        for i in range(n):
            out[:, j] += weights[i] * ep[:, i]
    return out


def loop_bi_rnn(rows, wx_f, wh_f, b_f, wx_b, wh_b, b_b):
    """Step-by-step bidirectional tanh recurrence; returns (2h x len)."""
    rows = np.asarray(rows, dtype=np.float64)
    length = rows.shape[0]
    hidden = b_f.shape[0]
    fwd = np.zeros((length, hidden))
    h = np.zeros(hidden)
    for t in range(length):
        h = np.tanh(wx_f @ rows[t] + wh_f @ h + b_f)
        fwd[t] = h
    bwd = np.zeros((length, hidden))
    h = np.zeros(hidden)
    for t in reversed(range(length)):
        h = np.tanh(wx_b @ rows[t] + wh_b @ h + b_b)
        bwd[t] = h
    return np.concatenate([fwd, bwd], axis=1).T


def brute_force_assignment(prob_matrix):
    """Best exclusive pair-to-label assignment by scoring all 3! = 6
    permutations; ties resolved toward the lexicographically smallest."""
    p = np.asarray(prob_matrix, dtype=np.float64)
    best_perm = None
    best_score = -np.inf
    for perm in itertools.permutations(range(3)):
        score = sum(math.log(max(p[k, perm[k]], 1e-300)) for k in range(3))
        if score > best_score:
            best_score = score
            best_perm = perm
    return best_perm, best_score


def hand_adam(grad_fn, w0, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam reference loop, written independently of the library."""
    w = float(w0)
    m = v = 0.0
    trace = [w]
    for t in range(1, steps + 1):
        g = grad_fn(w)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1**t)
        vh = v / (1 - beta2**t)
        w = w - lr * mh / (math.sqrt(vh) + eps)
        trace.append(w)
    return trace


def loop_train_wordpiece(corpus, target_size):
    """Greedy pair merging that recounts every adjacent pair of every
    distinct word before each merge; ties go to the pair first seen in the
    scan."""
    if not corpus:
        raise DataError("cannot train a vocabulary on an empty corpus")
    word_freq = Counter(w for sentence in corpus for w in pretokenize(sentence))
    if not word_freq:
        raise DataError("corpus contains no words")

    chars = {c for word in word_freq for c in word}
    alphabet = sorted(chars | {CONTINUATION_PREFIX + c for c in chars})

    floor = len(SPECIAL_TOKENS) + len(alphabet)
    if target_size < floor:
        raise ConfigError(f"target_size {target_size} below alphabet floor {floor}")

    vocab = list(SPECIAL_TOKENS) + alphabet
    sequences = [([w[0]] + [CONTINUATION_PREFIX + c for c in w[1:]], f) for w, f in word_freq.items()]

    while len(vocab) < target_size:
        pair_counts = Counter()
        for symbols, freq in sequences:
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] += freq
        # max keeps the first of equal counts, and a Counter iterates in first-seen order
        best = max(pair_counts, key=pair_counts.__getitem__, default=None)
        if pair_counts[best] < 2:  # no pair repeats (a missing key counts 0)
            break
        merged = best[0] + best[1].removeprefix(CONTINUATION_PREFIX)
        vocab.append(merged)
        for symbols, _ in sequences:
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == best[0] and symbols[i + 1] == best[1]:
                    symbols[i : i + 2] = [merged]
                else:
                    i += 1

    return Vocabulary(vocab)
