import math

import numpy as np
import pytest

from clinli import tensor as T
from clinli import tokenizer as tk
from clinli import transformer as tr
from clinli.data import label_id
from clinli.errors import ConfigError, ContractError, DataError, DimensionError
from clinli.model import parse_config
from clinli.synth import SynthSpec, generate_corpus

from oracles import finite_diff_grad, loop_multi_head_attention, rel_err


def small_vocab():
    return tk.Vocabulary(list(tk.SPECIAL_TOKENS) + list("abcdefgh"))


def tiny_model(seed=0, **overrides):
    cfg = dict(d_e=8, num_heads=2, num_blocks=2, d_ff=16, max_len=8, dropout=0.0)
    cfg.update(overrides)
    return tr.TransformerClassifier(tr.TransformerConfig(**cfg), small_vocab(), seed=seed)


class TestConfig:
    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tr.TransformerConfig(d_e=10, num_heads=3)

    @pytest.mark.parametrize("field", ["d_e", "num_heads", "num_blocks", "d_ff", "max_len", "num_classes"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_dimensions_must_be_positive(self, field, value):
        # d_e -4 with 2 heads passes the divisibility check; read as a model_config
        # is, num_classes is no key at all, the head width being len(LABELS)
        with pytest.raises(ConfigError, match=field):
            parse_config(tr.TransformerConfig, {"d_e": 8, "num_heads": 2, field: value}, "model_config")

    def test_defaults(self):
        cfg = tr.TransformerConfig()
        assert (cfg.d_e, cfg.num_heads, cfg.num_blocks, cfg.d_ff, cfg.max_len) == (64, 4, 2, 128, 64)


class TestEmbed:
    def test_zero_tables_give_zero(self):
        model = tiny_model()
        enc = model.encode("a", "b")
        zt = T.Tensor(np.zeros((len(model.vocab), 8)))
        zp = T.Tensor(np.zeros((8, 8)))
        zs = T.Tensor(np.zeros((2, 8)))
        out = tr.embed(np.array([enc]), zt, zp, zs)
        np.testing.assert_array_equal(out.data, np.zeros((1, len(enc), 8)))

    def test_rows_are_triple_sums(self):
        rng = np.random.default_rng(2)
        model = tiny_model()
        longer, shorter = model.encode("a b c", "d e"), model.encode("a", "b")
        ids = np.array([longer, shorter + [tk.Vocabulary.pad_id] * 3])
        # segment 1 after the first [SEP]; the shorter pair's padding in segment 0
        segments = [[0, 0, 0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 0, 0, 0]]
        tok = rng.normal(size=(len(model.vocab), 8))
        pos = rng.normal(size=(8, 8))
        seg = rng.normal(size=(2, 8))
        out = tr.embed(ids, T.Tensor(tok), T.Tensor(pos), T.Tensor(seg)).data
        assert out.shape == (2, len(longer), 8)
        for row in range(2):
            for i in range(len(longer)):  # token i at position i
                expected = tok[ids[row, i]] + pos[i] + seg[segments[row][i]]
                np.testing.assert_allclose(out[row, i], expected, atol=0)

    def test_forward_embeds_batch_at_its_longest_pair(self, monkeypatch):
        model = tiny_model()
        encoded = [model.encode("a", "b"), model.encode("a b", "c"), model.encode("c", "d")]
        shapes = []
        real_embed = tr.embed

        def spy(ids, *tables):
            out = real_embed(ids, *tables)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(tr, "embed", spy)
        model.forward(encoded)
        # widths 5, 6, 5 with max_len 8: the batch is 6 wide, not 8
        assert shapes == [(3, 6, 8)]

    def test_out_of_bounds_id_rejected(self):
        model = tiny_model()
        enc = model.encode("a", "b")
        enc[1] = 999
        with pytest.raises(DataError):
            tr.embed(np.array([enc]), model.token_table, model.pos_table, model.seg_table)

    def test_empty_batch_and_rows_past_the_position_table_rejected(self):
        model = tiny_model()
        with pytest.raises(ContractError, match="empty batch"):
            model.forward([])
        with pytest.raises(DataError, match="sequence length 9 exceeds position table 8"):
            tr.embed(np.full((1, 9), 4), model.token_table, model.pos_table, model.seg_table)


def random_attention_params(rng, d_e):
    return tr.AttentionParams(
        wq=T.Tensor(rng.uniform(-1, 1, (d_e, d_e)), requires_grad=True),
        bq=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
        wk=T.Tensor(rng.uniform(-1, 1, (d_e, d_e)), requires_grad=True),
        bk=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
        wv=T.Tensor(rng.uniform(-1, 1, (d_e, d_e)), requires_grad=True),
        bv=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
        wo=T.Tensor(rng.uniform(-1, 1, (d_e, d_e)), requires_grad=True),
        bo=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
    )


class TestMultiHeadAttention:
    def test_single_position_identity_projections(self):
        d_e = 4
        eye = T.Tensor(np.eye(d_e))
        zero = T.Tensor(np.zeros(d_e))
        p = tr.AttentionParams(wq=eye, bq=zero, wk=eye, bk=zero, wv=eye, bv=zero, wo=eye, bo=zero)
        x = T.Tensor(np.array([[0.3, -0.7, 1.1, 0.0]]))
        out = tr.multi_head_attention(x, [1], p, num_heads=1)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_mask_forces_single_key(self):
        rng = np.random.default_rng(3)
        d_e, length = 4, 5
        p = random_attention_params(rng, d_e)
        x = T.Tensor(rng.uniform(-1, 1, (length, d_e)))
        mask = [0, 0, 1, 0, 0]
        out, weights = tr.multi_head_attention(x, mask, p, num_heads=2, return_weights=True)
        for w in weights:
            np.testing.assert_allclose(w[:, 2], 1.0, atol=1e-12)
            np.testing.assert_allclose(np.delete(w, 2, axis=1), 0.0, atol=1e-12)
        v = T.add(T.matmul(x, p.wv), p.bv).data
        expected = np.tile(np.concatenate([v[2, :2], v[2, 2:]]), (length, 1)) @ p.wo.data + p.bo.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(17)
        d_e, length = 4, 3
        p = random_attention_params(rng, d_e)
        x0 = rng.uniform(-1, 1, (length, d_e))
        mask = [1, 1, 1]
        out = tr.multi_head_attention(T.Tensor(x0), mask, p, num_heads=2)
        oracle = loop_multi_head_attention(
            x0, mask,
            p.wq.data, p.bq.data, p.wk.data, p.bk.data,
            p.wv.data, p.bv.data, p.wo.data, p.bo.data,
            num_heads=2,
        )
        assert np.max(np.abs(out.data - oracle)) <= 1e-10

    def test_query_subset_matches_first_rows_of_loop_oracle(self):
        rng = np.random.default_rng(31)
        d_e, length = 4, 5
        p = random_attention_params(rng, d_e)
        x0 = rng.uniform(-1, 1, (2, length, d_e))
        masks = [[1, 1, 1, 0, 0], [1, 0, 1, 1, 1]]
        for m in (1, 3):
            queries = T.Tensor(x0[:, :m])
            out = tr.multi_head_attention(T.Tensor(x0), masks, p, num_heads=2, queries=queries).data
            single = tr.multi_head_attention(T.Tensor(x0[1]), masks[1], p, num_heads=2, queries=T.Tensor(x0[1, :m]))
            assert out.shape == (2, m, d_e) and single.shape == (m, d_e)
            for i in range(2):
                oracle = loop_multi_head_attention(
                    x0[i], masks[i],
                    p.wq.data, p.bq.data, p.wk.data, p.bk.data,
                    p.wv.data, p.bv.data, p.wo.data, p.bo.data,
                    num_heads=2,
                )
                assert np.max(np.abs(out[i] - oracle[:m])) <= 1e-10
            assert np.max(np.abs(single.data - oracle[:m])) <= 1e-10

    def test_attention_rows_stochastic_over_unmasked_keys(self):
        rng = np.random.default_rng(23)
        d_e, length = 8, 6
        p = random_attention_params(rng, d_e)
        x = T.Tensor(rng.uniform(-1, 1, (length, d_e)))
        mask = [1, 1, 1, 1, 0, 0]
        _, weights = tr.multi_head_attention(x, mask, p, num_heads=2, return_weights=True)
        for w in weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(w[:, 4:], 0.0, atol=1e-12)


def random_block_params(rng, d_e, d_ff):
    return tr.BlockParams(
        attn=random_attention_params(rng, d_e),
        ln1_gain=T.Tensor(rng.uniform(0.5, 1.5, d_e), requires_grad=True),
        ln1_bias=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
        ffn_w1=T.Tensor(rng.uniform(-1, 1, (d_e, d_ff)), requires_grad=True),
        ffn_b1=T.Tensor(rng.uniform(-0.2, 0.2, d_ff), requires_grad=True),
        ffn_w2=T.Tensor(rng.uniform(-1, 1, (d_ff, d_e)), requires_grad=True),
        ffn_b2=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
        ln2_gain=T.Tensor(rng.uniform(0.5, 1.5, d_e), requires_grad=True),
        ln2_bias=T.Tensor(rng.uniform(-0.2, 0.2, d_e), requires_grad=True),
    )


class TestTransformerBlock:
    def test_zero_weights_still_finite(self):
        d_e, d_ff = 4, 8
        zero_mat = lambda *s: T.Tensor(np.zeros(s))
        bp = tr.BlockParams(
            attn=tr.AttentionParams(
                wq=zero_mat(d_e, d_e), bq=zero_mat(d_e), wk=zero_mat(d_e, d_e), bk=zero_mat(d_e),
                wv=zero_mat(d_e, d_e), bv=zero_mat(d_e), wo=zero_mat(d_e, d_e), bo=zero_mat(d_e),
            ),
            ln1_gain=T.Tensor(np.ones(d_e)), ln1_bias=zero_mat(d_e),
            ffn_w1=zero_mat(d_e, d_ff), ffn_b1=zero_mat(d_ff),
            ffn_w2=zero_mat(d_ff, d_e), ffn_b2=zero_mat(d_e),
            ln2_gain=T.Tensor(np.ones(d_e)), ln2_bias=zero_mat(d_e),
        )
        x = T.Tensor(np.random.default_rng(1).uniform(-1, 1, (3, d_e)))
        out = tr.transformer_block(x, [1, 1, 1], bp, num_heads=2)
        assert np.all(np.isfinite(out.data))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        bp = random_block_params(rng, 4, 8)
        x0 = rng.uniform(-1, 1, (4, 4))
        out = tr.transformer_block(T.Tensor(x0), [1] * 4, bp, num_heads=2).data
        perm = x0.copy()
        perm[[1, 3]] = perm[[3, 1]]
        out_perm = tr.transformer_block(T.Tensor(perm), [1] * 4, bp, num_heads=2).data
        np.testing.assert_allclose(out_perm[[3, 1]], out[[1, 3]], atol=1e-12)
        np.testing.assert_allclose(out_perm[[0, 2]], out[[0, 2]], atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        d_e, d_ff, length = 4, 8, 4
        bp = random_block_params(rng, d_e, d_ff)
        x0 = rng.uniform(-1, 1, (length, d_e))
        c = rng.uniform(-1, 1, (length, d_e))
        mask = [1, 1, 1, 0]

        x = T.Tensor(x0, requires_grad=True)
        out = tr.transformer_block(x, mask, bp, num_heads=2)
        T.sum_all(T.mul(out, T.Tensor(c))).backward()

        def f(a):
            res = tr.transformer_block(T.Tensor(a), mask, bp, num_heads=2)
            return float((res.data * c).sum())

        assert rel_err(x.grad, finite_diff_grad(f, x0.copy())) < 1e-4

        def f_w(a):
            saved = bp.ffn_w1.data
            bp.ffn_w1.data = a
            try:
                res = tr.transformer_block(T.Tensor(x0), mask, bp, num_heads=2)
                return float((res.data * c).sum())
            finally:
                bp.ffn_w1.data = saved

        assert rel_err(bp.ffn_w1.grad, finite_diff_grad(f_w, bp.ffn_w1.data.copy())) < 1e-4

    def test_leading_rows_match_the_full_block(self):
        rng = np.random.default_rng(47)
        bp = random_block_params(rng, 4, 8)
        x0 = rng.uniform(-1, 1, (3, 5, 4))
        mask = np.arange(5) < np.array([5, 2, 4])[:, None]
        full = tr.transformer_block(T.Tensor(x0), mask, bp, num_heads=2).data
        for rows in (1, 2, 5):
            out = tr.transformer_block(T.Tensor(x0), mask, bp, num_heads=2, rows=rows).data
            assert out.shape == (3, rows, 4)
            np.testing.assert_allclose(out, full[:, :rows], rtol=0, atol=1e-12)

    def test_masked_garbage_rows_leave_valid_rows_unchanged(self):
        rng = np.random.default_rng(43)
        d_e, length = 4, 5
        bp = random_block_params(rng, d_e, 8)
        x0 = rng.uniform(-1, 1, (length, d_e))
        out = tr.transformer_block(T.Tensor(x0), [1] * length, bp, num_heads=2).data
        garbage = rng.uniform(-50, 50, (3, d_e))
        padded = tr.transformer_block(
            T.Tensor(np.vstack([x0, garbage])), [1] * length + [0] * 3, bp, num_heads=2,
        ).data
        np.testing.assert_allclose(padded[:length], out, rtol=0, atol=1e-12)


class TestClassify:
    def test_zero_head_uniform(self):
        model = tiny_model()
        model.cls_w.data[:] = 0.0
        model.cls_b.data[:] = 0.0
        probs = model.predict_proba("a b", "c")
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_bias_domination(self):
        model = tiny_model()
        model.cls_w.data[:] = 0.0
        model.cls_b.data[:] = np.array([10.0, 0.0, 0.0])
        probs = model.predict_proba("a b", "c")
        assert int(np.argmax(probs)) == 0
        np.testing.assert_allclose(probs[0], math.exp(10) / (math.exp(10) + 2), rtol=1e-12)

    def test_probabilities_sum_to_one(self):
        model = tiny_model(seed=3)
        corpus = generate_corpus(SynthSpec(count=9, seed=1))
        for ex in corpus:
            probs = model.predict_proba(ex.premise[:20], ex.hypothesis[:20])
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
            assert np.all(probs > 0) and np.all(probs < 1)

    def test_deterministic_inference(self):
        model = tiny_model(seed=11)
        a = model.predict_proba("a b c", "d")
        b = model.predict_proba("a b c", "d")
        np.testing.assert_array_equal(a, b)


class TestBatching:
    PAIRS = [("a", "b"), ("a b", "c"), ("h g c", "d"), ("b c d", "e f")]

    def test_batch_rows_match_single_forwards(self):
        model = tiny_model(seed=13)
        encoded = [model.encode(p, h) for p, h in self.PAIRS]
        assert len({len(e) for e in encoded}) == len(encoded)
        batched = model.forward(encoded).data
        assert batched.shape == (len(encoded), 3)
        for row, enc in zip(batched, encoded):
            np.testing.assert_allclose(row, model.forward([enc]).data[0], rtol=0, atol=1e-12)

    def test_padding_invariance_in_mixed_batch(self):
        model = tiny_model(seed=7, max_len=16)
        encoded = [model.encode(p, h) for p, h in self.PAIRS]
        # a 16-token pair pads the batch's other rows, of 5 to 8 tokens, to 16 positions
        longest = model.encode("a b c d e f g h", "a b c d e")
        assert len(longest) == 16
        padded = model.forward(encoded + [longest]).data[:-1]
        np.testing.assert_allclose(padded, model.forward(encoded).data, rtol=0, atol=1e-12)

    def test_single_pair_matches_its_row_beside_a_pair_at_max_len(self):
        model = tiny_model(seed=19)
        encoded = [model.encode(p, h) for p, h in self.PAIRS[:2]]
        encoded.append(model.encode("a b c d e f", "g h"))  # 11 tokens truncated to 8
        assert len(encoded[-1]) == model.config.max_len == model.pos_table.shape[0]
        batched = model.forward(encoded).data
        for row, enc in zip(batched, encoded):
            np.testing.assert_allclose(row, model.forward([enc]).data[0], rtol=0, atol=1e-12)

    def test_batched_attention_matches_loop_oracle_per_sequence(self):
        rng = np.random.default_rng(29)
        d_e, length = 4, 5
        p = random_attention_params(rng, d_e)
        x0 = rng.uniform(-1, 1, (3, length, d_e))
        masks = [[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 0, 1, 1, 0]]
        out = tr.multi_head_attention(T.Tensor(x0), masks, p, num_heads=2).data
        for i in range(3):
            oracle = loop_multi_head_attention(
                x0[i], masks[i],
                p.wq.data, p.bq.data, p.wk.data, p.bk.data,
                p.wv.data, p.bv.data, p.wo.data, p.bo.data,
                num_heads=2,
            )
            assert np.max(np.abs(out[i] - oracle)) <= 1e-10

    def test_mask_shape_must_match(self):
        p = random_attention_params(np.random.default_rng(1), 4)
        with pytest.raises(DimensionError):
            tr.multi_head_attention(T.Tensor(np.zeros((2, 3, 4))), [1, 1, 1], p, num_heads=2)

    def test_tape_size_does_not_grow_with_batch(self):
        model = tiny_model(seed=3)
        corpus = generate_corpus(SynthSpec(count=16, seed=4))
        sizes = []
        for n in (4, 16):
            loss, _ = model.batch_loss(corpus[:n], training=True, rng=np.random.default_rng(0))
            sizes.append(len(T.record(loss)))
        assert sizes[0] == sizes[1]

    def test_batch_loss_sums_rows(self):
        model = tiny_model(seed=5)
        corpus = generate_corpus(SynthSpec(count=6, seed=2))
        loss, correct = model.batch_loss(corpus)
        probs = np.stack([model.predict_proba(ex.premise, ex.hypothesis) for ex in corpus])
        gold = [label_id(ex.gold_label) for ex in corpus]
        np.testing.assert_allclose(float(loss.data), -np.log(probs[np.arange(6), gold]).sum(), rtol=1e-12)
        assert correct == int((probs.argmax(axis=1) == gold).sum())


def full_block_forward(model, batch):
    """``forward`` as it would be if the last block computed every row and the
    head then sliced out [CLS], built from the public block functions."""
    width = max(map(len, batch))
    ids = np.array([e + [tk.Vocabulary.pad_id] * (width - len(e)) for e in batch])
    x = tr.embed(ids, model.token_table, model.pos_table, model.seg_table)
    mask = np.arange(width) < np.array([len(e) for e in batch])[:, None]
    for bp in model.blocks:
        x = tr.transformer_block(x, mask, bp, model.config.num_heads)
    pooled = T.reshape(T.slice_rows(x, 0, 1), (len(batch), model.config.d_e))
    return T.softmax(T.add(T.matmul(pooled, model.cls_w), model.cls_b), axis=-1)


class TestClsOnlyLastBlock:
    @pytest.mark.parametrize("num_blocks", [1, 2])
    def test_probabilities_and_gradients_match_the_full_block(self, num_blocks):
        model = tiny_model(seed=23, num_blocks=num_blocks)
        encoded = [model.encode(p, h) for p, h in TestBatching.PAIRS]
        gold = [0, 2, 1, 2]
        results = []
        for forward in (model.forward, lambda batch: full_block_forward(model, batch)):
            T.zero_grads(model.parameters().values())
            probs = forward(encoded)
            loss = T.nll_from_probs(probs, gold)
            loss.backward()
            grads = {name: t.grad.copy() for name, t in model.parameters().items()}
            results.append((probs.data, grads, len(T.record(loss))))
        (fast, fast_grads, fast_nodes), (full, full_grads, full_nodes) = results
        np.testing.assert_allclose(fast, full, rtol=0, atol=1e-12)
        for name in full_grads:
            np.testing.assert_allclose(fast_grads[name], full_grads[name], rtol=0, atol=1e-12, err_msg=name)
        # the block's one slice replaces the head's, so the tape keeps its size
        assert fast_nodes == full_nodes


class TestParameterPlumbing:
    def test_parameter_names_stable_and_loadable(self):
        model = tiny_model(seed=1)
        arrays = {k: v.data.copy() for k, v in model.parameters().items()}
        other = tr.TransformerClassifier(model.config, model.vocab, seed=2, stored=arrays)
        assert list(other.parameters()) == list(arrays)
        np.testing.assert_array_equal(
            other.predict_proba("a b", "c d"), model.predict_proba("a b", "c d")
        )

    def test_load_rejects_wrong_names(self):
        model = tiny_model()
        arrays = {k: v.data.copy() for k, v in model.parameters().items()}
        arrays.pop("cls.w")
        with pytest.raises(DataError, match="missing block 'cls.w'"):
            tr.TransformerClassifier(model.config, model.vocab, stored=arrays)

    def test_a_block_left_over_is_rejected_naming_it(self):
        # a model built outside model_from_checkpoint rejects it too: the check is the constructor's
        model = tiny_model()
        arrays = {k: v.data.copy() for k, v in model.parameters().items()}
        arrays["cls.extra"] = np.zeros(3)
        with pytest.raises(DataError, match="extra block 'cls.extra'"):
            tr.TransformerClassifier(model.config, model.vocab, stored=arrays)

    def test_reset_head_only_touches_head(self):
        model = tiny_model(seed=1)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        model.reset_head(seed=99)
        after = model.parameters()
        for name in before:
            if name.startswith("cls."):
                continue
            np.testing.assert_array_equal(after[name].data, before[name])
        assert not np.array_equal(after["cls.w"].data, before["cls.w"])
