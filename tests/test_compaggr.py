import numpy as np
import pytest

from clinli import compaggr as ca
from clinli import tensor as T
from clinli import tokenizer as tk
from clinli.data import NLIExample
from clinli.errors import ConfigError, DataError, DimensionError
from clinli.model import parse_config

from oracles import (
    finite_diff_grad,
    loop_bi_rnn,
    loop_conv_maxpool,
    loop_cross_attention,
    loop_softmax,
    rel_err,
)


def word_vocab(words="alpha beta gamma delta epsilon zeta"):
    return tk.build_word_vocab([words])


def tiny_model(seed=0, **overrides):
    cfg = dict(word_dim=8, repr_dim=8, filters_per_width=2, dropout=0.0)
    cfg.update(overrides)
    return ca.CompAggrModel(ca.CompAggrConfig(**cfg), word_vocab(), seed=seed)


class TestConfig:
    def test_odd_repr_dim_rejected(self):
        with pytest.raises(ConfigError):
            ca.CompAggrConfig(repr_dim=7)

    @pytest.mark.parametrize("field,value", [
        ("word_dim", 0), ("filters_per_width", -1), ("num_classes", 0), ("filter_widths", (1, 0)), ("repr_dim", 0),
    ])
    def test_dimensions_must_be_positive(self, field, value):
        # read as a model_config is: num_classes and filter_widths are no keys at all,
        # the head width being len(LABELS) and the filter widths FILTER_WIDTHS
        with pytest.raises(ConfigError, match=field):
            parse_config(ca.CompAggrConfig, {field: value}, "model_config")

    def test_full_scale_totals(self):
        cfg = ca.CompAggrConfig.full_scale()
        assert cfg.total_filters == 500
        assert ca.FILTER_WIDTHS == (1, 2, 3, 4, 5)
        assert cfg.repr_dim == 100
        assert cfg.dropout == 0.7


class TestContextualEncode:
    def test_single_word_matches_single_step(self):
        model = tiny_model(seed=4)
        ids = [model.vocab.id_of("alpha")]
        out = ca.contextual_encode(ids, model.emb_table, model.enc_fwd, model.enc_bwd).data
        x = model.emb_table.data[ids[0]]
        f = np.tanh(model.enc_fwd.wx.data @ x + model.enc_fwd.b.data)
        b = np.tanh(model.enc_bwd.wx.data @ x + model.enc_bwd.b.data)
        np.testing.assert_allclose(out[:, 0], np.concatenate([f, b]), atol=1e-12)

    def test_deterministic(self):
        model = tiny_model(seed=5)
        ids = [model.vocab.id_of(w) for w in ("alpha", "beta", "gamma")]
        a = ca.contextual_encode(ids, model.emb_table, model.enc_fwd, model.enc_bwd).data
        b = ca.contextual_encode(ids, model.emb_table, model.enc_fwd, model.enc_bwd).data
        np.testing.assert_array_equal(a, b)

    def test_matches_loop_recurrence_oracle(self):
        model = tiny_model(seed=6)
        ids = [model.vocab.id_of(w) for w in ("alpha", "beta", "gamma")]
        out = ca.contextual_encode(ids, model.emb_table, model.enc_fwd, model.enc_bwd).data
        oracle = loop_bi_rnn(
            model.emb_table.data[ids],
            model.enc_fwd.wx.data, model.enc_fwd.wh.data, model.enc_fwd.b.data,
            model.enc_bwd.wx.data, model.enc_bwd.wh.data, model.enc_bwd.b.data,
        )
        assert np.max(np.abs(out - oracle)) <= 1e-10
        assert out.shape == (8, 3)

    def test_empty_sequence_rejected(self):
        model = tiny_model()
        with pytest.raises(DataError):
            ca.contextual_encode([], model.emb_table, model.enc_fwd, model.enc_bwd)


class TestCrossAttention:
    def test_single_premise_column(self):
        rng = np.random.default_rng(1)
        ep = T.Tensor(rng.uniform(-1, 1, (4, 1)))
        eh = T.Tensor(rng.uniform(-1, 1, (4, 3)))
        w = T.Tensor(rng.uniform(-1, 1, (4, 4)))
        out = ca.cross_attention(ep, eh, w).data
        for j in range(3):
            np.testing.assert_allclose(out[:, j], ep.data[:, 0], atol=1e-12)

    def test_zero_projection_gives_uniform_mean(self):
        rng = np.random.default_rng(2)
        ep = T.Tensor(rng.uniform(-1, 1, (4, 5)))
        eh = T.Tensor(rng.uniform(-1, 1, (4, 2)))
        out = ca.cross_attention(ep, eh, T.Tensor(np.zeros((4, 4)))).data
        mean = ep.data.mean(axis=1)
        for j in range(2):
            np.testing.assert_allclose(out[:, j], mean, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        ep0 = rng.uniform(-1, 1, (4, 3))
        eh0 = rng.uniform(-1, 1, (4, 2))
        w0 = rng.uniform(-1, 1, (4, 4))
        out = ca.cross_attention(T.Tensor(ep0), T.Tensor(eh0), T.Tensor(w0)).data
        assert np.max(np.abs(out - loop_cross_attention(ep0, eh0, w0))) <= 1e-10

    def test_weights_are_convex(self):
        rng = np.random.default_rng(4)
        ep0 = rng.uniform(-1, 1, (3, 6))
        eh0 = rng.uniform(-1, 1, (3, 4))
        w0 = rng.uniform(-1, 1, (3, 3))
        logits = (w0 @ ep0).T @ eh0
        weights = loop_softmax(logits, 0)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-9)
        out = ca.cross_attention(T.Tensor(ep0), T.Tensor(eh0), T.Tensor(w0)).data
        np.testing.assert_allclose(out, ep0 @ weights, atol=1e-12)

    def test_output_shape_fixed_by_hypothesis(self):
        rng = np.random.default_rng(5)
        w = T.Tensor(rng.uniform(-1, 1, (3, 3)))
        eh = T.Tensor(rng.uniform(-1, 1, (3, 4)))
        for n in (1, 2, 7):
            ep = T.Tensor(rng.uniform(-1, 1, (3, n)))
            assert ca.cross_attention(ep, eh, w).shape == (3, 4)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ca.cross_attention(T.Tensor(np.zeros((3, 2))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros((3, 3))))


class TestCompare:
    def test_ones_identity(self):
        rng = np.random.default_rng(6)
        ap = T.Tensor(rng.uniform(-1, 1, (3, 2)))
        np.testing.assert_array_equal(ca.compare(ap, T.Tensor(np.ones((3, 2)))).data, ap.data)

    def test_zero_annihilates(self):
        rng = np.random.default_rng(7)
        eh = T.Tensor(rng.uniform(-1, 1, (3, 2)))
        np.testing.assert_array_equal(ca.compare(T.Tensor(np.zeros((3, 2))), eh).data, np.zeros((3, 2)))

    def test_entrywise_products(self):
        rng = np.random.default_rng(8)
        a0 = rng.uniform(-1, 1, (3, 2))
        b0 = rng.uniform(-1, 1, (3, 2))
        out = ca.compare(T.Tensor(a0), T.Tensor(b0)).data
        for i in range(3):
            for j in range(2):
                assert out[i, j] == a0[i, j] * b0[i, j]


class TestAggregateClassify:
    def _banks(self, rng, d, nf, widths=(1, 2, 3, 4, 5)):
        return [
            (
                T.Tensor(rng.uniform(-1, 1, (nf, d, w)), requires_grad=True),
                T.Tensor(rng.uniform(-0.1, 0.1, nf), requires_grad=True),
            )
            for w in widths
        ]

    def test_zero_classifier_uniform(self):
        rng = np.random.default_rng(9)
        banks = self._banks(rng, 6, 2)
        probs = ca.aggregate_classify(
            T.Tensor(rng.uniform(-1, 1, (6, 4))), banks,
            T.Tensor(np.zeros((10, 3))), T.Tensor(np.zeros(3)),
        ).data
        np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_bias_path(self):
        banks = [(T.Tensor(np.zeros((2, 6, w))), T.Tensor(np.zeros(2))) for w in (1, 2)]
        probs = ca.aggregate_classify(
            T.Tensor(np.random.default_rng(0).uniform(-1, 1, (6, 4))), banks,
            T.Tensor(np.zeros((4, 3))), T.Tensor(np.array([5.0, 0.0, 0.0])),
        ).data
        assert int(np.argmax(probs)) == 0

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(10)
        d, m, nf = 6, 5, 2
        banks = self._banks(rng, d, nf)
        c0 = rng.uniform(-1, 1, (d, m))
        cls_w0 = rng.uniform(-1, 1, (nf * 5, 3))
        cls_b0 = rng.uniform(-0.1, 0.1, 3)
        probs = ca.aggregate_classify(T.Tensor(c0), banks, T.Tensor(cls_w0), T.Tensor(cls_b0)).data
        pooled = loop_conv_maxpool(c0, [(w.data, b.data) for w, b in banks])
        logits = pooled @ cls_w0 + cls_b0
        np.testing.assert_allclose(probs, loop_softmax(logits, 0), atol=1e-10)

    def test_short_input_zero_padded(self):
        rng = np.random.default_rng(11)
        banks = self._banks(rng, 4, 2)
        c0 = rng.uniform(-1, 1, (4, 2))
        cls_w0 = rng.uniform(-1, 1, (10, 3))
        probs = ca.aggregate_classify(
            T.Tensor(c0), banks, T.Tensor(cls_w0), T.Tensor(np.zeros(3))
        ).data
        padded = np.concatenate([c0, np.zeros((4, 3))], axis=1)
        pooled = loop_conv_maxpool(padded, [(w.data, b.data) for w, b in banks])
        expected = loop_softmax(pooled @ cls_w0, 0)
        np.testing.assert_allclose(probs, expected, atol=1e-10)


class TestNllLoss:
    def test_perfect_prediction(self):
        loss = T.nll_from_probs(ca._stack_rows([T.Tensor([0.0, 1.0, 0.0])]), [1])
        assert float(loss.data) == 0.0

    def test_uniform_single(self):
        loss = T.nll_from_probs(ca._stack_rows([T.Tensor([1 / 3, 1 / 3, 1 / 3])]), [0])
        np.testing.assert_allclose(float(loss.data), np.log(3.0), rtol=1e-12)

    def test_batch_matches_direct_sum(self):
        # per-example rows stacked as batch_loss stacks them, then scored
        rng = np.random.default_rng(12)
        preds, gold, expected = [], [], 0.0
        for _ in range(4):
            p = rng.dirichlet(np.ones(3))
            g = int(rng.integers(3))
            preds.append(T.Tensor(p))
            gold.append(g)
            expected -= np.log(p[g])
        loss = T.nll_from_probs(ca._stack_rows(preds), gold)
        np.testing.assert_allclose(float(loss.data), expected, rtol=1e-12)


class TestFullModel:
    def test_probabilities_valid(self):
        model = tiny_model(seed=13)
        probs = model.predict_proba("alpha beta gamma", "beta delta")
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
        assert np.all(probs > 0)

    def test_forward_matches_composed_oracles(self):
        model = tiny_model(seed=14)
        premise, hypothesis = "alpha beta gamma", "beta delta"
        p_ids = [model.vocab.id_of(w) for w in premise.split()]
        h_ids = [model.vocab.id_of(w) for w in hypothesis.split()]
        ep = loop_bi_rnn(
            model.emb_table.data[p_ids],
            model.enc_fwd.wx.data, model.enc_fwd.wh.data, model.enc_fwd.b.data,
            model.enc_bwd.wx.data, model.enc_bwd.wh.data, model.enc_bwd.b.data,
        )
        eh = loop_bi_rnn(
            model.emb_table.data[h_ids],
            model.enc_fwd.wx.data, model.enc_fwd.wh.data, model.enc_fwd.b.data,
            model.enc_bwd.wx.data, model.enc_bwd.wh.data, model.enc_bwd.b.data,
        )
        aligned = loop_cross_attention(ep, eh, model.attn_w.data)
        c = aligned * eh
        padded = np.concatenate([c, np.zeros((c.shape[0], 5 - c.shape[1]))], axis=1)
        pooled = loop_conv_maxpool(padded, [(w.data, b.data) for w, b in model.banks])
        logits = pooled @ model.cls_w.data + model.cls_b.data
        expected = loop_softmax(logits, 0)
        np.testing.assert_allclose(model.predict_proba(premise, hypothesis), expected, atol=1e-10)

    def test_gradients_match_finite_differences_sampled_params(self):
        model = tiny_model(seed=15)
        batch = [
            NLIExample("alpha beta gamma", "beta", "entailment", "p1"),
            NLIExample("gamma delta", "epsilon zeta", "neutral", "p2"),
        ]
        loss, _ = model.batch_loss(batch)
        loss.backward()
        for name in ("enc.fwd.wx", "attn.w", "conv.w3.weight", "cls.w", "emb.word"):
            p = model.parameters()[name]

            def f(arr, p=p):
                saved = p.data
                p.data = arr
                try:
                    l, _ = model.batch_loss(batch)
                    return float(l.data)
                finally:
                    p.data = saved

            fd = finite_diff_grad(f, p.data.copy())
            assert rel_err(p.grad, fd) < 1e-4, name

    def test_freeze_encoder_blocks_encoder_gradients(self):
        model = tiny_model(seed=16)
        model.freeze_encoder = True
        batch = [NLIExample("alpha beta", "beta", "entailment", "p1")]
        loss, _ = model.batch_loss(batch)
        loss.backward()
        assert model.enc_fwd.wx.grad is None
        assert model.emb_table.grad is None
        assert model.cls_w.grad is not None

    def test_unknown_words_map_to_unk_and_still_classify(self):
        model = tiny_model(seed=17)
        probs = model.predict_proba("outofvocab words here", "alpha")
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)
