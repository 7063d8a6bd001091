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


def encode(model, batch):
    return ca.contextual_encode(batch, model.emb_table, model.enc_fwd, model.enc_bwd)[0].data


def bi_rnn_oracle(model, ids):
    return loop_bi_rnn(
        model.emb_table.data[ids],
        model.enc_fwd.wx.data, model.enc_fwd.wh.data, model.enc_fwd.b.data,
        model.enc_bwd.wx.data, model.enc_bwd.wh.data, model.enc_bwd.b.data,
    )


def mixed_batch(n):
    """``n`` examples whose premises have 1..9 words (in a shuffled order)
    and whose hypotheses have 9, 1, 2, ... words: every length from 1 to 9,
    hypotheses shorter than the widest filter among them."""
    words = "alpha beta gamma delta epsilon zeta".split()
    premise_lengths = [4, 1, 9, 2, 7, 3, 8, 5, 6]
    hypothesis_lengths = [9, 1, 2, 3, 4, 5, 6, 7, 8]
    return [
        NLIExample(
            " ".join(words[(i + k) % 6] for k in range(premise_lengths[i])),
            " ".join(words[(2 * i + k) % 6] for k in range(hypothesis_lengths[i])),
            ("entailment", "neutral", "contradiction")[i % 3], f"p{i}",
        )
        for i in range(n)
    ]


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
        out = encode(model, [ids])[0]
        x = model.emb_table.data[ids[0]]
        f = np.tanh(model.enc_fwd.wx.data @ x + model.enc_fwd.b.data)
        b = np.tanh(model.enc_bwd.wx.data @ x + model.enc_bwd.b.data)
        np.testing.assert_allclose(out[:, 0], np.concatenate([f, b]), atol=1e-12)

    def test_deterministic(self):
        model = tiny_model(seed=5)
        ids = [model.vocab.id_of(w) for w in ("alpha", "beta", "gamma")]
        a = encode(model, [ids])
        b = encode(model, [ids])
        np.testing.assert_array_equal(a, b)

    def test_matches_loop_recurrence_oracle(self):
        model = tiny_model(seed=6)
        ids = [model.vocab.id_of(w) for w in ("alpha", "beta", "gamma")]
        out = encode(model, [ids])
        assert np.max(np.abs(out[0] - bi_rnn_oracle(model, ids))) <= 1e-10
        assert out.shape == (1, 8, 3)

    def test_batch_rows_match_loop_recurrence_oracle_within_their_lengths(self):
        model = tiny_model(seed=7)
        rng = np.random.default_rng(7)
        batch = [list(rng.integers(4, len(model.vocab), n)) for n in (3, 1, 6, 4)]
        out, lengths = ca.contextual_encode(batch, model.emb_table, model.enc_fwd, model.enc_bwd)
        assert out.shape == (4, 8, 6) and lengths.tolist() == [3, 1, 6, 4]
        for row, ids in zip(out.data, batch):
            assert np.max(np.abs(row[:, : len(ids)] - bi_rnn_oracle(model, ids))) <= 1e-10
            # the backward direction stays exactly zero through the padding
            assert not row[4:, len(ids):].any()

    def test_empty_sequence_rejected(self):
        model = tiny_model()
        for batch in ([], [[]], [[4, 5], []]):
            with pytest.raises(DataError):
                ca.contextual_encode(batch, model.emb_table, model.enc_fwd, model.enc_bwd)


class TestCrossAttention:
    def test_single_premise_column(self):
        rng = np.random.default_rng(1)
        ep = T.Tensor(rng.uniform(-1, 1, (1, 4, 1)))
        eh = T.Tensor(rng.uniform(-1, 1, (1, 4, 3)))
        w = T.Tensor(rng.uniform(-1, 1, (4, 4)))
        out = ca.cross_attention(ep, eh, w, [1]).data[0]
        for j in range(3):
            np.testing.assert_allclose(out[:, j], ep.data[0, :, 0], atol=1e-12)

    def test_zero_projection_gives_uniform_mean(self):
        rng = np.random.default_rng(2)
        ep = T.Tensor(rng.uniform(-1, 1, (1, 4, 5)))
        eh = T.Tensor(rng.uniform(-1, 1, (1, 4, 2)))
        out = ca.cross_attention(ep, eh, T.Tensor(np.zeros((4, 4))), [5]).data[0]
        mean = ep.data[0].mean(axis=1)
        for j in range(2):
            np.testing.assert_allclose(out[:, j], mean, atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        ep0 = rng.uniform(-1, 1, (4, 3))
        eh0 = rng.uniform(-1, 1, (4, 2))
        w0 = rng.uniform(-1, 1, (4, 4))
        out = ca.cross_attention(T.Tensor(ep0[None]), T.Tensor(eh0[None]), T.Tensor(w0), [3]).data[0]
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
        out = ca.cross_attention(T.Tensor(ep0[None]), T.Tensor(eh0[None]), T.Tensor(w0), [6]).data[0]
        np.testing.assert_allclose(out, ep0 @ weights, atol=1e-12)

    def test_output_shape_fixed_by_hypothesis(self):
        rng = np.random.default_rng(5)
        w = T.Tensor(rng.uniform(-1, 1, (3, 3)))
        eh = T.Tensor(rng.uniform(-1, 1, (1, 3, 4)))
        for n in (1, 2, 7):
            ep = T.Tensor(rng.uniform(-1, 1, (1, 3, n)))
            assert ca.cross_attention(ep, eh, w, [n]).shape == (1, 3, 4)

    def test_width_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ca.cross_attention(T.Tensor(np.zeros((1, 3, 2))), T.Tensor(np.zeros((1, 4, 2))), T.Tensor(np.zeros((3, 3))),
                               [2])

    def test_batch_rows_match_loop_oracle_on_their_premise_prefix(self):
        rng = np.random.default_rng(13)
        lengths = [2, 5, 1]
        ep0 = rng.uniform(-1, 1, (3, 4, 5))
        eh0 = rng.uniform(-1, 1, (3, 4, 3))
        w0 = rng.uniform(-1, 1, (4, 4))
        out = ca.cross_attention(T.Tensor(ep0), T.Tensor(eh0), T.Tensor(w0), lengths).data
        for i, n in enumerate(lengths):
            assert np.max(np.abs(out[i] - loop_cross_attention(ep0[i, :, :n], eh0[i], w0))) <= 1e-10

    def test_batch_of_different_row_counts_rejected(self):
        with pytest.raises(DimensionError):
            ca.cross_attention(T.Tensor(np.zeros((2, 3, 2))), T.Tensor(np.zeros((3, 3, 2))), T.Tensor(np.zeros((3, 3))),
                               [2, 2])


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
            T.Tensor(rng.uniform(-1, 1, (1, 6, 4))), banks,
            T.Tensor(np.zeros((10, 3))), T.Tensor(np.zeros(3)), [4],
        ).data
        np.testing.assert_allclose(probs, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)

    def test_bias_path(self):
        banks = [(T.Tensor(np.zeros((2, 6, w))), T.Tensor(np.zeros(2))) for w in (1, 2)]
        probs = ca.aggregate_classify(
            T.Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 6, 4))), banks,
            T.Tensor(np.zeros((4, 3))), T.Tensor(np.array([5.0, 0.0, 0.0])), [4],
        ).data
        assert int(np.argmax(probs[0])) == 0

    def test_matches_composed_oracle(self):
        rng = np.random.default_rng(10)
        d, m, nf = 6, 5, 2
        banks = self._banks(rng, d, nf)
        c0 = rng.uniform(-1, 1, (d, m))
        cls_w0 = rng.uniform(-1, 1, (nf * 5, 3))
        cls_b0 = rng.uniform(-0.1, 0.1, 3)
        probs = ca.aggregate_classify(T.Tensor(c0[None]), banks, T.Tensor(cls_w0), T.Tensor(cls_b0), [m]).data[0]
        pooled = loop_conv_maxpool(c0, [(w.data, b.data) for w, b in banks])
        logits = pooled @ cls_w0 + cls_b0
        np.testing.assert_allclose(probs, loop_softmax(logits, 0), atol=1e-10)

    def test_short_input_zero_padded(self):
        rng = np.random.default_rng(11)
        banks = self._banks(rng, 4, 2)
        c0 = rng.uniform(-1, 1, (4, 2))
        cls_w0 = rng.uniform(-1, 1, (10, 3))
        probs = ca.aggregate_classify(
            T.Tensor(c0[None]), banks, T.Tensor(cls_w0), T.Tensor(np.zeros(3)), [2]
        ).data[0]
        padded = np.concatenate([c0, np.zeros((4, 3))], axis=1)
        pooled = loop_conv_maxpool(padded, [(w.data, b.data) for w, b in banks])
        expected = loop_softmax(pooled @ cls_w0, 0)
        np.testing.assert_allclose(probs, expected, atol=1e-10)

    def test_batch_rows_match_single_rows_and_the_zero_padded_oracle(self):
        # hypothesis lengths 2 and 4 are shorter than the widest filter, 7 is not
        rng = np.random.default_rng(12)
        banks = self._banks(rng, 4, 2)
        cls_w0 = rng.uniform(-1, 1, (10, 3))
        cls_b0 = rng.uniform(-0.1, 0.1, 3)
        lengths = [2, 7, 4]
        c0 = rng.uniform(-1, 1, (3, 4, 7))  # garbage past each length: the mask must hide it
        probs = ca.aggregate_classify(T.Tensor(c0), banks, T.Tensor(cls_w0), T.Tensor(cls_b0), lengths).data
        assert probs.shape == (3, 3)
        for i, m in enumerate(lengths):
            single = ca.aggregate_classify(T.Tensor(c0[i, None, :, :m]), banks, T.Tensor(cls_w0), T.Tensor(cls_b0),
                                           [m]).data[0]
            np.testing.assert_allclose(probs[i], single, rtol=0, atol=1e-12)
            padded = np.concatenate([c0[i, :, :m], np.zeros((4, max(5 - m, 0)))], axis=1)
            pooled = loop_conv_maxpool(padded, [(w.data, b.data) for w, b in banks])
            np.testing.assert_allclose(probs[i], loop_softmax(pooled @ cls_w0 + cls_b0, 0), atol=1e-10)


class TestNllLoss:
    def test_perfect_prediction(self):
        loss = T.nll_from_probs(T.Tensor([[0.0, 1.0, 0.0]]), [1])
        assert float(loss.data) == 0.0

    def test_uniform_single(self):
        loss = T.nll_from_probs(T.Tensor([[1 / 3, 1 / 3, 1 / 3]]), [0])
        np.testing.assert_allclose(float(loss.data), np.log(3.0), rtol=1e-12)

    def test_batch_matches_direct_sum(self):
        rng = np.random.default_rng(12)
        probs = rng.dirichlet(np.ones(3), size=4)
        gold = [int(g) for g in rng.integers(3, size=4)]
        expected = -sum(np.log(p[g]) for p, g in zip(probs, gold))
        loss = T.nll_from_probs(T.Tensor(probs), gold)
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

    def test_every_parameter_gets_a_gradient_in_a_padded_batch(self):
        model = tiny_model(seed=16)
        loss, _ = model.batch_loss(mixed_batch(4))
        loss.backward()
        for name, p in model.parameters().items():
            assert p.grad is not None and p.grad.any(), name

    def test_unknown_words_map_to_unk_and_still_classify(self):
        model = tiny_model(seed=17)
        probs = model.predict_proba("outofvocab words here", "alpha")
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)


class TestBatchPath:
    def test_rows_match_single_pairs(self):
        # premise and hypothesis lengths 1..9, hypotheses shorter than the widest filter among them
        model = tiny_model(seed=18)
        batch = mixed_batch(9)
        assert {len(ex.hypothesis.split()) for ex in batch} >= {1, 2, 3, 4, 9}
        probs = model.forward([model.encode(ex.premise, ex.hypothesis) for ex in batch]).data
        assert probs.shape == (9, 3)
        for row, ex in zip(probs, batch):
            np.testing.assert_allclose(row, model.predict_proba(ex.premise, ex.hypothesis), rtol=0, atol=1e-12)

    def test_adding_a_longer_pair_leaves_the_other_rows_unchanged(self):
        model = tiny_model(seed=19)
        pairs = [model.encode(ex.premise, ex.hypothesis) for ex in mixed_batch(5)]
        longest = model.encode("alpha beta gamma delta epsilon zeta alpha beta gamma delta epsilon zeta",
                               "zeta epsilon delta gamma beta alpha zeta epsilon delta gamma beta alpha")
        short = model.forward(pairs).data
        padded = model.forward(pairs[:2] + [longest] + pairs[2:]).data
        np.testing.assert_allclose(np.delete(padded, 2, axis=0), short, rtol=0, atol=1e-12)

    def test_gradients_equal_the_summed_per_example_gradients(self):
        model = tiny_model(seed=20)
        batch = mixed_batch(6)
        loss, correct = model.batch_loss(batch)
        loss.backward()
        batched = {name: p.grad.copy() for name, p in model.parameters().items()}
        T.zero_grads(model.parameters().values())
        total, total_correct = 0.0, 0
        for ex in batch:
            single, c = model.batch_loss([ex])
            single.backward()
            total += float(single.data)
            total_correct += c
        np.testing.assert_allclose(float(loss.data), total, rtol=1e-12)
        assert correct == total_correct
        for name, p in model.parameters().items():
            np.testing.assert_allclose(batched[name], p.grad, rtol=0, atol=1e-12, err_msg=name)

    def test_training_step_tape_does_not_grow_with_the_batch(self):
        # 3 and 9 pairs with the same longest premise and hypothesis (9 words each)
        model = tiny_model(seed=21)
        sizes = [len(T.record(model.batch_loss(mixed_batch(n))[0])) for n in (3, 9)]
        assert sizes[0] == sizes[1], sizes
