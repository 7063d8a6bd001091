"""The protocol both model kinds share: ``encode`` one pair, ``forward`` a
batch of encoded pairs, and prediction skips only the pairs ``encode``
rejects.  A pair's probabilities and gradients do not depend on the batch
it runs in beyond the last bits (a derandomized Hypothesis property that
keeps no example database)."""

import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from clinli import tensor as T
from clinli.checkpoint import MODEL_KINDS, make_model_config
from clinli.data import LABELS, NLIExample
from clinli.errors import DataError, NumericError
from clinli.evaluate import predict_pointwise
from clinli.tokenizer import build_word_vocab, train_wordpiece

# Hypothesis caches the constants it finds in the source while pytest
# collects: keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clinli-hypothesis")

SENTENCES = ["the patient has a fever", "no fever today", "the patient is well"]
TINY_CONFIGS = {
    "transformer": {"d_e": 8, "num_heads": 2, "num_blocks": 1, "d_ff": 8, "max_len": 16, "dropout": 0.0},
    "compaggr": {"word_dim": 8, "repr_dim": 8, "filters_per_width": 2, "dropout": 0.0},
}


def tiny_model(kind, **overrides):
    cls = MODEL_KINDS[kind]
    word_pieces = cls.tokenizer_mode == "wordpiece"
    vocab = train_wordpiece(SENTENCES, target_size=60) if word_pieces else build_word_vocab(SENTENCES)
    return cls(make_model_config(kind, {**TINY_CONFIGS[kind], **overrides}, "test"), vocab, seed=3)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_encode_forward_is_predict_proba_and_only_encode_errors_are_skipped(kind):
    model = tiny_model(kind)
    premise, hypothesis = "the patient has a fever", "no fever"
    assert model.forward([model.encode(premise, hypothesis)]).data[0].tobytes() == \
        model.predict_proba(premise, hypothesis).tobytes()

    for side, pair in (("premise", (" \t ", hypothesis)), ("hypothesis", (premise, "   "))):
        with pytest.raises(DataError, match=f"^{side} tokenized to nothing"):
            model.encode(*pair)

    examples = [NLIExample(premise, hypothesis, "neutral", "p0"), NLIExample(premise, "  ", "neutral", "p1")]
    errors = []
    assert [p.pair_id for p in predict_pointwise(model, examples, error_log=errors)] == ["p0"]
    assert [e.pair_id for e in errors] == ["p1"]

    model.cls_w.data[0, 0] = np.nan  # softmax raises NumericError: a fault, not a pair to skip
    errors = []
    with pytest.raises(NumericError):
        predict_pointwise(model, examples[:1], error_log=errors)
    assert errors == []


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_dropout_runs_exactly_when_a_generator_is_passed(kind):
    model = tiny_model(kind, dropout=0.5)
    examples = [NLIExample("the patient has a fever", "no fever", "neutral", "p0"),
                NLIExample("the patient is well", "no fever today", "contradiction", "p1")]
    batch = [model.encode(ex.premise, ex.hypothesis) for ex in examples]

    # an evaluation ignores its generator: the same loss bits, and nothing drawn from it
    rng = np.random.default_rng(5)
    loss, _ = model.batch_loss(examples, training=False, rng=rng)
    assert loss.data.tobytes() == model.batch_loss(examples)[0].data.tobytes()
    assert rng.random() == np.random.default_rng(5).random()

    # a forward given a generator drops entries; the same seed drops the same ones
    dropped = model.forward(batch, rng=np.random.default_rng(9)).data
    assert not np.array_equal(dropped, model.forward(batch).data)
    assert model.forward(batch, rng=np.random.default_rng(9)).data.tobytes() == dropped.tobytes()
    # and a training batch_loss is that forward, scored
    loss, _ = model.batch_loss(examples, training=True, rng=np.random.default_rng(9))
    assert loss.data.tobytes() == model._scored(T.Tensor(dropped), examples)[0].data.tobytes()


@cache
def shared_model(kind):
    """One tiny model per kind, shared by every example of the property."""
    return tiny_model(kind)


# words of the vocabulary, one the word-piece vocabulary splits and one out of every vocabulary; up to 8 words a
# side gives transformer pairs cut at max_len and compaggr hypotheses shorter than the widest filter
WORDS = sorted({w for s in SENTENCES for w in s.split()}) + ["fevers", "xyz"]
SIDE = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
BATCH = st.lists(st.builds(NLIExample, SIDE, SIDE, st.sampled_from(LABELS), st.integers(0, 999).map("p{}".format)),
                 min_size=1, max_size=12)


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(batch=BATCH, data=st.data())
def test_a_pair_scores_the_same_in_any_batch(kind, batch, data):
    model = shared_model(kind)
    encoded = [model.encode(ex.premise, ex.hypothesis) for ex in batch]
    rows = model.forward(encoded).data
    for row, enc in zip(rows, encoded):
        np.testing.assert_allclose(row, model.forward([enc]).data[0], rtol=0, atol=1e-12)

    order = data.draw(st.permutations(range(len(batch))), label="order")
    permuted = model.forward([encoded[i] for i in order]).data
    if kind == "transformer":
        assert permuted.tobytes() == rows[order].tobytes()
    else:  # one matrix product convolves the whole batch, and its columns round by their position in it
        np.testing.assert_allclose(permuted, rows[order], rtol=0, atol=1e-12)

    params = model.parameters()

    def grads():  # a parameter no step of the graph reads (a one-word encoder's wh) has no gradient
        return {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for name, p in params.items()}

    T.zero_grads(params.values())
    model.batch_loss(batch)[0].backward()
    batched = grads()
    T.zero_grads(params.values())
    for ex in batch:  # gradients accumulate over the single-pair backwards
        model.batch_loss([ex])[0].backward()
    for name, summed in grads().items():
        np.testing.assert_allclose(batched[name], summed, rtol=0, atol=1e-12, err_msg=name)
