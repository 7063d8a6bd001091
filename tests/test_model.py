"""The protocol both model kinds share: ``encode`` one pair, ``forward`` a
batch of encoded pairs, and prediction skips only the pairs ``encode``
rejects."""

import numpy as np
import pytest

from clinli.checkpoint import MODEL_KINDS, make_model_config
from clinli.data import NLIExample
from clinli.errors import DataError, NumericError
from clinli.evaluate import predict_pointwise
from clinli.tokenizer import build_word_vocab, train_wordpiece

SENTENCES = ["the patient has a fever", "no fever today", "the patient is well"]
TINY_CONFIGS = {
    "transformer": {"d_e": 8, "num_heads": 2, "num_blocks": 1, "d_ff": 8, "max_len": 16, "dropout": 0.0},
    "compaggr": {"word_dim": 8, "repr_dim": 8, "filters_per_width": 2, "dropout": 0.0},
}


def tiny_model(kind):
    cls = MODEL_KINDS[kind]
    mode = cls.tokenizer_modes[0]
    vocab = train_wordpiece(SENTENCES, target_size=60) if mode == "wordpiece" else build_word_vocab(SENTENCES)
    return cls(make_model_config(kind, TINY_CONFIGS[kind], "test"), vocab, seed=3)


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
