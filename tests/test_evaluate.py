import json
from collections import Counter

import numpy as np
import pytest

from clinli import evaluate as ev
from clinli import synth
from clinli.data import LABELS, NLIExample, NLITriple, load_jsonl
from clinli.errors import DataError

from oracles import brute_force_assignment


class DictModel:
    """Maps (premise, hypothesis) to a fixed probability triple."""

    def __init__(self, table, default=(1 / 3, 1 / 3, 1 / 3)):
        self.table = table
        self.default = default

    def predict_proba(self, premise, hypothesis):
        return np.asarray(self.table.get((premise, hypothesis), self.default), dtype=np.float64)


class FailingModel:
    def predict_proba(self, premise, hypothesis):
        raise DataError(f"cannot encode {premise!r}")


def make_examples(labels, prefix="p"):
    return [
        NLIExample(f"premise {i}", f"hypothesis {i}", label, f"{prefix}{i}")
        for i, label in enumerate(labels)
    ]


def load_without_ids(path, examples):
    """``examples`` written to ``path`` without their pair ids, then read back."""
    path.write_text("".join(
        json.dumps({"sentence1": ex.premise, "sentence2": ex.hypothesis, "gold_label": ex.gold_label}) + "\n"
        for ex in examples
    ))
    return load_jsonl(path)


class TestPrediction:
    def test_argmax_label_fills_in(self):
        p = ev.Prediction("x", np.array([0.2, 0.5, 0.3]))
        assert p.predicted_label == "contradiction"
        assert p.confidence == pytest.approx(0.5)

    def test_tie_breaks_by_class_order(self):
        p = ev.Prediction("x", np.array([1 / 3, 1 / 3, 1 / 3]))
        assert p.predicted_label == "entailment"

    def test_bad_sum_rejected(self):
        with pytest.raises(DataError):
            ev.Prediction("x", np.array([0.5, 0.5, 0.5]))

    def test_assigned_label_kept_and_unknown_label_rejected(self):
        p = ev.Prediction("x", np.array([0.8, 0.1, 0.1]), "neutral")
        assert p.predicted_label == "neutral"
        assert p.confidence == pytest.approx(0.1)
        with pytest.raises(DataError):
            ev.Prediction("x", np.array([0.8, 0.1, 0.1]), "maybe")

    def test_bad_shape_rejected(self):
        with pytest.raises(DataError):
            ev.Prediction("x", np.array([0.5, 0.5]))


class TestPredictPointwise:
    def test_empty_input(self):
        assert ev.predict_pointwise(DictModel({}), [], []) == []

    def test_duplicated_example_identical_predictions(self):
        ex = NLIExample("a b", "c", "entailment", "e1")
        model = DictModel({("a b", "c"): (0.7, 0.2, 0.1)})
        ex2 = NLIExample("a b", "c", "entailment", "e2")
        preds = ev.predict_pointwise(model, [ex, ex2], [])
        np.testing.assert_array_equal(preds[0].probs, preds[1].probs)
        assert preds[0].predicted_label == preds[1].predicted_label

    def test_uniform_model_tie_breaks_to_entailment(self):
        examples = make_examples(["neutral", "contradiction"])
        preds = ev.predict_pointwise(DictModel({}), examples, [])
        assert [p.predicted_label for p in preds] == ["entailment", "entailment"]

    def test_errors_recorded_and_run_continues(self):
        examples = make_examples(["entailment", "neutral"])
        errors = []
        preds = ev.predict_pointwise(FailingModel(), examples, error_log=errors)
        assert preds == []
        assert [e.pair_id for e in errors] == ["p0", "p1"]

    def test_a_slice_of_a_file_without_ids_keeps_each_pairs_file_name(self, tmp_path):
        # a lone pair, then three that share a premise; the slice drops the lone pair
        examples = load_without_ids(tmp_path / "no_ids.jsonl", [NLIExample("lone", "hyp", "neutral", "x")] + [
            NLIExample("shared", f"hyp {label}", label, "x") for label in LABELS
        ])
        names = ["idx-1", "idx-2", "idx-3"]
        assert [p.pair_id for p in ev.predict_pointwise(DictModel({}), examples[1:], [])] == names
        triples, _ = ev.group_into_triples(examples[1:])
        assert list(ev.predict_listwise(DictModel({}), triples[0]).pair_ids) == names


def triple_for(model_probs):
    examples = (
        NLIExample("shared premise", "hyp e", "entailment", "t-e"),
        NLIExample("shared premise", "hyp c", "contradiction", "t-c"),
        NLIExample("shared premise", "hyp n", "neutral", "t-n"),
    )
    table = {(ex.premise, ex.hypothesis): row for ex, row in zip(examples, model_probs)}
    return NLITriple(examples=examples), DictModel(table)


class TestListwise:
    def test_identity_matrix_diagonal_assignment(self):
        probs = np.eye(3)
        perm, score = ev.best_label_assignment(probs)
        assert perm == (0, 1, 2)
        assert score == pytest.approx(0.0)

    def test_uniform_matrix_lexicographic_tie_break(self):
        perm, _ = ev.best_label_assignment(np.full((3, 3), 1 / 3))
        assert perm == (0, 1, 2)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            p = rng.dirichlet(np.ones(3), size=3)
            perm, score = ev.best_label_assignment(p)
            operm, oscore = brute_force_assignment(p)
            assert perm == operm
            assert score == pytest.approx(oscore, rel=1e-12)
            assert sorted(perm) == [0, 1, 2]

    def test_predict_listwise_bijection(self):
        triple, model = triple_for([(0.9, 0.05, 0.05), (0.1, 0.8, 0.1), (0.2, 0.2, 0.6)])
        result = ev.predict_listwise(model, triple)
        assert sorted(result.labels) == sorted(LABELS)
        assert result.as_dict() == {"t-e": "entailment", "t-c": "contradiction", "t-n": "neutral"}

    def test_exclusivity_beats_greedy_argmax(self):
        # both pairs prefer entailment point-wise; the triple must still
        # assign each label exactly once
        triple, model = triple_for([(0.9, 0.05, 0.05), (0.6, 0.3, 0.1), (0.5, 0.1, 0.4)])
        result = ev.predict_listwise(model, triple)
        assert sorted(result.labels) == sorted(LABELS)
        assert result.labels[0] == "entailment"

    def test_listwise_score_at_least_pointwise_bijection(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = rng.dirichlet(np.ones(3), size=3)
            argmaxes = tuple(int(np.argmax(row)) for row in p)
            if sorted(argmaxes) != [0, 1, 2]:
                continue
            _, best = ev.best_label_assignment(p)
            induced = sum(np.log(p[k, argmaxes[k]]) for k in range(3))
            assert best >= induced - 1e-12


class TestGroupIntoTriples:
    def _triple_examples(self, premise="shared premise", prefix="g0"):
        return [
            NLIExample(premise, "hyp e", "entailment", f"{prefix}-e"),
            NLIExample(premise, "hyp c", "contradiction", f"{prefix}-c"),
            NLIExample(premise, "hyp n", "neutral", f"{prefix}-n"),
        ]

    def test_group_by_premise(self):
        examples = self._triple_examples() + self._triple_examples("other premise", "g1")
        triples, skipped = ev.group_into_triples(examples)
        assert len(triples) == 2 and skipped == 0

    def test_pairs_without_ids_named_by_dataset_position(self, tmp_path):
        examples = self._triple_examples("first") + self._triple_examples("second")
        triples, _ = ev.group_into_triples(load_without_ids(tmp_path / "no_ids.jsonl", examples))
        ids = [pid for t in triples for pid in ev.predict_listwise(DictModel({}), t).pair_ids]
        assert ids == [f"idx-{i}" for i in range(6)]

    def test_complete_grouping(self):
        corpus = synth.generate_corpus(synth.SynthSpec(count=30, seed=6))
        triples, skipped = ev.group_into_triples(corpus)
        assert len(triples) == 10
        assert skipped == 0
        for triple in triples:
            assert len({ex.premise for ex in triple.examples}) == 1

    def test_incomplete_group_skipped(self):
        corpus = synth.generate_corpus(synth.SynthSpec(count=30, seed=6))
        partial = [ex for ex in corpus if not (ex.pair_id.startswith("synth-00000") and ex.gold_label == "neutral")]
        triples, skipped = ev.group_into_triples(partial)
        assert len(triples) == 9
        assert skipped == 1

    def test_matches_independent_group_count(self):
        rng = np.random.default_rng(12)
        corpus = synth.generate_corpus(synth.SynthSpec(count=90, seed=8))
        kept = [ex for ex in corpus if rng.random() > 0.25]
        triples, skipped = ev.group_into_triples(kept)
        # independent oracle: count pairs per premise, require exactly three pairs per premise
        groups = Counter(ex.premise for ex in kept)
        complete = sum(1 for n in groups.values() if n == 3)
        assert len(triples) == complete
        assert skipped == len(groups) - complete


class TestAccuracy:
    def test_all_correct(self):
        golds = make_examples(["entailment", "neutral"])
        preds = [
            ev.Prediction("p0", np.array([0.8, 0.1, 0.1])),
            ev.Prediction("p1", np.array([0.1, 0.1, 0.8])),
        ]
        assert ev.accuracy(preds, golds) == 1.0

    def test_none_correct(self):
        golds = make_examples(["contradiction", "contradiction"])
        preds = [
            ev.Prediction("p0", np.array([0.8, 0.1, 0.1])),
            ev.Prediction("p1", np.array([0.1, 0.1, 0.8])),
        ]
        assert ev.accuracy(preds, golds) == 0.0

    def test_three_of_four(self):
        golds = make_examples(["entailment"] * 4)
        rows = [[0.8, 0.1, 0.1]] * 3 + [[0.1, 0.8, 0.1]]
        preds = [ev.Prediction(f"p{i}", np.array(r)) for i, r in enumerate(rows)]
        assert ev.accuracy(preds, golds) == 0.75

    def test_id_mismatch_rejected(self):
        golds = make_examples(["entailment"])
        preds = [ev.Prediction("nope", np.array([0.8, 0.1, 0.1]))]
        with pytest.raises(DataError):
            ev.accuracy(preds, golds)

    def test_duplicate_pair_ids_rejected(self):
        golds = make_examples(["entailment", "neutral"])
        pred = ev.Prediction("p0", np.array([0.8, 0.1, 0.1]))
        with pytest.raises(DataError, match="predictions repeat pair id 'p0'"):
            ev.accuracy([pred, pred], golds)
        with pytest.raises(DataError, match="gold examples repeat pair id 'p0'"):
            ev.accuracy([pred], golds + golds[:1])

    def test_order_invariance(self):
        golds = make_examples(["entailment", "neutral", "contradiction"])
        rows = [[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        preds = [ev.Prediction(f"p{i}", np.array(r)) for i, r in enumerate(rows)]
        assert ev.accuracy(preds, golds) == ev.accuracy(list(reversed(preds)), golds)


class TestAgreementPartition:
    def _preds(self, labels):
        rows = {"entailment": [0.8, 0.1, 0.1], "contradiction": [0.1, 0.8, 0.1], "neutral": [0.1, 0.1, 0.8]}
        return [ev.Prediction(f"p{i}", np.array(rows[l])) for i, l in enumerate(labels)]

    def test_identical_predictions_no_exclusives(self):
        golds = make_examples(["entailment", "neutral", "contradiction"])
        preds = self._preds(["entailment", "entailment", "contradiction"])
        part = ev.agreement_partition(preds, preds, golds)
        assert part.counts["only_a"] == part.counts["only_b"] == 0
        assert part.counts["both"] == 2 and part.counts["neither"] == 1
        assert sum(part.fractions.values()) == pytest.approx(1.0)

    def test_extreme_case(self):
        golds = make_examples(["entailment"] * 3)
        a = self._preds(["entailment"] * 3)
        b = self._preds(["neutral"] * 3)
        part = ev.agreement_partition(a, b, golds)
        assert part.counts == {"both": 0, "only_a": 3, "only_b": 0, "neither": 0}
        assert part.fractions["only_a"] == 1.0

    def test_fractions_sum_to_one_exactly(self):
        rng = np.random.default_rng(42)
        labels = [LABELS[i] for i in rng.integers(0, 3, size=37)]
        golds = make_examples(labels)
        a = self._preds([LABELS[i] for i in rng.integers(0, 3, size=37)])
        b = self._preds([LABELS[i] for i in rng.integers(0, 3, size=37)])
        part = ev.agreement_partition(a, b, golds)
        assert sum(part.fractions.values()) == 1.0
        assert sum(part.counts.values()) == 37

    def test_different_pair_ids_rejected(self):
        golds = make_examples(["entailment", "neutral"])
        a, b = self._preds(["entailment"]), self._preds(["entailment", "neutral"])
        with pytest.raises(DataError, match="the two prediction sets cover different pair ids"):
            ev.agreement_partition(a, b, golds)
        with pytest.raises(DataError, match="predictions without matching gold examples"):
            ev.agreement_partition(a, self._preds(["entailment"] * 3), golds)


class TestMeanCorrectConfidence:
    def test_single_correct(self):
        golds = make_examples(["entailment"])
        preds = [ev.Prediction("p0", np.array([0.9, 0.05, 0.05]))]
        assert ev.mean_correct_confidence(preds, golds) == pytest.approx(0.9)

    def test_mean_of_two(self):
        golds = make_examples(["entailment", "entailment"])
        preds = [
            ev.Prediction("p0", np.array([0.8, 0.1, 0.1])),
            ev.Prediction("p1", np.array([1.0, 0.0, 0.0])),
        ]
        assert ev.mean_correct_confidence(preds, golds) == pytest.approx(0.9)

    def test_zero_correct_is_an_error(self):
        golds = make_examples(["neutral"])
        preds = [ev.Prediction("p0", np.array([0.9, 0.05, 0.05]))]
        with pytest.raises(DataError):
            ev.mean_correct_confidence(preds, golds)


class TestPredictionFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(50)
        preds = [ev.Prediction(f"p{i}", rng.dirichlet(np.ones(3))) for i in range(20)]
        path = tmp_path / "preds.tsv"
        ev.write_predictions(path, preds)
        loaded = ev.read_predictions(path)
        for orig, back in zip(preds, loaded):
            assert orig.pair_id == back.pair_id
            np.testing.assert_array_equal(orig.probs, back.probs)
            assert orig.predicted_label == back.predicted_label
        path2 = tmp_path / "preds2.tsv"
        ev.write_predictions(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize(
        "row,message",
        [
            ("p1\t0.2\tabc\t0.3\tneutral", "must be numbers"),
            ("p1\t0.2\t0.5\t0.3\tmaybe", "unknown label"),
            ("p1\t0.2\t0.5\t0.5\tneutral", "sum to"),
            ("p1\tnan\t0.5\t0.5\tneutral", "sum to"),
            ("p1\t0.2\t0.5\t0.3", "5 tab-separated fields"),
        ],
    )
    def test_malformed_row_names_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "preds.tsv"
        path.write_text(f"p0\t0.2\t0.5\t0.3\tneutral\n{row}\n")
        with pytest.raises(DataError, match=message) as info:
            ev.read_predictions(path)
        assert f"{path}:2:" in str(info.value)

    def test_metrics_file_format(self, tmp_path):
        path = tmp_path / "metrics.txt"
        ev.write_metrics(path, {"accuracy": 0.75, "n": 4})
        lines = path.read_text().splitlines()
        assert lines == ["accuracy=0.75", "n=4"]
