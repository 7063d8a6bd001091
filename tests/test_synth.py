import json

import numpy as np
import pytest

from clinli import synth
from clinli.data import LABELS, load_jsonl, save_jsonl
from clinli.errors import ConfigError, DataError


class TestGenerateCorpus:
    def test_count_three_gives_one_per_class(self):
        corpus = synth.generate_corpus(synth.SynthSpec(count=3, seed=1))
        assert sorted(ex.gold_label for ex in corpus) == sorted(LABELS)

    def test_deterministic_per_seed(self):
        spec = synth.SynthSpec(count=60, seed=9)
        a = synth.generate_corpus(spec)
        b = synth.generate_corpus(spec)
        assert [(x.premise, x.hypothesis, x.gold_label, x.pair_id) for x in a] == [
            (x.premise, x.hypothesis, x.gold_label, x.pair_id) for x in b
        ]

    def test_labels_correct_by_construction(self):
        corpus = synth.generate_corpus(synth.SynthSpec(count=90, seed=3))
        by_id = {ex.pair_id: ex for ex in corpus}
        for ex in corpus:
            prem_words = set(ex.premise.split())
            hyp_words = set(ex.hypothesis.split())
            if ex.gold_label == "entailment":
                assert hyp_words <= prem_words
            elif ex.gold_label == "contradiction":
                assert ("not" in hyp_words) or ("no" in hyp_words)
            else:
                extra = (hyp_words - synth.FUNCTION_WORDS) - prem_words
                assert extra, f"neutral hypothesis adds no new finding: {ex}"
        # groups share premises
        for ex in corpus:
            group = ex.pair_id.rsplit("-", 1)[0]
            assert by_id[group + "-e"].premise == ex.premise

    def test_class_balance(self):
        corpus = synth.generate_corpus(synth.SynthSpec(count=120, seed=5))
        counts = {label: 0 for label in LABELS}
        for ex in corpus:
            counts[ex.gold_label] += 1
        assert set(counts.values()) == {40}

    def test_too_few_premises_for_count_rejected(self):
        # vocab_size 3 gives 3 x 2 ordered content pairs per template: 18 premises
        with pytest.raises(ConfigError, match="vocab_size 3 is too small for count 300"):
            synth.generate_corpus(synth.SynthSpec(vocab_size=3, count=300))

    def test_bad_shift_rejected(self):
        with pytest.raises(ConfigError):
            synth.SynthSpec(shift=1.5)


class TestTransferPair:
    def test_zero_shift_identical_pools(self):
        spec = synth.SynthSpec(vocab_size=20, count=300, seed=2, shift=0.0)
        source, target = synth.generate_transfer_pair(spec)
        assert synth.content_words(source) == synth.content_words(target)

    def test_full_shift_disjoint_pools(self):
        spec = synth.SynthSpec(vocab_size=20, count=300, seed=2, shift=1.0)
        source, target = synth.generate_transfer_pair(spec)
        assert not (synth.content_words(source) & synth.content_words(target))

    def test_half_shift_jaccard_near_half(self):
        spec = synth.SynthSpec(vocab_size=30, count=600, seed=4, shift=0.5)
        source, target = synth.generate_transfer_pair(spec)
        s, t = synth.content_words(source), synth.content_words(target)
        jaccard = len(s & t) / len(s | t)
        assert abs(jaccard - 0.5) < 0.1


class TestJsonlRoundtrip:
    def test_write_then_load_identical(self, tmp_path):
        corpus = synth.generate_corpus(synth.SynthSpec(count=21, seed=10))
        path = tmp_path / "data.jsonl"
        save_jsonl(path, corpus)
        loaded = load_jsonl(path)
        assert loaded == corpus
        # second write is byte-identical
        path2 = tmp_path / "data2.jsonl"
        save_jsonl(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()

    def test_schema_keys(self, tmp_path):
        corpus = synth.generate_corpus(synth.SynthSpec(count=3, seed=0))
        path = tmp_path / "data.jsonl"
        save_jsonl(path, corpus)
        first = json.loads(path.read_text().splitlines()[0])
        assert set(first) == {"sentence1", "sentence2", "gold_label", "pairID"}

    def test_lines_without_pair_id_are_named_by_example_position(self, tmp_path):
        rows = [json.dumps({"sentence1": f"premise {i}", "sentence2": "hypothesis", "gold_label": "neutral",
                            **({"pairID": "given"} if i == 1 else {})}) for i in range(4)]
        path = tmp_path / "data.jsonl"
        path.write_text("\n".join(rows[:2] + ["  "] + rows[2:]) + "\n")  # a blank line is no example
        loaded = load_jsonl(path)
        assert [ex.pair_id for ex in loaded] == ["idx-0", "given", "idx-2", "idx-3"]
        save_jsonl(tmp_path / "saved.jsonl", loaded)
        assert [json.loads(line)["pairID"] for line in (tmp_path / "saved.jsonl").read_text().splitlines()] == [
            "idx-0", "given", "idx-2", "idx-3"]
        assert load_jsonl(tmp_path / "saved.jsonl") == loaded

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "3", "null"])
    def test_non_object_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"sentence1": "a", "sentence2": "b", "gold_label": "neutral"}\n' + line + "\n")
        with pytest.raises(DataError, match=r"bad.jsonl:2: expected a JSON object"):
            load_jsonl(path)
