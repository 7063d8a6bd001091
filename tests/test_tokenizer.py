import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from clinli import tokenizer as tk
from clinli.errors import ClinliError, ConfigError, DataError
from oracles import loop_train_wordpiece

# Hypothesis caches the constants it finds in the source while pytest
# collects: keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clinli-hypothesis")

# words over a small alphabet, so that pair counts tie often: runs such as
# "aaaa" make overlapping merges, and é comes composed and decomposed
_RUNS = st.tuples(st.sampled_from(["a", "b", "\u00e9", "e\u0301", ".", "-"]), st.integers(1, 4))
_WORDS = st.lists(_RUNS.map(lambda run: run[0] * run[1]), min_size=1, max_size=3).map("".join)
_SENTENCES = st.lists(_WORDS, max_size=4).map(" ".join)  # no word at all now and then


def _tokens_or_error(train, corpus, target_size):
    try:
        return train(corpus, target_size).tokens
    except ClinliError as e:
        return type(e)


class TestTrainWordpiece:
    def test_most_frequent_pair_merges_first(self):
        # {"aaab", "aab"}: the (a, ##a) pair appears in both words, so the
        # first merge must produce "aa" once two merge slots are available.
        floor = 4 + 4  # specials + {a, ##a, b, ##b}
        vocab = tk.train_wordpiece(["aaab", "aab"], target_size=floor + 2)
        assert "aa" in vocab

    @pytest.mark.parametrize("corpus,merged", [(["ab cd", "ab cd"], "ab"), (["cd ab", "cd ab"], "cd")])
    def test_merge_tie_goes_to_the_pair_first_seen_in_the_scan(self, corpus, merged):
        # (a, ##b) and (c, ##d) both count 2; one merge slot above the floor
        vocab = tk.train_wordpiece(corpus, target_size=4 + 8 + 1)
        assert vocab.tokens[-1] == merged
        assert len(vocab) == 13

    def test_single_character_corpus(self):
        vocab = tk.train_wordpiece(["a"], target_size=10)
        assert vocab.tokens[:4] == list(tk.SPECIAL_TOKENS)
        assert set(vocab.tokens[4:]) == {"a", "##a"}

    def test_corpus_closure_no_unk(self):
        corpus = [
            "the patient has chest pain",
            "patient denies chest pain and fever",
            "history of diabetes mellitus",
        ]
        vocab = tk.train_wordpiece(corpus, target_size=80)
        unk = vocab.unk_id
        for sentence in corpus:
            assert unk not in tk.tokenize(sentence, vocab)

    def test_target_size_below_alphabet_rejected(self):
        with pytest.raises(ConfigError):
            tk.train_wordpiece(["abcdef"], target_size=8)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            tk.train_wordpiece([], target_size=100)

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(data=st.data())
    def test_pair_index_merges_as_the_recount_loop(self, data):
        corpus = data.draw(st.lists(_SENTENCES, max_size=4))
        words = {w for sentence in corpus for w in tk.pretokenize(sentence)}
        floor = len(tk.SPECIAL_TOKENS) + 2 * len({c for w in words for c in w})
        # each merge shortens some word, so merging stops before floor + the letters of all words
        past_stop = floor + sum(map(len, words)) + 2
        target_size = past_stop - data.draw(st.integers(0, past_stop - floor + 2))  # from past_stop down
        expected = _tokens_or_error(loop_train_wordpiece, corpus, target_size)
        assert _tokens_or_error(tk.train_wordpiece, corpus, target_size) == expected


@pytest.mark.parametrize("build", [tk.build_word_vocab, lambda corpus: tk.train_wordpiece(corpus, 100)],
                         ids=["word", "wordpiece"])
def test_corpus_with_no_words_rejected(build):
    with pytest.raises(DataError, match="corpus contains no words"):
        build([" ", "\t"])


class TestTokenize:
    @pytest.fixture
    def toy_vocab(self):
        return tk.Vocabulary(list(tk.SPECIAL_TOKENS) + ["a", "##a", "##b", "aa", "##ab", "b"])

    def test_whole_word_single_id(self):
        vocab = tk.Vocabulary(list(tk.SPECIAL_TOKENS) + ["pain", "p", "##a", "##i", "##n"])
        assert tk.tokenize_to_tokens("pain", vocab) == ["pain"]

    def test_greedy_longest_match(self, toy_vocab):
        assert tk.tokenize_to_tokens("aaab", toy_vocab) == ["aa", "##ab"]

    def test_out_of_alphabet_maps_to_unk(self, toy_vocab):
        assert tk.tokenize_to_tokens("ω", toy_vocab) == [tk.UNK]

    def test_prefix_stability(self, toy_vocab):
        joined = tk.tokenize("aaab b", toy_vocab)
        assert joined == tk.tokenize("aaab", toy_vocab) + tk.tokenize("b", toy_vocab)

    def test_detokenize_roundtrip_random_words(self):
        # a word's pieces, continuation prefixes dropped, join back into the word
        rng = np.random.default_rng(4)
        words = ["".join(rng.choice(list("abcde"), size=rng.integers(1, 9))) for _ in range(60)]
        vocab = tk.train_wordpiece([" ".join(words)], target_size=60)
        for w in words:
            pieces = tk.tokenize_to_tokens(w, vocab)
            assert not pieces[0].startswith(tk.CONTINUATION_PREFIX)
            assert all(p.startswith(tk.CONTINUATION_PREFIX) for p in pieces[1:])
            assert "".join(p.removeprefix(tk.CONTINUATION_PREFIX) for p in pieces) == w

    def test_word_vocab_tie_goes_to_the_first_occurrence(self):
        vocab = tk.build_word_vocab(["beta alpha", "gamma alpha beta", "delta"])
        assert vocab.tokens[4:] == ["beta", "alpha", "gamma", "delta"]

    def test_word_level_mode(self):
        vocab = tk.build_word_vocab(["chest pain noted", "no chest pain"])
        ids = tk.word_tokenize("chest pain unknownword", vocab)
        assert ids[0] == vocab.token_to_id["chest"]
        assert ids[1] == vocab.token_to_id["pain"]
        assert ids[2] == vocab.unk_id


class TestEncodePair:
    @pytest.fixture
    def ab_vocab(self):
        return tk.Vocabulary(list(tk.SPECIAL_TOKENS) + ["a", "b", "##a", "##b"])

    def test_layout(self, ab_vocab):
        enc = tk.encode_pair("a", "b", ab_vocab, max_len=8)
        a, b = ab_vocab.token_to_id["a"], ab_vocab.token_to_id["b"]
        # unpadded: the classifier pads each batch to its longest pair
        assert enc.token_ids == [2, a, 3, b, 3]
        assert enc.segment_ids == [0, 0, 0, 1, 1]

    def test_equal_overflow_trims_one_from_each_side(self, ab_vocab):
        # 4 + 4 tokens with budget 6: one token trimmed from each side.
        enc = tk.encode_pair("a a a a", "b b b b", ab_vocab, max_len=9)
        a, b = ab_vocab.token_to_id["a"], ab_vocab.token_to_id["b"]
        assert enc.token_ids == [2, a, a, a, 3, b, b, b, 3]

    def test_longer_side_trimmed_first(self, ab_vocab):
        enc = tk.encode_pair("a a a a a", "b", ab_vocab, max_len=7)
        a, b = ab_vocab.token_to_id["a"], ab_vocab.token_to_id["b"]
        assert enc.token_ids == [2, a, a, a, 3, b, 3]

    def test_max_len_below_5_rejected(self, ab_vocab):
        with pytest.raises(ConfigError):
            tk.encode_pair("a", "b", ab_vocab, max_len=4)

    def test_empty_side_rejected(self, ab_vocab):
        with pytest.raises(DataError):
            tk.encode_pair("", "b", ab_vocab, max_len=8)

    def test_invariants_on_random_pairs(self):
        rng = np.random.default_rng(77)
        letters = list("abcdefg")
        sentences = [
            " ".join("".join(rng.choice(letters, size=rng.integers(1, 6))) for _ in range(rng.integers(1, 10)))
            for _ in range(40)
        ]
        vocab = tk.train_wordpiece(sentences, target_size=120)
        max_len = 16
        for _ in range(100):
            p, h = rng.choice(sentences), rng.choice(sentences)
            enc = tk.encode_pair(p, h, vocab, max_len=max_len)
            untruncated = 3 + len(tk.tokenize(p, vocab)) + len(tk.tokenize(h, vocab))
            assert len(enc.token_ids) == min(untruncated, max_len)
            assert len(enc.segment_ids) == len(enc.token_ids)
            assert enc.token_ids[0] == vocab.cls_id
            assert vocab.pad_id not in enc.token_ids
            seps = [i for i, t in enumerate(enc.token_ids) if t == vocab.sep_id]
            assert len(seps) == 2
            first, second = seps
            assert second == len(enc.token_ids) - 1
            assert all(s == 0 for s in enc.segment_ids[: first + 1])
            assert all(s == 1 for s in enc.segment_ids[first + 1 :])


class TestVocabulary:
    def test_specials_enforced(self):
        with pytest.raises(DataError, match="must start with"):
            tk.Vocabulary(["[PAD]", "[UNK]", "word"])

    def test_ids_contiguous_and_inverse(self):
        vocab = tk.build_word_vocab(["alpha beta gamma"])
        for i, t in enumerate(vocab.tokens):
            assert vocab.token_to_id[t] == i
