"""Sub-word and word-level tokenization with sentence-pair encoding.

Each model kind reads one tokenizer (``PairClassifier.tokenizer_mode``): the
transformer reads word pieces and the compare-aggregate matcher reads words.
Sub-word vocabularies are trained by greedy pair merging (most frequent
adjacent pair first, ties broken by first occurrence in the scan) over an
index of pair counts and of the words holding each pair, which a merge
updates for the words it changes only; text is segmented by greedy
longest-match-first lookup.  Non-initial pieces carry
the ``##`` continuation prefix.  The word-level tokenizer maps each word to a
single id (most frequent first, ties in order of first occurrence), with
[UNK] for out-of-vocabulary words.  Either gives a text no token exactly
when ``pretokenize`` finds no word in it.

Pair encoding, the transformer's input, gives the ids of ``[CLS] premise
[SEP] hypothesis [SEP]``, token i at position i, and no padding: the
classifier pads each batch to its longest pair with ``pad_ids`` and reads
segment 1 after the first [SEP], and ``max_len`` is the truncation budget
and position-table size.  No text encodes to [PAD], [CLS] or [SEP]:
``pretokenize`` splits ``[SEP]`` into ``[``, ``sep`` and ``]``.  Overlong
pairs are truncated by trimming the currently longer side one token at a
time (premise first on ties), which keeps both sentence heads.

A vocabulary starts with the special tokens [PAD], [UNK], [CLS], [SEP] in
that order, and is stored only in the checkpoint header of its model.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "Vocabulary",
    "CONTINUATION_PREFIX",
    "SPECIAL_TOKENS",
    "build_word_vocab",
    "encode_pair",
    "pad_ids",
    "pretokenize",
    "tokenize",
    "tokenize_sides",
    "tokenize_to_tokens",
    "train_wordpiece",
    "word_tokenize",
]

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP)
CONTINUATION_PREFIX = "##"

_WORD_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def pretokenize(text: str) -> list[str]:
    """NFC-normalize, lowercase, and split into words, with punctuation
    split off as separate single-character words."""
    text = unicodedata.normalize("NFC", text).lower()
    return _WORD_RE.findall(text)


class Vocabulary:
    """Token lexicon with contiguous ids; specials occupy ids 0..3.

    Immutable after construction; tokenization against it is pure, so a
    vocabulary may be shared freely across threads.
    """

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise DataError(f"vocabulary must start with {SPECIAL_TOKENS}, got {tokens[:4]}")
        self.tokens = list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            dupes = [t for t, c in Counter(self.tokens).items() if c > 1]
            raise DataError(f"duplicate tokens in vocabulary: {dupes[:5]}")

    pad_id = 0
    unk_id = 1
    cls_id = 2
    sep_id = 3

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, self.unk_id)


def pad_ids(rows) -> np.ndarray:
    """B id lists padded at the end with [PAD] to the longest, as a (B, L) int64 matrix."""
    ids = np.full((len(rows), max(map(len, rows), default=0)), Vocabulary.pad_id, dtype=np.int64)
    for i, row in enumerate(rows):
        ids[i, : len(row)] = row
    return ids


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION_PREFIX + c for c in word[1:]]


def _word_counts(corpus: list[str]) -> Counter[str]:
    """How often each word of the corpus occurs, in order of first occurrence."""
    freq = Counter(w for sentence in corpus for w in pretokenize(sentence))
    if not freq:
        raise DataError("corpus contains no words")
    return freq


def train_wordpiece(corpus: list[str], target_size: int) -> Vocabulary:
    """Build a sub-word vocabulary by greedy pair merging.

    Every single character of the corpus enters the vocabulary in both its
    word-initial and continuation form, so any text over the corpus alphabet
    tokenizes without [UNK].  Merges then run most-frequent-pair-first until
    ``target_size`` entries exist or no pair repeats; a tie goes to the pair
    first seen in a scan of the distinct words in first-seen order.

    The pair counts are indexed once, with the words that hold each pair, and
    a merge recounts only the words that held the merged pair.
    """
    word_freq = _word_counts(corpus)
    chars = {c for word in word_freq for c in word}
    alphabet = sorted(chars | {CONTINUATION_PREFIX + c for c in chars})

    floor = len(SPECIAL_TOKENS) + len(alphabet)
    if target_size < floor:
        raise ConfigError(f"target_size {target_size} below alphabet floor {floor}")

    vocab = list(SPECIAL_TOKENS) + alphabet
    words = [_word_symbols(w) for w in word_freq]
    freqs = list(word_freq.values())
    counts: Counter[tuple[str, str]] = Counter()  # pair -> occurrences, weighted by word frequency
    holders: defaultdict[tuple[str, str], set[int]] = defaultdict(set)  # pair -> indices of the words holding it

    def index(i: int, sign: int) -> None:
        """Count the pairs of word i into the index (sign 1) or out of it (sign -1)."""
        symbols = words[i]
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += sign * freqs[i]
            if sign > 0:
                holders[pair].add(i)
            else:
                holders[pair].discard(i)
                if not counts[pair]:
                    del counts[pair], holders[pair]

    for i in range(len(words)):
        index(i, 1)
    while len(vocab) < target_size:
        top = max(counts.values(), default=0)
        if top < 2:  # no pair repeats
            break
        tied = {pair for pair, count in counts.items() if count == top}
        # the first tied pair in a scan of the words in order lies in the first word holding one
        first = words[min(min(holders[pair]) for pair in tied)]
        best = next(pair for pair in zip(first, first[1:]) if pair in tied)
        merged = best[0] + best[1].removeprefix(CONTINUATION_PREFIX)
        vocab.append(merged)
        for i in list(holders[best]):  # a copy: counting the words out deletes the entry
            index(i, -1)
            symbols = words[i]
            j = 0
            while j < len(symbols) - 1:
                if symbols[j] == best[0] and symbols[j + 1] == best[1]:
                    symbols[j : j + 2] = [merged]
                else:
                    j += 1
            index(i, 1)

    return Vocabulary(vocab)


def build_word_vocab(corpus: list[str]) -> Vocabulary:
    """Word-level vocabulary: one id per word, most frequent first, words of
    equal frequency in order of first occurrence."""
    freq = _word_counts(corpus)
    return Vocabulary(list(SPECIAL_TOKENS) + [w for w, _ in freq.most_common()])  # a stable sort


def _wordpiece_word(word: str, vocab: Vocabulary) -> list[str]:
    if word in vocab:
        return [word]
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = CONTINUATION_PREFIX + piece
            if piece in vocab:
                found = piece
                break
            end -= 1
        if found is None:
            return [UNK]
        pieces.append(found)
        start = end
    return pieces


def tokenize_to_tokens(text: str, vocab: Vocabulary) -> list[str]:
    """Greedy longest-match sub-word segmentation; a word containing any
    out-of-alphabet character becomes a single [UNK]."""
    out: list[str] = []
    for word in pretokenize(text):
        out.extend(_wordpiece_word(word, vocab))
    return out


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    return [vocab.token_to_id[t] for t in tokenize_to_tokens(text, vocab)]


def word_tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """One id per word; out-of-vocabulary words map to [UNK]."""
    return [vocab.id_of(w) for w in pretokenize(text)]


def tokenize_sides(premise: str, hypothesis: str, tok: Callable[[str], list]) -> tuple[list, list]:
    """The tokens ``tok(text)`` gives each side of a pair.  A side with no
    token raises the DataError, naming that side, which marks a pair that no
    model can encode; ``tok=pretokenize`` finds such a pair without a
    vocabulary."""
    p_ids, h_ids = tok(premise), tok(hypothesis)
    for side, ids, text in (("premise", p_ids, premise), ("hypothesis", h_ids, hypothesis)):
        if not ids:
            raise DataError(f"{side} tokenized to nothing: {text!r}")
    return p_ids, h_ids


def encode_pair(premise: str, hypothesis: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """The word-piece ids of [CLS] premise [SEP] hypothesis [SEP],
    truncated to at most ``max_len`` tokens and not padded."""
    if max_len < 5:
        raise ConfigError(f"max_len must be at least 5, got {max_len}")
    p_ids, h_ids = tokenize_sides(premise, hypothesis, lambda text: tokenize(text, vocab))

    budget = max_len - 3
    while len(p_ids) + len(h_ids) > budget:
        if len(p_ids) >= len(h_ids):
            p_ids.pop()
        else:
            h_ids.pop()

    return [vocab.cls_id] + p_ids + [vocab.sep_id] + h_ids + [vocab.sep_id]
