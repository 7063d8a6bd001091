"""Sub-word and word-level tokenization with sentence-pair encoding.

Sub-word vocabularies are trained by greedy pair merging (most frequent
adjacent pair first, ties broken by first occurrence in the scan), and text
is segmented by greedy longest-match-first lookup.  Non-initial pieces carry
the ``##`` continuation prefix.  A word-level mode maps each whitespace word
to a single id, with [UNK] for out-of-vocabulary words.

Pair encoding lays out ``[CLS] premise [SEP] hypothesis [SEP]`` with segment
ids 0 through the first [SEP] and 1 after it, pads to a fixed length, and
masks the padding.  Overlong pairs are truncated by trimming the currently
longer side one token at a time (premise first on ties), which keeps both
sentence heads.

Vocabulary files hold one token per line; the first four lines are the
special tokens in the fixed order [PAD], [UNK], [CLS], [SEP].
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

from .errors import ConfigError, DataError, ParseError

__all__ = [
    "EncodedPair",
    "Vocabulary",
    "CONTINUATION_PREFIX",
    "SPECIAL_TOKENS",
    "build_word_vocab",
    "detokenize",
    "encode_pair",
    "pretokenize",
    "tokenize",
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

    def token_of(self, idx: int) -> str:
        return self.tokens[idx]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for t in self.tokens:
                fh.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path, encoding="utf-8") as fh:
            tokens = [line.rstrip("\n") for line in fh]
        if len(tokens) < 4 or tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise ParseError(f"{path}: first four lines must be {', '.join(SPECIAL_TOKENS)}")
        return cls(tokens)


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION_PREFIX + c for c in word[1:]]


def train_wordpiece(corpus: list[str], target_size: int) -> Vocabulary:
    """Build a sub-word vocabulary by greedy pair merging.

    Every single character of the corpus enters the vocabulary in both its
    word-initial and continuation form, so any text over the corpus alphabet
    tokenizes without [UNK].  Merges then run most-frequent-pair-first until
    ``target_size`` entries exist or no pair repeats.
    """
    if not corpus:
        raise DataError("cannot train a vocabulary on an empty corpus")
    word_freq: Counter[str] = Counter()
    for sentence in corpus:
        word_freq.update(pretokenize(sentence))
    if not word_freq:
        raise DataError("corpus contains no words")

    alphabet: list[str] = []
    seen = set()
    for word in word_freq:
        for sym in _word_symbols(word):
            base = sym.removeprefix(CONTINUATION_PREFIX)
            for form in (base, CONTINUATION_PREFIX + base):
                if form not in seen:
                    seen.add(form)
                    alphabet.append(form)
    alphabet.sort()

    floor = len(SPECIAL_TOKENS) + len(alphabet)
    if target_size < floor:
        raise ConfigError(f"target_size {target_size} below alphabet floor {floor}")

    vocab = list(SPECIAL_TOKENS) + alphabet
    sequences: list[tuple[list[str], int]] = [(_word_symbols(w), f) for w, f in word_freq.items()]

    while len(vocab) < target_size:
        pair_counts: Counter[tuple[str, str]] = Counter()
        first_seen: dict[tuple[str, str], int] = {}
        serial = 0
        for symbols, freq in sequences:
            for pair in zip(symbols, symbols[1:]):
                pair_counts[pair] += freq
                if pair not in first_seen:
                    first_seen[pair] = serial
                    serial += 1
        repeated = [(cnt, -first_seen[p], p) for p, cnt in pair_counts.items() if cnt >= 2]
        if not repeated:
            break
        _, _, best = max(repeated)
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


def build_word_vocab(corpus: list[str]) -> Vocabulary:
    """Word-level vocabulary: one id per word, most frequent first."""
    if not corpus:
        raise DataError("cannot build a vocabulary from an empty corpus")
    freq: Counter[str] = Counter()
    order: dict[str, int] = {}
    for sentence in corpus:
        for w in pretokenize(sentence):
            freq[w] += 1
            order.setdefault(w, len(order))
    words = sorted(freq, key=lambda w: (-freq[w], order[w]))
    return Vocabulary(list(SPECIAL_TOKENS) + words)


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


def detokenize(tokens: list[str]) -> str:
    """Invert sub-word segmentation: continuation pieces glue to the
    previous piece, other pieces start new space-separated words."""
    words: list[str] = []
    for t in tokens:
        if t.startswith(CONTINUATION_PREFIX) and words:
            words[-1] += t.removeprefix(CONTINUATION_PREFIX)
        else:
            words.append(t)
    return " ".join(words)


@dataclass
class EncodedPair:
    """A padded, masked sentence pair ready for the sequence classifier."""

    token_ids: list[int]
    segment_ids: list[int]
    position_ids: list[int]
    attention_mask: list[int]

    def __post_init__(self):
        n = len(self.token_ids)
        if not (len(self.segment_ids) == len(self.position_ids) == len(self.attention_mask) == n):
            raise DataError("encoded pair sequences have unequal lengths")


def encode_pair(
    premise: str,
    hypothesis: str,
    vocab: Vocabulary,
    max_len: int,
    mode: str = "wordpiece",
) -> EncodedPair:
    """Encode a sentence pair as [CLS] premise [SEP] hypothesis [SEP] with
    segments, positions, and a padding mask, truncated and padded to
    ``max_len``."""
    if max_len < 5:
        raise ConfigError(f"max_len must be at least 5, got {max_len}")
    tok = tokenize if mode == "wordpiece" else word_tokenize
    if mode not in ("wordpiece", "word"):
        raise ConfigError(f"unknown tokenizer mode {mode!r}")
    p_ids = tok(premise, vocab)
    h_ids = tok(hypothesis, vocab)
    if not p_ids:
        raise DataError(f"premise tokenized to nothing: {premise!r}")
    if not h_ids:
        raise DataError(f"hypothesis tokenized to nothing: {hypothesis!r}")

    budget = max_len - 3
    while len(p_ids) + len(h_ids) > budget:
        if len(p_ids) >= len(h_ids):
            p_ids.pop()
        else:
            h_ids.pop()

    ids = [vocab.cls_id] + p_ids + [vocab.sep_id] + h_ids + [vocab.sep_id]
    segments = [0] * (len(p_ids) + 2) + [1] * (len(h_ids) + 1)
    mask = [1] * len(ids)
    pad = max_len - len(ids)
    ids += [vocab.pad_id] * pad
    segments += [0] * pad
    mask += [0] * pad
    return EncodedPair(
        token_ids=ids,
        segment_ids=segments,
        position_ids=list(range(max_len)),
        attention_mask=mask,
    )
