"""Synthetic sentence-pair corpora with labels correct by construction.

Examples come in premise groups of three: the entailment hypothesis is a
sub-statement of the premise, the contradiction negates one of its findings,
and the neutral hypothesis introduces an unrelated finding.  Content words
are deterministic pseudo-words, so corpora of any size can be generated
reproducibly from a seed, and source/target corpus pairs can be produced
with a controlled content-vocabulary overlap for transfer experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import NLIExample
from .errors import ConfigError

__all__ = [
    "FUNCTION_WORDS",
    "SynthSpec",
    "content_words",
    "generate_corpus",
    "generate_transfer_pair",
    "pseudo_lexicon",
]

_TEMPLATES = (
    (
        "the patient has {a} and {b}",
        "the patient has {b}",
        "the patient does not have {a}",
        "the patient has {z}",
    ),
    (
        "notes report {a} with {b}",
        "notes report {a}",
        "notes report no {a}",
        "notes report {z}",
    ),
    (
        "history shows {a} after {b}",
        "history shows {a}",
        "history shows no {a}",
        "history shows {z}",
    ),
)

FUNCTION_WORDS = frozenset("the patient has and does not have notes report with no history shows after".split())

_SYLLABLES = [c + v for c in "bdfglmnprstvz" for v in "aeiou"]
_SPACE = len(_SYLLABLES) ** 2


def pseudo_lexicon(size: int) -> list[str]:
    """Deterministic list of distinct two-syllable pseudo-words."""
    if size > _SPACE:
        raise ConfigError(f"lexicon size {size} exceeds the {_SPACE} distinct pseudo-words")
    words = []
    for i in range(size):
        idx = (i * 1579 + 7) % _SPACE
        words.append(_SYLLABLES[idx // len(_SYLLABLES)] + _SYLLABLES[idx % len(_SYLLABLES)])
    return words


@dataclass
class SynthSpec:
    vocab_size: int = 30
    count: int = 120
    seed: int = 0
    shift: float = 0.0

    def __post_init__(self):
        if self.vocab_size < 3:
            raise ConfigError("vocab_size must be at least 3")
        if self.count < 1:
            raise ConfigError("count must be positive")
        if not 0.0 <= self.shift <= 1.0:
            raise ConfigError(f"shift must be in [0, 1], got {self.shift}")


def generate_corpus(
    spec: SynthSpec,
    pool: list[str] | None = None,
    prefix: str = "synth",
) -> list[NLIExample]:
    """Deterministically generate ``spec.count`` labeled pairs.

    Counts divisible by 3 yield perfect class balance; otherwise the final
    premise group is emitted partially, in entailment/contradiction/neutral
    order.  Every premise group has its own premise: a group that finds no
    unused one in 50 draws raises a ConfigError.
    """
    if pool is None:
        pool = pseudo_lexicon(spec.vocab_size)
    rng = np.random.default_rng(spec.seed)
    pool_arr = np.asarray(pool)
    examples: list[NLIExample] = []
    used_premises: set[str] = set()
    n_groups = math.ceil(spec.count / 3)
    for g in range(n_groups):
        template = _TEMPLATES[g % len(_TEMPLATES)]
        for _ in range(50):
            a, b, z = rng.choice(pool_arr, size=3, replace=False)
            premise = template[0].format(a=a, b=b)
            if premise not in used_premises:
                break
        else:
            raise ConfigError(f"vocab_size {spec.vocab_size} is too small for count {spec.count}: "
                              f"premise group {g + 1} of {n_groups} found no unused premise in 50 draws")
        used_premises.add(premise)
        hypotheses = (
            (template[1].format(a=a, b=b), "entailment", "e"),
            (template[2].format(a=a, b=b), "contradiction", "c"),
            (template[3].format(z=z), "neutral", "n"),
        )
        for hypo, label, suffix in hypotheses:
            if len(examples) == spec.count:
                break
            examples.append(
                NLIExample(
                    premise=premise,
                    hypothesis=hypo,
                    gold_label=label,
                    pair_id=f"{prefix}-{g:05d}-{suffix}",
                )
            )
    return examples


def generate_transfer_pair(
    spec: SynthSpec,
    source_count: int | None = None,
    target_count: int | None = None,
) -> tuple[list[NLIExample], list[NLIExample]]:
    """Source and target corpora sharing the inference rules but with content
    vocabularies whose Jaccard overlap is about ``1 - spec.shift``.

    shift 0 uses identical pools; shift 1 uses disjoint pools.
    """
    v = spec.vocab_size
    shared_fraction = 2.0 * (1.0 - spec.shift) / (2.0 - spec.shift)
    shared = round(shared_fraction * v)
    lexicon = pseudo_lexicon(2 * v - shared)
    source_pool = lexicon[:v]
    target_pool = lexicon[v - shared : 2 * v - shared]
    src_spec = replace(spec, count=source_count if source_count is not None else spec.count)
    tgt_spec = replace(spec, count=target_count if target_count is not None else spec.count, seed=spec.seed + 1)
    source = generate_corpus(src_spec, pool=source_pool, prefix="src")
    target = generate_corpus(tgt_spec, pool=target_pool, prefix="tgt")
    return source, target


def content_words(examples) -> set[str]:
    """All non-template words appearing in a corpus."""
    words: set[str] = set()
    for ex in examples:
        for sentence in (ex.premise, ex.hypothesis):
            words.update(sentence.split())
    return words - FUNCTION_WORDS
