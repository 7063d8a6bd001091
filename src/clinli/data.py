"""Sentence-pair inference records and dataset file I/O.

Dataset files are JSONL with one object per line carrying ``sentence1``
(premise), ``sentence2`` (hypothesis), ``gold_label``, and an optional
``pairID``, so files in the common clinical NLI distribution schema load
without conversion.  Text passes through verbatim; no normalization or
de-identification handling is applied at load time.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, ParseError

__all__ = ["LABELS", "NLIExample", "NLITriple", "label_id", "load_jsonl", "read_text", "save_jsonl", "write_atomic"]

LABELS = ("entailment", "contradiction", "neutral")
_LABEL_TO_ID = {name: i for i, name in enumerate(LABELS)}
_SURROGATE = re.compile("[\ud800-\udfff]")


def label_id(label: str) -> int:
    try:
        return _LABEL_TO_ID[label]
    except KeyError:
        raise DataError(f"unknown label {label!r}; expected one of {LABELS}") from None


@dataclass
class NLIExample:
    premise: str
    hypothesis: str
    gold_label: str
    pair_id: str | None = None

    def __post_init__(self):
        if not self.premise or not self.hypothesis:
            raise DataError("premise and hypothesis must be non-empty")
        if self.gold_label not in LABELS:
            raise DataError(f"gold_label {self.gold_label!r} not in {LABELS}")
        if self.pair_id is not None and any(ch in self.pair_id for ch in "\t\n\r"):
            raise DataError(f"pairID {self.pair_id!r} holds a tab or a line break")


@dataclass
class NLITriple:
    """Three examples sharing one premise, one per class.  ``positions`` are
    the examples' indices in the dataset they came from; pairs without a
    pair id are named ``idx-<position>``."""

    examples: tuple[NLIExample, NLIExample, NLIExample]
    positions: tuple[int, int, int] = (0, 1, 2)

    def __post_init__(self):
        premises = {e.premise for e in self.examples}
        if len(premises) != 1:
            raise DataError("triple examples must share one premise")
        labels = sorted(e.gold_label for e in self.examples)
        if labels != sorted(LABELS):
            raise DataError(f"triple must cover all three classes exactly once, got {labels}")


def read_text(path) -> str:
    """The text of UTF-8 file ``path``, line endings read as text mode reads
    them.  A byte sequence that is not UTF-8 ends in a ParseError naming
    ``path:line``; no byte is replaced."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:  # read() decodes the whole file: exc.object is every byte of it
            line = exc.object.count(b"\n", 0, exc.start) + 1
            bad = exc.object[exc.start : exc.end]
            raise ParseError(f"{path}:{line}: not UTF-8 ({exc.reason}: {bad!r})") from None


@contextmanager
def write_atomic(path, binary: bool = False):
    """Write ``path`` (UTF-8 text, or bytes if ``binary``) through a temporary
    file in its directory: ``os.replace`` moves it into place when the block
    ends cleanly, and it is removed if the block raises, so ``path`` holds its
    old content or all of the new.  Nothing is fsynced: this guards against a
    failing writer, not a power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_jsonl(path) -> list[NLIExample]:
    """The examples of a JSONL dataset.  A line that is not a JSON object,
    lacks a key or holds a value that is not text (not a string, or a lone
    surrogate) ends in a DataError naming ``path:line``; a byte that is not
    UTF-8 in a ParseError."""
    examples = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # ValueError: also an integer of over 4,300 digits
            raise DataError(f"{path}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}:{lineno}: expected a JSON object, got {type(obj).__name__}")
        escaped = "\\u" in line  # only a \u escape makes a lone surrogate
        for key in ("sentence1", "sentence2", "gold_label", "pairID"):
            if key in obj and not isinstance(obj[key], str):
                raise DataError(f"{path}:{lineno}: {key} must be a string, got {obj[key]!r}")
            if escaped and key in obj and _SURROGATE.search(obj[key]):
                raise DataError(f"{path}:{lineno}: {key} holds a lone surrogate, which is not text: {obj[key]!r}")
        try:
            examples.append(NLIExample(premise=obj["sentence1"], hypothesis=obj["sentence2"],
                                       gold_label=obj["gold_label"], pair_id=obj.get("pairID")))
        except KeyError as exc:
            raise DataError(f"{path}:{lineno}: missing key {exc}") from None
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return examples


def save_jsonl(path, examples) -> None:
    with write_atomic(path) as fh:
        for ex in examples:
            obj = {"sentence1": ex.premise, "sentence2": ex.hypothesis, "gold_label": ex.gold_label}
            if ex.pair_id is not None:
                obj["pairID"] = ex.pair_id
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
