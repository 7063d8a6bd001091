"""Dictionary-based expansion of clinical abbreviations.

Tables are tab-separated ``surface<TAB>expansion`` files (UTF-8, one entry
per line, ``#`` comment lines and blank lines ignored).  Expansion makes a
single left-to-right pass over the text: at each position the longest
matching surface wins, matches must sit on token boundaries (no
alphanumeric character on either side, so "MI" never fires inside
"MIMIC"), matching is case-insensitive, and replaced spans are
never rescanned, which rules out recursive expansion.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from .data import NLIExample, read_text
from .errors import DataError, ParseError

__all__ = ["AbbrevTable", "ExpansionReport", "demo_table", "expand", "expand_dataset", "load_table"]


@dataclass
class AbbrevTable:
    """Ordered abbreviation entries, matched case-insensitively."""

    entries: list[tuple[str, str]]
    _pattern: re.Pattern | None = field(default=None, repr=False, compare=False)
    _ordered: list[tuple[str, str]] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        seen: dict[str, int] = {}
        for i, (surface, expansion) in enumerate(self.entries):
            if not surface:
                raise DataError(f"entry {i + 1}: empty surface")
            key = surface.casefold()
            if key in seen:
                raise DataError(f"duplicate surface {surface!r} (entries {seen[key] + 1} and {i + 1})")
            seen[key] = i
            if expansion.casefold() == key:
                raise DataError(f"entry {i + 1}: expansion equals its surface {surface!r}")
        if self.entries:
            # one capture group per entry, so a match names its entry by group number
            self._ordered = sorted(self.entries, key=lambda kv: -len(kv[0]))
            alternation = "|".join(f"({re.escape(s)})" for s, _ in self._ordered)
            self._pattern = re.compile(rf"(?<![0-9A-Za-z])(?:{alternation})(?![0-9A-Za-z])", re.IGNORECASE)

    def __len__(self) -> int:
        return len(self.entries)


def load_table(path) -> AbbrevTable:
    """Parse a tab-separated abbreviation table, preserving file order."""
    entries: list[tuple[str, str]] = []
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise ParseError(f"{path}:{lineno}: expected 'surface<TAB>expansion', got {line!r}")
        surface, expansion = fields[0].strip(), fields[1].strip()
        key = surface.casefold()
        if key in line_of:
            raise DataError(f"{path}:{lineno}: duplicate surface {surface!r} (first at line {line_of[key]})")
        if expansion.casefold() == key:
            raise DataError(f"{path}:{lineno}: expansion equals its surface {surface!r}")
        line_of[key] = lineno
        entries.append((surface, expansion))
    return AbbrevTable(entries=entries)


def demo_table() -> AbbrevTable:
    """The small abbreviation table bundled with the package."""
    ref = resources.files("clinli").joinpath("data/abbrev_demo.tsv")
    with resources.as_file(ref) as path:
        return load_table(path)


def _expand_counting(text: str, table: AbbrevTable, counts: Counter) -> str:
    if table._pattern is None:
        return text

    def repl(match: re.Match) -> str:
        surface, expansion = table._ordered[match.lastindex - 1]
        counts[surface.casefold()] += 1
        return expansion

    return table._pattern.sub(repl, text)


def expand(text: str, table: AbbrevTable) -> str:
    """Replace every whole-token abbreviation by its expansion."""
    return _expand_counting(text, table, Counter())


@dataclass
class ExpansionReport:
    counts: dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def expand_dataset(examples, table: AbbrevTable) -> tuple[list[NLIExample], ExpansionReport]:
    """Expand premise and hypothesis of every example; labels and ids are
    untouched.  Returns the new examples and per-surface replacement counts."""
    counts: Counter = Counter()
    out = [
        NLIExample(
            premise=_expand_counting(ex.premise, table, counts),
            hypothesis=_expand_counting(ex.hypothesis, table, counts),
            gold_label=ex.gold_label,
            pair_id=ex.pair_id,
        )
        for ex in examples
    ]
    return out, ExpansionReport(counts=dict(counts))
