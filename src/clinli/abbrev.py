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
from dataclasses import InitVar, dataclass, field
from importlib import resources

from .data import NLIExample, read_text
from .errors import DataError, ParseError

__all__ = ["AbbrevTable", "ExpansionReport", "demo_table", "expand", "expand_dataset", "load_table"]


@dataclass
class AbbrevTable:
    """Ordered abbreviation entries, matched case-insensitively.  Messages
    name an entry by its position, or by ``path`` and its ``lines`` entry."""

    entries: list[tuple[str, str]]
    lines: InitVar[list[int] | None] = None
    path: InitVar[str | None] = None
    _pattern: re.Pattern | None = field(default=None, repr=False, compare=False)
    _ordered: list[int] = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self, lines, path):
        if not self.entries:
            return
        # one capture group per entry, longest first, so a match names its entry by group number
        self._ordered = sorted(range(len(self.entries)), key=lambda i: -len(self.entries[i][0]))
        alternation = "|".join(f"({re.escape(self.entries[i][0])})" for i in self._ordered)
        self._pattern = re.compile(rf"(?<![0-9A-Za-z])(?:{alternation})(?![0-9A-Za-z])", re.IGNORECASE)
        numbers = lines or range(1, len(self.entries) + 1)
        at, unit = (f"{path}:", "line") if lines else ("entry ", "entry")
        for i, (surface, expansion) in enumerate(self.entries):
            if not surface:
                raise DataError(f"{at}{numbers[i]}: empty surface")
            # the entry the matcher reads this surface as: an earlier one makes this one a duplicate
            first = self._ordered[self._pattern.fullmatch(surface).lastindex - 1]
            if first != i:
                raise DataError(f"{at}{numbers[i]}: duplicate surface {surface!r} (first at {unit} {numbers[first]})")
            if expansion.casefold() == surface.casefold():
                raise DataError(f"{at}{numbers[i]}: expansion equals its surface {surface!r}")

    def __len__(self) -> int:
        return len(self.entries)


def load_table(path) -> AbbrevTable:
    """Parse a tab-separated abbreviation table, preserving file order."""
    entries: list[tuple[str, str]] = []
    lines: list[int] = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0].strip() or not fields[1].strip():
            raise ParseError(f"{path}:{lineno}: expected 'surface<TAB>expansion', got {line!r}")
        entries.append((fields[0].strip(), fields[1].strip()))
        lines.append(lineno)
    return AbbrevTable(entries=entries, lines=lines, path=str(path))


def demo_table() -> AbbrevTable:
    """The small abbreviation table bundled with the package."""
    ref = resources.files("clinli").joinpath("data/abbrev_demo.tsv")
    with resources.as_file(ref) as path:
        return load_table(path)


def _expand_counting(text: str, table: AbbrevTable, counts: Counter) -> str:
    if table._pattern is None:
        return text

    def repl(match: re.Match) -> str:
        surface, expansion = table.entries[table._ordered[match.lastindex - 1]]
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
