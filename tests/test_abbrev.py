import re
import unicodedata

import numpy as np
import pytest

from clinli import abbrev
from clinli.data import NLIExample
from clinli.errors import DataError, ParseError


def table_from(entries):
    return abbrev.AbbrevTable(entries=entries)


def mark_class() -> str:
    """The inside of the token-character pattern's class of combining marks."""
    return abbrev._word_char().rsplit("[", 1)[1][:-1]


class TestLoadTable:
    def test_single_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("NSR\tnormal sinus rhythm\n", encoding="utf-8")
        table = abbrev.load_table(path)
        assert table.entries == [("NSR", "normal sinus rhythm")]

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("# header\n\nMI\tmyocardial infarction\n", encoding="utf-8")
        assert len(abbrev.load_table(path)) == 1

    def test_duplicate_surface_names_lines(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("MI\tmyocardial infarction\nMI\tmitral insufficiency\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            abbrev.load_table(path)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("NSR\tnormal sinus rhythm\nbroken line\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            abbrev.load_table(path)

    def test_empty_file_gives_identity_table(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("", encoding="utf-8")
        table = abbrev.load_table(path)
        assert len(table) == 0
        assert abbrev.expand("Patient has NSR", table) == "Patient has NSR"

    def test_expansion_equal_to_surface_rejected(self):
        with pytest.raises(DataError):
            table_from([("NSR", "nsr")])

    def test_demo_table_bundled(self):
        table = abbrev.demo_table()
        assert ("NSR", "normal sinus rhythm") in table.entries


class TestExpand:
    def test_expansion_in_context(self):
        table = table_from([("NSR", "normal sinus rhythm")])
        out = abbrev.expand("Patient has NSR post-cardioversion", table)
        assert out == "Patient has normal sinus rhythm post-cardioversion"

    def test_no_surface_means_identity(self):
        table = table_from([("CHF", "congestive heart failure")])
        text = "He denied headache or nausea or vomiting."
        assert abbrev.expand(text, table) == text

    def test_longest_match_wins(self):
        table = table_from([("A", "B"), ("AB", "C")])
        assert abbrev.expand("AB", table) == "C"

    def test_word_boundaries_respected(self):
        table = table_from([("MI", "myocardial infarction")])
        assert abbrev.expand("MIMIC notes MI today", table) == "MIMIC notes myocardial infarction today"
        # alphanumeric in any script is inside a token; an underscore or a bracket is not
        assert abbrev.expand("caféMI MIé 2MI MI2 (MI) MI_x", table) == \
            "caféMI MIé 2MI MI2 (myocardial infarction) myocardial infarction_x"
        table = table_from([("pt", "patient")])
        assert abbrev.expand("ptérygion pt_x рpt pt", table) == "ptérygion patient_x рpt patient"

    def test_combining_marks_are_inside_a_token(self):
        table = table_from([("MI", "myocardial infarction")])
        # decomposed e + U+0301 and I + U+0301, a spacing mark (Mc) and an astral mark (Mn)
        for text in ("cafe\u0301MI", "MI\u0301", "MI\u093e", "\U00011127MI", "MI\u20dd"):
            assert abbrev.expand(text, table) == text
        # composed text expands as before, and a mark beyond a space is no neighbour
        assert abbrev.expand("caf\u00e9 MI \u0301, M\u00cd", table) == "caf\u00e9 myocardial infarction \u0301, M\u00cd"
        # a surface ending in a mark is still the longer match
        table = table_from([("MI", "myocardial infarction"), ("MI\u0301", "X")])
        assert abbrev.expand("MI\u0301 MI", table) == "X myocardial infarction"

    def test_mark_class_holds_every_combining_mark(self):
        # the pattern scans two spans of code points only; a Unicode with marks elsewhere fails here
        marks = {c for c in map(chr, range(0x110000)) if unicodedata.category(c)[0] == "M"}
        ranges = re.findall("(.)-(.)", mark_class(), re.DOTALL)
        assert {chr(cp) for lo, hi in ranges for cp in range(ord(lo), ord(hi) + 1)} == marks

    def test_mark_ranges_match_as_the_literal_marks(self):
        # the class as the literal marks, one character each, matches every code point alike
        spans = (range(0x300, 0x20000), range(0xE0000, 0xE1000))
        literal = "".join(c for span in spans for c in map(chr, span) if unicodedata.category(c)[0] == "M")
        ranges = re.compile(f"[{mark_class()}]", re.IGNORECASE)
        everything = "".join(map(chr, range(0x110000)))
        assert ranges.findall(everything) == re.compile(f"[{literal}]", re.IGNORECASE).findall(everything)

    def test_case_insensitive_by_default(self):
        table = table_from([("CHF", "congestive heart failure")])
        assert abbrev.expand("chf, EF 55%", table) == "congestive heart failure, EF 55%"

    # the case-insensitive pattern matches these, though their casefolds differ from the surface's
    @pytest.mark.parametrize("surface,text", [
        ("i", "\u0131"),  # dotless i
        ("i", "\u0130"),  # dotted capital I
        ("\u0131", "i"),
        ("\u0131", "I"),
        ("iv", "pt given \u0130V"),
    ])
    def test_match_expands_to_the_entry_it_matched(self, surface, text):
        table = table_from([(surface, "EXPANDED")])
        assert abbrev.expand(text, table) == text[:-len(surface)] + "EXPANDED"

    def test_no_recursive_expansion(self):
        # the expansion of "A" contains surface "B", which must not rescan
        table = table_from([("A", "B plus"), ("B", "C")])
        assert abbrev.expand("A and B", table) == "B plus and C"

    def test_replacement_confined_to_matched_spans(self):
        rng = np.random.default_rng(5)
        table = table_from([("NSR", "normal sinus rhythm"), ("EF", "ejection fraction")])
        words = ["alpha", "beta", "NSR", "gamma", "EF", "delta"]
        for _ in range(50):
            k = rng.integers(3, 9)
            toks = list(rng.choice(words, size=k))
            text = " ".join(toks)
            out = abbrev.expand(text, table)
            rebuilt = " ".join(
                {"NSR": "normal sinus rhythm", "EF": "ejection fraction"}.get(t, t) for t in toks
            )
            assert out == rebuilt


class TestExpandDataset:
    def _examples(self):
        return [
            NLIExample("Ruled in for NSTEMI with troponin 0.11.", "The patient has myocardial ischemia.", "entailment", "a"),
            NLIExample("CHF, EF 55% 6.", "complains of shortness of breath", "neutral", "b"),
            NLIExample("Her CXR was clear.", "Chest x-ray showed infiltrates", "contradiction", "c"),
        ]

    def test_counts_and_label_preservation(self):
        table = abbrev.demo_table()
        out, counts = abbrev.expand_dataset(self._examples(), table)
        assert [ex.gold_label for ex in out] == [ex.gold_label for ex in self._examples()]
        assert [ex.pair_id for ex in out] == ["a", "b", "c"]
        assert counts["chf"] == 1
        assert counts["ef"] == 1
        assert counts["cxr"] == 1
        assert counts["nstemi"] == 1
        assert counts.total() == sum(counts.values())

    def test_abbreviation_free_dataset_unchanged(self):
        table = table_from([("ZZZ", "zed zed zed")])
        examples = self._examples()
        out, counts = abbrev.expand_dataset(examples, table)
        assert out == examples
        assert counts.total() == 0

    def test_idempotent_when_expansions_contain_no_surfaces(self):
        table = abbrev.demo_table()
        surfaces = {s.casefold() for s, _ in table.entries}
        for _, expansion in table.entries:
            for w in expansion.split():
                assert w.casefold() not in surfaces
        once, _ = abbrev.expand_dataset(self._examples(), table)
        twice, counts = abbrev.expand_dataset(once, table)
        assert twice == once
        assert counts.total() == 0
