"""Dictionary-based abbreviation expansion on clinical-style sentences.

Whole-token matching keeps "MI" from firing inside "MIMIC", longest match
wins, and replaced spans are never rescanned.
"""

from clinli.abbrev import demo_table, expand, expand_dataset
from clinli.data import NLIExample

table = demo_table()
print(f"demo table: {len(table)} entries, e.g. {table.entries[:3]}")

sentences = [
    "Patient has NSR post-cardioversion",
    "CHF, EF 55% 6.",
    "Ruled in for NSTEMI with troponin 0.11.",
    "MIMIC notes do not mention MI",
    "He denied headache or nausea or vomiting.",
]
for s in sentences:
    print(f"  {s!r}\n   -> {expand(s, table)!r}")

examples = [
    NLIExample("Her CXR was clear and showed no infection.", "Chest x-ray showed infiltrates", "contradiction", "d1"),
    NLIExample("CHF, EF 55% 6.", "complains of SOB", "neutral", "d2"),
]
expanded, counts = expand_dataset(examples, table)
print("\nper-surface replacement counts:", dict(counts))
print("labels untouched:", [ex.gold_label for ex in expanded])
