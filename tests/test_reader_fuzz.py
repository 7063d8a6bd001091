"""Fuzz tests of the text readers: datasets, prediction files, abbreviation
tables and run configs.

Every corrupted file either loads or ends in a ClinliError whose message
names the file and the line (a run config may name the key instead).
The runs are derandomized and keep no example database, so they are
deterministic and write nothing into the checkout.
"""

import json
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis import strategies as st

from clinli.abbrev import expand, load_table
from clinli.cli import RunConfig, load_run_config
from clinli.data import LABELS, NLIExample, load_jsonl
from clinli.errors import ClinliError, DataError
from clinli.evaluate import Prediction, read_predictions, write_predictions

# Hypothesis caches the constants it finds in the source while pytest
# collects, before any fixture runs: keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clinli-hypothesis")
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
LINE_TEXT = st.binary(max_size=16) | st.text(max_size=16).map(str.encode)

DATASET = b"".join(
    json.dumps({"sentence1": "pt has MI", "sentence2": h, "gold_label": label, "pairID": f"p{i}"}).encode() + b"\n"
    for i, (h, label) in enumerate(zip(["pt had an MI", "pt is well", "pt is febrile"], LABELS))
)
PREDICTIONS = b"p0\t0.8\t0.1\t0.1\tentailment\np1\t0.2\t0.5\t0.3\tcontradiction\np2\t0.25\t0.25\t0.5\tneutral\n"
TABLE = b"# surface<TAB>expansion\nMI\tmyocardial infarction\n\nCHF\tcongestive heart failure\n"
RUN_CONFIG = {
    "model": "compaggr", "tokenizer": "word", "vocab_size": 200, "model_config": {"word_dim": 8},
    "train_config": {"max_epochs": 2}, "head_reset": "keep", "abbrev_table": "abbrev.tsv", "seed": 3,
    "chain": [{"name": "S", "train": "t.jsonl", "dev": "d.jsonl", "train_config": {"batch_size": 4}}],
}


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input"


def edited_bytes(data, original: bytes) -> bytes:
    """``original`` with a few bytes flipped or inserted, a line replaced,
    inserted or deleted, or the end cut off."""
    edit = data.draw(st.sampled_from(["bytes", "line", "truncate"]), label="edit")
    if edit == "bytes":
        raw = bytearray(original)
        for at, value in data.draw(st.lists(st.tuples(st.integers(0, len(raw)), st.integers(0, 255)), max_size=3),
                                   label="bytes"):
            if data.draw(st.booleans(), label="insert"):
                raw.insert(at, value)
            elif at < len(raw):
                raw[at] ^= value
        return bytes(raw)
    if edit == "line":
        lines = original.split(b"\n")
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        action = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="action")
        if action == "delete":
            del lines[at]
        elif action == "insert":
            lines.insert(at, data.draw(LINE_TEXT, label="text"))
        else:
            lines[at] = data.draw(LINE_TEXT, label="text")
        return b"\n".join(lines)
    return original[: data.draw(st.integers(0, len(original)), label="keep")]


def load_or_name_the_line(reader, path, blob: bytes):
    """Read ``blob`` from ``path``; a failure must be a ClinliError naming
    ``path:line``.  Returns what loaded, or None."""
    path.write_bytes(blob)
    try:
        return reader(path)
    except ClinliError as exc:
        assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), exc
        return None


@FUZZ
@given(data=st.data())
def test_edited_datasets_load_or_name_the_line(path, data):
    if data.draw(st.booleans(), label="edit a value"):
        lines = DATASET.decode().splitlines()
        at = data.draw(st.integers(0, len(lines) - 1), label="line")
        obj = json.loads(lines[at])
        key = data.draw(st.sampled_from(sorted(obj)) | st.text(max_size=6), label="key")
        if key in obj and data.draw(st.booleans(), label="delete"):
            del obj[key]
        else:
            obj[key] = data.draw(JSON_VALUES, label="value")
        lines[at] = json.dumps(obj)
        blob = "\n".join(lines).encode()
    else:
        blob = edited_bytes(data, DATASET)
    for ex in load_or_name_the_line(load_jsonl, path, blob) or []:
        assert all(isinstance(v, str) for v in (ex.premise, ex.hypothesis, ex.gold_label))
        assert ex.pair_id is None or isinstance(ex.pair_id, str)


@FUZZ
@given(data=st.data())
def test_edited_prediction_files_load_or_name_the_line(path, data):
    for row in load_or_name_the_line(read_predictions, path, edited_bytes(data, PREDICTIONS)) or []:
        assert row.probs.shape == (3,) and row.predicted_label in LABELS


@FUZZ
@given(pair_id=st.text(st.sampled_from("\t\n\r\x0b\x0c\x1c\x85\u2028 p1") | st.characters(codec="utf-8"), max_size=8))
def test_pair_ids_a_dataset_accepts_survive_a_predictions_file(path, pair_id):
    try:
        NLIExample("pt has MI", "pt is ill", "neutral", pair_id)
    except DataError:
        assert any(ch in pair_id for ch in "\t\n\r"), pair_id  # the rows' field and line separators
        return
    write_predictions(path, [Prediction(pair_id, [0.2, 0.3, 0.5])])
    assert [p.pair_id for p in read_predictions(path)] == [pair_id]


@FUZZ
@given(data=st.data())
def test_edited_abbreviation_tables_load_or_name_the_line(path, data):
    table = load_or_name_the_line(load_table, path, edited_bytes(data, TABLE))
    if table is not None:
        assert isinstance(expand("pt with MI and CHF", table), str)


# letters case-insensitive matching equates: i ı İ I (whose casefolds differ), k K and the Kelvin sign, s ſ
CASE_LETTERS = "i\u0131\u0130IkK\u212as\u017f"


@FUZZ
@given(surfaces=st.lists(st.text(st.sampled_from(CASE_LETTERS), min_size=1, max_size=3), min_size=1, max_size=6))
def test_every_entry_of_a_table_that_loads_expands_its_own_surface(path, surfaces):
    path.write_text("".join(f"{s}\tx{n}\n" for n, s in enumerate(surfaces)), encoding="utf-8")
    try:
        table = load_table(path)
    except DataError as exc:
        assert re.match(re.escape(str(path)) + r":\d+: duplicate surface .* \(first at line \d+\)$", str(exc)), exc
        return
    assert [expand(surface, table) for surface, _ in table.entries] == [e for _, e in table.entries]


@FUZZ
@given(data=st.data())
def test_edited_run_configs_load_or_name_the_line_or_key(path, data):
    """A run config names the line of a decoding or JSON error, and the key
    of a value error; a document that is not an object is named whole."""
    keys = [f.name for f in fields(RunConfig)]
    if data.draw(st.booleans(), label="edit a value"):
        raw = dict(RUN_CONFIG)
        key = data.draw(st.sampled_from(keys) | st.text(max_size=6), label="key")
        if key in raw and data.draw(st.booleans(), label="delete"):
            del raw[key]
        else:
            raw[key] = data.draw(JSON_VALUES, label="value")
        blob, named = json.dumps(raw, indent=1).encode(), [key]
    else:
        blob, named = edited_bytes(data, json.dumps(RUN_CONFIG, indent=1).encode()), keys
    path.write_bytes(blob)
    try:
        load_run_config(path)
    except ClinliError as exc:
        msg = str(exc)
        assert msg.startswith(f"{path}:"), msg
        assert (re.match(re.escape(str(path)) + r":\d+: ", msg) or "must be a JSON object" in msg
                or "unknown RunConfig keys" in msg or any(k in msg for k in named)), msg
