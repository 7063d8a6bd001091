"""Fuzz tests of checkpoint loading.

Every corrupted checkpoint or metric sidecar either loads or ends in a
ParseError that names the file (the sidecar also names the line), and
rebuilding a model from anything that loads raises nothing but a
ClinliError.  The runs are derandomized and keep no example database, so
they are deterministic and write nothing into the checkout.
"""

import json
import re
import struct
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis import strategies as st

from clinli.checkpoint import (
    MAGIC, Checkpoint, Header, MetricRow, load_checkpoint, metrics_path, model_from_checkpoint, save_checkpoint,
)
from clinli.compaggr import CompAggrConfig, CompAggrModel
from clinli.errors import ClinliError, ParseError
from clinli.tokenizer import build_word_vocab, train_wordpiece
from clinli.transformer import TransformerClassifier, TransformerConfig

# Hypothesis caches the constants it finds in the source while pytest
# collects, before any fixture runs: keep that cache out of the checkout.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "clinli-hypothesis")
FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# Config values take huge integers too: each stored block is checked before
# the model makes it, so a dimension of 2**63 is rejected before anything is
# allocated.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.sampled_from([2**31, 2**63, 10**20, -(2**63)])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@dataclass
class Original:
    """A saved checkpoint: its path, its bytes and its sidecar's, its header
    as a dict, and the offset where the payload starts."""

    path: Path
    blob: bytes = field(repr=False)
    sidecar: bytes = field(repr=False)
    header: dict = field(repr=False)
    payload_at: int = field(repr=False)


SENTENCES = ["the patient has a fever", "no fever today"]
TINY_MODELS = {
    "transformer": lambda: TransformerClassifier(
        TransformerConfig(d_e=4, num_heads=2, num_blocks=1, d_ff=4, max_len=8, dropout=0.0),
        train_wordpiece(SENTENCES, target_size=40), seed=0,
    ),
    "compaggr": lambda: CompAggrModel(
        CompAggrConfig(word_dim=4, repr_dim=4, filters_per_width=2, dropout=0.0), build_word_vocab(SENTENCES), seed=0,
    ),
}


@pytest.fixture(scope="module", params=list(TINY_MODELS))
def original(request, tmp_path_factory):
    model = TINY_MODELS[request.param]()
    params = {name: p.data.copy() for name, p in model.parameters().items()}
    ckpt = Checkpoint(
        kind=model.kind, model_config=model.config_dict(), vocab_tokens=list(model.vocab.tokens),
        tokenizer_mode=model.tokenizer_mode, params=params,
        adam_m={n: np.zeros_like(a) for n, a in params.items()},
        adam_v={n: np.ones_like(a) for n, a in params.items()},
        best_step=3, provenance=["S", "T"], history=[MetricRow(i, 1.0 / i, 1.5 / i, 0.25 * i) for i in range(1, 4)],
    )
    path = tmp_path_factory.mktemp(request.param) / "m.ckpt"
    save_checkpoint(ckpt, path)
    blob = path.read_bytes()
    payload_at = 12 + struct.unpack("<I", blob[8:12])[0]
    return Original(path, blob, metrics_path(path).read_bytes(), json.loads(blob[12:payload_at]), payload_at)


def write(original, blob: bytes, sidecar: bytes | None = None):
    original.path.write_bytes(blob)
    metrics_path(original.path).write_bytes(original.sidecar if sidecar is None else sidecar)
    return original.path


def load_or_reject(path, named: str):
    """Load ``path``; a ParseError must match ``named``.  A model rebuilt
    from what loads may raise only a ClinliError, and it must match
    ``named`` too."""
    try:
        ckpt = load_checkpoint(path)
    except ParseError as exc:
        assert re.search(named, str(exc)), exc
        return
    try:
        model_from_checkpoint(ckpt, path)
    except ClinliError as exc:
        assert re.search(named, str(exc)), exc


@FUZZ
@given(data=st.data())
def test_flipped_or_truncated_bytes_load_or_name_the_file(original, data):
    raw = bytearray(original.blob)
    position = st.integers(0, original.payload_at - 1) | st.integers(0, len(raw) - 1)  # the header half the time
    for at, mask in data.draw(st.lists(st.tuples(position, st.integers(1, 255)), max_size=3), label="flips"):
        raw[at] ^= mask
    keep = data.draw(st.none() | st.integers(0, len(raw)), label="truncate to")
    path = write(original, bytes(raw[:keep]))
    load_or_reject(path, re.escape(str(path)))


@FUZZ
@given(data=st.data())
def test_mutated_header_fields_load_or_name_the_file(original, data):
    header = json.loads(json.dumps(original.header))  # a fresh copy
    where = data.draw(st.sampled_from(["header", "config", "block"]), label="where")
    if where == "header":
        obj, keys = header, [f.name for f in fields(Header)]
    elif where == "config":
        obj, keys = header["config"], sorted(header["config"])
    else:
        obj, keys = data.draw(st.sampled_from(header["blocks"]), label="block"), ["name", "shape"]
    key = data.draw(st.sampled_from(keys) | st.text(max_size=6), label="key")
    if key in obj and data.draw(st.booleans(), label="delete"):
        del obj[key]
    else:
        obj[key] = data.draw(JSON_VALUES, label="value")
    header_bytes = json.dumps(header).encode("ascii")
    payload = original.blob[original.payload_at :]
    path = write(original, MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + payload)
    load_or_reject(path, re.escape(str(path)))


@FUZZ
@given(data=st.data())
def test_edited_sidecar_lines_load_or_name_the_line(original, data):
    lines = original.sidecar.split(b"\n")
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    text = st.binary(max_size=12) | st.text(max_size=12).map(str.encode)
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "field"]), label="edit")
    if edit == "replace":
        lines[at] = data.draw(text, label="text")
    elif edit == "insert":
        lines.insert(at, data.draw(text, label="text"))
    elif edit == "delete":
        del lines[at]
    else:
        cells = lines[at].split(b"\t")
        cells[data.draw(st.integers(0, len(cells) - 1), label="field")] = data.draw(text, label="text")
        lines[at] = b"\t".join(cells)
    path = write(original, original.blob, b"\n".join(lines))
    load_or_reject(path, re.escape(str(metrics_path(path))) + r":\d+: ")
