"""Versioned binary checkpoints with a plain-text metric sidecar.

Layout: an 8-byte magic, a length-prefixed canonical-JSON header (format
version, model kind, config, vocabulary, tokenizer mode, training
provenance, best step, and ordered block descriptors), then the raw
little-endian float64 payload of every block in descriptor order.  A trained
checkpoint's blocks are the model parameters, in the order the model makes
them (``model.initializers``); ``adam_m``/``adam_v`` add ``adam.*`` blocks.

Saving also writes ``<file>.metrics.tsv`` with one evaluation per row
(step, train_loss, dev_loss, dev_accuracy); loading reads it back when
present, and ``best_step`` (0 for none) names the row whose parameters the
file holds.  Save -> load -> save is byte-identical.  Each file is written to
a temporary file and moved into place (``data.write_atomic``), so a save that
fails leaves each file either as it was or whole, never cut short.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .compaggr import CompAggrModel
from .data import _SURROGATE, read_text, write_atomic
from .errors import ConfigError, DataError, ParseError
from .model import parse_config
from .tokenizer import Vocabulary
from .transformer import TransformerClassifier

__all__ = [
    "MODEL_KINDS", "Checkpoint", "Header", "MetricRow", "load_checkpoint", "make_model_config", "model_from_checkpoint",
    "save_checkpoint",
]

MAGIC = b"CLINLI01"
FORMAT_VERSION = 3
_SIDECAR_HEADER = "step\ttrain_loss\tdev_loss\tdev_accuracy"

# The one place a model kind is decided: checkpoint headers, run configs and
# the command line name a kind, and its class gives the config class and the
# one tokenizer mode of the kind (``PairClassifier.tokenizer_mode``).
MODEL_KINDS = {cls.kind: cls for cls in (TransformerClassifier, CompAggrModel)}


def make_model_config(kind, raw, where):
    """The config object of model ``kind`` from a JSON object read from
    ``where``; an unknown kind or a malformed config ends in a ConfigError
    naming ``where``."""
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ConfigError(f"{where}: model kind must be one of {list(MODEL_KINDS)}, got {kind!r}")
    return parse_config(MODEL_KINDS[kind].config_class, raw, where)


@dataclass
class Header:
    """The JSON header of a checkpoint file.  Saving writes it as it is;
    loading checks every field (``_read_header``)."""

    format_version: int
    kind: str
    config: dict
    vocab: tuple[str, ...]
    tokenizer_mode: str
    provenance: tuple[str, ...]
    best_step: int  # the step of the history row whose parameters the blocks hold; 0 for none
    blocks: tuple[dict, ...]  # {"name": str, "shape": [int, ...]} in payload order


@dataclass
class MetricRow:
    step: int
    train_loss: float
    dev_loss: float
    dev_accuracy: float


@dataclass
class Checkpoint:
    kind: str
    model_config: dict
    vocab_tokens: list[str]
    tokenizer_mode: str
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    best_step: int = 0
    provenance: list[str] = field(default_factory=list)
    history: list[MetricRow] = field(default_factory=list)

    def best(self) -> MetricRow | None:
        """The evaluation whose parameters the checkpoint holds (the row of
        step ``best_step``); None when no row has that step, as when there is
        no history.  For a chain this is an evaluation of its final stage."""
        return next((row for row in self.history if row.step == self.best_step), None)


def _blocks(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    out = [(name, arr) for name, arr in ckpt.params.items()]
    out += [(f"adam.m.{name}", arr) for name, arr in ckpt.adam_m.items()]
    out += [(f"adam.v.{name}", arr) for name, arr in ckpt.adam_v.items()]
    return out


def metrics_path(path) -> Path:
    return Path(str(path) + ".metrics.tsv")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    blocks = _blocks(ckpt)
    header = Header(FORMAT_VERSION, ckpt.kind, ckpt.model_config, ckpt.vocab_tokens, ckpt.tokenizer_mode,
                    ckpt.provenance, ckpt.best_step, [{"name": name, "shape": list(arr.shape)} for name, arr in blocks])
    header_bytes = json.dumps(vars(header), sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")
    with write_atomic(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with write_atomic(metrics_path(path)) as fh:
        fh.write(_SIDECAR_HEADER + "\n")
        for row in ckpt.history:
            fh.write(f"{row.step}\t{row.train_loss!r}\t{row.dev_loss!r}\t{row.dev_accuracy!r}\n")


def _read_exact(path, fh, count: int, what: str) -> bytes:
    # checked against the file size first, so a garbled length never
    # allocates more than the file holds
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise ParseError(f"{path}: truncated {what} ({count} bytes expected, {left} left)")
    return fh.read(count)


def _read_header(path, fh) -> Header:
    (header_len,) = struct.unpack("<I", _read_exact(path, fh, 4, "header length"))
    raw = _read_exact(path, fh, header_len, "header")
    try:
        fields = json.loads(raw.decode("ascii"))
        # before the schema, which an older version's header does not follow
        if isinstance(fields, dict) and fields.get("format_version", FORMAT_VERSION) != FORMAT_VERSION:
            raise ParseError(f"{path}: unsupported format_version {fields['format_version']!r}")
        header = parse_config(Header, fields, path)
        make_model_config(header.kind, header.config, path)
        mode = MODEL_KINDS[header.kind].tokenizer_mode
        if header.tokenizer_mode != mode:
            raise ParseError(f"{path}: a {header.kind} model reads tokenizer_mode {mode!r}, "
                             f"not {header.tokenizer_mode!r}")
    except (ValueError, RecursionError) as exc:  # ValueError: not ASCII, not JSON, an int of over 4,300 digits
        raise ParseError(f"{path}: garbled header ({exc})") from None
    except ConfigError as exc:  # its message names the file
        raise ParseError(str(exc)) from None
    names = set()
    for desc in header.blocks:  # a plain loop: a transformer checkpoint has over a hundred blocks
        name, shape = desc.get("name"), desc.get("shape")
        if len(desc) == 2 and type(name) is str and name not in names and type(shape) is list:
            for n in shape:
                if type(n) is not int or n < 0:
                    break
            else:
                names.add(name)
                continue
        raise ParseError(f"{path}: block descriptor {desc!r} is malformed or repeats a name")
    if _SURROGATE.search("".join(names)):
        raise ParseError(f"{path}: a block name holds a lone surrogate, which is not text")
    return header


def _read_history(mpath: Path) -> list[MetricRow]:
    history: list[MetricRow] = []
    lines = read_text(mpath).split("\n")  # not splitlines(), which also breaks at \x0c, \x85, \u2028 and the like
    if not lines[-1]:
        lines.pop()  # the newline that ends the last row
    if lines[:1] != [_SIDECAR_HEADER]:
        raise ParseError(f"{mpath}:1: expected the header line {_SIDECAR_HEADER!r}, got {lines[:1]}")
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            step, tl, dl, da = line.split("\t")
            history.append(MetricRow(int(step), float(tl), float(dl), float(da)))
        except ValueError:
            raise ParseError(
                f"{mpath}:{lineno}: expected step, train_loss, dev_loss and dev_accuracy, got {line!r}"
            ) from None
    return history


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint and its metric sidecar; any malformed content ends
    in a ParseError naming the file (and the sidecar line)."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file (magic {magic!r})")
        header = _read_header(path, fh)
        arrays: dict[str, np.ndarray] = {}
        for desc in header.blocks:
            name, shape = desc["name"], desc["shape"]
            buf = _read_exact(path, fh, math.prod(shape) * 8, f"block {name}")
            try:  # numpy caps the rank and each dimension, even of an empty block
                arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
            except ValueError as exc:
                raise ParseError(f"{path}: block {name} of shape {shape}: {exc}") from None
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after the last block")

    params, adam_m, adam_v = {}, {}, {}
    for name, arr in arrays.items():
        if name.startswith("adam.m."):
            adam_m[name.removeprefix("adam.m.")] = arr
        elif name.startswith("adam.v."):
            adam_v[name.removeprefix("adam.v.")] = arr
        else:
            params[name] = arr

    mpath = metrics_path(path)
    history = []
    if mpath.exists():
        history = _read_history(mpath)
        if header.best_step not in {0, *(row.step for row in history)}:
            raise ParseError(f"{mpath}:{len(history) + 2}: no row of step {header.best_step}, "
                             f"the best_step of {path}")

    return Checkpoint(kind=header.kind, model_config=header.config, vocab_tokens=list(header.vocab),
                      tokenizer_mode=header.tokenizer_mode, params=params, adam_m=adam_m, adam_v=adam_v,
                      best_step=header.best_step, provenance=list(header.provenance), history=history)


def model_from_checkpoint(ckpt: Checkpoint, where="checkpoint"):
    """Rebuild a model of the checkpointed kind from its stored parameter
    blocks, which each of its makers takes in creation order.  A config,
    vocabulary or block that does not fit the model, and a block left over,
    end in an error naming ``where``, the file the checkpoint was read from.
    A block is checked before the model allocates it, so a header config
    claiming a huge dimension is rejected at no more cost than the file."""
    config = make_model_config(ckpt.kind, ckpt.model_config, where)
    try:
        vocab = Vocabulary(list(ckpt.vocab_tokens))
        model = MODEL_KINDS[ckpt.kind](config, vocab, stored=ckpt.params)
    except DataError as exc:
        raise ParseError(f"{where}: {exc}") from None
    return model
