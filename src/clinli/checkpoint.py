"""Versioned binary checkpoints with a plain-text metric sidecar.

Layout: an 8-byte magic, a length-prefixed canonical-JSON header (format
version, model kind, config, vocabulary, tokenizer mode, training
provenance, optimizer step count, and ordered block descriptors), then the
raw little-endian float64 payload of every block in descriptor order.
Blocks hold the model parameters followed by the Adam moment estimates.

Saving also writes ``<file>.metrics.tsv`` with one evaluation per row
(step, train_loss, dev_loss, dev_accuracy); loading reads it back when
present.  Save -> load -> save is byte-identical.
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
from .errors import ConfigError, ParseError
from .model import parse_config
from .tokenizer import Vocabulary
from .transformer import TransformerClassifier

__all__ = [
    "MODEL_KINDS", "Checkpoint", "MetricRow", "load_checkpoint", "make_model_config", "model_from_checkpoint",
    "save_checkpoint",
]

MAGIC = b"CLINLI01"
FORMAT_VERSION = 1
_HEADER_KEYS = {"format_version", "kind", "config", "vocab", "tokenizer_mode", "provenance", "adam_t", "blocks"}

# The one place a model kind is decided: checkpoint headers, run configs and
# the command line name a kind, and its class gives the config class and the
# tokenizer modes it accepts (the first is the default).
MODEL_KINDS = {cls.kind: cls for cls in (TransformerClassifier, CompAggrModel)}


def make_model_config(kind, raw, where):
    """The config object of model ``kind`` from a JSON object read from
    ``where``; an unknown kind or a malformed config ends in a ConfigError
    naming ``where``."""
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ConfigError(f"{where}: model must be one of {list(MODEL_KINDS)}, got {kind!r}")
    return parse_config(MODEL_KINDS[kind].config_class, raw, where)


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
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0
    provenance: list[str] = field(default_factory=list)
    history: list[MetricRow] = field(default_factory=list)

    def best_dev_loss(self) -> float | None:
        return min((row.dev_loss for row in self.history), default=None)


def _blocks(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    out = [(name, arr) for name, arr in ckpt.params.items()]
    out += [(f"adam.m.{name}", arr) for name, arr in ckpt.adam_m.items()]
    out += [(f"adam.v.{name}", arr) for name, arr in ckpt.adam_v.items()]
    return out


def metrics_path(path) -> Path:
    return Path(str(path) + ".metrics.tsv")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    blocks = _blocks(ckpt)
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "config": ckpt.model_config,
        "vocab": ckpt.vocab_tokens,
        "tokenizer_mode": ckpt.tokenizer_mode,
        "provenance": ckpt.provenance,
        "adam_t": ckpt.adam_t,
        "blocks": [{"name": name, "shape": list(arr.shape)} for name, arr in blocks],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    with open(metrics_path(path), "w", encoding="utf-8") as fh:
        fh.write("step\ttrain_loss\tdev_loss\tdev_accuracy\n")
        for row in ckpt.history:
            fh.write(f"{row.step}\t{row.train_loss!r}\t{row.dev_loss!r}\t{row.dev_accuracy!r}\n")


def _read_exact(path, fh, count: int, what: str) -> bytes:
    # checked against the file size first, so a garbled length never
    # allocates more than the file holds
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise ParseError(f"{path}: truncated {what} ({count} bytes expected, {left} left)")
    return fh.read(count)


def _read_header(path, fh) -> dict:
    (header_len,) = struct.unpack("<I", _read_exact(path, fh, 4, "header length"))
    raw = _read_exact(path, fh, header_len, "header")
    try:
        header = json.loads(raw.decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: garbled header ({exc})") from None
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    missing = _HEADER_KEYS - set(header)
    if missing:
        raise ParseError(f"{path}: header lacks {sorted(missing)}")
    if header["format_version"] != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format version {header['format_version']}")
    if not isinstance(header["blocks"], list):
        raise ParseError(f"{path}: header blocks is not a list")
    make_model_config(header["kind"], header["config"], path)  # here the error can name the file
    return header


def _block_layout(path, desc) -> tuple[str, tuple[int, ...]]:
    try:
        name, shape = desc["name"], tuple(desc["shape"])
    except (KeyError, TypeError):
        raise ParseError(f"{path}: malformed block descriptor {desc!r}") from None
    if not isinstance(name, str) or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise ParseError(f"{path}: malformed block descriptor {desc!r}")
    return name, shape


def _read_history(mpath: Path) -> list[MetricRow]:
    history: list[MetricRow] = []
    lines = mpath.read_text(encoding="utf-8").splitlines()
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
        for desc in header["blocks"]:
            name, shape = _block_layout(path, desc)
            count = math.prod(shape)
            buf = _read_exact(path, fh, count * 8, f"block {name}")
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(np.float64)
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
    history = _read_history(mpath) if mpath.exists() else []

    return Checkpoint(
        kind=header["kind"],
        model_config=header["config"],
        vocab_tokens=header["vocab"],
        tokenizer_mode=header["tokenizer_mode"],
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=header["adam_t"],
        provenance=list(header["provenance"]),
        history=history,
    )


def model_from_checkpoint(ckpt: Checkpoint):
    """Rebuild a model of the checkpointed kind and restore its parameters."""
    config = make_model_config(ckpt.kind, ckpt.model_config, "checkpoint")
    model = MODEL_KINDS[ckpt.kind](config, Vocabulary(list(ckpt.vocab_tokens)), tokenizer_mode=ckpt.tokenizer_mode)
    model.load_parameters(ckpt.params)
    return model
