"""The protocol both sentence-pair classifiers share.

A model is built from a config dataclass, a vocabulary, a seed and a
tokenizer mode.  It names its trainable tensors in ``parameters()`` and
keeps its classification head in ``cls_w``/``cls_b``.  ``forward``,
``batch_loss`` and ``predict_proba`` are defined in each model's own class;
the base class, the parameter initializers and the config parser here
do not depend on the architecture.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import tensor as T
from .data import label_id
from .errors import ConfigError, DataError
from .tokenizer import Vocabulary

__all__ = ["PairClassifier", "initializers", "parse_config"]

# resolving the string annotations of a config class takes about 0.15 ms
# (Python 3.11, 2-core x86 VM), a sizeable share of loading a small
# checkpoint; there are only a handful of config classes
_field_types = cache(get_type_hints)


@cache
def _required_keys(config_class) -> frozenset[str]:
    return frozenset(f.name for f in fields(config_class) if f.default is MISSING and f.default_factory is MISSING)


def parse_config(config_class, raw, where):
    """The dataclass ``config_class`` built from a JSON object read from
    ``where``.  Input that is not an object, an unknown or missing key, a
    value of the wrong type (an integer is accepted for a float) and a
    value the dataclass rejects each end in a ConfigError naming ``where``."""
    name = config_class.__name__
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: {name} must be a JSON object, got {raw!r}")
    hints = _field_types(config_class)
    unknown = set(raw) - set(hints)
    if unknown:
        raise ConfigError(f"{where}: unknown {name} keys {sorted(unknown)}")
    missing = _required_keys(config_class) - set(raw)
    if missing:
        raise ConfigError(f"{where}: {name} lacks required keys {sorted(missing)}")
    for key, value in raw.items():
        if not _has_type(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ConfigError(f"{where}: {name} key {key!r} must be {expected}, got {value!r}")
    try:
        return config_class(**raw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _has_type(value, hint) -> bool:
    if get_origin(hint) is tuple:
        return isinstance(value, (list, tuple)) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def initializers(seed: int):
    """``mat(*shape)``, ``zeros(n)`` and ``ones(n)`` makers of trainable
    tensors; ``mat`` draws Xavier-uniform values from one generator seeded
    with ``seed``, in call order."""
    rng = np.random.default_rng(seed)

    def mat(*shape):
        return T.Tensor(T.xavier_uniform(rng, shape), requires_grad=True)

    def zeros(n):
        return T.Tensor(np.zeros(n), requires_grad=True)

    def ones(n):
        return T.Tensor(np.ones(n), requires_grad=True)

    return mat, zeros, ones


class PairClassifier:
    """Three-way sentence-pair classifier.  Subclasses set ``kind``,
    ``config_class`` and ``tokenizer_modes`` (the first is the default)."""

    kind: str
    config_class: type
    tokenizer_modes: tuple[str, ...]

    def __init__(self, config, vocab: Vocabulary, tokenizer_mode: str):
        if tokenizer_mode not in self.tokenizer_modes:
            raise ConfigError(f"the {self.kind} model takes tokenizer {self.tokenizer_modes}, not {tokenizer_mode!r}")
        self.config = config
        self.vocab = vocab
        self.tokenizer_mode = tokenizer_mode
        self.dropout = config.dropout

    def load_parameters(self, arrays: dict[str, np.ndarray]) -> None:
        params = self.parameters()
        if set(arrays) != set(params):
            missing = set(params) - set(arrays)
            extra = set(arrays) - set(params)
            raise DataError(f"parameter name mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, p in params.items():
            if arrays[name].shape != p.shape:
                raise DataError(f"parameter {name}: shape {arrays[name].shape} != expected {p.shape}")
            p.data = np.array(arrays[name], dtype=np.float64)

    def reset_head(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.cls_w.data = T.xavier_uniform(rng, self.cls_w.shape)
        self.cls_b.data = np.zeros(self.cls_b.shape)

    def config_dict(self) -> dict:
        """The config as a JSON object, tuples written as lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self.config).items()}

    @staticmethod
    def _scored(probs: T.Tensor, batch):
        """Summed NLL of (B, C) class probabilities at the batch's gold
        labels, and the number of correct argmax predictions."""
        gold = [label_id(ex.gold_label) for ex in batch]
        correct = int((probs.data.argmax(axis=1) == gold).sum())
        return T.nll_from_probs(probs, gold), correct
