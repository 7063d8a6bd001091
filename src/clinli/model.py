"""The protocol both sentence-pair classifiers share.

A model is built from a config dataclass, a vocabulary and a seed; its kind
fixes its tokenizer.  A config holds only the values a run may vary, each a
JSON scalar; a value no run varies is a constant of the model's module.
Each trainable tensor is named once, by the maker call that creates it
(``initializers``); ``parameters()`` returns them by name in creation order,
the order of checkpoint blocks and Adam state.  The classification head is
``cls_w``/``cls_b``, one column per label in ``data.LABELS``.  The base
class, the parameter initializers and the config parser here do not depend
on the architecture.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import tensor as T
from .data import _SURROGATE, label_id
from .errors import ConfigError, ContractError, DataError
from .tokenizer import Vocabulary

__all__ = ["MASK_LOGIT", "PairClassifier", "initializers", "parse_config"]

MASK_LOGIT = -1e9  # a padded position's logit: exactly zero weight after a softmax

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
    value of the wrong type (an integer is accepted for a float), a string
    holding a lone surrogate (which is not text) and a value the dataclass
    rejects each end in a ConfigError naming ``where`` and the key."""
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
        if _holds_surrogate(value, hints[key]):
            raise ConfigError(f"{where}: {name} key {key!r} holds a lone surrogate, which is not text: {value!r}")
    try:
        return config_class(**raw)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _has_type(value, hint) -> bool:
    if get_origin(hint) is tuple:  # tuple[str, ...] or tuple[dict, ...]: one isinstance pass over long vocabularies
        item = get_args(hint)[0]
        return isinstance(value, (list, tuple)) and all(isinstance(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _holds_surrogate(value, hint) -> bool:
    if isinstance(value, str):
        return _SURROGATE.search(value) is not None
    # a tuple[str, ...] is searched once, joined: a vocabulary has thousands of tokens
    return get_origin(hint) is tuple and get_args(hint)[0] is str and _SURROGATE.search("".join(value)) is not None


def initializers(seed: int, params: dict[str, T.Tensor], stored: dict[str, np.ndarray] | None = None):
    """``mat(name, *shape)``, ``zeros(name, n)`` and ``ones(name, n)``
    makers of trainable tensors, each stored in ``params`` under ``name``;
    ``mat`` draws Xavier-uniform values from one generator seeded with
    ``seed``, in call order.

    Given the parameter blocks of a checkpoint (``stored``, in file order),
    each maker instead takes a copy of the next block and draws nothing.  A
    block of another name or shape, or holding NaN or inf, raises a DataError
    before any array of the model's size exists, so a header that claims a
    huge dimension or block count costs no more work than its stored blocks."""
    rng = np.random.default_rng(seed)
    blocks = iter((stored or {}).items())

    def take(name, shape):
        block, arr = next(blocks, (None, None))
        if block != name:
            extra = "" if block is None else f", extra block {block!r} in its place"
            raise DataError(f"parameter name mismatch: missing block {name!r}{extra}")
        if arr.shape != shape:
            raise DataError(f"block {name!r}: stored shape {arr.shape} != model shape {shape}")
        if not np.isfinite(arr).all():
            raise DataError(f"block {name!r}: holds NaN or inf")
        return np.array(arr, dtype=np.float64)

    def made(name, shape, draw):
        if name in params:
            raise ContractError(f"parameter {name} made twice")
        params[name] = T.Tensor(draw() if stored is None else take(name, shape), requires_grad=True)
        return params[name]

    def mat(name, *shape):
        return made(name, shape, lambda: T.xavier_uniform(rng, shape))

    def zeros(name, n):
        return made(name, (n,), lambda: np.zeros(n))

    def ones(name, n):
        return made(name, (n,), lambda: np.ones(n))

    return mat, zeros, ones


class PairClassifier:
    """Three-way sentence-pair classifier.  Subclasses set ``kind``,
    ``config_class`` and ``tokenizer_mode`` (``"wordpiece"`` or ``"word"``:
    the kind's one tokenizer, which its vocabulary is built for) and make
    their tensors with ``initializers(seed, self._params, stored)``,
    ``stored`` being the parameter blocks of a checkpoint when the model is
    rebuilt from one.  ``encode(premise, hypothesis)`` turns a pair into the
    model's input, or raises the DataError naming a side with nothing to
    encode that makes prediction skip the pair; ``forward(batch, rng=None)``
    maps a list of encoded pairs to (B, 3) probabilities from one graph, with
    dropout exactly when given a generator ``rng``.  ``predict_proba`` and
    ``batch_loss`` are the same two lines over these in each class, not here,
    because ``perfbench/tracer.py`` wraps them on each class by name; it
    reads ``batch_loss``'s ``training`` flag, which passes ``rng`` on only
    when true, to tell a training forward from an evaluation."""

    kind: str
    config_class: type
    tokenizer_mode: str

    def __init__(self, config, vocab: Vocabulary):
        self.config = config
        self.vocab = vocab
        self._params: dict[str, T.Tensor] = {}

    def parameters(self) -> dict[str, T.Tensor]:
        """Every trainable tensor by name, in creation order."""
        return dict(self._params)

    def reset_head(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.cls_w.data = T.xavier_uniform(rng, self.cls_w.shape)
        self.cls_b.data = np.zeros(self.cls_b.shape)

    def config_dict(self) -> dict:
        """The config as a JSON object."""
        return asdict(self.config)

    @staticmethod
    def _scored(probs: T.Tensor, batch):
        """Summed NLL of (B, C) class probabilities at the batch's gold
        labels, and the number of correct argmax predictions."""
        gold = [label_id(ex.gold_label) for ex in batch]
        correct = int((probs.data.argmax(axis=1) == gold).sum())
        return T.nll_from_probs(probs, gold), correct
