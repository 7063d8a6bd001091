"""Optimization loop with early stopping and sequential transfer chains.

Training iterates shuffled mini-batches; after every ``step_fraction`` of
the training data (default 20%) it evaluates dev loss and accuracy.  A run
stops once dev loss has gone ``early_stop_patience`` consecutive
evaluations without strictly improving on the best seen, and returns the
parameters captured at the best evaluation, whose step is ``best_step``.
"Decreased" means strict improvement; ties count as non-improving.  Every
step clips the gradients to the global L2 norm ``CLIP_NORM`` before the
Adam update.

Transfer chains run several (dataset, config) stages in order, each stage
starting from the previous stage's best parameters.  The classification
head is kept across stage boundaries by default (all stages share one
3-class label space); a reset policy re-initializes it instead.  Optimizer
state starts fresh at each stage, so no checkpoint stores it.  A chain
returns its final stage's best parameters and evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import Checkpoint, MetricRow
from .errors import ConfigError, DataError, NumericError
from .tensor import Tensor, zero_grads

__all__ = [
    "ADAM_BETAS",
    "ADAM_EPS",
    "CLIP_NORM",
    "AdamState",
    "Stage",
    "TrainConfig",
    "TransferChain",
    "adam_step",
    "clip_gradients",
    "run_chain",
    "train",
]

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
CLIP_NORM = 5.0


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 50
    early_stop_patience: int = 4
    step_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if not 0.0 < self.step_fraction <= 1.0:
            raise ConfigError(f"step_fraction must be in (0, 1], got {self.step_fraction}")
        if self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be at least 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class AdamState:
    """First/second moment estimates for a named parameter collection."""

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update over every parameter in place, with
    moment decay rates ``ADAM_BETAS`` and denominator offset ``ADAM_EPS``.

    Parameters whose grad is unset are treated as having zero gradient:
    their moments decay and their values stay put.
    """
    beta1, beta2 = ADAM_BETAS
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in parameter {name!r}")
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_gradients(params: dict[str, Tensor], threshold: float) -> float:
    """Scale all gradients by threshold/norm when their global L2 norm
    exceeds the threshold.  Returns the pre-clip norm."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > threshold:
        factor = threshold / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= factor
    return norm


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.items()}


def train(model, train_set, dev_set, config: TrainConfig, dataset_name: str = "train") -> Checkpoint:
    """Train ``model`` until early stopping or ``max_epochs``; return the
    best-dev-loss checkpoint and leave the model holding those parameters."""
    for name, dataset in (("train", train_set), ("dev", dev_set)):
        if not dataset:
            raise DataError(f"{name} dataset is empty")

    params = model.parameters()
    state = AdamState(params)
    shuffle_rng = np.random.default_rng(config.seed)
    dropout_rng = np.random.default_rng(config.seed + 1)
    eval_every = max(1, math.ceil(config.step_fraction * len(train_set)))

    best, best_step = _snapshot(params), 0
    best_loss = math.inf
    bad_evals = 0  # consecutive evaluations without a strict improvement of best_loss
    history: list[MetricRow] = []
    run_loss = 0.0
    run_count = 0  # examples trained on since the last evaluation

    # one stream of mini-batches; each epoch draws its permutation as it starts
    orders = (shuffle_rng.permutation(len(train_set)) for _ in range(config.max_epochs))
    batches = ([train_set[i] for i in order[start : start + config.batch_size]]
               for order in orders for start in range(0, len(order), config.batch_size))
    for batch in batches:
        zero_grads(params.values())
        loss, _ = model.batch_loss(batch, training=True, rng=dropout_rng)
        loss.backward()
        clip_gradients(params, CLIP_NORM)
        adam_step(params, state, config.learning_rate)

        run_loss += float(loss.data)
        run_count += len(batch)
        if run_count >= eval_every:
            dev_loss_t, dev_correct = model.batch_loss(dev_set, training=False)
            dev_loss = float(dev_loss_t.data) / len(dev_set)
            dev_acc = dev_correct / len(dev_set)
            history.append(MetricRow(len(history) + 1, run_loss / run_count, dev_loss, dev_acc))
            run_loss, run_count = 0.0, 0
            if dev_loss < best_loss:
                best_loss, bad_evals = dev_loss, 0
                best, best_step = _snapshot(params), len(history)
            else:
                bad_evals += 1
            if bad_evals >= config.early_stop_patience:
                break

    for name, p in params.items():
        p.data[...] = best[name]
    return Checkpoint(model.kind, model.config_dict(), list(model.vocab.tokens), model.tokenizer_mode, best,
                      best_step=best_step, provenance=[dataset_name], history=history)


@dataclass
class Stage:
    name: str
    train_set: list
    dev_set: list
    config: TrainConfig


@dataclass
class TransferChain:
    stages: list[Stage]
    head_reset: str = "keep"

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("a transfer chain needs at least one stage")
        if self.head_reset not in ("keep", "reset"):
            raise ConfigError(f"head_reset must be 'keep' or 'reset', got {self.head_reset!r}")


def run_chain(model_factory, chain: TransferChain) -> Checkpoint:
    """Run the chain's stages in order, each initialized from the previous
    stage's best checkpoint; returns the final checkpoint, whose provenance
    lists every stage name in order, whose history numbers the evaluations
    of all stages in one sequence and whose ``best_step`` names the final
    stage's best evaluation in that sequence."""
    model = model_factory()
    provenance: list[str] = []
    history: list[MetricRow] = []
    for i, stage in enumerate(chain.stages):
        if i > 0 and chain.head_reset == "reset":
            model.reset_head(seed=stage.config.seed)
        ckpt = train(model, stage.train_set, stage.dev_set, stage.config, dataset_name=stage.name)
        offset = history[-1].step if history else 0
        history += [replace(row, step=offset + row.step) for row in ckpt.history]
        provenance += ckpt.provenance
    return replace(ckpt, provenance=provenance, history=history, best_step=offset + ckpt.best_step)
