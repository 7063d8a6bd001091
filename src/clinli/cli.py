"""Command-line driver tying the pipeline together.

Subcommands: synth, train, predict, eval, expand, inspect-checkpoint.  Exit
codes: 0 success, 2 usage/configuration/input error, 1 runtime failure.
Given the same config and seed, every command writes byte-identical
artifacts to its ``--out-dir``.

``train`` reads a declarative JSON run config, one object whose keys are the
fields of ``RunConfig``::

    {
      "model": "compaggr",
      "model_config": {"word_dim": 8},             # the model kind's config class
      "train_config": {"learning_rate": 1e-3},     # TrainConfig
      "chain": [{"name": "S", "train": "s.jsonl", "dev": "s_dev.jsonl",
                 "train_config": {"max_epochs": 5}}, ...]
    }

Every run is a chain of stages, each a ``StageConfig``; a plain run is a
one-stage chain.  A stage without a ``name`` is named after its train file's
stem.  The model kind fixes the tokenizer: one vocabulary is built from
every dataset of the chain, of word pieces (``vocab_size`` of them) for the
transformer and of words for compaggr.  The whole config, every stage
included, is parsed before any dataset is read, and a malformed config ends
in exit code 2 with a message naming the file and the key; so does a pair
with a side that holds no word, before anything trains.  ``train --seed`` is
the run's seed; a stage's ``train_config`` may override its training seed.
Both must be non-negative integers.  ``synth --shift``, ``--source-count``
and ``--target-count`` need ``--transfer-pair``; a synth count below 22
leaves a split empty, so it exits 2, and every synth error names its flag.
Every command reads a dataset through ``_dataset``, which rejects an empty
one and one that repeats a pair id.  ``expand`` is the only abbreviation
expansion: run it with one table on every file a model reads.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .abbrev import expand_dataset, load_table
from .checkpoint import MODEL_KINDS, load_checkpoint, make_model_config, model_from_checkpoint, save_checkpoint
from .data import LABELS, load_jsonl, read_text, save_jsonl, write_atomic
from .errors import ClinliError, ConfigError, DataError, ParseError
from .evaluate import (
    _gold_map,
    accuracy,
    agreement_partition,
    best_label_assignment,
    group_into_triples,
    mean_correct_confidence,
    predict_pointwise,
    read_predictions,
    write_metrics,
    write_predictions,
)
from .model import parse_config
from .synth import SynthSpec, generate_corpus, generate_transfer_pair
from .tokenizer import build_word_vocab, pretokenize, tokenize_sides, train_wordpiece
from .training import Stage, TrainConfig, TransferChain, run_chain

USAGE_ERRORS = (ConfigError, ParseError, DataError, FileNotFoundError)
SYNTH_MIN_COUNT = 22  # the smallest synth count whose split leaves no part empty


# ---------------------------------------------------------------------------
# run config


@dataclass
class StageConfig:
    train: str
    dev: str
    name: str | None = None  # default: the train file's stem
    train_config: dict | None = None  # overrides the run's train_config

    def __post_init__(self):
        if self.name is None:
            self.name = Path(self.train).stem


@dataclass
class RunConfig:
    model: str
    chain: list  # of StageConfig objects, in training order
    vocab_size: int = 200  # word-piece target size; only the transformer reads word pieces
    model_config: dict | None = None
    train_config: dict | None = None
    head_reset: str = "keep"

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ConfigError(f"vocab_size must be at least 1, got {self.vocab_size}")
        if self.head_reset not in ("keep", "reset"):
            raise ConfigError(f"head_reset must be 'keep' or 'reset', got {self.head_reset!r}")
        if not self.chain:
            raise ConfigError("chain must hold at least one stage")
        self.chain = [parse_config(StageConfig, raw, f"chain[{i}]") for i, raw in enumerate(self.chain)]


def load_run_config(path) -> RunConfig:
    text = read_text(path)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:  # an integer of over 4,300 digits, or nesting too deep
        raise ParseError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(RunConfig, raw, path)


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"{what} does not exist: {path}")
    return path


def _vocabulary(kind: str, vocab_size: int, sentences: list[str], where):
    if MODEL_KINDS[kind].tokenizer_mode == "word":
        return build_word_vocab(sentences)
    try:
        return train_wordpiece(sentences, target_size=vocab_size)
    except ConfigError as exc:  # the alphabet floor depends on the datasets
        raise ConfigError(f"{where}: vocab_size: {exc}") from None


def _dataset(path_str: str, what: str = "dataset") -> tuple[Path, list]:
    """The path and examples of the dataset ``what``, the one reader of every
    command.  A missing file is a ConfigError; an empty dataset, or a repeated
    pair id, which eval cannot align, is a DataError naming the file and ``what``."""
    path = _require_file(path_str, what)
    examples = load_jsonl(path)
    if not examples:
        raise DataError(f"{path}: {what} is empty")
    try:
        _gold_map(examples)
    except DataError as exc:
        raise DataError(f"{path}: {what}: {exc}") from None
    return path, examples


def _stage_dataset(stage: StageConfig, part: str) -> list:
    """The examples of a stage's dataset; a pair with a side that no tokenizer
    can encode is a DataError naming the file, the stage and the pair."""
    what = f"stage {stage.name} {part} dataset"
    path, examples = _dataset(getattr(stage, part), what)
    for ex in examples:
        try:
            tokenize_sides(ex.premise, ex.hypothesis, pretokenize)
        except DataError as exc:
            raise DataError(f"{path}: {what}, pair {ex.pair_id}: {exc}") from None
    return examples


def _out_dir(args) -> Path:
    path = Path(args.out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out-dir is a file or lies under one: {path}") from None
    return path


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds a generator only from an integer of at least 0."""
    if not text.isdecimal():  # digits only: no sign, so no negative number
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    for flag in ("shift", "source_count", "target_count"):
        if getattr(args, flag) is not None and not args.transfer_pair:
            raise ConfigError(f"--{flag.replace('_', '-')} needs --transfer-pair")
    counts = [flag for flag in ("source_count", "target_count") if getattr(args, flag) is not None]
    if len(counts) < 2:  # a corpus without a count of its own has --count examples
        counts.append("count")
    for flag in counts:
        if getattr(args, flag) < SYNTH_MIN_COUNT:
            raise ConfigError(f"--{flag.replace('_', '-')} must be at least {SYNTH_MIN_COUNT}, so that train, dev "
                              f"and test each get examples, got {getattr(args, flag)}")
    try:
        spec = SynthSpec(vocab_size=args.vocab_size, count=getattr(args, counts[-1]), seed=args.seed,
                         shift=args.shift or 0.0)
    except ConfigError as exc:  # the message starts with the rejected field, which its flag is named after
        field, rest = str(exc).split(" ", 1)
        raise ConfigError(f"--{field.replace('_', '-')} {rest}") from None
    if args.transfer_pair:
        corpora = dict(zip(("source_", "target_"), generate_transfer_pair(spec, args.source_count, args.target_count)))
    else:
        corpora = {"": generate_corpus(spec)}
    out_dir = _out_dir(args)
    for stem, examples in corpora.items():
        groups = -(-len(examples) // 3)  # premise groups of three, in order; only the last may be partial
        # SYNTH_MIN_COUNT examples or more make at least 8 groups, so every part gets one
        train_end = 3 * round(0.8 * groups)
        dev_end = train_end + 3 * round(0.1 * groups)
        for name, part in (("train", examples[:train_end]), ("dev", examples[train_end:dev_end]),
                           ("test", examples[dev_end:])):
            path = out_dir / f"{stem}{name}.jsonl"
            save_jsonl(path, part)
            print(f"wrote {path} ({len(part)} examples)")
    return 0


def cmd_train(args) -> int:
    """Run the config's chain of stages and write the final checkpoint."""
    config_path = _require_file(args.config, "run config")
    run = load_run_config(config_path)
    kind = run.model
    model_config = make_model_config(kind, run.model_config or {}, config_path)
    train_configs = [
        parse_config(TrainConfig, {"seed": args.seed, **(run.train_config or {}), **(s.train_config or {})},
                     f"{config_path}: stage {s.name}")
        for s in run.chain
    ]
    stages = [Stage(s.name, _stage_dataset(s, "train"), _stage_dataset(s, "dev"), train_config)
              for s, train_config in zip(run.chain, train_configs)]
    chain = TransferChain(stages=stages, head_reset=run.head_reset)
    # one vocabulary from the union of all chain corpora, built up front
    datasets = [s.train_set for s in stages] + [s.dev_set for s in stages]
    sentences = [side for examples in datasets for ex in examples for side in (ex.premise, ex.hypothesis)]
    vocab = _vocabulary(kind, run.vocab_size, sentences, config_path)
    out_dir = _out_dir(args)
    ckpt = run_chain(lambda: MODEL_KINDS[kind](model_config, vocab, seed=args.seed), chain)

    ckpt_path = out_dir / "model.ckpt"
    save_checkpoint(ckpt, ckpt_path)
    best = ckpt.best()
    summary = f"best_dev_loss={best.dev_loss!r}, best_dev_acc={best.dev_accuracy!r}"
    with write_atomic(out_dir / "summary.txt") as fh:
        fh.write(summary + "\n")
    print(f"wrote {ckpt_path} (chain: {' -> '.join(ckpt.provenance)})")
    print(summary)
    return 0


def cmd_predict(args) -> int:
    """Score every pair once, in dataset order; list-wise mode relabels the scored triples."""
    path = _require_file(args.checkpoint, "checkpoint")
    model = model_from_checkpoint(load_checkpoint(path), path)
    _, examples = _dataset(args.dataset)
    out_dir = _out_dir(args)

    errors = []
    rows = predict_pointwise(model, examples, error_log=errors)
    report = {"mode": args.mode, "n_examples": len(examples), "n_errors": len(errors)}
    if args.mode == "listwise":
        by_id = {row.pair_id: row for row in rows}
        triples = [[by_id.get(ex.pair_id) for ex in t.examples] for t in group_into_triples(examples)[0]]
        scored = [triple for triple in triples if None not in triple]  # the rest keep point-wise labels
        for triple in scored:
            perm, _ = best_label_assignment([row.probs for row in triple])
            for row, label in zip(triple, perm):
                row.predicted_label = LABELS[label]
        fallback = len(examples) - 3 * len(scored)
        if fallback:
            print(f"warning: {fallback} examples fell back to pointwise")
        report.update(n_triples=len(scored), n_fallback_pointwise=fallback)

    pred_path = out_dir / "predictions.tsv"
    write_predictions(pred_path, rows)
    write_metrics(out_dir / "predict_report.txt", report)
    print(f"wrote {pred_path} ({len(rows)} predictions)")
    return 0


def cmd_eval(args) -> int:
    """Score one or two prediction files against the dataset's gold labels; every
    check runs before ``--out-dir`` is made, and its DataError names the file."""
    if len(args.predictions) > 2:
        raise ConfigError("eval takes one or two prediction files")
    _, golds = _dataset(args.dataset)
    paths = [_require_file(p, "prediction file") for p in args.predictions]
    pred_sets = [read_predictions(p) for p in paths]

    metrics: dict = {}
    for i, (path, preds) in enumerate(zip(paths, pred_sets)):
        prefix = "" if len(paths) == 1 else f"model_{'ab'[i]}_"
        metrics[f"{prefix}n"] = len(preds)
        try:
            acc = metrics[f"{prefix}accuracy"] = accuracy(preds, golds)
            # the mean is undefined only when no prediction is correct
            metrics[f"{prefix}mean_correct_confidence"] = mean_correct_confidence(preds, golds) if acc else "undefined"
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None

    if len(paths) == 2:
        try:
            part = agreement_partition(*pred_sets, golds)
        except DataError as exc:
            raise DataError(f"{paths[0]} and {paths[1]}: {exc}") from None
        for key, count in part.counts.items():
            metrics.update({f"agreement_{key}_count": count, f"agreement_{key}_fraction": part.fractions[key]})

    out_dir = _out_dir(args)
    metrics_path = out_dir / "metrics.txt"
    write_metrics(metrics_path, metrics)
    for key in sorted(metrics):
        print(f"{key}={metrics[key]}")
    print(f"wrote {metrics_path}")
    return 0


def cmd_expand(args) -> int:
    table = load_table(_require_file(args.table, "abbreviation table"))
    _, examples = _dataset(args.dataset)
    out_dir = _out_dir(args)
    expanded, counts = expand_dataset(examples, table)
    out_path = out_dir / "expanded.jsonl"
    save_jsonl(out_path, expanded)
    with write_atomic(out_dir / "expand_report.txt") as fh:
        fh.write(f"total={counts.total()}\n")
        for surface in sorted(counts):
            fh.write(f"{surface}\t{counts[surface]}\n")
    print(f"wrote {out_path} ({counts.total()} replacements)")
    return 0


def cmd_inspect(args) -> int:
    path = _require_file(args.checkpoint, "checkpoint")
    ckpt = load_checkpoint(path)
    model_from_checkpoint(ckpt, path)  # report what predict would reject
    print(f"kind: {ckpt.kind}")
    print(f"tokenizer_mode: {ckpt.tokenizer_mode}")
    print(f"config: {json.dumps(ckpt.model_config, sort_keys=True)}")
    print(f"vocab_size: {len(ckpt.vocab_tokens)}")
    print(f"provenance: {' -> '.join(ckpt.provenance) or '(none)'}")
    best = ckpt.best()
    if best is not None:
        print(f"evaluations: {len(ckpt.history)}, best_dev_loss={best.dev_loss!r} at step {best.step}")
    total = 0
    for name, arr in ckpt.params.items():
        total += arr.size
        print(f"  {name:24s} {str(arr.shape):14s} l2={float(np.linalg.norm(arr)):.6f}")
    print(f"total_parameters: {total}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="clinli", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic dataset files")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--count", type=int, default=300)
    p.add_argument("--vocab-size", type=int, default=30)
    p.add_argument("--shift", type=float, default=None, help="vocabulary shift of a --transfer-pair (default 0)")
    p.add_argument("--transfer-pair", action="store_true", help="emit source_* and target_* corpora")
    p.add_argument("--source-count", type=int, default=None)
    p.add_argument("--target-count", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model through a run config's chain of stages")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write predictions for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--mode", choices=("pointwise", "listwise"), default="pointwise")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score prediction files against gold labels")
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expand", help="apply abbreviation expansion to a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("inspect-checkpoint", help="summarize a checkpoint file")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (*USAGE_ERRORS, ClinliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1
