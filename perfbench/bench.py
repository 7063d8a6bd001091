"""The clinli benchmark: workloads, measurement loop and output checks.

Each workload generates its inputs from the seed with ``clinli.synth``,
writes them as JSONL (and, for ``predict``, as checkpoints) before any
timing starts, and then calls clinli's public functions in the order of the
matching CLI subcommand.  Work runs in batches in one process and one
thread; the reported rate is work done per wall second at the fixed input
sizes in ``Sizes``.

A plain run repeats set-up + work until ``seconds`` have passed (at least
``MIN_REPEATS`` times) and reports medians.  A traced run alternates one
plain and one traced repetition, so it can also report the tracing overhead
and check that tracing changes no output byte.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from clinli import checkpoint, data, evaluate, tokenizer, training
from clinli.compaggr import CompAggrConfig, CompAggrModel
from clinli.data import LABELS, label_id
from clinli.synth import SynthSpec, generate_corpus, generate_transfer_pair
from clinli.transformer import TransformerClassifier, TransformerConfig

from tracer import PER_LAYER, Tracer

END_TO_END = (("setup_s", "s"), ("examples_per_s", "1/s"), ("peak_rss_mb", "MB"))

# the ROADMAP baseline configuration of the desk transformer
TRANSFORMER = dict(d_e=32, num_heads=2, num_blocks=2, d_ff=64, max_len=32, dropout=0.1)
WORDPIECE_SIZE = 200
BATCH_SIZE = 16
STEP_FRACTION = 0.2
TRANSFER_SHIFT = 0.5
SETUPS = 21
MIN_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """Example counts of the generated inputs (multiples of 3: one premise
    group per three examples)."""

    transformer_train: int = 120
    transformer_dev: int = 30
    transformer_epochs: int = 2
    transfer_train: int = 30
    transfer_dev: int = 15
    transfer_epochs: int = 1
    predict_vocab: int = 300
    predict_test: int = 150


@dataclass
class Outcome:
    """What one repetition did: work units, the timed work region, the
    artifacts it wrote and the values the checks and metrics need."""

    units: int
    work_s: float
    artifacts: list[Path]
    skipped: int = 0
    extra: dict = field(default_factory=dict)


def _sentences(datasets) -> list[str]:
    return [s for examples in datasets for ex in examples for s in (ex.premise, ex.hypothesis)]


def expected_evaluations(n: int, epochs: int) -> int:
    """Dev evaluations ``training.train`` makes over a run with no early stop."""
    every = max(1, math.ceil(STEP_FRACTION * n))
    since = evals = 0
    for _ in range(epochs):
        for start in range(0, n, BATCH_SIZE):
            since += min(BATCH_SIZE, n - start)
            if since >= every:
                since, evals = 0, evals + 1
    return evals


def _train_config(n: int, epochs: int, seed: int) -> training.TrainConfig:
    # patience beyond the number of evaluations: every run covers the same
    # fixed schedule, so rates compare equal amounts of work
    return training.TrainConfig(
        batch_size=BATCH_SIZE, max_epochs=epochs, step_fraction=STEP_FRACTION,
        early_stop_patience=expected_evaluations(n, epochs) + 1, seed=seed,
    )


def _check_history(history, expected: int) -> list[str]:
    errors = []
    if len(history) != expected:
        errors.append(f"{len(history)} evaluations, schedule fixes {expected}")
    for row in history:
        if not all(math.isfinite(v) for v in (row.train_loss, row.dev_loss, row.dev_accuracy)):
            errors.append(f"non-finite history row {row}")
    return errors


def _check_roundtrip(path: Path) -> list[str]:
    """save -> load -> save must reproduce the checkpoint and its sidecar."""
    again = path.with_name(path.name + ".again")
    checkpoint.save_checkpoint(checkpoint.load_checkpoint(path), again)
    errors = []
    for a, b in ((path, again), (checkpoint.metrics_path(path), checkpoint.metrics_path(again))):
        if a.read_bytes() != b.read_bytes():
            errors.append(f"{a.name}: save -> load -> save is not byte-identical")
        b.unlink()
    return errors


def _best_row(history):
    return min(history, key=lambda r: r.dev_loss)


class Workload:
    name = ""

    def __init__(self, work_dir: Path, seed: int, sizes: Sizes):
        self.dir = work_dir
        self.seed = seed
        self.sizes = sizes
        self.inputs: dict[str, Path] = {}
        self.generate()

    def _write(self, name: str, examples) -> None:
        path = self.dir / f"{name}.jsonl"
        data.save_jsonl(path, examples)
        self.inputs[name] = path

    def input_sizes(self) -> dict:
        out = {}
        for name, path in self.inputs.items():
            entry = {"bytes": path.stat().st_size}
            if path.suffix == ".jsonl":
                entry["examples"] = sum(1 for _ in path.open(encoding="utf-8"))
            out[name] = entry
        return out

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def run(self, state, out_dir: Path) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def layer_values(self, outcome: Outcome) -> dict[str, float]:
        """Per-layer values the workload measures itself."""
        return {}


class TrainTransformer(Workload):
    """``cmd_train`` for the desk transformer: load, word-piece vocabulary,
    build, train on a fixed schedule, save."""

    name = "train-transformer"

    def generate(self):
        s = self.sizes
        corpus = generate_corpus(SynthSpec(count=s.transformer_train + s.transformer_dev, seed=self.seed))
        self._write("train", corpus[: s.transformer_train])
        self._write("dev", corpus[s.transformer_train :])

    def setup(self):
        train_set = data.load_jsonl(self.inputs["train"])
        dev_set = data.load_jsonl(self.inputs["dev"])
        vocab = tokenizer.train_wordpiece(_sentences([train_set, dev_set]), target_size=WORDPIECE_SIZE)
        model = TransformerClassifier(TransformerConfig(**TRANSFORMER), vocab, seed=self.seed)
        return model, train_set, dev_set

    def run(self, state, out_dir):
        model, train_set, dev_set = state
        epochs = self.sizes.transformer_epochs
        config = _train_config(len(train_set), epochs, self.seed)
        t0 = perf_counter()
        ckpt = training.train(model, train_set, dev_set, config, dataset_name="train")
        work_s = perf_counter() - t0
        path = out_dir / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, path)
        expected = expected_evaluations(len(train_set), epochs)
        return Outcome(
            units=len(train_set) * epochs, work_s=work_s,
            artifacts=[path, checkpoint.metrics_path(path)],
            extra={"history": ckpt.history, "expected_evals": expected},
        )

    def check(self, outcome):
        return _check_history(outcome.extra["history"], outcome.extra["expected_evals"]) + _check_roundtrip(
            outcome.artifacts[0]
        )

    def layer_values(self, outcome):
        best = _best_row(outcome.extra["history"])
        return {"training.dev_loss_best": best.dev_loss, "training.dev_accuracy_best": best.dev_accuracy}


class TransferCompaggr(Workload):
    """``cmd_transfer`` for the full-scale compare-aggregate model (source,
    then target, head kept), then the load and rebuild ``cmd_predict``
    starts with."""

    name = "transfer-compaggr"
    STAGES = ("source", "target")

    def generate(self):
        s = self.sizes
        spec = SynthSpec(count=s.transfer_train + s.transfer_dev, seed=self.seed, shift=TRANSFER_SHIFT)
        for stage, corpus in zip(self.STAGES, generate_transfer_pair(spec)):
            self._write(f"{stage}_train", corpus[: s.transfer_train])
            self._write(f"{stage}_dev", corpus[s.transfer_train :])

    def setup(self):
        sets = {name: data.load_jsonl(path) for name, path in self.inputs.items()}
        trains = [sets[f"{stage}_train"] for stage in self.STAGES]
        devs = [sets[f"{stage}_dev"] for stage in self.STAGES]
        vocab = tokenizer.build_word_vocab(_sentences(trains + devs))
        model = CompAggrModel(CompAggrConfig.full_scale(), vocab, seed=self.seed)
        return model, trains, devs

    def run(self, state, out_dir):
        model, trains, devs = state
        epochs = self.sizes.transfer_epochs
        config = _train_config(len(trains[0]), epochs, self.seed)
        chain = training.TransferChain(
            stages=[training.Stage(n, t, d, config) for n, t, d in zip(self.STAGES, trains, devs)],
            head_reset="keep",
        )
        t0 = perf_counter()
        ckpt = training.run_chain(lambda: model, chain)
        work_s = perf_counter() - t0
        path = out_dir / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, path)
        rebuilt = checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(path))
        per_stage = [expected_evaluations(len(t), epochs) for t in trains]
        return Outcome(
            units=sum(len(t) for t in trains) * epochs, work_s=work_s,
            artifacts=[path, checkpoint.metrics_path(path)],
            extra={"ckpt": ckpt, "rebuilt": rebuilt, "expected_evals": sum(per_stage),
                   "last_stage_evals": per_stage[-1]},
        )

    def check(self, outcome):
        ckpt, rebuilt = outcome.extra["ckpt"], outcome.extra["rebuilt"]
        errors = _check_history(ckpt.history, outcome.extra["expected_evals"])
        if ckpt.provenance != list(self.STAGES):
            errors.append(f"provenance {ckpt.provenance} != {list(self.STAGES)}")
        for name, p in rebuilt.parameters().items():
            if not np.array_equal(p.data, ckpt.params[name]):
                errors.append(f"rebuilt parameter {name} differs from the checkpoint")
        return errors + _check_roundtrip(outcome.artifacts[0])

    def layer_values(self, outcome):
        # the chain returns the best checkpoint of its last stage
        history = outcome.extra["ckpt"].history
        best = _best_row(history[len(history) - outcome.extra["last_stage_evals"] :])
        return {"training.dev_loss_best": best.dev_loss, "training.dev_accuracy_best": best.dev_accuracy}


class Predict(Workload):
    """``cmd_predict`` point-wise, then list-wise, for a desk transformer and
    a desk compare-aggregate model, each loaded from a checkpoint."""

    name = "predict"
    KINDS = ("transformer", "compaggr")

    def generate(self):
        s = self.sizes
        corpus = generate_corpus(SynthSpec(count=s.predict_vocab + s.predict_test, seed=self.seed))
        sentences = _sentences([corpus[: s.predict_vocab]])
        self._write("test", corpus[s.predict_vocab :])
        models = {
            "transformer": TransformerClassifier(
                TransformerConfig(**TRANSFORMER),
                tokenizer.train_wordpiece(sentences, target_size=WORDPIECE_SIZE), seed=self.seed,
            ),
            "compaggr": CompAggrModel(CompAggrConfig(), tokenizer.build_word_vocab(sentences), seed=self.seed),
        }
        for kind, model in models.items():
            params = {name: p.data.copy() for name, p in model.parameters().items()}
            ckpt = checkpoint.Checkpoint(
                kind=model.kind, model_config=model.config_dict(), vocab_tokens=list(model.vocab.tokens),
                tokenizer_mode=model.tokenizer_mode, params=params,
                adam_m={n: np.zeros_like(a) for n, a in params.items()},
                adam_v={n: np.zeros_like(a) for n, a in params.items()},
            )
            path = self.dir / f"{kind}.ckpt"
            checkpoint.save_checkpoint(ckpt, path)
            self.inputs[kind] = path

    def setup(self):
        examples = data.load_jsonl(self.inputs["test"])
        models = {k: checkpoint.model_from_checkpoint(checkpoint.load_checkpoint(self.inputs[k])) for k in self.KINDS}
        return models, examples

    def run(self, state, out_dir):
        models, examples = state
        files, results = [], {}
        point_s = list_s = 0.0
        units = skipped = triples_done = 0
        for kind, model in models.items():
            t0 = perf_counter()
            errors = []
            preds = evaluate.predict_pointwise(model, examples, error_log=errors)
            rows = [evaluate.FilePrediction(p.pair_id, p.probs, p.predicted_label) for p in preds]
            point_path = out_dir / f"{kind}.pointwise.tsv"
            evaluate.write_predictions(point_path, rows)
            t1 = perf_counter()
            triples, _ = evaluate.group_into_triples(examples)
            in_triples = {id(ex) for t in triples for ex in t.examples}
            leftovers = [ex for ex in examples if id(ex) not in in_triples]
            listwise = [evaluate.predict_listwise(model, t) for t in triples]
            list_rows = [
                evaluate.FilePrediction(pid, probs, label)
                for r in listwise for pid, label, probs in zip(r.pair_ids, r.labels, r.probs)
            ]
            left_errors = []
            for p in evaluate.predict_pointwise(model, leftovers, error_log=left_errors):
                list_rows.append(evaluate.FilePrediction(p.pair_id, p.probs, p.predicted_label))
            list_path = out_dir / f"{kind}.listwise.tsv"
            evaluate.write_predictions(list_path, list_rows)
            t2 = perf_counter()
            point_s += t1 - t0
            list_s += t2 - t1
            units += len(preds) + len(list_rows)
            skipped += len(errors) + len(left_errors)
            triples_done += len(triples)
            files += [point_path, list_path]
            results[kind] = dict(
                preds=preds, rows=rows, errors=errors, listwise=listwise, list_rows=list_rows,
                leftovers=leftovers, left_errors=left_errors, point_path=point_path, list_path=list_path,
            )
        return Outcome(
            units=units, work_s=point_s + list_s, artifacts=files, skipped=skipped,
            extra={"results": results, "n": len(examples), "examples": examples,
                   "point_s": point_s, "list_s": list_s, "triples": triples_done},
        )

    def check(self, outcome):
        errors = []
        n = outcome.extra["n"]
        for kind, r in outcome.extra["results"].items():
            if len(r["preds"]) + len(r["errors"]) != n:
                errors.append(f"{kind}: {len(r['preds'])} predictions + {len(r['errors'])} skipped != {n} pairs")
            covered = 3 * len(r["listwise"]) + len(r["leftovers"])
            if covered != n:
                errors.append(f"{kind}: list-wise covers {covered} of {n} pairs")
            point = {p.pair_id: p.probs for p in r["preds"]}
            for row in r["rows"] + r["list_rows"]:
                if abs(float(row.probs.sum()) - 1.0) > 1e-12:
                    errors.append(f"{kind}: probabilities of {row.pair_id} sum to {row.probs.sum()!r}")
            for result in r["listwise"]:
                if sorted(result.labels) != sorted(LABELS):
                    errors.append(f"{kind}: list-wise labels {result.labels} are not a permutation")
                for pid, probs in zip(result.pair_ids, result.probs):
                    if not np.array_equal(probs, point.get(pid)):
                        errors.append(f"{kind}: list-wise probabilities of {pid} differ from point-wise")
            for path, rows in ((r["point_path"], r["rows"]), (r["list_path"], r["list_rows"])):
                back = evaluate.read_predictions(path)
                same = len(back) == len(rows) and all(
                    a.pair_id == b.pair_id and a.predicted_label == b.predicted_label
                    and np.array_equal(a.probs, b.probs)
                    for a, b in zip(back, rows)
                )
                if not same:
                    errors.append(f"{path.name}: write -> read does not round-trip")
        return errors

    def layer_values(self, outcome):
        gold = {ex.pair_id: label_id(ex.gold_label) for ex in outcome.extra["examples"]}
        nll, correct, count = 0.0, 0, 0
        for r in outcome.extra["results"].values():
            for p in r["preds"]:
                g = gold[p.pair_id]
                nll -= math.log(max(float(p.probs[g]), 1e-300))
                correct += int(np.argmax(p.probs)) == g
                count += 1
        return {
            "evaluate.pairs_skipped": float(outcome.skipped),
            "evaluate.test_nll": nll / max(count, 1),
            "evaluate.test_accuracy": correct / max(count, 1),
            "evaluate.pointwise_pairs_per_s": count / outcome.extra["point_s"],
            "evaluate.listwise_triples_per_s": outcome.extra["triples"] / outcome.extra["list_s"],
        }


WORKLOAD_CLASSES = {w.name: w for w in (TrainTransformer, TransferCompaggr, Predict)}
WORKLOADS = tuple(WORKLOAD_CLASSES)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Repeat:
    setup_s: float
    wall_s: float
    units: int
    work_s: float
    skipped: int
    digests: dict[str, str]
    errors: list[str]
    values: dict[str, float]


def _repeat(workload: Workload, out_dir: Path, tracer: Tracer | None = None) -> Repeat:
    """One set-up + work pass.  Outputs are checked after tracing is removed,
    and only the numbers are kept, so repetitions do not pile up memory."""
    def body():
        t0 = perf_counter()
        state = workload.setup()
        t1 = perf_counter()
        outcome = workload.run(state, out_dir)
        return t1 - t0, perf_counter() - t0, outcome

    if tracer is None:
        setup_s, wall_s, outcome = body()
    else:
        with tracer.installed():
            setup_s, wall_s, outcome = body()
    return Repeat(
        setup_s, wall_s, outcome.units, outcome.work_s, outcome.skipped,
        digests={p.name: sha256(p) for p in outcome.artifacts},
        errors=workload.check(outcome), values=workload.layer_values(outcome),
    )


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, work_dir: Path,
            sizes: Sizes = Sizes(), spans_path: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result, record).  ``result`` is the object
    the benchmark prints last; ``record`` holds host, inputs and digests."""
    inputs_dir, out_dir = work_dir / "inputs", work_dir / "out"
    inputs_dir.mkdir(parents=True)
    out_dir.mkdir()
    workload = WORKLOAD_CLASSES[name](inputs_dir, seed, sizes)

    repeats: list[Repeat] = []
    traced: list[Repeat] = []
    setups: list[float] = []
    tracer = Tracer() if trace else None
    if not trace:
        for _ in range(SETUPS):
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)
    start = perf_counter()
    while True:
        repeats.append(_repeat(workload, out_dir))
        if trace:
            traced.append(_repeat(workload, out_dir, tracer))
        elapsed = perf_counter() - start
        if elapsed >= seconds and (trace or len(repeats) >= MIN_REPEATS):
            break

    everything = repeats + traced
    errors = [e for r in everything for e in r.errors]
    first = repeats[0].digests
    for i, r in enumerate(everything):
        if r.digests != first:
            kind = "traced" if i >= len(repeats) else "plain"
            errors.append(f"{kind} repetition {i} wrote different artifacts than the first plain one")

    setups += [r.setup_s for r in repeats]
    rates = [r.units / r.work_s for r in repeats]
    if trace:
        values = tracer.layer_metrics()
        values.update(_median_values([r.values for r in repeats]))
        values["trace.overhead_share"] = statistics.median(
            (t.wall_s - p.wall_s) / p.wall_s for p, t in zip(repeats, traced)
        )
        units = {n: u for n, u, _ in PER_LAYER}
        metrics = {n: {"value": float(values.get(n, 0.0)), "unit": units[n]} for n in units}
        if spans_path is not None:
            tracer.write_spans(spans_path)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "examples_per_s": statistics.median(rates),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {n: {"value": float(values[n]), "unit": u} for n, u in END_TO_END}

    result = {
        "correct": not errors,
        "attempted": sum(r.units for r in everything),
        "failed": sum(r.skipped for r in everything),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "host": host_record(),
        "inputs": workload.input_sizes(),
        "digests": first,
        "repeats": len(repeats),
        "traced_repeats": len(traced),
        "samples": {"setup_s": setups, "examples_per_s": rates},
        "errors": errors[:20],
    }
    return result, record


def _median_values(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}
