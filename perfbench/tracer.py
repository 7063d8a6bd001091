"""Traced runs: span recording around clinli's public functions, from outside
the program, and the per-layer metrics computed from those spans.

While a ``Tracer`` is installed, each wrapped function records one span
(name, start, end, parent span, run id) in memory.  Wrappers replace module
or class attributes at the place each name is looked up, so names imported
by value (``clinli.transformer.encode_pair`` and the like) are wrapped where
they are used.  A tensor-op wrapper also wraps the backward closure of the
node it returns, so forward and backward time are attributed to the op.

Two kinds of span exist.  Op spans (``tensor.<op>`` and ``tensor.<op>.bwd``)
are leaves: they are the arithmetic a stage does and are never subtracted
from the stage that encloses them.  Every other span is a stage span, and a
stage's self time is its duration minus that of its direct stage children.
"""

from __future__ import annotations

import gzip
import statistics
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from clinli import checkpoint, compaggr, data, evaluate, tensor, tokenizer, training, transformer

OPS = (
    "matmul", "add", "softmax", "slice_cols", "slice_rows", "take_rows", "layer_norm", "tanh",
    "concat", "stack_cols", "ravel", "transpose", "scale", "mul", "relu", "dropout",
    "conv1d_maxpool", "nll_from_probs",
)

MODEL_CLASSES = (transformer.TransformerClassifier, compaggr.CompAggrModel)

# (owner, attribute, span name) of every plain stage wrapper.
STAGES = (
    (tokenizer, "word_tokenize", "tokenizer.word_tokenize"),
    (compaggr, "word_tokenize", "tokenizer.word_tokenize"),
    (tokenizer, "train_wordpiece", "tokenizer.train_wordpiece"),
    (tokenizer, "build_word_vocab", "tokenizer.build_word_vocab"),
    (transformer, "embed", "transformer.embed"),
    (transformer, "multi_head_attention", "transformer.attention"),
    (transformer, "transformer_block", "transformer.block"),
    (transformer.TransformerClassifier, "forward", "transformer.forward"),
    (compaggr, "contextual_encode", "compaggr.encode"),
    (compaggr, "cross_attention", "compaggr.align"),
    (compaggr, "compare", "compaggr.compare"),
    (compaggr, "aggregate_classify", "compaggr.aggregate"),
    (compaggr.CompAggrModel, "forward", "compaggr.forward"),
    (training, "train", "training.train"),
    (training, "adam_step", "training.adam"),
    (checkpoint, "model_from_checkpoint", "checkpoint.rebuild"),
    (evaluate, "predict_pointwise", "evaluate.predict_pointwise"),
    (evaluate, "predict_listwise", "evaluate.predict_listwise"),
    (evaluate, "best_label_assignment", "evaluate.assign"),
    (evaluate, "write_predictions", "evaluate.write"),
    (data, "load_jsonl", "data.load_jsonl"),
)

# (name, unit, better) of every per-layer metric, in report order.  Values
# that come from the workload itself (quality, skipped pairs, plain-run
# rates, tracing overhead) are filled in by the benchmark, not from spans.
PER_LAYER = (
    [(f"tensor.{op}.{part}", unit, "lower") for op in OPS
     for part, unit in (("calls", "count"), ("fwd_s", "s"), ("bwd_s", "s"))]
    + [
        ("tensor.backward_s", "s", "lower"),
        ("tensor.tape_nodes_per_step", "count", "lower"),
        ("tensor.eval_tape_nodes", "count", "lower"),
        ("transformer.embed_s", "s", "lower"),
        ("transformer.attention_s", "s", "lower"),
        ("transformer.block_s", "s", "lower"),
        ("transformer.head_s", "s", "lower"),
        ("transformer.forward_calls", "count", "lower"),
        ("compaggr.encode_s", "s", "lower"),
        ("compaggr.align_s", "s", "lower"),
        ("compaggr.compare_s", "s", "lower"),
        ("compaggr.aggregate_s", "s", "lower"),
        ("compaggr.forward_calls", "count", "lower"),
        ("tokenizer.encode_pair_s", "s", "lower"),
        ("tokenizer.encode_pair_calls", "count", "lower"),
        ("tokenizer.word_tokenize_s", "s", "lower"),
        ("tokenizer.word_tokenize_calls", "count", "lower"),
        ("tokenizer.train_wordpiece_s", "s", "lower"),
        ("tokenizer.build_word_vocab_s", "s", "lower"),
        ("tokenizer.encode_repeat_share", "fraction", "lower"),
        ("training.steps", "count", "lower"),
        ("training.step_ms.p50", "ms", "lower"),
        ("training.step_ms.p90", "ms", "lower"),
        ("training.step_ms.n", "count", "higher"),
        ("training.forward_s", "s", "lower"),
        ("training.clip_s", "s", "lower"),
        ("training.adam_s", "s", "lower"),
        ("training.eval_s", "s", "lower"),
        ("training.eval_calls", "count", "lower"),
        ("training.other_s", "s", "lower"),
        ("training.clip_share", "fraction", "lower"),
        ("training.dev_loss_best", "nats", "lower"),
        ("training.dev_accuracy_best", "fraction", "higher"),
        ("checkpoint.save_ms", "ms", "lower"),
        ("checkpoint.load_ms", "ms", "lower"),
        ("checkpoint.bytes", "bytes", "lower"),
        ("checkpoint.rebuild_ms", "ms", "lower"),
        ("evaluate.predict_proba_s", "s", "lower"),
        ("evaluate.predict_proba_calls", "count", "lower"),
        ("evaluate.predict_ms.p50", "ms", "lower"),
        ("evaluate.predict_ms.p99", "ms", "lower"),
        ("evaluate.predict_ms.n", "count", "higher"),
        ("evaluate.assign_s", "s", "lower"),
        ("evaluate.write_s", "s", "lower"),
        ("evaluate.pairs_skipped", "count", "lower"),
        ("evaluate.test_nll", "nats", "lower"),
        ("evaluate.test_accuracy", "fraction", "higher"),
        ("evaluate.pointwise_pairs_per_s", "1/s", "higher"),
        ("evaluate.listwise_triples_per_s", "1/s", "higher"),
        ("data.load_jsonl_s", "s", "lower"),
        ("trace.overhead_share", "fraction", "lower"),
    ]
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        # typed arrays: a traced run records a few hundred thousand spans
        self.span_name = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_run = array("q")
        self.op_span = array("b")
        self._stack: list[int] = []
        self._eval_depth = 0
        self.run_id = -1
        self.counts: Counter[str] = Counter()
        self.tape_nodes: list[int] = []
        self.checkpoint_bytes: list[int] = []
        self._encoded: set = set()

    # -- span store ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int, is_op: bool) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_run.append(self.run_id)
        self.op_span.append(is_op)
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self._stack.pop()

    # -- wrappers -----------------------------------------------------------

    def _stage(self, fn, name: str, after=None):
        nid = self._nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid, False)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _op(self, fn, op: str):
        nid = self._nid(f"tensor.{op}")
        bwd_nid = self._nid(f"tensor.{op}.bwd")
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid, True)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            # dropout at inference returns its input: that node is not new
            if out._backward is not None and not any(out is a for a in args):
                if tracer._eval_depth:
                    tracer.counts["eval_tape_nodes"] += 1
                inner = out._backward

                def backward_fn(g):
                    bidx = tracer._open(bwd_nid, True)
                    try:
                        inner(g)
                    finally:
                        tracer._close(bidx)

                out._backward = backward_fn
            return out

        return wrapper

    def _backward(self, fn):
        record = tensor.record
        record_nid = self._nid("trace.record")
        nid = self._nid("tensor.backward")
        tracer = self

        def wrapper(loss, *args, **kwargs):
            # counting the tape is tracing work: its own span keeps it out
            # of the training loop's self time
            idx = tracer._open(record_nid, False)
            tracer.tape_nodes.append(len(record(loss)))
            tracer._close(idx)
            idx = tracer._open(nid, False)
            try:
                return fn(loss, *args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _model_call(self, fn, train_name: str, eval_name: str):
        """A model method; calls made with ``training=True`` get
        ``train_name``, the rest count as forwards that need no gradient."""
        train_nid = self._nid(train_name)
        eval_nid = self._nid(eval_name)
        tracer = self

        def wrapper(*args, **kwargs):
            ev = not kwargs.get("training", False)
            tracer._eval_depth += ev
            idx = tracer._open(eval_nid if ev else train_nid, False)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._eval_depth -= ev

        return wrapper

    def _after_encode(self, args, kwargs, out):
        key = (args[0], args[1], args[3], kwargs.get("mode", "wordpiece"))
        if key in self._encoded:
            self.counts["encode_repeats"] += 1
        self._encoded.add(key)

    def _after_clip(self, args, kwargs, norm):
        threshold = args[1] if len(args) > 1 else kwargs["threshold"]
        self.counts["clipped_steps"] += norm > threshold

    def _after_save(self, args, kwargs, out):
        self.checkpoint_bytes.append(Path(args[1]).stat().st_size)

    def _after_load(self, args, kwargs, out):
        self.checkpoint_bytes.append(Path(args[0]).stat().st_size)

    def _replacements(self):
        out = [(tensor, op, self._op(getattr(tensor, op), op)) for op in OPS]
        out.append((tensor, "backward", self._backward(tensor.backward)))
        out += [(owner, attr, self._stage(owner.__dict__[attr], name)) for owner, attr, name in STAGES]
        out += [
            (transformer, "encode_pair", self._stage(transformer.encode_pair, "tokenizer.encode_pair", self._after_encode)),
            (training, "clip_gradients", self._stage(training.clip_gradients, "training.clip", self._after_clip)),
            (checkpoint, "save_checkpoint", self._stage(checkpoint.save_checkpoint, "checkpoint.save", self._after_save)),
            (checkpoint, "load_checkpoint", self._stage(checkpoint.load_checkpoint, "checkpoint.load", self._after_load)),
        ]
        for cls in MODEL_CLASSES:
            out.append((cls, "batch_loss", self._model_call(cls.__dict__["batch_loss"], "training.forward", "training.eval")))
            out.append((cls, "predict_proba", self._model_call(cls.__dict__["predict_proba"], "evaluate.predict_proba", "evaluate.predict_proba")))
        return out

    @contextmanager
    def installed(self):
        """Wrap every traced function for one run; restore them on exit."""
        self.run_id += 1
        self._encoded = set()
        replacements = self._replacements()
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
        try:
            for owner, attr, wrapper in replacements:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Spans of the latest traced run as gzip TSV: name, start_ns,
        end_ns, parent (data row of the enclosing span, -1 for none), run id.
        Spans never cross runs, so the run's rows are self-contained."""
        first = self.span_run.index(self.run_id)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trun\n")
            for i in range(first, len(self.span_start)):
                parent = self.span_parent[i]
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}"
                    f"\t{parent - first if parent >= 0 else -1}\t{self.span_run[i]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics per traced run (totals divided by the run count)."""
        runs = self.run_id + 1
        names = np.asarray(self.span_name, dtype=np.int64)
        dur = (np.asarray(self.span_end, dtype=np.int64) - np.asarray(self.span_start, dtype=np.int64)) / 1e9
        parent = np.asarray(self.span_parent, dtype=np.int64)
        stage = ~np.asarray(self.op_span, dtype=bool)
        child = np.zeros_like(dur)
        has_parent = stage & (parent >= 0)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        n_names = len(self.names)
        total = np.bincount(names, weights=dur, minlength=n_names)
        own = np.bincount(names, weights=self_time, minlength=n_names)
        calls = np.bincount(names, minlength=n_names)

        def nid(name):
            return self._name_ids.get(name)

        def tot(name):
            i = nid(name)
            return float(total[i]) / runs if i is not None else 0.0

        def self_s(name):
            i = nid(name)
            return float(own[i]) / runs if i is not None else 0.0

        def count(name):
            i = nid(name)
            return float(calls[i]) / runs if i is not None else 0.0

        def durations_ms(name):
            i = nid(name)
            return dur[names == i] * 1e3 if i is not None else np.zeros(0)

        def pct(samples, q):
            return float(np.percentile(samples, q)) if samples.size else 0.0

        m: dict[str, float] = {}
        for op in OPS:
            m[f"tensor.{op}.calls"] = count(f"tensor.{op}")
            m[f"tensor.{op}.fwd_s"] = tot(f"tensor.{op}")
            m[f"tensor.{op}.bwd_s"] = tot(f"tensor.{op}.bwd")
        m["tensor.backward_s"] = tot("tensor.backward")
        m["tensor.tape_nodes_per_step"] = float(statistics.median_low(self.tape_nodes)) if self.tape_nodes else 0.0
        m["tensor.eval_tape_nodes"] = self.counts["eval_tape_nodes"] / runs

        m["transformer.embed_s"] = tot("transformer.embed")
        m["transformer.attention_s"] = tot("transformer.attention")
        m["transformer.block_s"] = self_s("transformer.block")
        m["transformer.head_s"] = self_s("transformer.forward")
        m["transformer.forward_calls"] = count("transformer.forward")
        m["compaggr.encode_s"] = tot("compaggr.encode")
        m["compaggr.align_s"] = tot("compaggr.align")
        m["compaggr.compare_s"] = tot("compaggr.compare")
        m["compaggr.aggregate_s"] = tot("compaggr.aggregate")
        m["compaggr.forward_calls"] = count("compaggr.forward")

        encodes = count("tokenizer.encode_pair")
        m["tokenizer.encode_pair_s"] = tot("tokenizer.encode_pair")
        m["tokenizer.encode_pair_calls"] = encodes
        m["tokenizer.word_tokenize_s"] = tot("tokenizer.word_tokenize")
        m["tokenizer.word_tokenize_calls"] = count("tokenizer.word_tokenize")
        m["tokenizer.train_wordpiece_s"] = tot("tokenizer.train_wordpiece")
        m["tokenizer.build_word_vocab_s"] = tot("tokenizer.build_word_vocab")
        m["tokenizer.encode_repeat_share"] = self.counts["encode_repeats"] / runs / encodes if encodes else 0.0

        steps = self._step_ms()
        m["training.steps"] = count("training.adam")
        m["training.step_ms.p50"] = pct(steps, 50)
        m["training.step_ms.p90"] = pct(steps, 90)
        m["training.step_ms.n"] = float(steps.size)
        m["training.forward_s"] = tot("training.forward")
        m["training.clip_s"] = tot("training.clip")
        m["training.adam_s"] = tot("training.adam")
        m["training.eval_s"] = tot("training.eval")
        m["training.eval_calls"] = count("training.eval")
        m["training.other_s"] = self_s("training.train")
        clips = count("training.clip")
        m["training.clip_share"] = self.counts["clipped_steps"] / runs / clips if clips else 0.0

        def per_call_ms(name):
            return tot(name) * 1e3 / count(name) if count(name) else 0.0

        m["checkpoint.save_ms"] = per_call_ms("checkpoint.save")
        m["checkpoint.load_ms"] = per_call_ms("checkpoint.load")
        m["checkpoint.bytes"] = float(np.mean(self.checkpoint_bytes)) if self.checkpoint_bytes else 0.0
        m["checkpoint.rebuild_ms"] = per_call_ms("checkpoint.rebuild")

        predict = durations_ms("evaluate.predict_proba")
        m["evaluate.predict_proba_s"] = tot("evaluate.predict_proba")
        m["evaluate.predict_proba_calls"] = count("evaluate.predict_proba")
        m["evaluate.predict_ms.p50"] = pct(predict, 50)
        m["evaluate.predict_ms.p99"] = pct(predict, 99)
        m["evaluate.predict_ms.n"] = float(predict.size)
        m["evaluate.assign_s"] = tot("evaluate.assign")
        m["evaluate.write_s"] = tot("evaluate.write")
        m["data.load_jsonl_s"] = tot("data.load_jsonl")
        return m

    def _step_ms(self) -> np.ndarray:
        """One sample per optimizer step: from the start of its training
        forward to the end of its Adam update."""
        fwd, adam = self._name_ids.get("training.forward"), self._name_ids.get("training.adam")
        if fwd is None or adam is None:
            return np.zeros(0)
        out, start = [], None
        for i, nid in enumerate(self.span_name):
            if nid == fwd:
                start = self.span_start[i]
            elif nid == adam and start is not None:
                out.append((self.span_end[i] - start) / 1e6)
                start = None
        return np.asarray(out)
