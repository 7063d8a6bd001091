"""The benchmark's own tests: metric names, the metric lists the code
reports, and a small run of every workload through its output checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = bench.Sizes(
    transformer_train=24, transformer_dev=6, transformer_epochs=1,
    transfer_train=12, transfer_dev=6, transfer_epochs=1,
    predict_vocab=30, predict_test=12,
)

# Per-layer metrics that must be non-zero on each workload because the
# layer runs there, and prefixes that must be zero because it does not.
# Quality values and the clip share are left out: a tiny run may
# legitimately score 0 on them.
RUNS = {
    "train-transformer": (
        ["tensor.matmul.", "tensor.softmax.", "tensor.slice_cols.", "tensor.layer_norm.",
         "tensor.backward_s", "tensor.tape_nodes_per_step", "tensor.eval_tape_nodes", "transformer.",
         "tokenizer.encode_pair", "tokenizer.encode_repeat_share", "tokenizer.train_wordpiece_s",
         "training.step", "training.forward_s", "training.clip_s", "training.adam_s", "training.eval",
         "training.other_s", "training.dev_loss_best", "checkpoint.save_ms", "checkpoint.bytes",
         "data.load_jsonl_s"],
        ["compaggr.", "evaluate.predict", "tokenizer.word_tokenize", "tensor.conv1d_maxpool.",
         "tensor.tanh.", "tensor.stack_cols."],
    ),
    "transfer-compaggr": (
        ["tensor.tanh.", "tensor.stack_cols.", "tensor.conv1d_maxpool.", "tensor.backward_s",
         "tensor.tape_nodes_per_step", "tensor.eval_tape_nodes", "compaggr.", "tokenizer.word_tokenize",
         "tokenizer.build_word_vocab_s", "training.step", "training.forward_s", "training.clip_s",
         "training.adam_s", "training.eval", "training.other_s", "training.dev_loss_best", "checkpoint.",
         "data.load_jsonl_s"],
        ["transformer.", "evaluate.predict", "tokenizer.encode_pair", "tensor.layer_norm.",
         "tensor.slice_cols."],
    ),
    "predict": (
        ["tensor.matmul.calls", "tensor.matmul.fwd_s", "tensor.conv1d_maxpool.fwd_s", "tensor.eval_tape_nodes",
         "transformer.", "compaggr.", "tokenizer.encode_pair", "tokenizer.encode_repeat_share",
         "tokenizer.word_tokenize", "checkpoint.load_ms", "checkpoint.rebuild_ms", "checkpoint.bytes",
         "evaluate.predict", "evaluate.assign_s", "evaluate.write_s", "evaluate.test_nll",
         "evaluate.pointwise_pairs_per_s", "evaluate.listwise_triples_per_s", "data.load_jsonl_s"],
        ["training.", "tensor.backward_s", "tensor.tape_nodes_per_step", "tensor.matmul.bwd_s",
         "tensor.conv1d_maxpool.bwd_s", "checkpoint.save_ms", "evaluate.pairs_skipped"],
    ),
}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_are_valid_and_unique():
    s = spec()
    names = [w["name"] for w in s["workloads"]] + [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_what_the_code_reports():
    s = spec()
    assert [w["name"] for w in s["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == [tuple(m) for m in tracer.PER_LAYER]
    assert s["command"] == ["python3", "perfbench/run.py"]
    assert s["paths"] == ["perfbench"]


def test_expected_evaluations_follow_the_training_schedule():
    # every 20% of 120 examples = 24; batches of 16 reach it every 2 batches
    assert bench.expected_evaluations(120, 1) == 4
    assert bench.expected_evaluations(120, 2) == 8
    # fewer examples than one batch: one evaluation per batch
    assert bench.expected_evaluations(12, 1) == 1


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_plain_smoke_run_reports_every_end_to_end_metric(workload, tmp_path):
    result, record = bench.measure(workload, 7, 0.0, False, tmp_path / "work", sizes=SMALL)
    assert result["correct"], record["errors"]
    assert result["attempted"] > 0 and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["repeats"] >= bench.MIN_REPEATS


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_smoke_run_reports_every_layer_metric(workload, tmp_path):
    spans = tmp_path / "spans.tsv.gz"
    result, record = bench.measure(workload, 7, 0.0, True, tmp_path / "work", sizes=SMALL, spans_path=spans)
    # includes: traced artifacts are byte-identical to the plain ones
    assert result["correct"], record["errors"]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert list(metrics) == [n for n, _, _ in tracer.PER_LAYER]
    runs, idle = RUNS[workload]
    for prefix in runs:
        hit = [n for n in metrics if n.startswith(prefix)]
        assert hit, prefix
        assert all(metrics[n] > 0 for n in hit), {n: metrics[n] for n in hit}
    for prefix in idle:
        assert all(metrics[n] == 0 for n in metrics if n.startswith(prefix)), prefix
    assert spans.stat().st_size > 0


def test_tracer_restores_every_wrapped_function():
    t = tracer.Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in t._replacements()]
    with t.installed():
        assert any(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "predict", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
