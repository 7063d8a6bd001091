import json
import os
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import pytest

from clinli import cli
from clinli.checkpoint import (
    MODEL_KINDS, Checkpoint, load_checkpoint, make_model_config, model_from_checkpoint, save_checkpoint,
)
from clinli.compaggr import CompAggrModel
from clinli.data import LABELS, load_jsonl, save_jsonl
from clinli.errors import NumericError
from clinli.evaluate import group_into_triples, read_predictions
from clinli.model import parse_config
from clinli.tokenizer import train_wordpiece
from clinli.training import TrainConfig
from clinli.transformer import TransformerClassifier, TransformerConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def exit_code(*argv) -> int:
    """``run_cli``'s exit code, also when argparse rejects a flag's value and exits."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


def synth_dir(tmp_path, count=30, seed=0, name="data", **extra) -> Path:
    out = tmp_path / name
    args = ["synth", "--out-dir", out, "--count", count, "--seed", seed]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run_cli(*args) == 0
    return out


def compaggr_run_config(tmp_path, data_dir, **train_overrides):
    cfg = {
        "model": "compaggr",
        "model_config": {"word_dim": 8, "repr_dim": 8, "filters_per_width": 2, "dropout": 0.0},
        "train_config": {"learning_rate": 5e-3, "batch_size": 6, "max_epochs": 2, **train_overrides},
        "chain": [{"train": str(data_dir / "train.jsonl"), "dev": str(data_dir / "dev.jsonl")}],
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def config_section(cfg, section):
    """The object of run config ``cfg`` that holds a key of ``section``:
    the config itself for None, the first stage for "chain"."""
    if section is None:
        return cfg
    return cfg["chain"][0] if section == "chain" else cfg[section]


def assert_config_rejected(capsys, config, out, *names):
    """``train`` exits 2 before writing a checkpoint, and its message names
    the config file and each of ``names``."""
    assert run_cli("train", "--config", config, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in (str(config), *names)), err
    assert not (out / "model.ckpt").exists()


def assert_checkpoint_rejected(capsys, ckpt, dataset, out, *names):
    """``predict`` and ``inspect-checkpoint`` on ``ckpt`` both exit 2, and
    each message names the file and each of ``names``."""
    assert run_cli("predict", "--checkpoint", ckpt, "--dataset", dataset, "--out-dir", out) == 2
    assert run_cli("inspect-checkpoint", "--checkpoint", ckpt) == 2
    errors = capsys.readouterr().err.strip().split("\n")
    assert len(errors) == 2, errors
    assert all(name in err for err in errors for name in (str(ckpt), *names)), errors
    assert not out.exists()


def small_checkpoint(path) -> Path:
    """Write an untrained transformer's checkpoint to ``path``."""
    vocab = train_wordpiece(["the patient has a fever"], target_size=40)
    model = TransformerClassifier(
        TransformerConfig(d_e=4, num_heads=2, num_blocks=1, d_ff=4, max_len=8, dropout=0.0), vocab,
    )
    save_checkpoint(Checkpoint(model.kind, model.config_dict(), list(vocab.tokens), model.tokenizer_mode,
                               {name: p.data for name, p in model.parameters().items()}), path)
    return path


def rewrite_header(src, dst, edit):
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its JSON header."""
    blob = src.read_bytes()
    end = 12 + int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:end])
    edit(header)
    raw = json.dumps(header).encode("ascii")
    dst.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[end:])


class TestSynth:
    def test_default_three_files_with_split(self, tmp_path):
        out = synth_dir(tmp_path, count=300)
        sizes = {name: len(load_jsonl(out / f"{name}.jsonl")) for name in ("train", "dev", "test")}
        assert sizes == {"train": 240, "dev": 30, "test": 30}

    def test_bad_shift_exits_2(self, tmp_path, capsys):
        code = run_cli("synth", "--out-dir", tmp_path / "x", "--transfer-pair", "--shift", "1.5")
        assert code == 2
        assert "error: --shift must be in [0, 1], got 1.5" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_smallest_count_fills_every_split(self, tmp_path):
        out = synth_dir(tmp_path, count=22)
        sizes = {name: len(load_jsonl(out / f"{name}.jsonl")) for name in ("train", "dev", "test")}
        assert sizes == {"train": 18, "dev": 3, "test": 1}

    @pytest.mark.parametrize("count,sizes", [
        (22, (18, 3, 1)), (23, (18, 3, 2)), (24, (18, 3, 3)), (25, (21, 3, 1)),
        (43, (36, 6, 1)), (44, (36, 6, 2)), (45, (36, 6, 3)), (46, (39, 6, 1)),
        (298, (240, 30, 28)), (299, (240, 30, 29)), (300, (240, 30, 30)), (301, (243, 30, 28)),
    ])
    def test_split_gives_train_and_dev_80_and_10_percent_of_premise_groups(self, tmp_path, count, sizes):
        # groups of three pairs that share a premise; the last group of a count not divisible by 3 is short
        out = synth_dir(tmp_path, count=count)
        parts = [load_jsonl(out / f"{name}.jsonl") for name in ("train", "dev", "test")]
        assert tuple(map(len, parts)) == sizes
        premises = [{ex.premise for ex in part} for part in parts]
        assert not (premises[0] & premises[1] or premises[1] & premises[2] or premises[0] & premises[2])

    def test_roundtrip_write_load(self, tmp_path):
        out = synth_dir(tmp_path, count=30, seed=3)
        examples = load_jsonl(out / "train.jsonl")
        assert len(examples) == 24
        assert all(ex.gold_label in ("entailment", "contradiction", "neutral") for ex in examples)

    def test_transfer_pair_files(self, tmp_path):
        out = tmp_path / "pair"
        code = run_cli(
            "synth", "--out-dir", out, "--transfer-pair", "--shift", "0.5",
            "--source-count", 60, "--target-count", 30, "--count", 0,  # both corpora have a count: --count is unused
        )
        assert code == 0
        for stem in ("source_", "target_"):
            for name in ("train", "dev", "test"):
                assert (out / f"{stem}{name}.jsonl").exists()

    @pytest.mark.parametrize("argv,named", [
        (["--source-count", "60"], "--source-count"),
        (["--target-count", "30"], "--target-count"),
        (["--shift", "0.7"], "--shift needs --transfer-pair"),
        (["--vocab-size", "3", "--count", "300"], "vocab_size 3 is too small for count 300"),
        # numpy seeds no generator from a negative integer
        (["--seed", "-1"], "argument --seed: must be a non-negative integer, got '-1'"),
        # 21 examples are 7 premise triples: 6 go to train and none is left for dev
        (["--count", "21"], "--count must be at least 22"),
        (["--transfer-pair", "--source-count", "21"], "--source-count must be at least 22"),
        (["--transfer-pair", "--source-count", "60", "--target-count", "1"], "--target-count must be at least 22"),
        (["--vocab-size", "2"], "--vocab-size must be at least 3, got 2"),
        (["--transfer-pair", "--shift", "2"], "--shift must be in [0, 1], got 2.0"),
        # a transfer pair at shift 1 draws two disjoint pools of 3,000 words from the 4,225 pseudo-words
        (["--transfer-pair", "--shift", "1", "--vocab-size", "3000"], "--vocab-size 3000 at shift 1.0 needs 6000"),
    ], ids=["source_count", "target_count", "shift", "too_few_premises", "negative_seed", "count_below_split",
            "source_count_below_split", "target_count_below_split", "vocab_size_below_3", "shift_above_1",
            "vocab_size_above_lexicon"])
    def test_unusable_flags_exit_2_before_out_dir_is_made(self, tmp_path, capsys, argv, named):
        assert exit_code("synth", "--out-dir", tmp_path / "x", *argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err, err
        assert not (tmp_path / "x").exists()


class TestTrain:
    def test_train_writes_checkpoint_and_summary(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        out = tmp_path / "run_out"
        assert run_cli("train", "--config", config, "--out-dir", out, "--seed", 0) == 0
        stdout = capsys.readouterr().out
        assert "best_dev_loss=" in stdout and "best_dev_acc=" in stdout
        assert (out / "model.ckpt").exists()
        assert (out / "model.ckpt.metrics.tsv").exists()
        assert (out / "summary.txt").read_text().startswith("best_dev_loss=")

    @pytest.mark.parametrize("argv,train_config,named", [
        (["--seed", "-2"], {}, "argument --seed: must be a non-negative integer, got '-2'"),
        ([], {"seed": -3}, "{config}: stage train: seed must be non-negative, got -3"),
    ], ids=["flag", "train_config_key"])
    def test_negative_seed_exits_2_before_out_dir_is_made(self, tmp_path, capsys, argv, train_config, named):
        # numpy seeds no generator from a negative integer; the datasets exist, so only the seed stops the run
        config = compaggr_run_config(tmp_path, synth_dir(tmp_path, count=30, seed=1), **train_config)
        out = tmp_path / "o"
        assert exit_code("train", "--config", config, "--out-dir", out, *argv) == 2
        err = capsys.readouterr().err
        assert named.format(config=config) in err and "Traceback" not in err, err
        assert not out.exists()

    def test_runtime_error_mid_training_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        config = compaggr_run_config(tmp_path, synth_dir(tmp_path, count=30, seed=1))

        def diverged(model_factory, chain):
            raise NumericError("non-finite gradient in parameter 'cls.w'")

        monkeypatch.setattr(cli, "run_chain", diverged)
        out = tmp_path / "o"
        assert run_cli("train", "--config", config, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert err == "error: non-finite gradient in parameter 'cls.w'\n", err
        assert not (out / "model.ckpt").exists()

    def test_missing_dataset_exits_2_before_training(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        cfg = json.loads(config.read_text())
        cfg["chain"][0]["train"] = str(tmp_path / "nope.jsonl")
        config.write_text(json.dumps(cfg))
        out = tmp_path / "run_out"
        assert run_cli("train", "--config", config, "--out-dir", out) == 2
        assert not (out / "model.ckpt").exists()
        assert "nope.jsonl" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "compaggr", "mystery": 1}))
        assert run_cli("train", "--config", path, "--out-dir", tmp_path / "o") == 2

    @pytest.mark.parametrize("section,key", [
        ("model_config", "bogus"), ("train_config", "learning_rte"), ("train_config", "preset"), ("chain", "tset"),
        # datasets are named only by chain stages, and the output directory only by --out-dir
        (None, "datasets"), (None, "out_dir"),
        # abbreviations are expanded only by `clinli expand`, and the run's seed is only `train --seed`
        (None, "abbrev_table"), (None, "seed"),
        # the model kind fixes the tokenizer
        (None, "tokenizer"),
    ])
    def test_unknown_section_key_exits_2_naming_file_and_key(self, tmp_path, capsys, section, key):
        # the datasets do not exist: the error comes before any is read or the output directory is made
        config = compaggr_run_config(tmp_path, tmp_path / "missing")
        cfg = json.loads(config.read_text())
        config_section(cfg, section)[key] = "paper"
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, config, tmp_path / "o", f"keys {[key]}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("model_config", "word_dim", "abc"), ("model_config", "word_dim", 8.5), ("train_config", "batch_size", "8"),
        (None, "vocab_size", "abc"), ("chain", "train", 5),
        # values of the right type that the config class rejects
        ("model_config", "repr_dim", 3), ("train_config", "learning_rate", -1),
        (None, "vocab_size", -5), (None, "head_reset", "bogus"), (None, "model", "bogus"),
        ("model_config", "max_len", 4),  # a transformer's: too short for [CLS] a [SEP] b [SEP]
        # fixed values, no config keys: the clip norm and the filter widths
        ("train_config", "clip_norm", 5.0), ("model_config", "filter_widths", [1, 2, 3, 4, 5]),
        # a lone surrogate escape is not text
        ("chain", "name", "S\ud800"), (None, "model", "word\ud800"),
        (None, "chain", []),  # a run has at least one stage
        # not finite: JSON Infinity, NaN, and "1e400" written as a bare number, which reads as inf
        ("train_config", "learning_rate", float("inf")), ("train_config", "learning_rate", float("nan")),
        ("train_config", "learning_rate", "1e400"),
        ("train_config", "step_fraction", 0), ("train_config", "early_stop_patience", 0),
        ("model_config", "dropout", 1.0),  # a compaggr's; TestHugeHeaderDimension has a transformer's
    ])
    def test_wrong_value_type_exits_2_naming_file_and_key(self, tmp_path, capsys, section, key, value):
        # the datasets do not exist: every value error comes before any dataset is read or the output directory is made
        config = compaggr_run_config(tmp_path, tmp_path / "missing")
        cfg = json.loads(config.read_text())
        if key == "max_len":
            cfg.update(model="transformer", model_config={})
        config_section(cfg, section)[key] = value
        config.write_text(json.dumps(cfg).replace('"1e400"', "1e400"))
        assert_config_rejected(capsys, config, tmp_path / "o", key)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("part,key,text,pair_id,named", [
        ("train", "sentence2", " \t ", "p7", "pair p7: hypothesis tokenized to nothing: ' \\t '"),
        ("train", "sentence1", "\n ", None, "pair idx-2: premise tokenized to nothing: '\\n '"),
        ("dev", "sentence2", " \t ", None, "pair idx-2: hypothesis tokenized to nothing: ' \\t '"),
    ], ids=["train_hypothesis", "train_premise_no_pair_id", "dev_hypothesis"])
    def test_pair_with_nothing_to_encode_exits_2_before_training(self, tmp_path, capsys, part, key, text, pair_id,
                                                                  named):
        data = synth_dir(tmp_path, count=30, seed=1)
        path = data / f"{part}.jsonl"
        lines = path.read_text().splitlines()
        row = {k: v for k, v in json.loads(lines[2]).items() if k != "pairID"}
        lines[2] = json.dumps({**row, key: text, **({} if pair_id is None else {"pairID": pair_id})})
        path.write_text("\n".join(lines) + "\n")
        stage = {"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}
        for kind in sorted(MODEL_KINDS):  # neither tokenizer has a token for a side without a word
            config = tmp_path / f"{kind}.json"
            config.write_text(json.dumps({"model": kind, "chain": [stage]}))
            assert run_cli("train", "--config", config, "--out-dir", tmp_path / "o") == 2
            assert f"error: {path}: stage train {part} dataset, {named}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_num_classes_is_not_a_model_config_key(self, tmp_path, capsys):
        # the head width is the label count; the datasets do not exist, so the error comes before any is read
        config = compaggr_run_config(tmp_path, tmp_path / "missing")
        cfg = json.loads(config.read_text())
        cfg["model_config"]["num_classes"] = 3
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, config, tmp_path / "o", "num_classes")
        assert not (tmp_path / "o").exists()

    def test_vocab_size_below_alphabet_floor_names_file_and_key(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=24, seed=10)
        cfg = {
            "model": "transformer", "vocab_size": 5, "model_config": {"d_e": 8, "num_heads": 2, "num_blocks": 1},
            "chain": [{"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}],
        }
        config = tmp_path / "run.json"
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, config, tmp_path / "o", "vocab_size", "alphabet floor")

    def test_train_config_not_an_object_exits_2_naming_file_and_key(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        cfg = json.loads(config.read_text())
        cfg["train_config"] = [1]
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, config, tmp_path / "o", "train_config")

    def test_overfit_config_reports_full_accuracy(self, tmp_path, capsys):
        # dev pointed at the training data: the summary's best_dev_acc is
        # the training accuracy, which must reach 1.0 on 30 pairs
        data = synth_dir(tmp_path, count=30, seed=12)
        cfg = {
            "model": "compaggr",
            "model_config": {"word_dim": 16, "repr_dim": 16, "filters_per_width": 4, "dropout": 0.0},
            "train_config": {"learning_rate": 3e-3, "batch_size": 10, "max_epochs": 60,
                             "early_stop_patience": 10, "step_fraction": 1.0},
            "chain": [{"train": str(data / "train.jsonl"), "dev": str(data / "train.jsonl")}],
        }
        path = tmp_path / "overfit.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "overfit_out"
        assert run_cli("train", "--config", path, "--out-dir", out, "--seed", 0) == 0
        summary = (out / "summary.txt").read_text()
        assert "best_dev_acc=1.0" in summary

    def test_reproducible_byte_for_byte(self, tmp_path):
        data = synth_dir(tmp_path, count=30, seed=2)
        config = compaggr_run_config(tmp_path, data)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("train", "--config", config, "--out-dir", out, "--seed", 5) == 0
            outs.append(out)
        for fname in ("model.ckpt", "model.ckpt.metrics.tsv", "summary.txt"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname


class TestTransfer:
    def test_unnamed_stage_is_named_after_its_train_file(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=3)
        config = compaggr_run_config(tmp_path, data)
        out = tmp_path / "run_out"
        assert run_cli("train", "--config", config, "--out-dir", out, "--seed", 1) == 0
        assert "(chain: train)" in capsys.readouterr().out
        assert load_checkpoint(out / "model.ckpt").provenance == ["train"]

    def test_two_stage_chain_provenance(self, tmp_path, capsys):
        src = synth_dir(tmp_path, count=30, seed=4, name="src")
        tgt = synth_dir(tmp_path, count=30, seed=5, name="tgt")
        cfg = {
            "model": "compaggr",
            "model_config": {"word_dim": 8, "repr_dim": 8, "filters_per_width": 2, "dropout": 0.0},
            "train_config": {"learning_rate": 5e-3, "batch_size": 6, "max_epochs": 2},
            "chain": [
                {"name": "S", "train": str(src / "train.jsonl"), "dev": str(src / "dev.jsonl")},
                {"name": "T", "train": str(tgt / "train.jsonl"), "dev": str(tgt / "dev.jsonl")},
            ],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "chain_out"
        assert run_cli("train", "--config", path, "--out-dir", out) == 0
        assert "(chain: S -> T)" in capsys.readouterr().out

    def test_chain_reports_the_final_stages_best_evaluation(self, tmp_path, capsys):
        # the target dev labels are rotated, so no target evaluation reaches the source's best dev loss
        src = synth_dir(tmp_path, count=30, seed=4, name="src")
        tgt = synth_dir(tmp_path, count=30, seed=5, name="tgt")
        rotated = [replace(ex, gold_label=LABELS[(LABELS.index(ex.gold_label) + 1) % 3])
                   for ex in load_jsonl(tgt / "dev.jsonl")]
        save_jsonl(tmp_path / "rotated_dev.jsonl", rotated)
        source_evals = 6  # one evaluation per epoch, and patience outlasts them all
        cfg = {
            "model": "compaggr",
            "model_config": {"word_dim": 8, "repr_dim": 8, "filters_per_width": 2, "dropout": 0.0},
            "train_config": {"learning_rate": 5e-3, "batch_size": 6, "max_epochs": 2},
            "chain": [
                {"name": "S", "train": str(src / "train.jsonl"), "dev": str(src / "dev.jsonl"),
                 "train_config": {"max_epochs": source_evals, "step_fraction": 1.0,
                                  "early_stop_patience": source_evals}},
                {"name": "T", "train": str(tgt / "train.jsonl"), "dev": str(tmp_path / "rotated_dev.jsonl")},
            ],
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "chain_out"
        assert run_cli("train", "--config", path, "--out-dir", out) == 0
        ckpt = load_checkpoint(out / "model.ckpt")
        source, target = ckpt.history[:source_evals], ckpt.history[source_evals:]
        assert [row.step for row in ckpt.history] == list(range(1, len(ckpt.history) + 1)) and target
        assert min(r.dev_loss for r in source) < min(r.dev_loss for r in target)

        best = ckpt.best()
        assert best == min(target, key=lambda row: row.dev_loss) and best.step == ckpt.best_step
        summary = f"best_dev_loss={best.dev_loss!r}, best_dev_acc={best.dev_accuracy!r}\n"
        assert (out / "summary.txt").read_text() == summary
        capsys.readouterr()
        assert run_cli("inspect-checkpoint", "--checkpoint", out / "model.ckpt") == 0
        assert f"best_dev_loss={best.dev_loss!r} at step {best.step}\n" in capsys.readouterr().out
        # the stored parameters are the ones that evaluation scored
        loss, _ = model_from_checkpoint(ckpt).batch_loss(rotated)
        assert float(loss.data) / len(rotated) == pytest.approx(best.dev_loss, rel=1e-12)

    def test_empty_dataset_exits_2_naming_file_and_stage_before_training(self, tmp_path, capsys):
        # the second stage's dev file is empty: nothing may train, not even the first stage
        data = synth_dir(tmp_path, count=30, seed=4)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        cfg = json.loads(compaggr_run_config(tmp_path, data).read_text())
        stage = {"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}
        cfg["chain"] = [{"name": "S", **stage}, {"name": "T", **stage, "dev": str(empty)}]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "chain_out"
        assert run_cli("train", "--config", path, "--out-dir", out) == 2
        assert f"error: {empty}: stage T dev dataset is empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,key", [
        ({"name": 3}, "name"), ({"trian": "x"}, "trian"), ({"dev": None}, "dev"),
        ({"train_config": {"batch_size": 0}}, "batch_size"),
    ])
    def test_malformed_stage_exits_2_before_training(self, tmp_path, capsys, edit, key):
        # the second stage is malformed: nothing may train, not even the first
        data = synth_dir(tmp_path, count=30, seed=4)
        cfg = json.loads(compaggr_run_config(tmp_path, data).read_text())
        stage = {"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}
        bad = {k: v for k, v in {**stage, **edit}.items() if v is not None}  # None deletes a key
        cfg["chain"] = [{"name": "S", **stage}, bad]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, path, tmp_path / "chain_out", key)


class TestPredictEval:
    @pytest.fixture
    def trained(self, tmp_path):
        data = synth_dir(tmp_path, count=30, seed=6)
        config = compaggr_run_config(tmp_path, data)
        out = tmp_path / "trained"
        assert run_cli("train", "--config", config, "--out-dir", out) == 0
        return data, out / "model.ckpt"

    def test_pointwise_predict_and_eval_self_consistency(self, tmp_path, trained):
        data, ckpt = trained
        pred_dir = tmp_path / "preds"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", data / "test.jsonl",
                       "--mode", "pointwise", "--out-dir", pred_dir) == 0
        preds = read_predictions(pred_dir / "predictions.tsv")
        test_set = load_jsonl(data / "test.jsonl")
        assert len(preds) == len(test_set)

        # gold = predictions: accuracy must be 1.0
        relabeled = tmp_path / "relabel.jsonl"
        by_id = {p.pair_id: p.predicted_label for p in preds}
        lines = []
        for ex in test_set:
            lines.append(json.dumps({
                "sentence1": ex.premise, "sentence2": ex.hypothesis,
                "gold_label": by_id[ex.pair_id], "pairID": ex.pair_id,
            }, sort_keys=True))
        relabeled.write_text("\n".join(lines) + "\n")
        eval_dir = tmp_path / "eval"
        assert run_cli("eval", "--predictions", pred_dir / "predictions.tsv",
                       "--dataset", relabeled, "--out-dir", eval_dir) == 0
        metrics = dict(
            line.split("=", 1) for line in (eval_dir / "metrics.txt").read_text().splitlines()
        )
        assert float(metrics["accuracy"]) == 1.0

    def test_listwise_mode_bijection_per_triple(self, tmp_path, trained):
        data, ckpt = trained
        pred_dir = tmp_path / "lw"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", data / "test.jsonl",
                       "--mode", "listwise", "--out-dir", pred_dir) == 0
        preds = read_predictions(pred_dir / "predictions.tsv")
        by_group = {}
        for p in preds:
            by_group.setdefault(p.pair_id.rsplit("-", 1)[0], []).append(p.predicted_label)
        for labels in by_group.values():
            assert sorted(labels) == ["contradiction", "entailment", "neutral"]
        report = dict(
            line.split("=", 1) for line in (pred_dir / "predict_report.txt").read_text().splitlines()
        )
        assert report["mode"] == "listwise"
        assert report["n_fallback_pointwise"] == "0"

    def test_listwise_fallback_counted(self, tmp_path, trained, capsys):
        data, ckpt = trained
        train_set = load_jsonl(data / "train.jsonl")
        broken = tmp_path / "broken.jsonl"
        with open(broken, "w") as fh:
            for ex in train_set[:4]:  # one complete triple + one leftover
                fh.write(json.dumps({
                    "sentence1": ex.premise, "sentence2": ex.hypothesis,
                    "gold_label": ex.gold_label, "pairID": ex.pair_id,
                }, sort_keys=True) + "\n")
        pred_dir = tmp_path / "fb"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", broken,
                       "--mode", "listwise", "--out-dir", pred_dir) == 0
        assert "fell back to pointwise" in capsys.readouterr().out
        report = dict(
            line.split("=", 1) for line in (pred_dir / "predict_report.txt").read_text().splitlines()
        )
        assert report["n_fallback_pointwise"] == "1"
        assert report["n_triples"] == "1"

    def test_listwise_labels_do_not_depend_on_gold_labels(self, tmp_path, trained):
        data, ckpt = trained
        examples = load_jsonl(data / "train.jsonl")[:6]  # two premises, three pairs each
        docs = [{"sentence1": ex.premise, "sentence2": ex.hypothesis,
                 "gold_label": ex.gold_label, "pairID": ex.pair_id} for ex in examples]
        datasets = {"gold": tmp_path / "gold.jsonl", "neutral": tmp_path / "neutral.jsonl"}
        datasets["gold"].write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))
        datasets["neutral"].write_text("".join(json.dumps({**d, "gold_label": "neutral"}, sort_keys=True) + "\n"
                                               for d in docs))
        triples, skipped = group_into_triples(load_jsonl(datasets["neutral"]))
        assert [tuple(ex.pair_id for ex in t.examples) for t in triples] == [
            tuple(d["pairID"] for d in docs[:3]), tuple(d["pairID"] for d in docs[3:])]
        assert skipped == 0
        for mode in ("listwise", "pointwise"):
            for name, dataset in datasets.items():
                assert run_cli("predict", "--checkpoint", ckpt, "--dataset", dataset,
                               "--mode", mode, "--out-dir", tmp_path / mode / name) == 0
            for artifact in ("predictions.tsv", "predict_report.txt"):
                gold, neutral = ((tmp_path / mode / name / artifact).read_bytes() for name in datasets)
                assert gold == neutral, (mode, artifact)
        report = (tmp_path / "listwise" / "neutral" / "predict_report.txt").read_text()
        assert "n_triples=2\n" in report and "n_fallback_pointwise=0\n" in report

    def test_listwise_unencodable_pair_falls_back_to_pointwise(self, tmp_path, trained):
        data, ckpt = trained
        examples = load_jsonl(data / "train.jsonl")[:6]  # two complete triples
        docs = [{"sentence1": ex.premise, "sentence2": ex.hypothesis,
                 "gold_label": ex.gold_label, "pairID": ex.pair_id} for ex in examples]
        docs[4]["sentence2"] = "   "  # tokenizes to nothing
        dataset = tmp_path / "blank.jsonl"
        dataset.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))
        pred_dir = tmp_path / "blank"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", dataset,
                       "--mode", "listwise", "--out-dir", pred_dir) == 0
        report = dict(
            line.split("=", 1) for line in (pred_dir / "predict_report.txt").read_text().splitlines()
        )
        assert (report["n_triples"], report["n_fallback_pointwise"], report["n_errors"]) == ("1", "3", "1")
        preds = read_predictions(pred_dir / "predictions.tsv")
        assert [p.pair_id for p in preds] == [ex.pair_id for i, ex in enumerate(examples) if i != 4]

    def test_listwise_ids_without_pair_ids_follow_dataset_positions(self, tmp_path, trained):
        data, ckpt = trained
        # two complete triples, then one pair left for the point-wise fallback
        examples = load_jsonl(data / "train.jsonl")[:7]
        no_ids = tmp_path / "no_ids.jsonl"
        no_ids.write_text("".join(
            json.dumps({"sentence1": ex.premise, "sentence2": ex.hypothesis, "gold_label": ex.gold_label},
                       sort_keys=True) + "\n"
            for ex in examples
        ))
        pred_dir = tmp_path / "noid"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", no_ids,
                       "--mode", "listwise", "--out-dir", pred_dir) == 0
        preds = read_predictions(pred_dir / "predictions.tsv")
        assert [p.pair_id for p in preds] == [f"idx-{i}" for i in range(7)]
        point_dir = tmp_path / "noid_point"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", no_ids,
                       "--mode", "pointwise", "--out-dir", point_dir) == 0
        point = {p.pair_id: p.probs for p in read_predictions(point_dir / "predictions.tsv")}
        for p in preds:
            assert (p.probs == point[p.pair_id]).all()
        assert run_cli("eval", "--predictions", pred_dir / "predictions.tsv",
                       "--dataset", no_ids, "--out-dir", tmp_path / "noid_eval") == 0

    @pytest.mark.parametrize("with_ids", [True, False], ids=["pair_ids", "no_pair_ids"])
    def test_each_pair_is_scored_once_and_rows_follow_dataset_order(self, tmp_path, trained, monkeypatch, with_ids):
        data, ckpt = trained
        examples = load_jsonl(data / "train.jsonl")[:6]  # two complete triples
        docs = [{"sentence1": ex.premise, "sentence2": ex.hypothesis, "gold_label": ex.gold_label,
                 **({"pairID": ex.pair_id} if with_ids else {})} for ex in examples]
        docs[1]["sentence2"] = "   "  # the first triple holds a pair the model cannot encode
        dataset = tmp_path / "blank.jsonl"
        dataset.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))
        scored = []
        predict_proba = CompAggrModel.predict_proba

        def counted(model, premise, hypothesis):
            scored.append(hypothesis)
            return predict_proba(model, premise, hypothesis)

        monkeypatch.setattr(CompAggrModel, "predict_proba", counted)
        rows = {}
        for mode in ("listwise", "pointwise"):
            scored.clear()
            assert run_cli("predict", "--checkpoint", ckpt, "--dataset", dataset,
                           "--mode", mode, "--out-dir", tmp_path / mode) == 0
            assert scored == [d["sentence2"] for d in docs]
            rows[mode] = read_predictions(tmp_path / mode / "predictions.tsv")
        names = [ex.pair_id if with_ids else f"idx-{i}" for i, ex in enumerate(examples) if i != 1]
        assert [p.pair_id for p in rows["listwise"]] == names == [p.pair_id for p in rows["pointwise"]]
        for lw, pw in zip(rows["listwise"], rows["pointwise"]):
            assert lw.probs.tobytes() == pw.probs.tobytes()
        # the triple with the skipped pair keeps its point-wise labels; the other is relabeled exclusively
        labels = {mode: [p.predicted_label for p in preds] for mode, preds in rows.items()}
        assert labels["listwise"][:2] == labels["pointwise"][:2]
        assert sorted(labels["listwise"][2:]) == ["contradiction", "entailment", "neutral"]

    @pytest.mark.parametrize("mode", ["pointwise", "listwise", "train", "expand"])  # predict's two modes, or a command
    @pytest.mark.parametrize("pair_ids,repeated", [
        (["a", "b", "a", "c"], "a"),
        (["idx-3", None, None, None], "idx-3"),  # an id-less pair is named by its position
    ], ids=["repeated_pair_id", "pair_id_names_an_id_less_position"])
    def test_predict_rejects_a_repeated_pair_id_before_making_out_dir(self, tmp_path, capsys, mode, pair_ids,
                                                                      repeated):
        dataset = tmp_path / "dup.jsonl"
        dataset.write_text("".join(
            json.dumps({"sentence1": f"premise {i}", "sentence2": "the patient has a fever",
                        "gold_label": "neutral", **({"pairID": pid} if pid else {})}) + "\n"
            for i, pid in enumerate(pair_ids)
        ))
        (tmp_path / "run.json").write_text(json.dumps({"model": "compaggr", "chain": [
            {"train": str(dataset), "dev": str(dataset)}]}))
        (tmp_path / "table.tsv").write_text("MI\tmyocardial infarction\n")
        argv = {
            "train": ["train", "--config", tmp_path / "run.json"],
            "expand": ["expand", "--dataset", dataset, "--table", tmp_path / "table.tsv"],
        }.get(mode, ["predict", "--checkpoint", small_checkpoint(tmp_path / "small.ckpt"), "--dataset", dataset,
                     "--mode", mode])
        out = tmp_path / "out"
        assert run_cli(*argv, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert f"{dataset}: " in err and f"repeat pair id {repeated!r}" in err, err
        assert mode != "train" or f"{dataset}: stage dup train dataset: " in err, err
        assert not out.exists()

    def test_eval_rejects_duplicate_pair_ids(self, tmp_path, trained, capsys):
        data, ckpt = trained
        pred_dir = tmp_path / "dup"
        assert run_cli("predict", "--checkpoint", ckpt, "--dataset", data / "test.jsonl",
                       "--out-dir", pred_dir) == 0
        rows = (pred_dir / "predictions.tsv").read_text().splitlines()
        (pred_dir / "dup.tsv").write_text("\n".join(rows + rows[:1]) + "\n")
        capsys.readouterr()
        assert run_cli("eval", "--predictions", pred_dir / "dup.tsv",
                       "--dataset", data / "test.jsonl", "--out-dir", tmp_path / "dup_eval") == 2
        assert "repeat pair id" in capsys.readouterr().err

    def test_eval_three_prediction_files_exits_2_before_reading_them(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_bytes(jsonl_line())
        (tmp_path / "a.tsv").write_text("p1\t0.2\t0.3\t0.5\tneutral\n")
        (tmp_path / "bad.tsv").write_text("not a prediction\n")
        assert run_cli("eval", "--predictions", tmp_path / "a.tsv", tmp_path / "a.tsv", tmp_path / "bad.tsv",
                       "--dataset", gold, "--out-dir", tmp_path / "e") == 2
        assert "eval takes one or two prediction files" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_eval_non_numeric_probability_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "neutral",
                                    "pairID": "p1"}) + "\n")
        preds = tmp_path / "bad.tsv"
        preds.write_text("p1\t0.2\tabc\t0.3\tneutral\n")
        assert run_cli("eval", "--predictions", preds, "--dataset", gold, "--out-dir", tmp_path / "e") == 2
        assert f"{preds}:1:" in capsys.readouterr().err

    def test_eval_with_no_correct_prediction_writes_undefined_confidence(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_bytes(jsonl_line())  # gold label neutral
        preds = tmp_path / "wrong.tsv"
        preds.write_text("p1\t0.5\t0.3\t0.2\tentailment\n")
        assert run_cli("eval", "--predictions", preds, "--dataset", gold, "--out-dir", tmp_path / "e") == 0
        lines = (tmp_path / "e" / "metrics.txt").read_text().splitlines()
        assert lines == ["accuracy=0.0", "mean_correct_confidence=undefined", "n=1"]
        assert "mean_correct_confidence=undefined" in capsys.readouterr().out

    def test_agreement_report_matches_hand_count(self, tmp_path):
        # 10-example fixture with known agreement pattern
        gold_path = tmp_path / "gold.jsonl"
        rows_a, rows_b, gold_lines = [], [], []
        hi = {"entailment": (0.8, 0.1, 0.1), "contradiction": (0.1, 0.8, 0.1), "neutral": (0.1, 0.1, 0.8)}
        # a correct on 0-5 (6), b correct on 4-7 (4): both 2, only_a 4, only_b 2, neither 2
        for i in range(10):
            gold_lines.append(json.dumps({
                "sentence1": f"p {i}", "sentence2": f"h {i}",
                "gold_label": "entailment", "pairID": f"x{i}",
            }, sort_keys=True))
            a_label = "entailment" if i < 6 else "neutral"
            b_label = "entailment" if 4 <= i < 8 else "contradiction"
            rows_a.append(f"x{i}\t{hi[a_label][0]!r}\t{hi[a_label][1]!r}\t{hi[a_label][2]!r}\t{a_label}")
            rows_b.append(f"x{i}\t{hi[b_label][0]!r}\t{hi[b_label][1]!r}\t{hi[b_label][2]!r}\t{b_label}")
        gold_path.write_text("\n".join(gold_lines) + "\n")
        (tmp_path / "a.tsv").write_text("\n".join(rows_a) + "\n")
        (tmp_path / "b.tsv").write_text("\n".join(rows_b) + "\n")
        eval_dir = tmp_path / "agree"
        assert run_cli("eval", "--predictions", tmp_path / "a.tsv", tmp_path / "b.tsv",
                       "--dataset", gold_path, "--out-dir", eval_dir) == 0
        metrics = dict(
            line.split("=", 1) for line in (eval_dir / "metrics.txt").read_text().splitlines()
        )
        assert metrics["agreement_both_count"] == "2"
        assert metrics["agreement_only_a_count"] == "4"
        assert metrics["agreement_only_b_count"] == "2"
        assert metrics["agreement_neither_count"] == "2"
        assert float(metrics["model_a_accuracy"]) == 0.6
        assert float(metrics["model_b_accuracy"]) == 0.4

    def test_checkpoint_model_mismatch_exits_2(self, tmp_path, trained):
        data, ckpt = trained
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"NOTMAGIC" + bytes(16))
        assert run_cli("predict", "--checkpoint", bogus, "--dataset", data / "test.jsonl",
                       "--out-dir", tmp_path / "p") == 2

    def test_checkpoint_config_extra_key_exits_2(self, tmp_path, trained, capsys):
        data, ckpt = trained
        loaded = load_checkpoint(ckpt)
        loaded.model_config["bogus"] = 1
        bad = tmp_path / "extra_key.ckpt"
        save_checkpoint(loaded, bad)
        assert run_cli("predict", "--checkpoint", bad, "--dataset", data / "test.jsonl",
                       "--out-dir", tmp_path / "p") == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "bogus" in err

    def test_checkpoint_config_wrong_type_exits_2(self, tmp_path, trained, capsys):
        data, ckpt = trained
        loaded = load_checkpoint(ckpt)
        loaded.model_config["word_dim"] = "abc"
        bad = tmp_path / "wrong_type.ckpt"
        save_checkpoint(loaded, bad)
        assert run_cli("predict", "--checkpoint", bad, "--dataset", data / "test.jsonl",
                       "--out-dir", tmp_path / "p") == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "word_dim" in err

    @pytest.mark.parametrize("edit,named", [
        (lambda c: c.model_config.update(repr_dim=3), "repr_dim"),
        (lambda c: setattr(c, "kind", ["compaggr"]), "['compaggr']"),
        (lambda c: setattr(c, "provenance", 5), "provenance"),
        (lambda c: setattr(c, "vocab_tokens", 5), "vocab"),
        (lambda c: setattr(c, "vocab_tokens", [1, 2, 3, 4]), "vocab"),
        (lambda c: c.vocab_tokens.append(c.vocab_tokens[-1]), "duplicate tokens in vocabulary"),
        (lambda c: setattr(c, "tokenizer_mode", 5), "tokenizer_mode"),
        (lambda c: setattr(c, "tokenizer_mode", "bogus"), "tokenizer_mode"),
        (lambda c: setattr(c, "best_step", "x"), "best_step"),
        (lambda c: setattr(c, "best_step", 99), "no row of step 99, the best_step of"),
        # one NaN weight would make every softmax fail: the file is rejected, not each pair
        (lambda c: c.params["cls.w"].put(0, float("nan")), "block 'cls.w': holds NaN or inf"),
    ], ids=["repr_dim", "kind", "provenance", "vocab", "vocab_ints", "vocab_repeat", "tokenizer_int", "tokenizer_mode",
            "best_step", "best_step_no_row", "nan_block"])
    def test_checkpoint_header_value_rejected_exits_2(self, tmp_path, trained, capsys, edit, named):
        data, ckpt = trained
        loaded = load_checkpoint(ckpt)
        edit(loaded)
        bad = tmp_path / "bad_value.ckpt"
        save_checkpoint(loaded, bad)
        assert_checkpoint_rejected(capsys, bad, data / "test.jsonl", tmp_path / "p", named)

    @pytest.mark.parametrize("edit,named", [
        (lambda h: h.update(mystery=1), "mystery"),
        (lambda h: h.pop("best_step"), "best_step"),
        (lambda h: h["blocks"][0].update(shape=[-1]), "shape"),
        (lambda h: h["blocks"][0].update(name=5), "name"),
        (lambda h: h["blocks"][1].update(name=h["blocks"][0]["name"]), "repeats a name"),
        (lambda h: h["config"].update(num_classes=3), "num_classes"),
        (lambda h: h.update(format_version=1), "unsupported format_version 1"),
        # a version-2 header: Adam's step count where best_step is now
        (lambda h: h.update(format_version=2, adam_t=h.pop("best_step")), "unsupported format_version 2"),
        (lambda h: h["config"].update(filter_widths=[1, 2, 3, 4, 5]), "filter_widths"),
        # a lone surrogate escape is not text
        (lambda h: h.update(provenance=["tr\ud800"]), "provenance"),
        (lambda h: h["blocks"][0].update(name="cls.w\ud800"), "block name"),
        (lambda h: h.update(vocab=[]), "vocabulary must start with"),
        (lambda h: h["blocks"][0].update(shape=[0] * 65), "of shape [0, 0"),  # numpy caps an array at 64 axes
    ], ids=["unknown_key", "missing_key", "block_shape", "block_name", "repeated_block", "num_classes",
            "format_version_1", "format_version_2", "filter_widths", "provenance_surrogate", "block_name_surrogate",
            "empty_vocab", "block_of_65_axes"])
    def test_malformed_checkpoint_header_exits_2(self, tmp_path, trained, capsys, edit, named):
        data, ckpt = trained
        bad = tmp_path / "bad_header.ckpt"
        rewrite_header(ckpt, bad, edit)
        assert_checkpoint_rejected(capsys, bad, data / "test.jsonl", tmp_path / "p", named)

    def test_renamed_block_exits_2_naming_file_and_block(self, tmp_path, trained, capsys):
        data, ckpt = trained
        renamed = []

        def edit(header):
            renamed.append(header["blocks"][0]["name"])
            header["blocks"][0]["name"] = "renamed.block"

        bad = tmp_path / "renamed_block.ckpt"
        rewrite_header(ckpt, bad, edit)
        assert_checkpoint_rejected(capsys, bad, data / "test.jsonl", tmp_path / "p",
                                   f"missing block {renamed[0]!r}", "extra block 'renamed.block'")

    def test_word_level_transformer_checkpoint_exits_2(self, tmp_path, capsys):
        # a transformer reads word pieces only, so a header naming the word-level tokenizer is not loaded
        data = synth_dir(tmp_path, count=30)
        bad = tmp_path / "word_transformer.ckpt"
        rewrite_header(small_checkpoint(tmp_path / "small.ckpt"), bad, lambda h: h.update(tokenizer_mode="word"))
        assert_checkpoint_rejected(capsys, bad, data / "test.jsonl", tmp_path / "p", "tokenizer_mode", "'word'")

    def test_reordered_blocks_exit_2_naming_file_and_both_blocks(self, tmp_path, trained, capsys):
        data, ckpt = trained
        loaded = load_checkpoint(ckpt)
        first, second, *rest = loaded.params
        loaded.params = {name: loaded.params[name] for name in (second, first, *rest)}
        bad = tmp_path / "reordered.ckpt"
        save_checkpoint(loaded, bad)
        assert_checkpoint_rejected(capsys, bad, data / "test.jsonl", tmp_path / "p",
                                   f"missing block {first!r}", f"extra block {second!r}")


class TestHugeHeaderDimension:
    @pytest.mark.parametrize("key,value,named", [
        ("d_ff", 4_000_000, "block 'block0.ffn.w1'"),  # a 4 x 4,000,000 float64 block alone is 128 MB
        ("num_blocks", 2**31, "missing block 'block1.attn.wq'"),
        ("dropout", 1.0, "dropout must be in [0, 1), got 1.0"),  # a transformer's; TestTrain has a compaggr's
    ], ids=["d_ff", "num_blocks", "dropout"])
    def test_predict_and_inspect_exit_2_before_allocating_the_claimed_model(self, tmp_path, capsys, key, value, named):
        data = synth_dir(tmp_path, count=30)
        small = small_checkpoint(tmp_path / "small.ckpt")
        huge = tmp_path / "huge.ckpt"
        rewrite_header(small, huge, lambda h: h["config"].update({key: value}))
        tracemalloc.start()
        try:
            assert_checkpoint_rejected(capsys, huge, data / "test.jsonl", tmp_path / "p", named)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, peak

PAIR = {"sentence1": "pt has MI", "sentence2": "pt is ill", "gold_label": "neutral", "pairID": "p1"}


def jsonl_line(**changes) -> bytes:
    return json.dumps({**PAIR, **changes}).encode() + b"\n"


class TestMalformedInputs:
    """A malformed dataset, prediction file, abbreviation table or run config
    exits 2 with a message naming ``file:line``, or only the file when the
    fault lies in no one line, and leaves no out dir."""

    COMMANDS = {
        "expand": ["expand", "--dataset", "data.jsonl", "--table", "table.tsv"],
        "eval": ["eval", "--predictions", "preds.tsv", "--dataset", "data.jsonl"],
        "predict": ["predict", "--checkpoint", "model.ckpt", "--dataset", "data.jsonl"],
        "train": ["train", "--config", "run.json"],
    }

    @pytest.mark.parametrize("command,name,content,line,named", [
        ("expand", "data.jsonl", jsonl_line() + b'{"sentence1": "caf\xff"}\n', 2, "not UTF-8"),
        ("expand", "data.jsonl", jsonl_line(sentence1=5), 1, "sentence1"),
        ("eval", "data.jsonl", jsonl_line(pairID=7), 1, "pairID"),
        # a pair id becomes a field of a predictions.tsv row
        ("eval", "data.jsonl", jsonl_line(pairID="p\t1"), 1, "pairID"),
        ("eval", "data.jsonl", jsonl_line(pairID="p\n1"), 1, "pairID"),
        ("eval", "data.jsonl", jsonl_line(pairID="p\r1"), 1, "pairID"),
        ("eval", "data.jsonl", jsonl_line(gold_label=None), 1, "gold_label"),
        ("eval", "preds.tsv", b"p1\t0.2\t0.3\t0.5\tneutral\xff\n", 1, "not UTF-8"),
        ("expand", "table.tsv", b"# table\nMI\xff\tx\n", 2, "not UTF-8"),
        ("expand", "table.tsv", b"# table\nMI\tmi\n", 2, "expansion equals its surface"),
        # case-insensitive matching equates i and dotless i: the second entry could never fire
        ("expand", "table.tsv", "i\tiodine\n\u0131\tdotless\n".encode(), 2,
         "duplicate surface '\u0131' (first at line 1)"),
        ("expand", "data.jsonl", jsonl_line() + b'{"sentence1": ' + b"1" * 5000 + b"}\n", 2, "invalid JSON"),
        ("train", "run.json", b'{\n"seed": "\xff"}\n', 2, "not UTF-8"),
        ("train", "run.json", b"[" * 100_000, None, "invalid JSON"),  # no line: the whole file nests too deep
        ("expand", "data.jsonl", jsonl_line() + jsonl_line(sentence1="caf\ud800 MI"), 2, "sentence1"),
        ("eval", "preds.tsv", b"p1\t-1.0\t1.0\t1.0\tneutral\n", 1, "negative"),
        # rows that parse but cannot be aligned with the dataset: no line to name
        ("eval", "preds.tsv", b"", None, "no predictions to score"),
        ("eval", "preds.tsv", b"zz\t0.2\t0.3\t0.5\tneutral\n", None, "without matching gold examples: ['zz']"),
        ("eval", "preds.tsv", b"p1\t0.2\t0.3\t0.5\tneutral\n" * 2, None, "predictions repeat pair id 'p1'"),
        ("eval", "data.jsonl", jsonl_line() * 2, None, "gold examples repeat pair id 'p1'"),
        ("eval", "data.jsonl", b"", None, "dataset is empty"),
        ("predict", "data.jsonl", b"", None, "dataset is empty"),
        ("expand", "data.jsonl", b"\n \n", None, "dataset is empty"),  # blank lines only
        ("expand", "data.jsonl", jsonl_line(sentence2=""), 1, "premise and hypothesis must be non-empty"),
        ("train", "run.json", b"[]", None, "RunConfig must be a JSON object, got []"),
    ], ids=["dataset_utf8", "sentence1_int", "pair_id_int", "pair_id_tab", "pair_id_line_feed",
            "pair_id_carriage_return", "gold_label_null", "predictions_utf8", "table_utf8", "table_identity",
            "table_matcher_duplicate", "dataset_long_int", "run_config_utf8", "run_config_nesting", "dataset_surrogate",
            "predictions_negative", "predictions_empty", "predictions_unmatched_id", "predictions_repeated_id",
            "dataset_repeated_id", "eval_dataset_empty", "predict_dataset_empty", "expand_dataset_empty",
            "hypothesis_empty", "run_config_not_an_object"])
    def test_exits_2_naming_file_and_line(self, tmp_path, capsys, command, name, content, line, named):
        (tmp_path / "data.jsonl").write_bytes(jsonl_line())
        (tmp_path / "preds.tsv").write_text("p1\t0.2\t0.3\t0.5\tneutral\n")
        (tmp_path / "table.tsv").write_text("MI\tmyocardial infarction\n")
        small_checkpoint(tmp_path / "model.ckpt")
        (tmp_path / "run.json").write_text(json.dumps({"model": "compaggr", "chain": [{
            "train": str(tmp_path / "data.jsonl"), "dev": str(tmp_path / "data.jsonl")}]}))
        (tmp_path / name).write_bytes(content)
        argv = [tmp_path / a if a.endswith((".jsonl", ".tsv", ".json", ".ckpt")) else a for a in self.COMMANDS[command]]
        assert run_cli(*argv, "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        where = tmp_path / name if line is None else f"{tmp_path / name}:{line}"
        assert f"{where}: " in err and named in err, err
        assert not (tmp_path / "o").exists()

    def test_eval_of_two_files_over_different_ids_exits_2_naming_both(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_bytes(jsonl_line() + jsonl_line(pairID="p2"))
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("p1\t0.2\t0.3\t0.5\tneutral\n")
        b.write_text("p1\t0.2\t0.3\t0.5\tneutral\np2\t0.2\t0.3\t0.5\tneutral\n")
        assert run_cli("eval", "--predictions", a, b, "--dataset", data, "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert f"{a} and {b}: the two prediction sets cover different pair ids" in err, err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command", ["synth", "train", "predict", "eval", "expand"])
def test_out_dir_that_is_a_file_exits_2_naming_it(tmp_path, capsys, command, under):
    data = synth_dir(tmp_path, count=30, seed=1)
    # a row that eval can align, so that only the out dir is at fault
    (tmp_path / "preds.tsv").write_text(f"{load_jsonl(data / 'test.jsonl')[0].pair_id}\t0.2\t0.3\t0.5\tneutral\n")
    (tmp_path / "table.tsv").write_text("MI\tmyocardial infarction\n")
    argv = {
        "synth": ["synth"],
        "train": ["train", "--config", compaggr_run_config(tmp_path, data)],
        "predict": ["predict", "--checkpoint", small_checkpoint(tmp_path / "small.ckpt"),
                    "--dataset", data / "test.jsonl"],
        "eval": ["eval", "--predictions", tmp_path / "preds.tsv", "--dataset", data / "test.jsonl"],
        "expand": ["expand", "--dataset", data / "test.jsonl", "--table", tmp_path / "table.tsv"],
    }[command]
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    out = afile / "sub" if under else afile
    assert run_cli(*argv, "--out-dir", out) == 2
    assert f"error: --out-dir is a file or lies under one: {out}" in capsys.readouterr().err
    assert afile.read_text() == "keep me\n"


@pytest.mark.parametrize("command,output", [
    ("train", "model.ckpt"), ("predict", "predictions.tsv"), ("expand", "expanded.jsonl")])
def test_output_path_that_is_a_directory_exits_2_naming_it(tmp_path, capsys, command, output):
    data = synth_dir(tmp_path, count=30, seed=1)
    (tmp_path / "table.tsv").write_text("MI\tmyocardial infarction\n")
    argv = {
        "train": ["train", "--config", compaggr_run_config(tmp_path, data, max_epochs=1)],
        "predict": ["predict", "--checkpoint", small_checkpoint(tmp_path / "small.ckpt"),
                    "--dataset", data / "test.jsonl"],
        "expand": ["expand", "--dataset", data / "test.jsonl", "--table", tmp_path / "table.tsv"],
    }[command]
    out = tmp_path / "o"
    (out / output).mkdir(parents=True)
    assert run_cli(*argv, "--out-dir", out) == 2
    assert f"error: output path is a directory: {out / output}" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [output]  # no temporary file left beside it
    assert list((out / output).iterdir()) == []


@pytest.mark.parametrize("argv,named", [
    (["train", "--config", "run.json", "--model", "transformer", "--out-dir", "o"], "--model"),
    (["transfer", "--config", "run.json", "--model", "compaggr", "--out-dir", "o"], "transfer"),
    (["predict", "--checkpoint", "model.ckpt", "--dataset", "data.jsonl", "--mode", "listwise", "--group-key", "premise",
      "--out-dir", "o"], "--group-key"),
    (["transfer", "--config", "run.json", "--out-dir", "o"], "transfer"),
    (["train", "--config", "run.json"], "--out-dir"),
    (["synth", "--out-dir", "o", "--templates-per-class", "2"], "--templates-per-class"),
], ids=["train_model", "transfer_model", "predict_group_key", "transfer", "train_without_out_dir",
        "synth_templates_per_class"])
def test_removed_flags_are_usage_errors(tmp_path, capsys, monkeypatch, argv, named):
    # the run config's "model" is the only choice of model kind and its "chain" the
    # only list of stages; --out-dir names the output directory; list-wise triples share a premise;
    # synthetic corpora cycle through every premise template
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_python_m_clinli_runs_the_command_line(run_python, tmp_path):
    # the module entry beside the clinli console script; both call clinli.__main__.main
    proc = run_python("-m", "clinli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert all(command in proc.stdout for command in
               ("synth", "train", "predict", "eval", "expand", "inspect-checkpoint")), proc.stdout
    missing = tmp_path / "missing.ckpt"
    proc = run_python("-m", "clinli", "inspect-checkpoint", "--checkpoint", missing)
    assert proc.returncode == 2
    assert proc.stderr == f"error: checkpoint does not exist: {missing}\n"


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def without_blas_thread_variables() -> dict:
    return {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}


def test_command_line_output_bytes_do_not_depend_on_the_blas_thread_setting(run_python, tmp_path):
    """Full-scale compaggr ``train`` and ``predict`` write the same bytes with no
    BLAS thread variable set as with ``OPENBLAS_NUM_THREADS=1``.  OpenBLAS would
    otherwise run one thread per core and split these products, which changes
    the bits of their sums.  On a 1-core host both runs use one thread anyway,
    so there this test cannot fail."""
    data = synth_dir(tmp_path, count=60, seed=3)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": "compaggr", "model_config": {"word_dim": 100, "repr_dim": 100, "filters_per_width": 100},
        "train_config": {"batch_size": 16, "max_epochs": 1},
        "chain": [{"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}],
    }), encoding="utf-8")
    unset = without_blas_thread_variables()
    outputs = []
    for name, env in (("unset", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        for argv in (["train", "--config", config, "--seed", 5, "--out-dir", out],
                     ["predict", "--checkpoint", out / "model.ckpt", "--dataset", data / "test.jsonl",
                      "--out-dir", out / "pred"]):
            proc = run_python("-m", "clinli", *argv, env=env)
            assert proc.returncode == 0, proc.stderr
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert Path("model.ckpt") in outputs[0] and Path("pred/predictions.tsv") in outputs[0]
    assert outputs[0] == outputs[1]


def test_importing_the_command_line_sets_no_blas_thread_variable(run_python):
    # library callers keep their own thread count: only running an entry pins it
    code = f"import os, clinli.cli, clinli.__main__; print([k for k in {BLAS_THREAD_VARIABLES} if k in os.environ])"
    proc = run_python("-c", code, env=without_blas_thread_variables())
    assert proc.stdout.strip() == "[]", proc.stderr


def test_readme_run_configs_parse(tmp_path):
    """Every run config the README writes (``cat > x.json << 'JSON'``) reads
    into a RunConfig, with its model config and each stage's train config."""
    configs = re.findall(r"<< 'JSON'\n(.*?\n)JSON\n", README.read_text(encoding="utf-8"), re.S)
    assert configs
    for i, text in enumerate(configs):
        path = tmp_path / f"readme{i}.json"
        path.write_text(text, encoding="utf-8")
        run = cli.load_run_config(path)
        make_model_config(run.model, run.model_config or {}, path)
        for stage in run.chain:
            assert isinstance(stage, cli.StageConfig) and stage.name
            parse_config(TrainConfig, {**(run.train_config or {}), **(stage.train_config or {})}, path)


def test_readme_names_every_run_config_key():
    """Every key a run config or a chain stage may hold is named in the
    README, as a JSON key or in backticks, so no key goes undocumented."""
    readme = README.read_text(encoding="utf-8")
    for cls in (cli.RunConfig, cli.StageConfig):
        for f in fields(cls):
            assert f'"{f.name}"' in readme or f"`{f.name}`" in readme, f"{cls.__name__}.{f.name}"


class TestExpand:
    def test_empty_table_identity(self, tmp_path):
        data = synth_dir(tmp_path, count=30, seed=7)
        table = tmp_path / "empty.tsv"
        table.write_text("")
        out = tmp_path / "exp"
        assert run_cli("expand", "--dataset", data / "train.jsonl", "--table", table, "--out-dir", out) == 0
        assert (out / "expanded.jsonl").read_bytes() == (data / "train.jsonl").read_bytes()
        assert (out / "expand_report.txt").read_text().splitlines()[0] == "total=0"

    def test_counts_match_independent_count(self, tmp_path):
        docs = [
            {"sentence1": "Patient has NSR post-cardioversion", "sentence2": "CHF, EF 55%", "gold_label": "neutral", "pairID": "a"},
            {"sentence1": "Ruled in for NSTEMI.", "sentence2": "No NSR today", "gold_label": "neutral", "pairID": "b"},
        ]
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("\n".join(json.dumps(d, sort_keys=True) for d in docs) + "\n")
        table = tmp_path / "t.tsv"
        table.write_text("NSR\tnormal sinus rhythm\nCHF\tcongestive heart failure\n")
        out = tmp_path / "exp"
        assert run_cli("expand", "--dataset", dataset, "--table", table, "--out-dir", out) == 0
        report = (out / "expand_report.txt").read_text()
        assert "nsr\t2" in report
        assert "chf\t1" in report
        expanded = load_jsonl(out / "expanded.jsonl")
        assert expanded[0].premise == "Patient has normal sinus rhythm post-cardioversion"

    def test_casefold_mismatch_expands(self, tmp_path):
        # the pattern matches "\u0130V" case-insensitively, but its casefold is not "iv"
        doc = {"sentence1": "given \u0130V fluids", "sentence2": "fluids", "gold_label": "neutral", "pairID": "a"}
        dataset = tmp_path / "d.jsonl"
        dataset.write_text(json.dumps(doc) + "\n")
        table = tmp_path / "t.tsv"
        table.write_text("iv\tintravenous\n")
        out = tmp_path / "exp"
        assert run_cli("expand", "--dataset", dataset, "--table", table, "--out-dir", out) == 0
        assert load_jsonl(out / "expanded.jsonl")[0].premise == "given intravenous fluids"
        assert "iv\t1" in (out / "expand_report.txt").read_text()

    def test_pairs_without_ids_keep_their_names_through_expand_and_predict(self, tmp_path):
        data = synth_dir(tmp_path, count=30, seed=7)
        no_ids = tmp_path / "no_ids.jsonl"
        no_ids.write_text("".join(
            json.dumps({k: v for k, v in json.loads(line).items() if k != "pairID"}) + "\n"
            for line in (data / "train.jsonl").read_text().splitlines()
        ))
        table = tmp_path / "t.tsv"
        table.write_text("MI\tmyocardial infarction\n")  # no pair has MI: the predictions can be compared byte for byte
        assert run_cli("expand", "--dataset", no_ids, "--table", table, "--out-dir", tmp_path / "exp") == 0
        expanded = tmp_path / "exp" / "expanded.jsonl"
        rows = [json.loads(line) for line in expanded.read_text().splitlines()]
        assert [row["pairID"] for row in rows] == [f"idx-{i}" for i in range(24)]
        ckpt = small_checkpoint(tmp_path / "small.ckpt")
        for name, dataset in (("original", no_ids), ("expanded", expanded)):
            assert run_cli("predict", "--checkpoint", ckpt, "--dataset", dataset, "--out-dir", tmp_path / name) == 0
        original, renamed = ((tmp_path / name / "predictions.tsv").read_bytes() for name in ("original", "expanded"))
        assert original == renamed

    def test_idempotent(self, tmp_path):
        data = synth_dir(tmp_path, count=30, seed=8)
        table = tmp_path / "t.tsv"
        table.write_text("velit\tsomething else\n")
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        assert run_cli("expand", "--dataset", data / "train.jsonl", "--table", table, "--out-dir", out1) == 0
        assert run_cli("expand", "--dataset", out1 / "expanded.jsonl", "--table", table, "--out-dir", out2) == 0
        assert (out1 / "expanded.jsonl").read_bytes() == (out2 / "expanded.jsonl").read_bytes()


class TestInspect:
    def test_inspect_prints_parameters(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=9)
        config = compaggr_run_config(tmp_path, data)
        out = tmp_path / "m"
        assert run_cli("train", "--config", config, "--out-dir", out) == 0
        capsys.readouterr()
        assert run_cli("inspect-checkpoint", "--checkpoint", out / "model.ckpt") == 0
        stdout = capsys.readouterr().out
        assert "kind: compaggr" in stdout
        assert "cls.w" in stdout
        assert "total_parameters:" in stdout


class TestTransformerPath:
    def test_wordpiece_training_end_to_end(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=24, seed=10)
        cfg = {
            "model": "transformer",
            "vocab_size": 120,
            "model_config": {"d_e": 16, "num_heads": 2, "num_blocks": 1, "d_ff": 32, "max_len": 24, "dropout": 0.0},
            "train_config": {"learning_rate": 2e-3, "batch_size": 6, "max_epochs": 2},
            "chain": [{"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}],
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "tr"
        assert run_cli("train", "--config", path, "--out-dir", out, "--seed", 2) == 0
        pred_dir = tmp_path / "tp"
        assert run_cli("predict", "--checkpoint", out / "model.ckpt",
                       "--dataset", data / "test.jsonl", "--out-dir", pred_dir) == 0
        preds = read_predictions(pred_dir / "predictions.tsv")
        assert preds and all(abs(p.probs.sum() - 1) < 1e-6 for p in preds)
