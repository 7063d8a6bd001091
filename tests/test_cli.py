import json
from pathlib import Path

import pytest

from clinli import cli
from clinli.checkpoint import load_checkpoint, save_checkpoint
from clinli.data import load_jsonl
from clinli.evaluate import read_predictions


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


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
        "datasets": {"train": str(data_dir / "train.jsonl"), "dev": str(data_dir / "dev.jsonl")},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def assert_config_rejected(capsys, command, config, out, *names):
    """``command`` exits 2 before writing a checkpoint, and its message
    names the config file and each of ``names``."""
    assert run_cli(command, "--config", config, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in (str(config), *names)), err
    assert not (out / "model.ckpt").exists()


class TestSynth:
    def test_default_three_files_with_split(self, tmp_path):
        out = synth_dir(tmp_path, count=300)
        sizes = {name: len(load_jsonl(out / f"{name}.jsonl")) for name in ("train", "dev", "test")}
        assert sizes == {"train": 240, "dev": 30, "test": 30}

    def test_bad_shift_exits_2(self, tmp_path, capsys):
        code = run_cli("synth", "--out-dir", tmp_path / "x", "--shift", "1.5")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_roundtrip_write_load(self, tmp_path):
        out = synth_dir(tmp_path, count=30, seed=3)
        examples = load_jsonl(out / "train.jsonl")
        assert len(examples) == 24
        assert all(ex.gold_label in ("entailment", "contradiction", "neutral") for ex in examples)

    def test_transfer_pair_files(self, tmp_path):
        out = tmp_path / "pair"
        code = run_cli(
            "synth", "--out-dir", out, "--transfer-pair", "--shift", "0.5",
            "--source-count", 60, "--target-count", 30,
        )
        assert code == 0
        for stem in ("source_", "target_"):
            for name in ("train", "dev", "test"):
                assert (out / f"{stem}{name}.jsonl").exists()


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

    def test_missing_dataset_exits_2_before_training(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        cfg = json.loads(config.read_text())
        cfg["datasets"]["train"] = str(tmp_path / "nope.jsonl")
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
        ("model_config", "bogus"), ("train_config", "learning_rte"), ("train_config", "preset"), ("datasets", "tset"),
    ])
    def test_unknown_section_key_exits_2_naming_file_and_key(self, tmp_path, capsys, section, key):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        cfg = json.loads(config.read_text())
        cfg[section][key] = "paper"
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, "train", config, tmp_path / "o", key)

    @pytest.mark.parametrize("section,key,value", [
        ("model_config", "word_dim", "abc"), ("model_config", "word_dim", 8.5), ("train_config", "batch_size", "8"),
        (None, "seed", "abc"), (None, "vocab_size", "abc"), (None, "abbrev_table", 5), ("datasets", "train", 5),
        # values of the right type that the config class rejects
        ("model_config", "repr_dim", 3), ("train_config", "learning_rate", -1),
    ])
    def test_wrong_value_type_exits_2_naming_file_and_key(self, tmp_path, capsys, section, key, value):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        cfg = json.loads(config.read_text())
        (cfg[section] if section else cfg)[key] = value
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, "train", config, tmp_path / "o", key)

    def test_train_config_not_an_object_exits_2_naming_file_and_key(self, tmp_path, capsys):
        data = synth_dir(tmp_path, count=30, seed=1)
        config = compaggr_run_config(tmp_path, data)
        cfg = json.loads(config.read_text())
        cfg["train_config"] = [1]
        config.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, "train", config, tmp_path / "o", "train_config")

    def test_overfit_config_reports_full_accuracy(self, tmp_path, capsys):
        # dev pointed at the training data: the summary's best_dev_acc is
        # the training accuracy, which must reach 1.0 on 30 pairs
        data = synth_dir(tmp_path, count=30, seed=12)
        cfg = {
            "model": "compaggr",
            "model_config": {"word_dim": 16, "repr_dim": 16, "filters_per_width": 4, "dropout": 0.0},
            "train_config": {"learning_rate": 3e-3, "batch_size": 10, "max_epochs": 60,
                             "early_stop_patience": 10, "step_fraction": 1.0},
            "datasets": {"train": str(data / "train.jsonl"), "dev": str(data / "train.jsonl")},
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
    def test_single_stage_chain_matches_train(self, tmp_path):
        data = synth_dir(tmp_path, count=30, seed=3)
        train_cfg_path = compaggr_run_config(tmp_path, data)

        chain_cfg = json.loads(train_cfg_path.read_text())
        chain_cfg["chain"] = [
            {"name": "train", "train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")}
        ]
        del chain_cfg["datasets"]
        chain_path = tmp_path / "chain.json"
        chain_path.write_text(json.dumps(chain_cfg))

        out_train = tmp_path / "via_train"
        out_chain = tmp_path / "via_chain"
        assert run_cli("train", "--config", train_cfg_path, "--out-dir", out_train, "--seed", 1) == 0
        assert run_cli("transfer", "--config", chain_path, "--out-dir", out_chain, "--seed", 1) == 0
        assert (out_train / "model.ckpt").read_bytes() == (out_chain / "model.ckpt").read_bytes()

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
        assert run_cli("transfer", "--config", path, "--out-dir", out) == 0
        assert "S -> T" in capsys.readouterr().out

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
        del cfg["datasets"]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(cfg))
        assert_config_rejected(capsys, "transfer", path, tmp_path / "chain_out", key)


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

    def test_eval_non_numeric_probability_exits_2(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        gold.write_text(json.dumps({"sentence1": "a", "sentence2": "b", "gold_label": "neutral",
                                    "pairID": "p1"}) + "\n")
        preds = tmp_path / "bad.tsv"
        preds.write_text("p1\t0.2\tabc\t0.3\tneutral\n")
        assert run_cli("eval", "--predictions", preds, "--dataset", gold, "--out-dir", tmp_path / "e") == 2
        assert f"{preds}:1:" in capsys.readouterr().err

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
    ], ids=["repr_dim", "kind"])
    def test_checkpoint_header_value_rejected_exits_2(self, tmp_path, trained, capsys, edit, named):
        data, ckpt = trained
        loaded = load_checkpoint(ckpt)
        edit(loaded)
        bad = tmp_path / "bad_value.ckpt"
        save_checkpoint(loaded, bad)
        assert run_cli("predict", "--checkpoint", bad, "--dataset", data / "test.jsonl",
                       "--out-dir", tmp_path / "p") == 2
        err = capsys.readouterr().err
        assert str(bad) in err and named in err


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
            "datasets": {"train": str(data / "train.jsonl"), "dev": str(data / "dev.jsonl")},
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
