"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The transfer and overfit criteria train real models and take a few
minutes; everything else is seconds.
"""

import time

import numpy as np
import pytest

from clinli import tensor as T
from clinli import tokenizer as tk
from clinli.abbrev import demo_table, expand
from clinli.checkpoint import load_checkpoint, save_checkpoint
from clinli.cli import main as cli_main
from clinli.compaggr import CompAggrConfig, CompAggrModel, cross_attention
from clinli.data import NLIExample, load_jsonl, save_jsonl
from clinli.evaluate import (
    Prediction,
    agreement_partition,
    best_label_assignment,
    mean_correct_confidence,
)
from clinli.synth import SynthSpec, generate_corpus, generate_transfer_pair
from clinli.tokenizer import build_word_vocab, train_wordpiece
from clinli.training import (
    Stage,
    TrainConfig,
    TransferChain,
    adam_step,
    AdamState,
    clip_gradients,
    run_chain,
    train,
)
from clinli.transformer import TransformerClassifier, TransformerConfig, multi_head_attention

from oracles import (
    brute_force_assignment,
    loop_conv_maxpool,
    loop_cross_attention,
    loop_multi_head_attention,
)


def criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def short_sentence_batch():
    # sentences of at most 5 words, so the compare-aggregate n, m <= 5
    return [
        NLIExample("notes report velit with nodo", "notes report velit", "entailment", "g1"),
        NLIExample("notes report bame with ruda", "notes report tivu", "neutral", "g2"),
    ]


def max_rel_fd_error(model, batch, h=1e-5, floor=1e-6):
    params = model.parameters()
    for p in params.values():
        p.grad = None
    loss, _ = model.batch_loss(batch)
    loss.backward()
    worst = 0.0
    for name, p in params.items():
        grad = (p.grad if p.grad is not None else np.zeros_like(p.data)).reshape(-1)
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = model.batch_loss(batch)
            flat[i] = orig - h
            lm, _ = model.batch_loss(batch)
            flat[i] = orig
            fd[i] = (float(lp.data) - float(lm.data)) / (2 * h)
        rel = np.abs(grad - fd) / np.maximum(np.maximum(np.abs(grad), np.abs(fd)), floor)
        worst = max(worst, float(rel.max()))
    return worst


def randomize_parameters(model, seed):
    # a generic point avoids checking derivatives exactly on relu/maxpool kinks
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        p.data = rng.uniform(-0.5, 0.5, size=p.shape)


class TestGradientCorrectness:
    def test_full_model_finite_difference_check(self):
        t0 = time.time()
        batch = short_sentence_batch()
        sentences = [ex.premise for ex in batch] + [ex.hypothesis for ex in batch]

        wp_vocab = train_wordpiece(sentences, 80)
        transformer = TransformerClassifier(
            TransformerConfig(d_e=8, num_heads=2, num_blocks=2, d_ff=16, max_len=8, dropout=0.0),
            wp_vocab, seed=0,
        )
        randomize_parameters(transformer, seed=101)
        worst_tr = max_rel_fd_error(transformer, batch)

        word_vocab = build_word_vocab(sentences)
        compaggr = CompAggrModel(
            CompAggrConfig(word_dim=8, repr_dim=8, filters_per_width=2, dropout=0.0),
            word_vocab, seed=0,
        )
        randomize_parameters(compaggr, seed=123)
        worst_ca = max_rel_fd_error(compaggr, batch)

        elapsed = time.time() - t0
        criterion(
            "gradient-correctness",
            worst_tr < 1e-4 and worst_ca < 1e-4 and elapsed < 120,
            f"transformer {worst_tr:.2e}, compaggr {worst_ca:.2e}, {elapsed:.0f}s",
        )


class TestOracleEquivalence:
    def test_multi_head_attention_vs_loop_oracle(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            num_heads = int(rng.choice([1, 2, 4]))
            d_e = num_heads * int(rng.integers(1, 4))
            length = int(rng.integers(1, 6))
            mask = [1] * length
            x = rng.uniform(-1, 1, (length, d_e))
            mats = {k: T.Tensor(rng.uniform(-1, 1, (d_e, d_e))) for k in ("wq", "wk", "wv", "wo")}
            vecs = {k: T.Tensor(rng.uniform(-0.3, 0.3, d_e)) for k in ("bq", "bk", "bv", "bo")}
            from clinli.transformer import AttentionParams

            p = AttentionParams(wq=mats["wq"], bq=vecs["bq"], wk=mats["wk"], bk=vecs["bk"],
                                wv=mats["wv"], bv=vecs["bv"], wo=mats["wo"], bo=vecs["bo"])
            out = multi_head_attention(T.Tensor(x), mask, p, num_heads)
            oracle = loop_multi_head_attention(
                x, mask, mats["wq"].data, vecs["bq"].data, mats["wk"].data, vecs["bk"].data,
                mats["wv"].data, vecs["bv"].data, mats["wo"].data, vecs["bo"].data, num_heads,
            )
            worst = max(worst, float(np.max(np.abs(out.data - oracle))))
        criterion("oracle-mha", worst <= 1e-10, f"max abs diff {worst:.2e} over 100 instances")

    def test_cross_attention_vs_loop_oracle(self):
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 6))
            ep = rng.uniform(-1, 1, (d, n))
            eh = rng.uniform(-1, 1, (d, m))
            w = rng.uniform(-1, 1, (d, d))
            out = cross_attention(T.Tensor(ep[None]), T.Tensor(eh[None]), T.Tensor(w), [n])
            worst = max(worst, float(np.max(np.abs(out.data[0] - loop_cross_attention(ep, eh, w)))))
        criterion("oracle-cross-attention", worst <= 1e-10, f"max abs diff {worst:.2e} over 100 instances")

    def test_conv_maxpool_vs_loop_oracle(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(1, 6))
            m = int(rng.integers(5, 9))
            banks_np = []
            for w in range(1, int(rng.integers(2, 6)) + 1):
                nf = int(rng.integers(1, 4))
                banks_np.append((rng.uniform(-1, 1, (nf, d, w)), rng.uniform(-0.3, 0.3, nf)))
            x = rng.uniform(-1, 1, (d, m))
            banks = [(T.Tensor(w), T.Tensor(b)) for w, b in banks_np]
            out = T.conv1d_maxpool(T.Tensor(x[None]), banks)
            worst = max(worst, float(np.max(np.abs(out.data[0] - loop_conv_maxpool(x, banks_np)))))
        criterion("oracle-conv-maxpool", worst <= 1e-10, f"max abs diff {worst:.2e} over 100 instances")

    def test_listwise_assignment_vs_brute_force(self):
        rng = np.random.default_rng(10)
        ok = True
        for _ in range(100):
            p = rng.dirichlet(np.ones(3), size=3)
            perm, score = best_label_assignment(p)
            oracle_perm, oracle_score = brute_force_assignment(p)
            ok = ok and perm == oracle_perm and abs(score - oracle_score) <= 1e-10
        criterion("oracle-listwise", ok, "100 instances vs 6-permutation search")


class TestOverfit:
    def _overfit_epochs(self, model, corpus, lr, seed, max_epochs=300):
        params = model.parameters()
        state = AdamState(params)
        rng = np.random.default_rng(seed)
        for epoch in range(max_epochs):
            order = rng.permutation(len(corpus))
            for start in range(0, len(order), 10):
                batch = [corpus[i] for i in order[start : start + 10]]
                for p in params.values():
                    p.grad = None
                loss, _ = model.batch_loss(batch, training=True, rng=rng)
                loss.backward()
                clip_gradients(params, 5.0)
                adam_step(params, state, lr)
            _, correct = model.batch_loss(corpus, training=False)
            if correct == len(corpus):
                return epoch + 1
        return None

    def test_both_models_reach_full_training_accuracy(self):
        t0 = time.time()
        corpus = generate_corpus(SynthSpec(count=30, seed=0))
        sentences = [ex.premise for ex in corpus] + [ex.hypothesis for ex in corpus]
        results = {}
        for seed in (0, 1, 2):
            vocab = train_wordpiece(sentences, 120)
            model = TransformerClassifier(
                TransformerConfig(d_e=32, num_heads=2, num_blocks=1, d_ff=64, max_len=24, dropout=0.0),
                vocab, seed=seed,
            )
            results[f"transformer/{seed}"] = self._overfit_epochs(model, corpus, lr=1e-3, seed=seed)
        for seed in (0, 1, 2):
            vocab = build_word_vocab(sentences)
            model = CompAggrModel(
                CompAggrConfig(word_dim=16, repr_dim=16, filters_per_width=4, dropout=0.0),
                vocab, seed=seed,
            )
            results[f"compaggr/{seed}"] = self._overfit_epochs(model, corpus, lr=3e-3, seed=seed)
        elapsed = time.time() - t0
        ok = all(ep is not None and ep <= 300 for ep in results.values()) and elapsed < 300
        criterion("overfit-30-pairs", ok, f"epochs {results}, {elapsed:.0f}s")


@pytest.mark.slow
class TestTransferDirection:
    def test_chained_median_at_least_scratch_median(self):
        t0 = time.time()

        def best_acc(ckpt):
            return min(ckpt.history, key=lambda r: r.dev_loss).dev_accuracy

        chained_accs, scratch_accs = [], []
        for seed in range(5):
            spec = SynthSpec(vocab_size=30, count=120, seed=seed, shift=0.5)
            source, target = generate_transfer_pair(spec, source_count=1200, target_count=180)
            src_train, src_dev = source[:1080], source[1080:]
            tgt_train, tgt_dev = target[:120], target[120:]
            sentences = [e.premise for e in source + target] + [e.hypothesis for e in source + target]
            vocab = build_word_vocab(sentences)
            cfg = CompAggrConfig(word_dim=16, repr_dim=16, filters_per_width=4, dropout=0.0)

            def fresh(seed=seed, cfg=cfg, vocab=vocab):
                return CompAggrModel(cfg, vocab, seed=seed)

            src_cfg = TrainConfig(learning_rate=2e-3, batch_size=16, max_epochs=6,
                                  early_stop_patience=4, seed=seed)
            tgt_cfg = TrainConfig(learning_rate=2e-3, batch_size=16, max_epochs=40,
                                  early_stop_patience=6, step_fraction=1.0, seed=seed)
            chain = TransferChain(stages=[
                Stage("source", src_train, src_dev, src_cfg),
                Stage("target", tgt_train, tgt_dev, tgt_cfg),
            ])
            chained = run_chain(fresh, chain)
            assert chained.provenance == ["source", "target"]
            chained_accs.append(best_acc(chained))
            scratch_accs.append(best_acc(train(fresh(), tgt_train, tgt_dev, tgt_cfg)))

        chained_median = float(np.median(chained_accs))
        scratch_median = float(np.median(scratch_accs))
        elapsed = time.time() - t0
        criterion(
            "transfer-direction",
            chained_median >= scratch_median,
            f"median chained={chained_median:.3f} vs scratch={scratch_median:.3f} over 5 seeds, {elapsed:.0f}s",
        )


class ScriptedDevLossModel:
    """Train-loop stub whose dev losses follow a fixed script."""

    kind = "stub"
    tokenizer_mode = "word"

    def __init__(self, dev_losses):
        self.dev_losses = list(dev_losses)
        self.evals = 0
        self.w = T.Tensor([0.0], requires_grad=True)
        self.vocab = tk.Vocabulary(list(tk.SPECIAL_TOKENS))

    def parameters(self):
        return {"w": self.w}

    def batch_loss(self, batch, training=False, rng=None):
        if training:
            value = 1.0
        else:
            value = self.dev_losses[self.evals] * len(batch)
            self.evals += 1
        return T.add(T.scale(T.sum_all(self.w), 0.0), T.Tensor(np.asarray(value))), 0

    def config_dict(self):
        return {}


class TestEarlyStopping:
    CASES = {
        1: ([1.0, 1.1, 0.5], 2, 1.0),
        2: ([1.0, 0.9, 0.95, 0.96, 0.1], 4, 0.9),
        4: ([1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.1], 6, 0.9),
    }

    def test_scripted_sequences_stop_exactly(self):
        ok = True
        details = []
        for patience, (script, expected_stop, expected_best) in self.CASES.items():
            model = ScriptedDevLossModel(script)
            ex = NLIExample("a b", "a b", "entailment", "x")
            ckpt = train(
                model, [ex], [ex],
                TrainConfig(batch_size=1, max_epochs=len(script),
                            early_stop_patience=patience, step_fraction=1.0),
            )
            ok = ok and model.evals == expected_stop
            ok = ok and ckpt.best().dev_loss == pytest.approx(expected_best)
            details.append(f"patience {patience}: stop@{model.evals}, best={ckpt.best().dev_loss}")
        criterion("early-stopping", ok, "; ".join(details))


class TestListwiseExclusivity:
    def test_thousand_random_matrices(self):
        rng = np.random.default_rng(11)
        ok = True
        for _ in range(1000):
            p = rng.dirichlet(np.ones(3), size=3)
            perm, score = best_label_assignment(p)
            operm, oscore = brute_force_assignment(p)
            ok = ok and sorted(perm) == [0, 1, 2] and perm == operm and abs(score - oscore) <= 1e-10
            if not ok:
                break
        criterion("listwise-exclusivity", ok, "1000 random probability matrices")


class TestAbbreviationExpansion:
    def test_idempotence_span_confinement_and_reference_example(self):
        table = demo_table()
        expansions = {s.casefold(): e for s, e in table.entries}
        rng = np.random.default_rng(12)
        filler = ["alpha", "beta", "gamma", "delta", "omega", "MIMIC", "note", "stable"]
        surfaces = [s for s, _ in table.entries]
        ok = True
        for _ in range(1000):
            k = int(rng.integers(3, 12))
            words = [str(rng.choice(filler + surfaces)) for _ in range(k)]
            sentence = " ".join(words)
            once = expand(sentence, table)
            # idempotence
            ok = ok and expand(once, table) == once
            # span confinement: rebuild word by word
            rebuilt = " ".join(expansions.get(w.casefold(), w) for w in words)
            ok = ok and once == rebuilt
            if not ok:
                break
        reference = expand("Patient has NSR post-cardioversion", table)
        ok = ok and reference == "Patient has normal sinus rhythm post-cardioversion"
        criterion("abbreviation-expansion", ok, f"reference: {reference!r}")


class TestMetricsFidelity:
    def _pred(self, pid, label, conf=0.8):
        probs = np.full(3, (1 - conf) / 2)
        probs[{"entailment": 0, "contradiction": 1, "neutral": 2}[label]] = conf
        return Prediction(pid, probs)

    def test_agreement_partition_reference_percentages(self):
        total, only_a, only_b = 1422, 97, 188
        both = 1000
        neither = total - both - only_a - only_b
        golds, preds_a, preds_b = [], [], []
        plan = ["both"] * both + ["only_a"] * only_a + ["only_b"] * only_b + ["neither"] * neither
        for i, kind in enumerate(plan):
            pid = f"t{i}"
            golds.append(NLIExample(f"p {i}", f"h {i}", "entailment", pid))
            a_label = "entailment" if kind in ("both", "only_a") else "neutral"
            b_label = "entailment" if kind in ("both", "only_b") else "contradiction"
            preds_a.append(self._pred(pid, a_label))
            preds_b.append(self._pred(pid, b_label))
        part = agreement_partition(preds_a, preds_b, golds)
        ok = part.counts["only_a"] == only_a and part.counts["only_b"] == only_b
        ok = ok and round(part.fractions["only_a"] * 100) == 7
        ok = ok and round(part.fractions["only_b"] * 100) == 13
        ok = ok and abs(sum(part.fractions.values()) - 1.0) == 0.0
        criterion(
            "metrics-agreement",
            ok,
            f"only_a {part.fractions['only_a']:.1%} -> 7%, only_b {part.fractions['only_b']:.1%} -> 13%",
        )

    def test_mean_correct_confidence_matches_hand_computation(self):
        golds = [
            NLIExample("p 0", "h 0", "entailment", "c0"),
            NLIExample("p 1", "h 1", "contradiction", "c1"),
            NLIExample("p 2", "h 2", "neutral", "c2"),
            NLIExample("p 3", "h 3", "entailment", "c3"),
        ]
        preds = [
            Prediction("c0", np.array([0.8, 0.15, 0.05])),
            Prediction("c1", np.array([0.25, 0.6, 0.15])),
            Prediction("c2", np.array([0.2, 0.25, 0.55])),
            Prediction("c3", np.array([0.1, 0.7, 0.2])),  # wrong: excluded
        ]
        got = mean_correct_confidence(preds, golds)
        hand = (0.8 + 0.6 + 0.55) / 3
        criterion("metrics-confidence", abs(got - hand) <= 1e-12, f"{got!r} vs hand {hand!r}")


class TestSerialization:
    def test_roundtrips_and_reproducible_end_to_end_runs(self, tmp_path):
        # dataset round-trip
        corpus = generate_corpus(SynthSpec(count=30, seed=13))
        d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        save_jsonl(d1, corpus)
        save_jsonl(d2, load_jsonl(d1))
        dataset_ok = d1.read_bytes() == d2.read_bytes()

        # checkpoint round-trip
        sentences = [ex.premise for ex in corpus] + [ex.hypothesis for ex in corpus]
        model = CompAggrModel(
            CompAggrConfig(word_dim=8, repr_dim=8, filters_per_width=2, dropout=0.0),
            build_word_vocab(sentences), seed=1,
        )
        ckpt = train(model, corpus[:24], corpus[24:],
                     TrainConfig(learning_rate=5e-3, batch_size=6, max_epochs=2, seed=2))
        c1, c2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
        save_checkpoint(ckpt, c1)
        save_checkpoint(load_checkpoint(c1), c2)
        ckpt_ok = c1.read_bytes() == c2.read_bytes()

        # fixed-seed end-to-end runs, byte for byte
        data_dir = tmp_path / "data"
        assert cli_main(["synth", "--out-dir", str(data_dir), "--count", "30", "--seed", "3"]) == 0
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(
            '{"model": "compaggr",'
            ' "model_config": {"word_dim": 8, "repr_dim": 8, "filters_per_width": 2, "dropout": 0.0},'
            ' "train_config": {"learning_rate": 5e-3, "batch_size": 6, "max_epochs": 2},'
            f' "chain": [{{"train": "{data_dir}/train.jsonl", "dev": "{data_dir}/dev.jsonl"}}]}}'
        )
        e2e_ok = True
        outs = []
        for name in ("runA", "runB"):
            out = tmp_path / name
            assert cli_main(["train", "--config", str(run_cfg), "--out-dir", str(out), "--seed", "9"]) == 0
            assert cli_main([
                "predict", "--checkpoint", str(out / "model.ckpt"),
                "--dataset", str(data_dir / "test.jsonl"), "--out-dir", str(out),
            ]) == 0
            outs.append(out)
        for fname in ("model.ckpt", "model.ckpt.metrics.tsv", "summary.txt", "predictions.tsv"):
            e2e_ok = e2e_ok and (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

        criterion(
            "serialization",
            dataset_ok and ckpt_ok and e2e_ok,
            f"dataset={dataset_ok}, checkpoint={ckpt_ok}, end-to-end={e2e_ok}",
        )

    def test_transformer_end_to_end_runs_are_byte_identical(self, tmp_path):
        # dropout on: batched training draws its masks per (B, L, d) tensor,
        # and a fixed seed must still give identical artifacts
        data_dir = tmp_path / "data"
        assert cli_main(["synth", "--out-dir", str(data_dir), "--count", "30", "--seed", "4"]) == 0
        run_cfg = tmp_path / "run.json"
        run_cfg.write_text(
            '{"model": "transformer", "vocab_size": 120,'
            ' "model_config": {"d_e": 16, "num_heads": 2, "num_blocks": 2, "d_ff": 32, "max_len": 24,'
            ' "dropout": 0.1},'
            ' "train_config": {"learning_rate": 2e-3, "batch_size": 6, "max_epochs": 2},'
            f' "chain": [{{"train": "{data_dir}/train.jsonl", "dev": "{data_dir}/dev.jsonl"}}]}}'
        )
        outs = []
        for name in ("runA", "runB"):
            out = tmp_path / name
            assert cli_main(["train", "--config", str(run_cfg), "--out-dir", str(out), "--seed", "9"]) == 0
            for mode in ("pointwise", "listwise"):
                assert cli_main([
                    "predict", "--checkpoint", str(out / "model.ckpt"), "--mode", mode,
                    "--dataset", str(data_dir / "test.jsonl"), "--out-dir", str(out / mode),
                ]) == 0
            outs.append(out)
        files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        assert len(files) == 7
        same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)
        criterion("serialization-transformer", same, f"{len(files)} artifacts compared")
