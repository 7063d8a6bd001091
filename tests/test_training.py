import json
import math
import re

import numpy as np
import pytest

from clinli import tensor as T
from clinli import tokenizer as tk
from clinli import training as tr
from clinli.checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from clinli.compaggr import CompAggrConfig, CompAggrModel
from clinli.data import LABELS, NLIExample
from clinli.errors import ConfigError, ContractError, DataError, NumericError, ParseError
from clinli.model import initializers
from clinli.synth import SynthSpec, generate_corpus
from clinli.tokenizer import build_word_vocab, train_wordpiece
from clinli.transformer import TransformerClassifier, TransformerConfig

from oracles import hand_adam


class TestAdamStep:
    def test_zero_gradient_is_fixed_point(self):
        w = T.Tensor([1.0, -2.0], requires_grad=True)
        params = {"w": w}
        state = tr.AdamState(params)
        w.grad = np.zeros(2)
        before = w.data.copy()
        tr.adam_step(params, state, lr=0.1)
        np.testing.assert_array_equal(w.data, before)
        np.testing.assert_array_equal(state.m["w"], np.zeros(2))
        np.testing.assert_array_equal(state.v["w"], np.zeros(2))

    def test_moments_decay_toward_zero_after_gradients_stop(self):
        w = T.Tensor([0.0], requires_grad=True)
        params = {"w": w}
        state = tr.AdamState(params)
        w.grad = np.array([1.0])
        tr.adam_step(params, state, lr=0.01)
        m1, v1 = state.m["w"][0], state.v["w"][0]
        w.grad = np.zeros(1)
        for _ in range(5):
            prev_m, prev_v = state.m["w"][0], state.v["w"][0]
            tr.adam_step(params, state, lr=0.01)
            assert 0 < state.m["w"][0] < prev_m
            assert 0 < state.v["w"][0] < prev_v
        assert state.m["w"][0] < m1 and state.v["w"][0] < v1

    def test_first_step_magnitude_is_lr(self):
        w = T.Tensor([0.0], requires_grad=True)
        params = {"w": w}
        state = tr.AdamState(params)
        w.grad = np.array([3.7])
        tr.adam_step(params, state, lr=0.05)
        np.testing.assert_allclose(abs(w.data[0]), 0.05, rtol=1e-6)

    def test_matches_hand_adam_on_quadratic(self):
        w = T.Tensor([0.0], requires_grad=True)
        params = {"w": w}
        state = tr.AdamState(params)
        trace = [0.0]
        for _ in range(10):
            w.grad = np.array([2.0 * (w.data[0] - 3.0)])
            tr.adam_step(params, state, lr=0.5)
            trace.append(float(w.data[0]))
        oracle = hand_adam(lambda x: 2.0 * (x - 3.0), 0.0, lr=0.5, steps=10)
        np.testing.assert_allclose(trace, oracle, rtol=1e-12)
        diffs = np.diff(trace)
        assert np.all(diffs > 0)  # moves toward 3 monotonically from 0
        assert abs(trace[-1] - 3.0) < 3.0

    def test_in_place_update_equals_the_textbook_update_bitwise(self):
        rng = np.random.default_rng(4)
        shapes = {"w": (3, 4), "b": (4,), "k": (2, 3, 2), "unused": (5,)}
        params = {name: T.Tensor(rng.normal(size=shape), requires_grad=True) for name, shape in shapes.items()}
        state = tr.AdamState(params)
        ref = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)) for name, p in params.items()}
        beta1, beta2 = tr.ADAM_BETAS
        for t in range(1, 6):
            for name, p in params.items():
                p.grad = None if name == "unused" else rng.normal(size=p.shape) * 10.0 ** rng.uniform(-6, 2)
            tr.adam_step(params, state, lr=0.01)
            for name, p in params.items():
                g = np.zeros(p.shape) if p.grad is None else p.grad
                w, m, v = ref[name]
                m = beta1 * m + (1 - beta1) * g
                v = beta2 * v + (1 - beta2) * (g * g)
                w = w - 0.01 * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + tr.ADAM_EPS)
                ref[name] = w, m, v
                for got, want in zip((p.data, state.m[name], state.v[name]), ref[name]):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (name, t)
        assert state.t == 5

    def test_snapshot_keeps_its_parameters_after_later_steps(self):
        w = T.Tensor(np.zeros(3), requires_grad=True)
        params = {"w": w}
        state = tr.AdamState(params)
        w.grad = np.array([1.0, -2.0, 3.0])
        tr.adam_step(params, state, lr=0.1)
        snap = tr._snapshot(params)
        kept = snap["w"].copy()
        assert list(snap) == ["w"] and not np.shares_memory(snap["w"], w.data)
        for _ in range(3):
            tr.adam_step(params, state, lr=0.1)
        assert not np.array_equal(w.data, snap["w"])
        np.testing.assert_array_equal(snap["w"], kept)

    def test_nan_gradient_aborts_naming_parameter(self):
        w = T.Tensor([0.0], requires_grad=True)
        params = {"enc.fwd.wx": w}
        state = tr.AdamState(params)
        w.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="enc.fwd.wx"):
            tr.adam_step(params, state, lr=0.1)


class TestClipGradients:
    def _param(self, grad):
        p = T.Tensor(np.zeros(len(grad)), requires_grad=True)
        p.grad = np.asarray(grad, dtype=np.float64)
        return p

    def test_below_threshold_unchanged(self):
        p = self._param([3.0])
        tr.clip_gradients({"p": p}, threshold=5.0)
        np.testing.assert_array_equal(p.grad, [3.0])

    def test_boundary_unchanged(self):
        p = self._param([3.0, 4.0])
        tr.clip_gradients({"p": p}, threshold=5.0)
        np.testing.assert_array_equal(p.grad, [3.0, 4.0])

    def test_exact_halving(self):
        p = self._param([6.0, 8.0])
        norm = tr.clip_gradients({"p": p}, threshold=5.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(p.grad, [3.0, 4.0], rtol=1e-12)

    def test_direction_preserved_across_parameters(self):
        rng = np.random.default_rng(3)
        params = {f"p{i}": self._param(rng.uniform(-3, 3, size=4)) for i in range(3)}
        before = {k: p.grad.copy() for k, p in params.items()}
        tr.clip_gradients(params, threshold=0.5)
        ratios = [params[k].grad / before[k] for k in params]
        flat = np.concatenate([r.ravel() for r in ratios])
        np.testing.assert_allclose(flat, flat[0], rtol=1e-12)
        assert np.all(np.abs(np.concatenate([params[k].grad for k in params]))
                      <= np.abs(np.concatenate(list(before.values()))) + 1e-15)

    def test_parameters_fed_one_upstream_gradient_are_each_scaled_once(self):
        # add passes one gradient array to both operands; each must get its own copy
        p1, p2 = (T.Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        T.sum_all(T.mul(T.add(p1, p2), T.Tensor([6.0, 8.0]))).backward()
        norm = tr.clip_gradients({"p1": p1, "p2": p2}, threshold=5.0)
        assert norm == math.sqrt(200.0)
        expected = np.array([6.0, 8.0]) * (5.0 / math.sqrt(200.0))
        for p in (p1, p2):
            assert p.grad.tobytes() == expected.tobytes()


class ScriptedModel:
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
        loss = T.add(T.scale(T.sum_all(self.w), 0.0), T.Tensor(np.asarray(value)))
        return loss, 0

    def config_dict(self):
        return {}

    def reset_head(self, seed=0):
        pass


def one_example_sets():
    ex = NLIExample("the patient has velit", "the patient has velit", "entailment", "x-1")
    return [ex], [ex]


class TestTrainEarlyStopping:
    @pytest.mark.parametrize(
        "patience,script,expected_evals,expected_best",
        [
            (4, [1.0, 0.9, 0.91, 0.92, 0.93, 0.94, 0.2, 0.2], 6, 0.9),
            (2, [1.0, 0.9, 0.91, 0.92, 0.5, 0.5], 4, 0.9),
            (1, [1.0, 1.1, 0.5], 2, 1.0),
            (4, [1.0, 0.9, 0.91, 0.92, 0.93, 0.94], 6, 0.9),
            (1, [1.0, 1.1], 2, 1.0),
            (2, [1.0, 1.0, 1.0], 3, 1.0),  # ties count as non-improving
        ],
    )
    def test_stops_at_exact_evaluation(self, patience, script, expected_evals, expected_best):
        model = ScriptedModel(script)
        train_set, dev_set = one_example_sets()
        # one evaluation per epoch and one epoch more than the script: a run
        # that does not stop in time fails evaluating past the script's end
        config = tr.TrainConfig(
            learning_rate=0.1, batch_size=1, max_epochs=len(script) + 1,
            early_stop_patience=patience, step_fraction=1.0, seed=0,
        )
        ckpt = tr.train(model, train_set, dev_set, config)
        assert model.evals == expected_evals
        assert [row.step for row in ckpt.history] == list(range(1, expected_evals + 1))
        assert min(r.dev_loss for r in ckpt.history) == pytest.approx(expected_best)
        assert ckpt.best().dev_loss == pytest.approx(expected_best)

    def test_runs_out_of_epochs_without_stop(self):
        model = ScriptedModel([1.0, 0.9, 0.8, 0.7])
        train_set, dev_set = one_example_sets()
        config = tr.TrainConfig(batch_size=1, max_epochs=4, early_stop_patience=4, step_fraction=1.0)
        ckpt = tr.train(model, train_set, dev_set, config)
        assert model.evals == 4
        assert ckpt.best().dev_loss == pytest.approx(0.7)

    def test_empty_dataset_rejected(self):
        model = ScriptedModel([1.0])
        with pytest.raises(DataError):
            tr.train(model, [], one_example_sets()[1], tr.TrainConfig())


def small_compaggr(corpus, seed=0):
    sentences = [ex.premise for ex in corpus] + [ex.hypothesis for ex in corpus]
    vocab = build_word_vocab(sentences)
    cfg = CompAggrConfig(word_dim=8, repr_dim=8, filters_per_width=2, dropout=0.0)
    return CompAggrModel(cfg, vocab, seed=seed)


class TestTrainRealModel:
    def test_loss_decreases_over_first_ten_full_batch_steps(self):
        corpus = generate_corpus(SynthSpec(count=4, seed=2))
        model = small_compaggr(corpus, seed=1)
        params = model.parameters()
        state = tr.AdamState(params)
        losses = []
        for _ in range(10):
            for p in params.values():
                p.grad = None
            loss, _ = model.batch_loss(corpus, training=False)
            losses.append(float(loss.data))
            loss.backward()
            tr.clip_gradients(params, 5.0)
            tr.adam_step(params, state, lr=1e-3)
        diffs = np.diff(losses)
        assert np.all(diffs < 0), losses

    def test_best_checkpoint_restored_into_model(self):
        corpus = generate_corpus(SynthSpec(count=24, seed=3))
        model = small_compaggr(corpus, seed=2)
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=6, max_epochs=6, seed=4)
        ckpt = tr.train(model, corpus[:18], corpus[18:], config)
        dev_loss_t, _ = model.batch_loss(corpus[18:], training=False)
        reeval = float(dev_loss_t.data) / len(corpus[18:])
        assert reeval == pytest.approx(ckpt.best().dev_loss, rel=1e-12)
        assert ckpt.best() is ckpt.history[ckpt.best_step - 1]

    def test_trained_checkpoint_holds_parameter_blocks_only(self, tmp_path):
        corpus = generate_corpus(SynthSpec(count=18, seed=5))
        model = small_compaggr(corpus, seed=11)
        ckpt = tr.train(model, corpus[:12], corpus[12:], tr.TrainConfig(batch_size=4, max_epochs=2, seed=7))
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12 : 12 + header_len])
        params = model.parameters()
        assert [block["name"] for block in header["blocks"]] == list(params)
        assert len(blob) == 12 + header_len + 8 * sum(p.data.size for p in params.values())
        assert ckpt.adam_m == ckpt.adam_v == {} and "adam_t" not in header

    def test_determinism_bit_identical_checkpoints(self, tmp_path):
        corpus = generate_corpus(SynthSpec(count=18, seed=5))
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=3, seed=7)
        paths = []
        for run in range(2):
            model = small_compaggr(corpus, seed=11)
            ckpt = tr.train(model, corpus[:12], corpus[12:], config)
            path = tmp_path / f"run{run}.ckpt"
            save_checkpoint(ckpt, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        sidecars = [path.with_name(path.name + ".metrics.tsv") for path in paths]
        assert sidecars[0].read_bytes() == sidecars[1].read_bytes()


def held_tensors(obj) -> set[int]:
    """ids of the trainable tensors reachable through ``obj``'s attributes,
    lists and tuples (not through dicts, so not through the registry)."""
    if isinstance(obj, T.Tensor):
        return {id(obj)} if obj.requires_grad else set()
    if isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return set()
    return set().union(*(held_tensors(x) for x in items))


class TestParameterRegistry:
    @pytest.mark.parametrize("kind", ["transformer", "compaggr"])
    def test_every_tensor_the_model_holds_is_a_named_parameter(self, kind):
        sentences = ["the patient has a fever", "no fever today"]
        if kind == "transformer":
            config = TransformerConfig(d_e=8, num_heads=2, num_blocks=2, d_ff=8, max_len=10)
            model = TransformerClassifier(config, train_wordpiece(sentences, target_size=40))
        else:
            model = CompAggrModel(CompAggrConfig(word_dim=4, repr_dim=4, filters_per_width=2),
                                  build_word_vocab(sentences))
        params = model.parameters()
        assert held_tensors(model) == {id(p) for p in params.values()}
        assert params["cls.w"].shape[1] == params["cls.b"].shape[0] == len(LABELS)

    def test_a_name_made_twice_is_rejected(self):
        mat, zeros, _ = initializers(0, {})
        mat("w", 2, 2)
        with pytest.raises(ContractError, match="parameter w made twice"):
            zeros("w", 2)


class TestTransferChain:
    def _stage_sets(self, seed):
        corpus = generate_corpus(SynthSpec(count=24, seed=seed))
        return corpus[:18], corpus[18:]

    def test_single_stage_chain_equals_plain_train(self, tmp_path):
        train_a, dev_a = self._stage_sets(6)
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=6, max_epochs=3, seed=1)

        model = small_compaggr(train_a + dev_a, seed=3)
        plain = tr.train(model, train_a, dev_a, config, dataset_name="only")

        chain = tr.TransferChain(stages=[tr.Stage("only", train_a, dev_a, config)])
        chained = tr.run_chain(lambda: small_compaggr(train_a + dev_a, seed=3), chain)

        assert chained.provenance == plain.provenance == ["only"]
        p1, p2 = tmp_path / "plain.ckpt", tmp_path / "chain.ckpt"
        save_checkpoint(plain, p1)
        save_checkpoint(chained, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_provenance_lists_stages_in_order(self):
        sets = {name: self._stage_sets(i) for i, name in enumerate(("S", "M", "T"))}
        union = [ex for tr_set, dev in sets.values() for ex in tr_set + dev]
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=6, max_epochs=2, seed=2)
        chain = tr.TransferChain(
            stages=[tr.Stage(name, *sets[name], config) for name in ("S", "M", "T")]
        )
        ckpt = tr.run_chain(lambda: small_compaggr(union, seed=5), chain)
        assert ckpt.provenance == ["S", "M", "T"]
        steps = [row.step for row in ckpt.history]
        assert steps == sorted(steps)

    def test_head_reset_policy(self):
        train_a, dev_a = self._stage_sets(8)
        train_b, dev_b = self._stage_sets(9)
        union = train_a + dev_a + train_b + dev_b
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=6, max_epochs=1, seed=3)
        for policy in ("keep", "reset"):
            chain = tr.TransferChain(
                stages=[tr.Stage("A", train_a, dev_a, config), tr.Stage("B", train_b, dev_b, config)],
                head_reset=policy,
            )
            ckpt = tr.run_chain(lambda: small_compaggr(union, seed=6), chain)
            assert ckpt.provenance == ["A", "B"]
        with pytest.raises(ConfigError):
            tr.TransferChain(stages=[tr.Stage("A", train_a, dev_a, config)], head_reset="maybe")


class TestCheckpointIO:
    def test_save_load_save_byte_identical(self, tmp_path):
        corpus = generate_corpus(SynthSpec(count=12, seed=10))
        model = small_compaggr(corpus, seed=4)
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=2, seed=5)
        ckpt = tr.train(model, corpus[:9], corpus[9:], config)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(ckpt, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.ckpt.metrics.tsv").read_bytes() == (tmp_path / "b.ckpt.metrics.tsv").read_bytes()

    def test_model_roundtrip_preserves_predictions(self, tmp_path):
        corpus = generate_corpus(SynthSpec(count=12, seed=11))
        model = small_compaggr(corpus, seed=7)
        config = tr.TrainConfig(learning_rate=5e-3, batch_size=4, max_epochs=2, seed=6)
        ckpt = tr.train(model, corpus[:9], corpus[9:], config)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        restored = model_from_checkpoint(load_checkpoint(path))
        ex = corpus[0]
        np.testing.assert_array_equal(
            restored.predict_proba(ex.premise, ex.hypothesis),
            model.predict_proba(ex.premise, ex.hypothesis),
        )

    @pytest.fixture(params=["transformer", "compaggr"])
    def stored(self, request):
        """A freshly made model of each kind and a checkpoint of its parameters."""
        corpus = generate_corpus(SynthSpec(count=6, seed=13))
        if request.param == "compaggr":
            model = small_compaggr(corpus, seed=9)
        else:
            vocab = train_wordpiece([s for ex in corpus for s in (ex.premise, ex.hypothesis)], target_size=60)
            model = TransformerClassifier(TransformerConfig(d_e=8, num_heads=2, num_blocks=1, d_ff=8, max_len=16),
                                          vocab, seed=9)
        params = {name: p.data.copy() for name, p in model.parameters().items()}
        return model, Checkpoint(model.kind, model.config_dict(), list(model.vocab.tokens), model.tokenizer_mode,
                                 params)

    def test_rebuild_draws_no_initial_values(self, stored, monkeypatch):
        model, ckpt = stored

        def no_draw(rng, shape):
            raise AssertionError(f"drew an initial value of shape {shape}")

        monkeypatch.setattr(T, "xavier_uniform", no_draw)
        restored = model_from_checkpoint(ckpt)
        np.testing.assert_array_equal(restored.predict_proba("a b", "c d"), model.predict_proba("a b", "c d"))

    def test_rebuilt_parameters_are_copies(self, stored):
        _, ckpt = stored
        restored = model_from_checkpoint(ckpt).parameters()
        assert list(restored) == list(ckpt.params)
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(restored[name].data, arr)
            assert not np.shares_memory(restored[name].data, arr), name


class TestCheckpointParseErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        corpus = generate_corpus(SynthSpec(count=12, seed=12))
        model = small_compaggr(corpus, seed=8)
        ckpt = tr.train(model, corpus[:9], corpus[9:], tr.TrainConfig(batch_size=4, max_epochs=1, seed=7))
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        return path

    @pytest.mark.parametrize("keep", [10, 40])
    def test_truncated_header(self, saved, keep):
        saved.write_bytes(saved.read_bytes()[:keep])
        with pytest.raises(ParseError, match="m.ckpt: truncated header"):
            load_checkpoint(saved)

    def test_garbled_header(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[12:14] = b"\xff]"
        saved.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="m.ckpt: garbled header"):
            load_checkpoint(saved)

    def test_deeply_nested_header(self, saved):
        nested = b"[" * 100_000
        saved.write_bytes(b"CLINLI01" + len(nested).to_bytes(4, "little") + nested)
        with pytest.raises(ParseError, match="m.ckpt: garbled header"):
            load_checkpoint(saved)

    def test_header_integer_too_long_to_parse(self, saved):
        header = b'{"best_step": ' + b"1" * 5000 + b"}"
        saved.write_bytes(b"CLINLI01" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(ParseError, match="m.ckpt: garbled header"):
            load_checkpoint(saved)

    def test_impossible_header_length(self, saved):
        raw = bytearray(saved.read_bytes())
        raw[8:12] = (2**32 - 1).to_bytes(4, "little")
        saved.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="m.ckpt: truncated header"):
            load_checkpoint(saved)

    def test_trailing_bytes(self, saved):
        saved.write_bytes(saved.read_bytes() + b"\0")
        with pytest.raises(ParseError, match="m.ckpt: trailing bytes"):
            load_checkpoint(saved)

    def test_malformed_metrics_row(self, saved):
        sidecar = saved.with_name(saved.name + ".metrics.tsv")
        lines = sidecar.read_text().splitlines()
        lines[1] = lines[1].replace("\t", " ", 1)
        sidecar.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"m.ckpt.metrics.tsv:2: expected step"):
            load_checkpoint(saved)

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_metrics_row_is_named_by_its_own_line(self, saved, separator):
        # str.splitlines() would also break at each of these, and name a line past the row at fault
        sidecar = saved.with_name(saved.name + ".metrics.tsv")
        header, row = sidecar.read_text().split("\n")[:2]
        bad = f"{row}{separator}x"
        sidecar.write_text(f"{header}\n{bad}\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"m.ckpt.metrics.tsv:2: expected step, train_loss, dev_loss "
                                                       f"and dev_accuracy, got {bad!r}")):
            load_checkpoint(saved)
