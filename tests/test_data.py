"""Output files are replaced whole: a writer that fails midway leaves the
previous file as it was and no temporary file next to it."""

import numpy as np
import pytest

from clinli.checkpoint import Checkpoint, metrics_path, save_checkpoint
from clinli.data import NLIExample, save_jsonl, write_atomic
from clinli.evaluate import Prediction, write_metrics, write_predictions


class Boom(Exception):
    pass


def assert_unchanged(path, before, *others):
    """``path`` still holds ``before``, and its directory holds nothing but
    ``path`` and the files named in ``others``."""
    assert path.read_bytes() == before
    assert sorted(p.name for p in path.parent.iterdir()) == sorted([path.name, *others])


class TestWriteAtomic:
    @pytest.mark.parametrize("binary", [False, True])
    def test_clean_write_replaces_the_file(self, tmp_path, binary):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with write_atomic(path, binary=binary) as fh:
            fh.write(b"new\n" if binary else "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_raise_midway_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(Boom):
            with write_atomic(path) as fh:
                fh.write("half of the new")
                raise Boom
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_raise_before_first_write_creates_nothing(self, tmp_path):
        with pytest.raises(Boom):
            with write_atomic(tmp_path / "new.txt"):
                raise Boom
        assert list(tmp_path.iterdir()) == []


class TestWritersFailingMidway:
    def test_predictions(self, tmp_path):
        path = tmp_path / "predictions.tsv"
        write_predictions(path, [Prediction("a", np.array([0.2, 0.3, 0.5]), "neutral")])
        before = path.read_bytes()
        bad = Prediction("b", np.array([0.5, 0.3, 0.2]), "entailment")
        bad.probs = np.array([0.5, 0.5])  # two probabilities: the row cannot be written
        with pytest.raises(ValueError):
            write_predictions(path, [Prediction("c", np.array([0.1, 0.1, 0.8]), "neutral"), bad])
        assert_unchanged(path, before)

    def test_metrics(self, tmp_path):
        path = tmp_path / "metrics.txt"
        write_metrics(path, {"accuracy": 0.5})
        before = path.read_bytes()

        class Unprintable:
            def __format__(self, spec):
                raise Boom

        with pytest.raises(Boom):
            write_metrics(path, {"accuracy": 0.25, "z": Unprintable()})
        assert_unchanged(path, before)

    def test_dataset(self, tmp_path):
        path = tmp_path / "expanded.jsonl"
        save_jsonl(path, [NLIExample("p", "h", "neutral", "1")])
        before = path.read_bytes()
        bad = NLIExample("p", "h", "neutral", "2")
        bad.premise = object()  # not JSON
        with pytest.raises(TypeError):
            save_jsonl(path, [NLIExample("q", "h", "neutral", "3"), bad])
        assert_unchanged(path, before)

    def test_checkpoint_and_sidecar(self, tmp_path):
        path = tmp_path / "model.ckpt"
        good = Checkpoint("compaggr", {}, ["a"], "word", {"w": np.ones(3)})
        save_checkpoint(good, path)
        before, sidecar = path.read_bytes(), metrics_path(path).read_bytes()
        # the second block cannot be converted to float64 after the first is written
        bad = Checkpoint("compaggr", {}, ["a"], "word", {"w": np.zeros(3), "x": np.array(["x"])})
        with pytest.raises(ValueError):
            save_checkpoint(bad, path)
        assert_unchanged(path, before, metrics_path(path).name)
        assert metrics_path(path).read_bytes() == sidecar
