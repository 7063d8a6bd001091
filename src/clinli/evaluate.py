"""Point-wise and list-wise inference plus the analysis metrics.

Point-wise prediction classifies each pair independently.  List-wise
prediction takes a triple of pairs sharing one premise and assigns the
three labels exclusively, by scoring all six label permutations with the
summed log of the point-wise probabilities and keeping the best
(lexicographically smallest permutation on ties).

Metrics: accuracy, the agreement partition between two prediction sets
(which model got each example right), and the mean confidence over
correctly classified examples.

Prediction files are TSV: pair_id, p_entailment, p_contradiction,
p_neutral, predicted_label.  Floats are written with ``repr`` so files
round-trip exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .data import LABELS, NLIExample, NLITriple, label_id, read_text, write_atomic
from .errors import DataError

__all__ = [
    "AgreementPartition",
    "ListwiseResult",
    "Prediction",
    "PredictionError",
    "accuracy",
    "agreement_partition",
    "best_label_assignment",
    "group_into_triples",
    "mean_correct_confidence",
    "predict_listwise",
    "predict_pointwise",
    "read_predictions",
    "write_metrics",
    "write_predictions",
]


@dataclass
class Prediction:
    """Per-pair class probabilities and the predicted label.  The label
    defaults to the argmax (ties resolved by the fixed class order
    entailment < contradiction < neutral); a list-wise assignment may give
    any label of LABELS."""

    pair_id: str
    probs: np.ndarray
    predicted_label: str | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (3,):
            raise DataError(f"prediction needs 3 probabilities, got shape {self.probs.shape}")
        if not abs(float(self.probs.sum()) - 1.0) <= 1e-6:
            raise DataError(f"probabilities sum to {self.probs.sum()}, not 1")
        if min(self.probs.tolist()) < 0:
            raise DataError(f"probabilities must not be negative, got {self.probs.tolist()}")
        if self.predicted_label is None:
            self.predicted_label = LABELS[int(np.argmax(self.probs))]
        elif self.predicted_label not in LABELS:
            raise DataError(f"unknown label {self.predicted_label!r}")

    @property
    def confidence(self) -> float:
        return float(self.probs[label_id(self.predicted_label)])


# perfbench/bench.py builds prediction rows positionally under this older name.
FilePrediction = Prediction


@dataclass
class PredictionError:
    pair_id: str
    message: str


def _pair_id(ex: NLIExample, index: int) -> str:
    return ex.pair_id if ex.pair_id is not None else f"idx-{index}"


def predict_pointwise(model, examples, error_log: list, positions=None) -> list[Prediction]:
    """One prediction per example, order preserved.  Examples the model
    cannot encode (a DataError) are skipped, each with a ``PredictionError``
    appended to ``error_log``; any other error propagates.
    ``positions`` are the examples' indices in their dataset (by default
    their order here); pairs without a pair id are named by them."""
    out: list[Prediction] = []
    for i, ex in zip(itertools.count() if positions is None else positions, examples):
        pid = _pair_id(ex, i)
        try:
            probs = model.predict_proba(ex.premise, ex.hypothesis)
        except DataError as exc:
            error_log.append(PredictionError(pair_id=pid, message=str(exc)))
            continue
        out.append(Prediction(pair_id=pid, probs=probs))
    return out


def best_label_assignment(prob_matrix) -> tuple[tuple[int, int, int], float]:
    """Exclusive assignment of 3 labels to 3 pairs maximizing the summed log
    probability; ties go to the lexicographically smallest permutation."""
    p = np.asarray(prob_matrix, dtype=np.float64)
    if p.shape != (3, 3):
        raise DataError(f"need a 3x3 probability matrix, got {p.shape}")
    best_perm: tuple[int, int, int] | None = None
    best_score = -math.inf
    for perm in itertools.permutations(range(3)):
        score = sum(math.log(max(p[k, perm[k]], 1e-300)) for k in range(3))
        if score > best_score:
            best_score = score
            best_perm = perm
    return best_perm, best_score


@dataclass
class ListwiseResult:
    """Exclusive label assignment for one premise-sharing triple."""

    pair_ids: tuple[str, str, str]
    labels: tuple[str, str, str]
    log_score: float
    probs: np.ndarray

    def as_dict(self) -> dict[str, str]:
        return dict(zip(self.pair_ids, self.labels))


def predict_listwise(model, triple: NLITriple) -> ListwiseResult:
    """Assign the three labels exclusively across the triple's pairs."""
    pair_ids = tuple(_pair_id(ex, i) for i, ex in zip(triple.positions, triple.examples))
    probs = np.stack([model.predict_proba(ex.premise, ex.hypothesis) for ex in triple.examples])
    perm, score = best_label_assignment(probs)
    return ListwiseResult(
        pair_ids=pair_ids,
        labels=tuple(LABELS[perm[k]] for k in range(3)),
        log_score=score,
        probs=probs,
    )


def group_into_triples(examples) -> tuple[list[NLITriple], int]:
    """Group examples by shared premise text into label-complete triples for
    list-wise inference.  Groups that are not one example per class are
    skipped and counted in the second return value."""
    groups: dict[str, list[int]] = {}
    for i, ex in enumerate(examples):
        groups.setdefault(ex.premise, []).append(i)
    triples: list[NLITriple] = []
    skipped = 0
    for members in groups.values():
        if len(members) != 3:
            skipped += 1
            continue
        try:
            triples.append(NLITriple(examples=tuple(examples[i] for i in members), positions=tuple(members)))
        except DataError:
            skipped += 1
    return triples, skipped


def _gold_map(golds) -> dict[str, str]:
    out = {}
    for i, ex in enumerate(golds):
        pid = _pair_id(ex, i)
        if pid in out:
            raise DataError(f"gold examples repeat pair id {pid!r}")
        out[pid] = ex.gold_label
    return out


def _check_aligned(predictions, gold_by_id) -> None:
    seen: set[str] = set()
    for p in predictions:
        if p.pair_id in seen:
            raise DataError(f"predictions repeat pair id {p.pair_id!r}")
        seen.add(p.pair_id)
    missing = [p.pair_id for p in predictions if p.pair_id not in gold_by_id]
    if missing:
        raise DataError(f"predictions without matching gold examples: {missing[:5]}")


def accuracy(predictions, golds) -> float:
    """Fraction of predictions matching the gold label, aligned by pair id."""
    preds = list(predictions)
    if not preds:
        raise DataError("no predictions to score")
    gold_by_id = _gold_map(golds)
    _check_aligned(preds, gold_by_id)
    correct = sum(1 for p in preds if p.predicted_label == gold_by_id[p.pair_id])
    return correct / len(preds)


@dataclass
class AgreementPartition:
    """Which of two models classified each example correctly."""

    counts: dict[str, int]
    fractions: dict[str, float]
    total: int


def agreement_partition(preds_a, preds_b, golds) -> AgreementPartition:
    preds_a = list(preds_a)
    preds_b = list(preds_b)
    gold_by_id = _gold_map(golds)
    _check_aligned(preds_a, gold_by_id)
    _check_aligned(preds_b, gold_by_id)
    b_by_id = {p.pair_id: p for p in preds_b}
    if set(b_by_id) != {p.pair_id for p in preds_a}:
        raise DataError("the two prediction sets cover different pair ids")
    counts = {"both": 0, "only_a": 0, "only_b": 0, "neither": 0}
    for pa in preds_a:
        gold = gold_by_id[pa.pair_id]
        a_ok = pa.predicted_label == gold
        b_ok = b_by_id[pa.pair_id].predicted_label == gold
        key = {(True, True): "both", (True, False): "only_a", (False, True): "only_b", (False, False): "neither"}[
            (a_ok, b_ok)
        ]
        counts[key] += 1
    total = len(preds_a)
    if total == 0:
        raise DataError("no predictions to partition")
    fractions = {k: v / total for k, v in counts.items()}
    return AgreementPartition(counts=counts, fractions=fractions, total=total)


def mean_correct_confidence(predictions, golds) -> float:
    """Mean predicted-label probability over correctly classified examples."""
    preds = list(predictions)
    gold_by_id = _gold_map(golds)
    _check_aligned(preds, gold_by_id)
    confidences = [p.confidence for p in preds if p.predicted_label == gold_by_id[p.pair_id]]
    if not confidences:
        raise DataError("mean_correct_confidence undefined: no correct predictions")
    return float(sum(confidences) / len(confidences))


def write_predictions(path, predictions) -> None:
    with write_atomic(path) as fh:
        for p in predictions:
            pe, pc, pn = (float(v) for v in p.probs)
            fh.write(f"{p.pair_id}\t{pe!r}\t{pc!r}\t{pn!r}\t{p.predicted_label}\n")


def read_predictions(path) -> list[Prediction]:
    """Rows written by ``write_predictions``; any malformed row ends in a
    DataError naming ``path:line`` (a byte that is not UTF-8 in a ParseError)."""
    out = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 5:
            raise DataError(f"{path}:{lineno}: expected 5 tab-separated fields")
        pid, pe, pc, pn, label = fields
        try:
            probs = np.array([float(pe), float(pc), float(pn)])
        except ValueError:
            raise DataError(f"{path}:{lineno}: probabilities must be numbers, got {[pe, pc, pn]}") from None
        try:
            out.append(Prediction(pid, probs, label))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    return out


def write_metrics(path, metrics: dict) -> None:
    """Plain-text key=value lines, sorted by key."""
    with write_atomic(path) as fh:
        for key in sorted(metrics):
            value = metrics[key]
            if isinstance(value, (float, np.floating)):
                fh.write(f"{key}={float(value)!r}\n")
            else:
                fh.write(f"{key}={value}\n")
