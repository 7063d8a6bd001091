"""Point-wise vs list-wise inference on a premise-sharing triple.

Point-wise classification can assign the same label to two pairs of a
triple.  List-wise inference scores all six exclusive label assignments
with the summed log probabilities and picks the best bijection.
"""

import numpy as np

from clinli.data import NLIExample, NLITriple
from clinli.evaluate import best_label_assignment, predict_listwise, predict_pointwise


class FixedModel:
    """Stands in for a trained classifier with fixed probabilities."""

    def __init__(self, rows):
        self.rows = rows

    def predict_proba(self, premise, hypothesis):
        return np.asarray(self.rows[hypothesis])


triple = NLITriple(examples=(
    NLIExample("the patient has velit and nodo", "the patient has velit", "entailment", "q-e"),
    NLIExample("the patient has velit and nodo", "the patient does not have velit", "contradiction", "q-c"),
    NLIExample("the patient has velit and nodo", "the patient has ruda", "neutral", "q-n"),
))

# a model that point-wise prefers "entailment" for two of the three pairs
model = FixedModel({
    "the patient has velit": (0.70, 0.10, 0.20),
    "the patient does not have velit": (0.45, 0.40, 0.15),
    "the patient has ruda": (0.20, 0.15, 0.65),
})

pointwise = predict_pointwise(model, list(triple.examples), [])
print("point-wise labels (not exclusive):")
for p in pointwise:
    print(f"  {p.pair_id}: {p.predicted_label}  probs={np.round(p.probs, 2)}")

result = predict_listwise(model, triple)
print("\nlist-wise exclusive assignment:")
for pid, label in result.as_dict().items():
    print(f"  {pid}: {label}")
print(f"joint log score: {result.log_score:.4f}")

perm, score = best_label_assignment(result.probs)
print(f"\nbest permutation {perm} found by scoring all 6 assignments")
