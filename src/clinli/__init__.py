"""Desk-scale clinical natural language inference.

Two trainable sentence-pair classifiers (a sub-word transformer encoder and
a word-level compare-aggregate matcher) over a from-scratch reverse-mode
autodiff tensor core, with sequential transfer learning, clinical
abbreviation expansion, synthetic corpus generation, and point-wise /
list-wise inference with analysis metrics.
"""

from .abbrev import AbbrevTable, demo_table, expand, expand_dataset, load_table
from .checkpoint import Checkpoint, load_checkpoint, model_from_checkpoint, save_checkpoint
from .compaggr import (
    CompAggrConfig,
    CompAggrModel,
    aggregate_classify,
    compare,
    contextual_encode,
    cross_attention,
)
from .data import LABELS, NLIExample, NLITriple, label_id, load_jsonl, save_jsonl
from .evaluate import (
    Prediction,
    accuracy,
    agreement_partition,
    best_label_assignment,
    group_into_triples,
    mean_correct_confidence,
    predict_listwise,
    predict_pointwise,
    read_predictions,
    write_predictions,
)
from .synth import SynthSpec, generate_corpus, generate_transfer_pair
from .tensor import Tensor
from .tokenizer import Vocabulary, build_word_vocab, encode_pair, tokenize, train_wordpiece
from .training import (
    AdamState,
    Stage,
    TrainConfig,
    TransferChain,
    adam_step,
    clip_gradients,
    run_chain,
    train,
)
from .transformer import TransformerClassifier, TransformerConfig, multi_head_attention

__version__ = "0.1.0"
