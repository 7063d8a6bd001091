"""Desk-scale clinical natural language inference.

Two trainable sentence-pair classifiers (a sub-word transformer encoder and
a word-level compare-aggregate matcher) over a from-scratch reverse-mode
autodiff tensor core, with sequential transfer learning, clinical
abbreviation expansion, synthetic corpus generation, and point-wise /
list-wise inference with analysis metrics.  The package root exports
nothing: import each name from its module, ``clinli.<module>``.
"""
