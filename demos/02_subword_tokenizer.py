"""Sub-word vocabulary training and sentence-pair encoding.

Trains a greedy pair-merge vocabulary on a toy clinical corpus, segments
unseen words by longest-match, and encodes a premise/hypothesis pair with
special tokens and segments, unpadded (a classifier pads each batch to its
longest pair; ``max_len`` is the truncation budget).
"""

from clinli import tokenizer as tk

corpus = [
    "patient denies chest pain and shortness of breath",
    "chest x-ray showed no infiltrates",
    "history of congestive heart failure",
    "patient has normal sinus rhythm",
    "denies headache sinus tenderness or congestion",
]

vocab = tk.train_wordpiece(corpus, target_size=140)
print(f"vocabulary size: {len(vocab)}")
print("last merges:", vocab.tokens[-8:])

for word in ("chest", "chesty", "congestions", "zygote"):
    pieces = tk.tokenize_to_tokens(word, vocab)
    print(f"{word!r:16} -> {pieces}")

enc = tk.encode_pair(
    "patient has normal sinus rhythm",
    "patient denies chest pain",
    vocab,
    max_len=20,
)
tokens = [vocab.token_of(i) for i in enc.token_ids]
print("\nencoded pair layout:")
print("tokens:  ", tokens)
print("segments:", enc.segment_ids)
print("valid length:", len(enc.token_ids), "of max_len 20")
