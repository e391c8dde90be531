"""Word-level tokenization: text to CLS-prefixed id sequences, batched with their lengths.

A batch holds every row's real length, and PAD after each row's real ids; how
a batch is cut into runs by those lengths is the encoder's decision. The
vocabulary is immutable once built and the encoding and batching functions
are pure, so everything here is safe to share across threads.
"""

import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice

import numpy as np

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<cls>")

# Words are runs of word characters; every punctuation mark is its own token.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace and punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Dense token->id mapping with PAD=0, UNK=1, CLS=2 reserved."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """Build from non-reserved tokens in id order (first token gets id 3)."""
        id_to_token = RESERVED_TOKENS + tuple(tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token)


def check_vocab_settings(min_freq: int = 1, max_size: int | None = None) -> None:
    """Refuse a ``min_freq`` below 1 and a ``max_size`` below the reserved ids' count."""
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_size is not None and max_size < len(RESERVED_TOKENS):
        raise ValueError(f"max_size must be >= {len(RESERVED_TOKENS)}, got {max_size}")


def build_vocab(corpus: list[str], min_freq: int = 1, max_size: int | None = None) -> Vocabulary:
    """Count tokens over a corpus and keep the most frequent ones.

    Tokens are ordered by (frequency desc, lexicographic asc) after the three
    reserved ids; tokens below ``min_freq`` are dropped and ``max_size`` caps
    the total entry count including the reserved ids.
    """
    if not corpus:
        raise ValueError("empty corpus")
    check_vocab_settings(min_freq, max_size)
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    kept = [tok for tok, freq in counts.items() if freq >= min_freq]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    if max_size is not None:
        kept = kept[: max_size - len(RESERVED_TOKENS)]
    return Vocabulary.from_tokens(kept)


def encode(text: str, vocab: Vocabulary, max_seq_len: int = 128) -> tuple[int, ...]:
    """Encode one text to its real ids: CLS, then at most ``max_seq_len - 1`` token ids.

    Out-of-vocabulary tokens map to UNK; overlong texts are truncated from the
    end (the head of the document is kept), and the tokenizer stops there.
    """
    if max_seq_len < 2:
        raise ValueError(f"max_seq_len must be >= 2, got {max_seq_len}")
    get = vocab.token_to_id.get
    return (CLS_ID, *[get(m[0], UNK_ID) for m in islice(_TOKEN_RE.finditer(text.lower()), max_seq_len - 1)])


@dataclass(frozen=True, init=False)
class Batch:
    """Stacked token ids, (rows, width): each row's real ids, then PAD; and each row's real length."""

    ids: np.ndarray
    lengths: np.ndarray

    def __init__(self, ids: np.ndarray, lengths: np.ndarray | None = None, *, mask: np.ndarray | None = None):
        # perfbench/anchors.py, which may not change, builds batches from a prefix mask, read here into lengths
        object.__setattr__(self, "ids", np.asarray(ids))
        object.__setattr__(self, "lengths", np.asarray(lengths if mask is None else np.sum(mask, axis=1)))
        if mask is not None and not np.array_equal(self.mask, np.asarray(mask) != 0):
            raise ValueError("mask must be a prefix of ones in every row")

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.ids.shape[1]

    @property
    def mask(self) -> np.ndarray:
        """(rows, width) bool, True below each row's length: derived on every read, never stored.

        ``pad_batch`` fills ids through it. It is public because perfbench/bench_trace.py, which may not
        change, counts a forward's real tokens as ``batch.mask.sum()``.
        """
        return np.arange(self.seq_len) < self.lengths[:, None]


def pad_batch(seqs: list[tuple[int, ...]]) -> Batch:
    """Stack encoded sequences of any lengths, PAD-filled to the longest."""
    if not seqs:
        raise ValueError("empty batch")
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    batch = Batch(np.full((lengths.size, lengths.max()), PAD_ID, dtype=np.int64), lengths)
    batch.ids[batch.mask] = [i for seq in seqs for i in seq]
    return batch
