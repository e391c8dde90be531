"""Word-level tokenization: text to fixed-length id sequences with attention masks.

Rows are encoded to one fixed length. ``width_groups`` splits rows by width
class; the encoder cuts each class of a batch into runs, each at its own
longest real row, so no caller trims. The vocabulary is immutable once built
and the encoding and batching functions are pure, so everything here is safe
to share across threads.
"""

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_text_atomic

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<cls>")
# A row's width class is ceil(real length / WIDTH_CLASS). Classes this coarse
# keep all short texts together: where length tracks the label, an exact length
# sort builds label-pure train batches and training suffers.
WIDTH_CLASS = 32

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

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        """Build from non-reserved tokens in id order (first token gets id 3)."""
        id_to_token = RESERVED_TOKENS + tuple(tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise ValueError("duplicate tokens in vocabulary")
        return cls(token_to_id=token_to_id, id_to_token=id_to_token)


def build_vocab(corpus: list[str], min_freq: int = 1, max_size: int | None = None) -> Vocabulary:
    """Count tokens over a corpus and keep the most frequent ones.

    Tokens are ordered by (frequency desc, lexicographic asc) after the three
    reserved ids; tokens below ``min_freq`` are dropped and ``max_size`` caps
    the total entry count including the reserved ids.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_size is not None and max_size < len(RESERVED_TOKENS):
        raise ValueError(f"max_size must be >= {len(RESERVED_TOKENS)}")
    counts = Counter()
    for text in corpus:
        counts.update(tokenize(text))
    kept = [tok for tok, freq in counts.items() if freq >= min_freq]
    kept.sort(key=lambda tok: (-counts[tok], tok))
    if max_size is not None:
        kept = kept[: max_size - len(RESERVED_TOKENS)]
    return Vocabulary.from_tokens(kept)


@dataclass(frozen=True)
class TokenSequence:
    """One encoded text: CLS-prefixed ids padded to a fixed length, plus mask."""

    ids: tuple[int, ...]
    mask: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


def encode(text: str, vocab: Vocabulary, max_seq_len: int = 128) -> TokenSequence:
    """Encode one text to exactly ``max_seq_len`` ids: CLS + tokens, PAD-filled.

    Out-of-vocabulary tokens map to UNK; overlong texts are truncated from the
    end (the head of the document is kept).
    """
    if max_seq_len < 2:
        raise ValueError(f"max_seq_len must be >= 2, got {max_seq_len}")
    ids = [CLS_ID] + [vocab.lookup(tok) for tok in tokenize(text)[: max_seq_len - 1]]
    n_real = len(ids)
    ids.extend([PAD_ID] * (max_seq_len - n_real))
    mask = [1] * n_real + [0] * (max_seq_len - n_real)
    return TokenSequence(ids=tuple(ids), mask=tuple(mask))


@dataclass(frozen=True)
class Batch:
    """Stacked token ids and attention mask, both of shape (batch, seq_len)."""

    ids: np.ndarray
    mask: np.ndarray

    @property
    def size(self) -> int:
        return self.ids.shape[0]

    @property
    def seq_len(self) -> int:
        return self.ids.shape[1]


def pad_batch(seqs: list[TokenSequence]) -> Batch:
    """Stack same-length sequences into id / mask matrices."""
    if not seqs:
        raise ValueError("empty batch")
    length = len(seqs[0])
    if any(len(s) != length for s in seqs):
        raise ValueError("mixed sequence lengths in batch")
    ids = np.array([s.ids for s in seqs], dtype=np.int64)
    mask = np.array([s.mask for s in seqs], dtype=np.int64)
    return Batch(ids=ids, mask=mask)


def width_groups(lengths: np.ndarray) -> list[np.ndarray]:
    """Indices of ``lengths`` per width class, ascending by class, each in index order."""
    classes = -(-np.asarray(lengths) // WIDTH_CLASS)
    # bincount, not np.unique: unique imports numpy.ma, about 1.5 MB of resident memory
    return [np.flatnonzero(classes == c) for c in np.flatnonzero(np.bincount(classes))]


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """Write one token per line; the first three lines are the reserved tokens."""
    write_text_atomic(path, "\n".join(vocab.id_to_token) + "\n")


def load_vocab(path: str | Path) -> Vocabulary:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if tuple(lines[:3]) != RESERVED_TOKENS:
        raise ValueError(f"vocabulary file must start with reserved lines {RESERVED_TOKENS}")
    return Vocabulary.from_tokens(lines[3:])
