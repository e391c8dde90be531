import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misinfo_mtl.tokenization import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Batch,
    Vocabulary,
    build_vocab,
    encode,
    pad_batch,
    tokenize,
)

from conftest import trim_batch


def test_reserved_ids_fixed():
    assert (PAD_ID, UNK_ID, CLS_ID) == (0, 1, 2)


def test_tokenize_lowercase_and_punctuation():
    assert tokenize("Don't STOP.") == ["don", "'", "t", "stop", "."]
    assert tokenize("a  b\tc\nd") == ["a", "b", "c", "d"]


def test_build_vocab_frequency_then_lexicographic():
    vocab = build_vocab(["a b", "a c"], min_freq=1, max_size=10)
    assert vocab.token_to_id == {"<pad>": 0, "<unk>": 1, "<cls>": 2, "a": 3, "b": 4, "c": 5}


def test_build_vocab_min_freq_leaves_reserved_only():
    vocab = build_vocab(["x"], min_freq=2)
    assert vocab.size == 3
    assert vocab.id_to_token == RESERVED_TOKENS


def test_build_vocab_max_size_cap():
    corpus = [" ".join(f"w{i:04d}" for i in range(1000))]
    vocab = build_vocab(corpus, min_freq=1, max_size=100)
    assert vocab.size == 100


def test_build_vocab_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_vocab([])


def test_build_vocab_rejects_bad_min_freq():
    with pytest.raises(ValueError):
        build_vocab(["a"], min_freq=0)


@pytest.fixture
def small_vocab():
    return build_vocab(["a b", "a c"])


def test_encode_empty_text(small_vocab):
    assert encode("", small_vocab, max_seq_len=6) == (CLS_ID,)


def test_encode_hand_trace(small_vocab):
    assert encode("a b", small_vocab, max_seq_len=4) == (2, 3, 4)


def test_encode_truncates_long_text(small_vocab):
    text = " ".join(["a"] * 500)
    assert encode(text, small_vocab, max_seq_len=128) == (CLS_ID,) + 127 * (3,)


def test_encode_unknown_tokens_map_to_unk(small_vocab):
    assert encode("a zzz", small_vocab, max_seq_len=4) == (CLS_ID, 3, UNK_ID)


def test_encode_requires_room_for_cls(small_vocab):
    with pytest.raises(ValueError):
        encode("a", small_vocab, max_seq_len=1)



_HEAD_VOCAB = build_vocab(["alpha beta déjà vu , . ! ' 42 日本語 straße i̇stanbul"])
_WORDS = st.sampled_from(["alpha", "Beta", "GAMMA", "Déjà", "vu", "İstanbul", "STRASSE", "straße", "ǅemal",
                          "naïve", "日本語", "x1_y", "42", "ΣΟΦΊΑ"])
_GAPS = st.sampled_from([" ", "  ", "\t", "\n", ", ", ". ", "!?", "'", " — ", "…", "\u00a0", "", "-"])


@settings(max_examples=200, deadline=None)
@given(text=st.lists(st.tuples(_WORDS, _GAPS), max_size=250).map(lambda parts: "".join(w + g for w, g in parts))
       | st.text(max_size=400),
       max_seq_len=st.integers(2, 160))
def test_encode_tokenizes_the_head_only_with_the_whole_texts_ids(text, max_seq_len):
    # encode stops the tokenizer after max_seq_len - 1 tokens; the ids are the whole tokenization's head, looked up
    expected = (CLS_ID, *[_HEAD_VOCAB.token_to_id.get(tok, UNK_ID) for tok in tokenize(text)[: max_seq_len - 1]])
    assert encode(text, _HEAD_VOCAB, max_seq_len) == expected

def test_encode_deterministic_and_fixed_length(small_vocab):
    rng = np.random.default_rng(0)
    alphabet = ["a", "b", "c", "zz", "!", "q9"]
    for _ in range(50):
        n = int(rng.integers(0, 30))
        text = " ".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
        s1 = encode(text, small_vocab, max_seq_len=12)
        s2 = encode(text, small_vocab, max_seq_len=12)
        assert s1 == s2
        assert len(s1) == min(n + 1, 12) and s1[0] == CLS_ID  # every word here is one token
        assert all(0 <= i < small_vocab.size and i != PAD_ID for i in s1)


def test_round_trip_in_vocab_tokens(small_vocab):
    text = "a b c a"
    seq = encode(text, small_vocab, max_seq_len=10)
    # PAD, UNK and CLS map back to no token
    assert [small_vocab.id_to_token[i] for i in seq if i >= len(RESERVED_TOKENS)] == tokenize(text)


def test_pad_batch_single_sequence(small_vocab):
    seq = encode("a b", small_vocab, max_seq_len=128)
    batch = pad_batch([seq])
    assert batch.ids.shape == (1, 3) and batch.lengths.tolist() == [3]
    assert tuple(batch.ids[0]) == seq


def test_pad_batch_minibatch_of_32(small_vocab):
    seqs = [encode("a b c", small_vocab, max_seq_len=128) for _ in range(32)]
    batch = pad_batch(seqs)
    assert batch.ids.shape == (32, 4) and batch.lengths.tolist() == 32 * [4]


def test_pad_batch_empty():
    with pytest.raises(ValueError, match="empty batch"):
        pad_batch([])


def test_pad_batch_pads_mixed_lengths_to_the_longest(small_vocab):
    batch = pad_batch([encode("a", small_vocab, 8), encode("a b c a", small_vocab, 9)])
    assert batch.ids.tolist() == [[2, 3, 0, 0, 0], [2, 3, 4, 5, 3]] and batch.lengths.tolist() == [2, 5]


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.text(alphabet="ab c!zé\t", max_size=40), min_size=1, max_size=8),
       max_seq_len=st.integers(2, 12))
def test_pad_batch_of_encoded_texts_keeps_ids_and_lengths_with_pad_after(texts, max_seq_len):
    vocab = build_vocab(["a b", "a c"])
    seqs = [encode(t, vocab, max_seq_len) for t in texts]
    batch = pad_batch(seqs)
    assert batch.lengths.tolist() == [min(len(tokenize(t)) + 1, max_seq_len) for t in texts]
    assert batch.seq_len == batch.lengths.max()
    for row, seq, n in zip(batch.ids.tolist(), seqs, batch.lengths.tolist()):
        assert tuple(row[:n]) == seq and row[n:] == [PAD_ID] * (batch.seq_len - n)
    assert np.array_equal(batch.mask, batch.ids != PAD_ID)  # no real id is PAD


def _ragged(small_vocab):
    texts = ["a", "a b c a b", "b", "c a", "a b c"]
    return pad_batch([encode(t, small_vocab, max_seq_len=16) for t in texts])


def test_trim_batch_width_is_longest_real_row(small_vocab):
    full = _ragged(small_vocab)
    for rows in ([0], [0, 2], [3, 0], [1, 4], [4, 3, 2, 1, 0]):
        batch = trim_batch(full, rows)
        longest = int(full.lengths[rows].max())
        assert batch.seq_len == longest
        assert np.array_equal(batch.ids, full.ids[rows, :longest])
        assert np.array_equal(batch.lengths, full.lengths[rows])


def test_trim_batch_refuses_empty_selection(small_vocab):
    with pytest.raises(ValueError, match="empty batch"):
        trim_batch(_ragged(small_vocab), [])


def test_batch_reads_a_prefix_mask_into_lengths_and_refuses_holes():
    ids = np.array([[2, 5, 0], [2, 5, 6]])
    batch = Batch(ids, mask=np.array([[1, 1, 0], [1, 1, 1]]))
    assert batch.lengths.tolist() == [2, 3] and batch.mask.tolist() == [[True, True, False], [True, True, True]]
    with pytest.raises(ValueError, match="prefix"):
        Batch(ids, mask=np.array([[1, 0, 1], [1, 1, 1]]))


def test_vocab_ids_dense_and_injective():
    vocab = build_vocab(["the cat sat on the mat", "a cat! a hat?"])
    assert sorted(vocab.token_to_id.values()) == list(range(vocab.size))
    assert len(set(vocab.id_to_token)) == vocab.size


def test_vocab_from_tokens_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary.from_tokens(["a", "a"])
