import numpy as np
import pytest

from misinfo_mtl.tokenization import (
    CLS_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    encode,
    load_vocab,
    pad_batch,
    save_vocab,
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
    seq = encode("", small_vocab, max_seq_len=6)
    assert seq.ids == (CLS_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID)
    assert seq.mask == (1, 0, 0, 0, 0, 0)


def test_encode_hand_trace(small_vocab):
    seq = encode("a b", small_vocab, max_seq_len=4)
    assert seq.ids == (2, 3, 4, 0)
    assert seq.mask == (1, 1, 1, 0)


def test_encode_truncates_long_text(small_vocab):
    text = " ".join(["a"] * 500)
    seq = encode(text, small_vocab, max_seq_len=128)
    assert len(seq.ids) == 128
    assert all(m == 1 for m in seq.mask)


def test_encode_unknown_tokens_map_to_unk(small_vocab):
    seq = encode("a zzz", small_vocab, max_seq_len=4)
    assert seq.ids == (CLS_ID, 3, UNK_ID, PAD_ID)


def test_encode_requires_room_for_cls(small_vocab):
    with pytest.raises(ValueError):
        encode("a", small_vocab, max_seq_len=1)


def test_encode_deterministic_and_fixed_length(small_vocab):
    rng = np.random.default_rng(0)
    alphabet = ["a", "b", "c", "zz", "!", "q9"]
    for _ in range(50):
        n = int(rng.integers(0, 30))
        text = " ".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
        s1 = encode(text, small_vocab, max_seq_len=12)
        s2 = encode(text, small_vocab, max_seq_len=12)
        assert s1 == s2
        assert len(s1.ids) == 12 and len(s1.mask) == 12
        assert all(0 <= i < small_vocab.size for i in s1.ids)
        # mask is a prefix of ones
        assert list(s1.mask) == sorted(s1.mask, reverse=True)


def test_round_trip_in_vocab_tokens(small_vocab):
    text = "a b c a"
    seq = encode(text, small_vocab, max_seq_len=10)
    # PAD, UNK and CLS map back to no token
    assert [small_vocab.id_to_token[i] for i in seq.ids if i >= len(RESERVED_TOKENS)] == tokenize(text)


def test_pad_batch_single_sequence(small_vocab):
    seq = encode("a b", small_vocab, max_seq_len=128)
    batch = pad_batch([seq])
    assert batch.ids.shape == (1, 128)
    assert batch.mask.shape == (1, 128)
    assert tuple(batch.ids[0]) == seq.ids


def test_pad_batch_minibatch_of_32(small_vocab):
    seqs = [encode("a b c", small_vocab, max_seq_len=128) for _ in range(32)]
    batch = pad_batch(seqs)
    assert batch.ids.shape == (32, 128)
    assert batch.mask.shape == (32, 128)


def test_pad_batch_empty():
    with pytest.raises(ValueError, match="empty batch"):
        pad_batch([])


def test_pad_batch_mixed_lengths(small_vocab):
    with pytest.raises(ValueError, match="mixed"):
        pad_batch([encode("a", small_vocab, 8), encode("a", small_vocab, 9)])


def _ragged(small_vocab):
    texts = ["a", "a b c a b", "b", "c a", "a b c"]
    return pad_batch([encode(t, small_vocab, max_seq_len=16) for t in texts])


def test_trim_batch_width_is_longest_real_row(small_vocab):
    full = _ragged(small_vocab)
    for rows in ([0], [0, 2], [3, 0], [1, 4], [4, 3, 2, 1, 0]):
        batch = trim_batch(full.ids, full.mask, rows)
        longest = int(full.mask[rows].sum(axis=1).max())
        assert batch.seq_len == longest
        assert np.array_equal(batch.ids, full.ids[rows, :longest])
        assert np.array_equal(batch.mask, full.mask[rows, :longest])
        # only all-PAD columns were dropped
        assert batch.mask.sum() == full.mask[rows].sum()


def test_trim_batch_refuses_empty_selection(small_vocab):
    full = _ragged(small_vocab)
    with pytest.raises(ValueError, match="empty batch"):
        trim_batch(full.ids, full.mask, [])


def test_vocab_ids_dense_and_injective():
    vocab = build_vocab(["the cat sat on the mat", "a cat! a hat?"])
    assert sorted(vocab.token_to_id.values()) == list(range(vocab.size))
    assert len(set(vocab.id_to_token)) == vocab.size


def test_vocab_save_load_round_trip(tmp_path, small_vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(small_vocab, path)
    lines = path.read_text().splitlines()
    assert lines[:3] == list(RESERVED_TOKENS)
    loaded = load_vocab(path)
    assert loaded == small_vocab


def test_vocab_load_rejects_bad_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<pad>\n<cls>\n<unk>\na\n")
    with pytest.raises(ValueError, match="reserved"):
        load_vocab(path)


def test_vocab_from_tokens_rejects_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary.from_tokens(["a", "a"])
