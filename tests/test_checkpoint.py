import json
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misinfo_mtl.checkpoint import MAGIC, load_model, save_model
from misinfo_mtl.encoder import init_encoder
from misinfo_mtl.multitask import MultiTaskModel, TaskSpec, build_model, register_task
from misinfo_mtl.tokenization import RESERVED_TOKENS, Vocabulary

from conftest import tamper_header, tiny_config


def test_encoder_checkpoint_round_trip(tmp_path):
    # A model with no task heads yet (the state right after pre-training setup)
    # carries its encoder through the multitask checkpoint unchanged.
    params = init_encoder(tiny_config(seed=5))
    path = tmp_path / "enc.ckpt"
    save_model(path, MultiTaskModel(encoder=params))
    loaded = load_model(path)
    assert loaded.tasks == {} and loaded.heads == {}
    assert loaded.encoder.config == params.config
    assert set(loaded.encoder.tensors) == set(params.tensors)
    for name in params.tensors:
        assert np.array_equal(loaded.encoder.tensors[name], params.tensors[name])
        assert loaded.encoder.tensors[name].dtype == np.float64


def test_model_checkpoint_round_trip(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    loaded = load_model(path)
    assert set(loaded.tasks) == {"a_task", "b_task"}
    assert loaded.tasks["a_task"].labels == ("neg", "pos")
    assert loaded.tasks["a_task"].positive_label == "pos"
    assert loaded.config == tiny_model.config
    for task in tiny_model.heads:
        for name in tiny_model.heads[task]:
            assert np.array_equal(loaded.heads[task][name], tiny_model.heads[task][name])
            assert loaded.heads[task][name].dtype == np.float64
    assert set(loaded.encoder.tensors) == set(tiny_model.encoder.tensors)
    for name in tiny_model.encoder.tensors:
        assert np.array_equal(loaded.encoder.tensors[name], tiny_model.encoder.tensors[name])
        assert loaded.encoder.tensors[name].dtype == np.float64


def _vocab_of(config) -> Vocabulary:
    """A vocabulary that fills ``config.vocab_size``."""
    return Vocabulary.from_tokens([f"tok{i}" for i in range(config.vocab_size - len(RESERVED_TOKENS))])


def test_vocabulary_round_trips_through_the_header(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    assert load_model(path).vocab is None  # a model built without a vocabulary stores null
    tiny_model.vocab = _vocab_of(tiny_model.config)
    save_model(path, tiny_model)
    loaded = load_model(path).vocab
    assert loaded.id_to_token == tiny_model.vocab.id_to_token and loaded == tiny_model.vocab
    assert loaded.token_to_id["tok0"] == len(RESERVED_TOKENS) and "unseen" not in loaded.token_to_id


def test_a_model_built_on_a_vocabulary_saves_and_loads_whatever_its_config_says(tmp_path):
    # the config's vocab_size does not match the 4-token vocabulary: build_model sizes the table from the vocabulary
    vocab = Vocabulary.from_tokens(["w", "x", "y", "z"])
    model = build_model(tiny_config(vocab_size=50), [TaskSpec("t", ("a", "b"), "tweet")], vocab=vocab)
    save_model(tmp_path / "model.ckpt", model)
    loaded = load_model(tmp_path / "model.ckpt")
    assert loaded.vocab == vocab and loaded.config == model.config
    assert model.config.vocab_size == vocab.size == 7 and model.encoder.tensors["token_emb"].shape[0] == 7


def test_checkpoint_bytes_are_deterministic(tmp_path, tiny_model):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(p1, tiny_model)
    save_model(p2, tiny_model)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_and_load_copy_each_tensor_at_most_once(tmp_path):
    # A 4,000-row table dominates the file, so each full copy of the tensors shows as one file size of traced memory.
    model = MultiTaskModel(encoder=init_encoder(tiny_config(vocab_size=4000, embed_dim=64, num_heads=4)))
    path = tmp_path / "big.ckpt"
    tracemalloc.start()
    try:
        save_model(path, model)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_model(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert save_peak < 0.5 * size  # the arrays' own buffers are written, not bytes copies
    assert load_peak < 2.25 * size  # the file's bytes plus one copy per tensor
    assert all(arr.flags.writeable for arr in loaded.encoder.tensors.values())  # copies, not views of the file


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_rejects_wrong_kind(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)

    def other_kind(header):
        header["kind"] = "encoder"

    path.write_bytes(tamper_header(path.read_bytes(), other_kind))
    with pytest.raises(ValueError, match="expected a multitask checkpoint, found 'encoder'"):
        load_model(path)


def test_rejects_truncated_payload(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated|trailing"):
        load_model(path)


def test_rejects_shape_mismatch_against_config(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)

    def grow_ffn(header):
        header["encoder_config"]["ffn_dim"] += 1

    path.write_bytes(tamper_header(path.read_bytes(), grow_ffn))
    with pytest.raises(ValueError, match="shape mismatch"):
        load_model(path)


def test_rejects_missing_tensor(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)

    def drop_task(header):
        del header["tasks"]["b_task"]

    path.write_bytes(tamper_header(path.read_bytes(), drop_task))
    with pytest.raises(ValueError, match="tensor set mismatch"):
        load_model(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda toks: ",".join(toks), "vocab must be a list of strings or null"),
        (lambda toks: toks[:-1] + [7], "vocab must be a list of strings or null"),
        (lambda toks: toks[:-1] + [toks[0]], "bad vocab: duplicate tokens"),
        (lambda toks: toks[:-1] + ["<cls>"], "bad vocab: duplicate tokens"),
        (lambda toks: toks + ["extra"], "vocab has 38 tokens after the 3 reserved ids but vocab_size is 40"),
        (lambda toks: toks[:-1], "vocab has 36 tokens after the 3 reserved ids but vocab_size is 40"),
    ],
    ids=["not-a-list", "non-string-entry", "repeated", "reserved", "one-too-many", "one-too-few"],
)
def test_rejects_a_bad_vocab_naming_the_file(tmp_path, tiny_model, mutate, message):
    tiny_model.vocab = _vocab_of(tiny_model.config)
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)

    def bad_vocab(header):
        header["vocab"] = mutate(header["vocab"])

    path.write_bytes(tamper_header(path.read_bytes(), bad_vocab))
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_magic_prefix_written(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    assert path.read_bytes()[:8] == MAGIC


def _header_bytes(header) -> bytes:
    blob = json.dumps(header).encode()
    return MAGIC + struct.pack("<Q", len(blob)) + blob


@pytest.mark.parametrize(
    "raw, message",
    [
        (MAGIC + b"\x01\x02", "truncated before the header length"),
        (MAGIC + struct.pack("<Q", 10**6) + b"{}", "runs past the end of the file"),
        (MAGIC + struct.pack("<Q", 4) + b"\xff\xfe{}", "unreadable checkpoint header"),
        (MAGIC + struct.pack("<Q", 5) + b"{kind", "unreadable checkpoint header"),
        (_header_bytes({}), "malformed checkpoint header"),
        (_header_bytes([1, 2]), "malformed checkpoint header"),
    ],
)
def test_rejects_malformed_header_naming_the_file(tmp_path, raw, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h["encoder_config"].__setitem__("embed_dim", "16"),
        lambda h: h["encoder_config"].__setitem__("num_layers", 2.0),
        lambda h: h["encoder_config"].__setitem__("pooling", "cls"),  # written when pooling was a setting
        lambda h: h["encoder_config"].__setitem__("bogus", 1),
        lambda h: h["encoder_config"].pop("seed"),
        lambda h: h["encoder_config"].__setitem__("num_layers", 10**9),
        lambda h: h["tasks"]["a_task"].__setitem__("labels", "neg,pos"),
        lambda h: h["tasks"]["a_task"].__setitem__("granularity", "novel"),
        lambda h: h["tensors"][0].__setitem__("shape", [-1]),
        lambda h: h["tensors"].append(dict(h["tensors"][0])),
        lambda h: h.__setitem__("tasks", []),
        lambda h: h["tensors"][0].__setitem__("name", [1]),  # unhashable: must not escape as a TypeError
        lambda h: h["tasks"]["a_task"].__setitem__("positive_label", 1),
        lambda h: h["encoder_config"].__setitem__("dropout_rate", True),
        lambda h: h.__setitem__("vocab", {}),
    ],
)
def test_rejects_ill_typed_header_fields(tmp_path, tiny_model, mutate):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    path.write_bytes(tamper_header(path.read_bytes(), mutate))
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert str(path) in str(info.value)


def test_refuses_non_finite_tensors_on_save_and_load(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    raw = bytearray(path.read_bytes())
    raw[-8:] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="non-finite values in tensor"):
        load_model(path)

    tiny_model.heads["b_task"]["out_b"][0] = np.inf
    fresh = tmp_path / "inf.ckpt"
    with pytest.raises(ValueError, match="refusing to save non-finite values in tensor 'head.b_task.out_b'"):
        save_model(fresh, tiny_model)
    assert not fresh.exists()


@pytest.fixture(scope="module")
def valid_checkpoint():
    config = tiny_config(num_layers=1, vocab_size=12, max_seq_len=4)
    model = MultiTaskModel(encoder=init_encoder(config), vocab=_vocab_of(config))
    register_task(model, TaskSpec("t", ("neg", "pos"), "tweet", "pos"), seed=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.ckpt"
        save_model(path, model)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_bytes_load_or_raise_value_error(valid_checkpoint, tmp_path_factory, data):
    raw = bytearray(valid_checkpoint)
    for pos in data.draw(st.lists(st.integers(0, len(raw) * 8 - 1), max_size=4), label="bit flips"):
        raw[pos // 8] ^= 1 << (pos % 8)
    if data.draw(st.booleans(), label="rewrite header length"):
        raw[8:16] = struct.pack("<Q", data.draw(st.integers(0, 2**64 - 1), label="header length"))
    raw = raw[: data.draw(st.integers(0, len(raw)), label="keep bytes")]
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(raw))
    try:
        model = load_model(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(model, MultiTaskModel)
        assert all(np.isfinite(arr).all() for arr in model.encoder.tensors.values())
        assert model.vocab.size == model.config.vocab_size


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_checkpoint_header_loads_or_raises_value_error(valid_checkpoint, tmp_path_factory, data):
    def mutate(header):
        # a path from the header down to any value, then that value replaced or deleted, or a key added under it
        parent, key = header, data.draw(st.sampled_from(sorted(header)), label="header key")
        while isinstance(parent[key], (dict, list)) and parent[key] and data.draw(st.booleans(), label="descend"):
            node = parent[key]
            parent, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))),
                                          label="key")
        action = data.draw(st.sampled_from(["replace", "delete", "add"]), label="action")
        if action == "delete":
            del parent[key]
        elif action == "add" and isinstance(parent[key], dict):
            parent[key][data.draw(st.text(max_size=8), label="new key")] = data.draw(JSON_VALUES, label="new value")
        elif action == "add" and isinstance(parent[key], list):
            parent[key].append(data.draw(JSON_VALUES, label="new value"))
        else:
            parent[key] = data.draw(JSON_VALUES, label="value")

    path = tmp_path_factory.getbasetemp() / "header-fuzz.ckpt"
    path.write_bytes(tamper_header(valid_checkpoint, mutate))
    try:
        model = load_model(path)
    except ValueError as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(model, MultiTaskModel)
        assert model.vocab is None or model.vocab.size == model.config.vocab_size
