import json
import struct

import numpy as np
import pytest

from misinfo_mtl.checkpoint import MAGIC, load_model, save_model
from misinfo_mtl.encoder import init_encoder
from misinfo_mtl.multitask import MultiTaskModel

from conftest import tiny_config


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


def test_checkpoint_bytes_are_deterministic(tmp_path, tiny_model):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_model(p1, tiny_model)
    save_model(p2, tiny_model)
    assert p1.read_bytes() == p2.read_bytes()


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

    path.write_bytes(_tamper_header(path.read_bytes(), other_kind))
    with pytest.raises(ValueError, match="expected a multitask checkpoint, found 'encoder'"):
        load_model(path)


def test_rejects_truncated_payload(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(ValueError, match="truncated|trailing"):
        load_model(path)


def _tamper_header(raw: bytes, mutate) -> bytes:
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + header_len :]


def test_rejects_shape_mismatch_against_config(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)

    def grow_ffn(header):
        header["encoder_config"]["ffn_dim"] += 1

    path.write_bytes(_tamper_header(path.read_bytes(), grow_ffn))
    with pytest.raises(ValueError, match="shape mismatch"):
        load_model(path)


def test_rejects_missing_tensor(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)

    def drop_task(header):
        del header["tasks"]["b_task"]

    path.write_bytes(_tamper_header(path.read_bytes(), drop_task))
    with pytest.raises(ValueError, match="tensor set mismatch"):
        load_model(path)


def test_magic_prefix_written(tmp_path, tiny_model):
    path = tmp_path / "model.ckpt"
    save_model(path, tiny_model)
    assert path.read_bytes()[:8] == MAGIC
