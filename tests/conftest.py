import numpy as np
import pytest

from misinfo_mtl.encoder import EncoderConfig, init_encoder
from misinfo_mtl.multitask import MultiTaskModel, TaskSpec, register_task
from misinfo_mtl.tokenization import Batch


def tiny_config(**overrides) -> EncoderConfig:
    base = dict(
        vocab_size=40, embed_dim=16, num_layers=2, num_heads=2, ffn_dim=32,
        max_seq_len=12, dropout_rate=0.0, seed=3,
    )
    base.update(overrides)
    return EncoderConfig(**base)


def random_batch(rng, vocab_size: int, batch: int, length: int, ragged: bool = True) -> Batch:
    ids = rng.integers(3, vocab_size, size=(batch, length))
    ids[:, 0] = 2
    mask = np.ones((batch, length), dtype=np.int64)
    if ragged:
        for i in range(batch):
            cut = int(rng.integers(max(2, length // 2), length + 1))
            mask[i, cut:] = 0
            ids[i, cut:] = 0
    return Batch(ids=ids, mask=mask)


def trim_batch(ids: np.ndarray, mask: np.ndarray, rows) -> Batch:
    """Select ``rows`` of an encoded (ids, mask) pair as one batch as wide as its longest real row."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty batch")
    mask = mask[rows]
    real_cols = np.flatnonzero(mask.any(axis=0))
    width = int(real_cols[-1]) + 1 if real_cols.size else 1
    return Batch(ids=ids[rows, :width], mask=mask[:, :width])


@pytest.fixture
def tiny_model():
    model = MultiTaskModel(encoder=init_encoder(tiny_config()))
    register_task(model, TaskSpec("a_task", ("neg", "pos"), "tweet", "pos"), seed=11)
    register_task(model, TaskSpec("b_task", ("x", "y", "z"), "sentence"), seed=12)
    return model
