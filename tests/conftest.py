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
    lengths = [int(rng.integers(max(2, length // 2), length + 1)) if ragged else length for _ in range(batch)]
    return with_lengths(ids, lengths)


def trim_batch(batch: Batch, rows) -> Batch:
    """Select ``rows`` of a batch as one batch as wide as its longest row."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("empty batch")
    lengths = batch.lengths[rows]
    return Batch(batch.ids[rows, : lengths.max()], lengths)


def with_lengths(ids: np.ndarray, lengths) -> Batch:
    """A batch of ``ids`` rows with CLS in column 0 and PAD from each row's length on."""
    lengths = np.asarray(lengths)
    ids = np.where(np.arange(ids.shape[1]) < lengths[:, None], ids, 0)
    ids[:, 0] = 2
    return Batch(ids, lengths)


@pytest.fixture
def tiny_model():
    model = MultiTaskModel(encoder=init_encoder(tiny_config()))
    register_task(model, TaskSpec("a_task", ("neg", "pos"), "tweet", "pos"), seed=11)
    register_task(model, TaskSpec("b_task", ("x", "y", "z"), "sentence"), seed=12)
    return model
