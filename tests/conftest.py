import json
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from misinfo_mtl import encoder as enc
from misinfo_mtl.encoder import EncoderConfig, RowSparseGrad, init_encoder
from misinfo_mtl.multitask import MultiTaskModel, TaskSpec, register_task
from misinfo_mtl.tokenization import Batch

GRADCHECK_FLOOR = 1e-12


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


def force_workers(monkeypatch, workers, module, fn_names):
    """Run ``encoder.run_each``'s jobs on ``workers`` threads (1: the calling thread alone), whatever the machine.

    Returns the list of thread names the jobs of ``module``'s functions ``fn_names`` ran on. Each such job
    starts with a 20 ms sleep, so every thread takes one.
    """
    monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(workers - 1) if workers > 1 else None)
    names = []
    for fn_name in fn_names:
        real = getattr(module, fn_name)
        monkeypatch.setattr(module, fn_name, lambda *a, _real=real, **k: names.append(
            threading.current_thread().name) or time.sleep(0.02) or _real(*a, **k))
    return names


def reference_adam(param, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Whole-array bias-corrected Adam at step ``t`` with a dense gradient: (new param, new m, new v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def tamper_header(raw: bytes, mutate) -> bytes:
    """Checkpoint bytes ``raw`` with ``mutate`` applied to the decoded JSON header."""
    (header_len,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16 : 16 + header_len])
    mutate(header)
    blob = json.dumps(header, sort_keys=True).encode()
    return raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + header_len :]


@pytest.fixture
def tiny_model():
    model = MultiTaskModel(encoder=init_encoder(tiny_config()))
    register_task(model, TaskSpec("a_task", ("neg", "pos"), "tweet", "pos"), seed=11)
    register_task(model, TaskSpec("b_task", ("x", "y", "z"), "sentence"), seed=12)
    return model


def finite_difference_check(
    loss_fn,
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    epsilon: float = 1e-4,
    sample_count: int = 200,
    seed: int = 0,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``grads`` holds the analytic gradients at ``params``, by name. ``loss_fn``
    maps a name->array dict to the loss alone; it is evaluated at ``params``
    (which must give a finite loss) and twice per sampled coordinate. A
    ``RowSparseGrad`` is read through its ids, so every row outside them
    counts as 0. The relative error for a coordinate is
    ``|a - n| / max(|a|, |n|, 1e-12)``. ``loss_fn`` must be deterministic
    (dropout off, or its masks fixed).
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    if not np.isfinite(loss_fn(params)):
        raise ValueError("non-finite loss at the base point")
    grads = {n: g.dense(params[n].shape[0]) if isinstance(g, RowSparseGrad) else g for n, g in grads.items()}

    names = sorted(params)
    sizes = np.array([params[n].size for n in names])
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(sample_count, total), replace=False)

    work = {n: params[n].copy() for n in names}
    worst = 0.0
    for flat in sorted(int(i) for i in picks):
        which = int(np.searchsorted(offsets, flat, side="right") - 1)
        name, off = names[which], flat - int(offsets[which])
        base = work[name].flat[off]
        work[name].flat[off] = base + epsilon
        loss_plus = loss_fn(work)
        work[name].flat[off] = base - epsilon
        loss_minus = loss_fn(work)
        work[name].flat[off] = base
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            raise ValueError(f"non-finite loss while perturbing {name}[{off}]")
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = grads[name].flat[off]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), GRADCHECK_FLOOR)
        worst = max(worst, err)
    return worst
