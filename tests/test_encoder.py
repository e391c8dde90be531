import dataclasses
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from misinfo_mtl.encoder import (
    WIDTH_CLASS,
    EncoderConfig,
    EncoderParams,
    backward,
    encode_batch,
    gelu_grad,
    init_encoder,
    param_shapes,
)
from misinfo_mtl import encoder as enc
from misinfo_mtl.tokenization import Batch

from conftest import (
    batch_dropout_masks, finite_difference_check, force_workers, grid_masks, padded_backward, padded_encode_batch,
    padded_encode_rows, random_batch, tiny_config, trim_batch, with_lengths,
)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, embed_dim=10, num_heads=4)
    with pytest.raises(ValueError, match="num_heads must be >= 1"):  # checked before it divides
        EncoderConfig(vocab_size=10, num_heads=0)


def test_config_rejects_bad_dropout_and_max_seq_len():
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, dropout_rate=1.0)
    with pytest.raises(ValueError, match="max_seq_len must be >= 2"):  # encode refuses it too: CLS plus one token
        EncoderConfig(vocab_size=10, max_seq_len=1)


def test_init_deterministic_per_seed():
    a = init_encoder(tiny_config(seed=7))
    b = init_encoder(tiny_config(seed=7))
    c = init_encoder(tiny_config(seed=8))
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)


def test_layer_norm_gains_ones_biases_zero():
    params = init_encoder(tiny_config())
    for name, arr in params.tensors.items():
        if name.endswith(".gain"):
            assert np.array_equal(arr, np.ones_like(arr))
        if name.endswith((".bias", ".bo", ".b1", ".b2", ".bq", ".bv")):
            assert np.array_equal(arr, np.zeros_like(arr))


def test_parameter_count_matches_closed_form():
    # d=16, 2 layers, 2 heads, vocab=100, L=32, ffn=32; summed independently:
    d, f, v, length = 16, 32, 100, 32
    embeddings = v * d + length * d + 2 * d
    attn = d * d + d + d * d + d * d + d + d * d + d  # wq+bq, wk, wv+bv, wo+bo
    ffn = d * f + f + f * d + d
    per_layer = attn + 2 * d + ffn + 2 * d  # + two layer norms
    expected = embeddings + 2 * per_layer

    config = EncoderConfig(vocab_size=100, embed_dim=16, num_layers=2, num_heads=2,
                           ffn_dim=32, max_seq_len=32)
    params = init_encoder(config)
    assert sum(arr.size for arr in params.tensors.values()) == expected
    assert set(params.tensors) == set(param_shapes(config))


def test_out_of_range_ids_rejected():
    params = init_encoder(tiny_config(vocab_size=10))
    with pytest.raises(ValueError, match="out of range"):
        encode_batch(params, Batch(np.array([[2, 9, 10]]), np.array([3])))


def test_empty_batch_rejected():
    params = init_encoder(tiny_config())
    for shape in ((0, 8), (3, 0)):
        with pytest.raises(ValueError, match="empty batch"):
            encode_batch(params, Batch(np.zeros(shape, dtype=np.int64), np.zeros(shape[0], dtype=np.int64)))


@pytest.mark.parametrize("lengths", [[3, 0, 2], [3, 5, 2], [3, 2], [[3, 1, 2]]])
def test_lengths_outside_one_to_width_or_of_the_wrong_shape_rejected(lengths):
    ids = np.array([[2, 5, 6, 0], [2, 0, 0, 0], [2, 7, 0, 0]])
    with pytest.raises(ValueError, match=r"lengths must be 3 values in \[1, 4\]"):
        encode_batch(init_encoder(tiny_config()), Batch(ids, np.array(lengths)))


def _short_ragged_batch(seed, rows=6, length=12):
    """Rows of 2..6 real tokens padded to ``length``, so trimming drops columns."""
    rng = np.random.default_rng(seed)
    batch = random_batch(rng, 40, rows, length, ragged=False)
    return with_lengths(batch.ids, [int(rng.integers(2, 7)) for _ in range(rows)])


# The pooled output is always the CLS row; the one-value ``pooling`` parameter keeps these tests' ids stable.
@pytest.mark.parametrize("pooling", ["cls"])
def test_trimmed_batch_matches_padded_batch(pooling):
    params = init_encoder(tiny_config(max_seq_len=24))
    padded = _short_ragged_batch(10, length=24)
    trimmed = trim_batch(padded, np.arange(padded.size))
    assert trimmed.seq_len == padded.lengths.max() < padded.seq_len
    np.testing.assert_allclose(
        encode_batch(params, trimmed), encode_batch(params, padded), rtol=0, atol=1e-12
    )


def test_gradcheck_on_trimmed_ragged_batch():
    rng = np.random.default_rng(11)
    padded = _short_ragged_batch(12, rows=4)
    batch = trim_batch(padded, np.arange(padded.size))
    assert batch.seq_len < 12 and batch.lengths.min() < batch.seq_len
    weights = rng.standard_normal((4, 16))
    config = tiny_config(max_seq_len=20)
    params = init_encoder(config)
    err = _gradcheck_pooled_dot(config, params.tensors, batch, weights, epsilon=1e-4, sample_count=150, seed=2)
    assert err <= 1e-4, err
    _, cache = encode_batch(params, batch, return_cache=True)
    grads = backward(params, cache, weights)
    assert np.all(grads["pos_emb"][batch.seq_len:] == 0.0)


def test_cached_gelu_cdf_gives_bit_identical_gradients(monkeypatch):
    params = init_encoder(tiny_config())
    batch = random_batch(np.random.default_rng(13), 40, 4, 12)
    up = np.random.default_rng(14).standard_normal((4, 16))
    _, cache = encode_batch(params, batch, return_cache=True)
    for lc in cache[0].layers:
        assert np.array_equal(lc.h_pre * lc.h_cdf, 0.5 * lc.h_pre * (1.0 + enc.erf(lc.h_pre / math.sqrt(2.0))))
        assert np.array_equal(gelu_grad(lc.h_pre, lc.h_cdf), gelu_grad(lc.h_pre))
    cached = backward(params, cache, up)
    # reference: the backward pass recomputing erf from h_pre in every layer, over a cache of its own
    # (backward consumes its cache; eval mode draws nothing, so the second forward caches the same values)
    monkeypatch.setattr(enc, "gelu_grad", lambda x, cdf=None: gelu_grad(x))
    _, cache = encode_batch(params, batch, return_cache=True)
    recomputed = backward(params, cache, up)
    for name in cached:
        assert np.array_equal(cached[name], recomputed[name]), name


def test_all_pad_after_cls_equals_cls_alone():
    params = init_encoder(tiny_config())
    ids = np.zeros((1, 8), dtype=np.int64)
    ids[0, 0] = 2
    padded = encode_batch(params, Batch(ids, np.array([1])))
    alone = encode_batch(params, Batch(np.array([[2]]), np.array([1])))
    np.testing.assert_allclose(padded, alone, rtol=0, atol=1e-12)


def test_mask_invariance_exact():
    params = init_encoder(tiny_config())
    rng = np.random.default_rng(0)
    batch = random_batch(rng, 40, 4, 12)
    pooled = encode_batch(params, batch)
    ids2 = batch.ids.copy()
    ids2[np.arange(12) >= batch.lengths[:, None]] = 7  # overwrite PAD content
    pooled2 = encode_batch(params, Batch(ids2, batch.lengths))
    assert np.array_equal(pooled, pooled2)


def test_batch_permutation_permutes_rows():
    params = init_encoder(tiny_config())
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 40, 5, 12)
    pooled = encode_batch(params, batch)
    perm = rng.permutation(5)
    shuffled = Batch(batch.ids[perm], batch.lengths[perm])
    np.testing.assert_allclose(encode_batch(params, shuffled), pooled[perm], rtol=0, atol=0)


def test_eval_forward_deterministic():
    params = init_encoder(tiny_config())
    batch = random_batch(np.random.default_rng(2), 40, 3, 12)
    a = encode_batch(params, batch, train_mode=False)
    b = encode_batch(params, batch, train_mode=False)
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_train_mode_dropout_needs_rng_and_perturbs():
    params = init_encoder(tiny_config(dropout_rate=0.2))
    batch = random_batch(np.random.default_rng(3), 40, 3, 12)
    with pytest.raises(ValueError, match="rng"):
        encode_batch(params, batch, train_mode=True)
    base = encode_batch(params, batch, train_mode=False)
    dropped = encode_batch(params, batch, train_mode=True, rng=np.random.default_rng(0))
    assert not np.array_equal(base, dropped)
    # identical rng state reproduces the same dropout draw
    again = encode_batch(params, batch, train_mode=True, rng=np.random.default_rng(0))
    assert np.array_equal(dropped, again)


def test_backward_without_forward_errors():
    params = init_encoder(tiny_config())
    with pytest.raises(ValueError, match="forward"):
        backward(params, None, np.zeros((2, 16)))


def test_backward_refuses_a_spent_cache():
    params = init_encoder(tiny_config(max_seq_len=100))
    batch = _three_class_batch(12, rows=6, length=100)
    up = np.random.default_rng(13).standard_normal((batch.size, 16))
    _, caches = encode_batch(params, batch, return_cache=True)
    assert len(caches) >= 3
    first = backward(params, caches, up)
    assert all(c.layers == [] for c in caches)  # every layer's activations were released
    with pytest.raises(ValueError, match="already consumed by a backward call"):
        backward(params, caches, up)
    with pytest.raises(ValueError, match="already consumed"):  # one spent run among fresh ones
        backward(params, encode_batch(params, batch, return_cache=True)[1][:-1] + caches[-1:], up)
    again = backward(params, encode_batch(params, batch, return_cache=True)[1], up)
    assert all(np.array_equal(first[name], again[name]) for name in first)


def _cache_arrays(obj) -> list[np.ndarray]:
    """Every array an encoder cache (or a list or tuple of its parts) holds."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, field.name) for field in dataclasses.fields(obj)]
    return [a for part in obj for a in _cache_arrays(part)] if isinstance(obj, (list, tuple)) else []


def _owned_bytes(arrays) -> int:
    """Bytes of the distinct buffers under ``arrays``: a view counts as the array it views."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


def test_one_long_train_run_caches_no_score_array_and_peaks_under_24_mib():
    # One 16-row run at width 128 (RUN_CELLS / 128 rows) at the desk config: its (B, H, L, L) probabilities would be
    # 8 MiB, and with them and 8-byte dropout masks the run cached 27.2 MiB and peaked at 33.7 MiB.
    config = EncoderConfig(vocab_size=300, embed_dim=64, num_heads=4, ffn_dim=128, max_seq_len=128)
    params = init_encoder(config)
    batch = Batch(np.random.default_rng(15).integers(3, 300, size=(16, 128)), np.full(16, 128))
    up = np.random.default_rng(16).standard_normal((16, 64))
    tracemalloc.start()
    try:
        _, caches = encode_batch(params, batch, train_mode=True, rng=np.random.default_rng(17), return_cache=True)
        assert len(caches) == 1
        arrays = _cache_arrays(caches)
        assert not [a.shape for a in arrays if a.ndim == 4 and a.shape[2:] == (128, 128)]
        cached = _owned_bytes(arrays)
        del arrays
        backward(params, caches, up)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cached <= 16.5 * 2**20, cached / 2**20
    assert peak <= 24 * 2**20, peak / 2**20



def test_one_long_run_eval_forward_allocates_under_twelve_mib(monkeypatch):
    # The run of the backward test above in eval mode: one score tile and about one block's arrays live at once,
    # not its 8 MiB (B, H, L, L) scores beside every layer's dead activations (24.1 MiB before the tiling).
    force_workers(monkeypatch, 1, enc, ())
    config = EncoderConfig(vocab_size=300, embed_dim=64, num_heads=4, ffn_dim=128, max_seq_len=128)
    params = init_encoder(config)
    batch = Batch(np.random.default_rng(15).integers(3, 300, size=(16, 128)), np.full(16, 128))
    assert len(enc.split_runs(batch.lengths)) == 1  # one run
    tracemalloc.start()
    try:
        encode_batch(params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20, peak / 2**20

def test_zero_upstream_gives_zero_gradients():
    params = init_encoder(tiny_config())
    batch = random_batch(np.random.default_rng(5), 40, 3, 12)
    _, cache = encode_batch(params, batch, return_cache=True)
    grads = backward(params, cache, np.zeros((3, 16)))
    assert set(grads) == set(params.tensors)
    for name, g in grads.items():
        if name == "token_emb":  # summed rows for the ids the batch holds
            assert set(g.ids.tolist()) <= set(batch.ids.ravel().tolist())
            g = g.dense(params.tensors[name].shape[0])
        assert g.shape == params.tensors[name].shape
        assert np.all(g == 0.0), name


def test_upstream_linearity_doubling():
    params = init_encoder(tiny_config())
    batch = random_batch(np.random.default_rng(6), 40, 3, 12)
    up = np.random.default_rng(7).standard_normal((3, 16))
    _, cache = encode_batch(params, batch, return_cache=True)
    g1 = backward(params, cache, up)
    _, cache2 = encode_batch(params, batch, return_cache=True)
    g2 = backward(params, cache2, 2.0 * up)
    for name in g1:
        np.testing.assert_allclose(g2[name], 2.0 * g1[name], rtol=1e-12, atol=0)


def _gradcheck_pooled_dot(config, tensors, batch, weights, rng_seed=None, **oracle):
    """The oracle on loss = <pooled, W> at ``tensors``.

    With ``rng_seed`` every forward runs in train mode on a fresh generator
    with that seed, so the dropout masks are the same on every call.
    """

    def forward(t, return_cache=False):
        rng = None if rng_seed is None else np.random.default_rng(rng_seed)
        params = EncoderParams(config=config, tensors=t)
        return encode_batch(params, batch, train_mode=rng is not None, rng=rng, return_cache=return_cache)

    _, cache = forward(tensors, return_cache=True)
    grads = backward(EncoderParams(config=config, tensors=tensors), cache, weights)
    return finite_difference_check(lambda t: float((forward(t) * weights).sum()), tensors, grads, **oracle)


def test_gradcheck_quadratic_loss_is_nearly_exact():
    rng = np.random.default_rng(8)
    theta = {"w": rng.standard_normal((8, 8))}

    def loss_fn(tree):
        return 0.5 * float((tree["w"] ** 2).sum())

    err = finite_difference_check(loss_fn, theta, {"w": theta["w"].copy()}, epsilon=1e-4, sample_count=64, seed=0)
    assert err < 1e-8


def test_gradcheck_full_encoder():
    rng = np.random.default_rng(9)
    batch = random_batch(rng, 40, 4, 12)
    assert batch.lengths.min() < batch.seq_len
    weights = rng.standard_normal((4, 16))
    # With one layer, the only layer is the one that computes the CLS row alone.
    for num_layers in (1, 2):
        config = tiny_config(num_layers=num_layers)
        params = init_encoder(config)
        err = _gradcheck_pooled_dot(config, params.tensors, batch, weights, epsilon=1e-4, sample_count=150, seed=1)
        assert err <= 1e-4, (num_layers, err)


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_cls_pooled_output_matches_row_0_of_the_full_last_layer(num_layers, train_mode):
    # The reference, the padded path, computes every row of the last layer. It takes the batch's dropout draws;
    # the CLS-only last layer's, one per row, go into column 0 of its full masks.
    config = tiny_config(num_layers=num_layers, max_seq_len=24, dropout_rate=0.2)
    params = init_encoder(config)
    padded = _short_ragged_batch(15, length=24)
    batch = trim_batch(padded, np.arange(padded.size))
    assert batch.seq_len < padded.seq_len and batch.lengths.min() < batch.seq_len
    used, reference = np.random.default_rng(6), np.random.default_rng(6)
    cls_pooled = encode_batch(params, batch, train_mode=train_mode, rng=used)
    masks = None
    if train_mode:
        rows = np.arange(batch.size)
        masks = grid_masks(batch_dropout_masks(reference, config, batch.lengths, 0.2), batch.lengths, rows,
                           batch.seq_len)
        for i in (-2, -1):
            full = np.ones((batch.size, batch.seq_len, config.embed_dim), dtype=bool)
            full[:, :1] = masks[i]
            masks[i] = full
    assert used.bit_generator.state == reference.bit_generator.state
    full_pooled, cache = padded_encode_rows(params, batch.ids, batch.lengths, np.arange(batch.size), batch.seq_len,
                                            masks, all_rows=True)
    assert cache["layers"][-1]["xhat2"].shape[1] == batch.seq_len
    np.testing.assert_allclose(cls_pooled, full_pooled, rtol=1e-12, atol=0)


def test_cls_last_layer_caches_one_query_row():
    config = tiny_config(num_layers=2)
    batch = random_batch(np.random.default_rng(16), 40, 4, 12)
    _, [cache] = encode_batch(init_encoder(config), batch, return_cache=True)
    first, last = cache.layers
    length, cells = batch.seq_len, int(batch.lengths.sum())
    assert first.q.shape[2] == first.probs.shape[2] == length and first.xhat1.shape[0] == first.h_pre.shape[0] == cells
    # the CLS-only layer holds its one cell per row as a (rows, 1, .) grid
    assert last.q.shape[2] == last.probs.shape[2] == last.xhat1.shape[1] == last.h_pre.shape[1] == 1
    # keys and values (and the attention's key axis) still cover every row
    assert last.k.shape[2] == last.v.shape[2] == last.probs.shape[3] == length
    assert last.x_in.shape == (cells, config.embed_dim) and last.xhat2.shape == (4, 1, config.embed_dim)


def _record_draws(monkeypatch):
    """The shape of every ``dropout_mask`` call from here on, in call order."""
    shapes, real_mask = [], enc.dropout_mask

    def recorded(rng, shape, rate):
        shapes.append(shape)
        return real_mask(rng, shape, rate)

    monkeypatch.setattr(enc, "dropout_mask", recorded)
    return shapes


@pytest.mark.parametrize("pooling", ["cls"])
def test_train_forward_draws_dropout_masks_at_the_computed_rows_shape(pooling, monkeypatch):
    config = tiny_config(dropout_rate=0.2)
    batch = random_batch(np.random.default_rng(17), 40, 3, 12)
    shapes = _record_draws(monkeypatch)
    used = np.random.default_rng(5)
    _, [cache] = encode_batch(init_encoder(config), batch, train_mode=True, rng=used, return_cache=True)
    width = int(batch.lengths.max())  # the encoder cuts the batch to its longest real row
    assert width < batch.seq_len and _packed(cache)
    # one draw: a mask per real cell for the embedding and the first layer's attention and FFN, a mask per row
    # for the CLS-only last layer's, and none for PAD
    cells, d = int(batch.lengths.sum()), config.embed_dim
    assert shapes == [(3 * cells + 2 * 3, d)]
    reference = np.random.default_rng(5)
    want = batch_dropout_masks(reference, config, batch.lengths, 0.2)
    assert used.bit_generator.state == reference.bit_generator.state
    # the run, all the batch's rows in length order, keeps its packed cells of each, row by row, and the
    # CLS-only layer's (rows, 1, d)
    rows = np.argsort(batch.lengths, kind="stable")
    assert np.array_equal(cache.batch_rows, rows)
    first = np.cumsum(batch.lengths) - batch.lengths  # each row's first cell in the batch's masks
    at = np.concatenate([first[r] + np.arange(batch.lengths[r]) for r in rows])
    want = [m[at] for m in want[:-2]] + [m[rows, None] for m in want[-2:]]
    drawn = _cached_masks(cache)
    assert [m.shape for m in drawn] == 3 * [(cells, d)] + 2 * [(3, 1, d)]
    assert all(np.array_equal(got.reshape(want_m.shape), want_m) for got, want_m in zip(drawn, want, strict=True))


@pytest.mark.parametrize("pooling", ["cls"])
def test_gradcheck_with_fixed_dropout_masks(pooling):
    # A fresh generator with one seed on every call fixes the batch's one draw, so the loss is deterministic.
    rng = np.random.default_rng(19)
    batch = random_batch(rng, 40, 4, 12)
    weights = rng.standard_normal((4, 16))
    config = tiny_config(dropout_rate=0.3)
    err = _gradcheck_pooled_dot(config, init_encoder(config).tensors, batch, weights, rng_seed=4,
                                epsilon=1e-4, sample_count=150, seed=4)
    assert err <= 1e-4, err


# --- one run of the stack per width class ---------------------------------------


def _three_class_batch(seed, rows=32, length=128):
    """Rows of 2..length real tokens over at least three width classes, padded to ``length``."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, length + 1, size=rows)
    lengths[:4] = (9, 40, 90, length)
    assert np.unique(-(-lengths // WIDTH_CLASS)).size >= 3
    return with_lengths(rng.integers(3, 40, size=(rows, length)), lengths)


def _one_width(params, batch, train_mode=False, rng=None):
    """Reference: one run of the stack over every row, in stable length order, at the batch's longest real row,
    on the batch's draws. Returns the pooled rows in input order and the run's cache."""
    cfg = params.config
    masks = batch_dropout_masks(rng, cfg, batch.lengths, cfg.dropout_rate) if train_mode else None
    rows = np.argsort(batch.lengths, kind="stable")
    out, cache = enc._encode_rows(params, batch.ids, batch.lengths, rows, int(batch.lengths.max()), masks, True)
    pooled = np.empty_like(out)
    pooled[rows] = out
    return pooled, cache


def _reference_grads(params, cache, upstream):
    """Dense gradients of one run from the batch's ``upstream``; the token_emb table is scattered with
    ``np.add.at``."""
    grads, de = enc._backward_rows(params, cache, upstream[cache.batch_rows])
    grads["token_emb"] = np.zeros_like(params.tensors["token_emb"])
    np.add.at(grads["token_emb"], cache.ids, de)
    return grads


def _dense(grads, params):
    """``grads`` with the token_emb row gradient spread over the full table."""
    return {**grads, "token_emb": grads["token_emb"].dense(params.config.vocab_size)}


def _max_rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("pooling", ["cls"])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_grouped_encoder_matches_one_width_reference(num_layers, pooling, train_mode):
    config = tiny_config(num_layers=num_layers, max_seq_len=128, dropout_rate=0.0)
    params = init_encoder(config)
    batch = _three_class_batch(31)
    upstream = np.random.default_rng(32).standard_normal((batch.size, config.embed_dim))
    pooled, cache = encode_batch(params, batch, train_mode=train_mode, rng=np.random.default_rng(0),
                                 return_cache=True)
    assert isinstance(cache, list) and len(cache) >= 3
    ref_pooled, ref_cache = _one_width(params, batch)
    assert _max_rel(pooled, ref_pooled) <= 1e-12
    grads, ref = _dense(backward(params, cache, upstream), params), _reference_grads(params, ref_cache, upstream)
    assert set(grads) == set(ref)
    for name in ref:
        if np.any(ref[name]):
            assert _max_rel(grads[name], ref[name]) <= 1e-12, name
        else:
            assert not np.any(grads[name]), name


@pytest.mark.parametrize("pooling", ["cls"])
def test_gradcheck_on_a_three_class_batch(pooling):
    batch = _three_class_batch(33, rows=12, length=100)
    weights = np.random.default_rng(34).standard_normal((batch.size, 16))
    config = tiny_config(max_seq_len=100)
    err = _gradcheck_pooled_dot(config, init_encoder(config).tensors, batch, weights,
                                epsilon=1e-4, sample_count=150, seed=5)
    assert err <= 1e-4, err


@pytest.mark.parametrize("pooling", ["cls"])
def test_a_two_class_train_forward_draws_once_and_a_rows_masks_do_not_depend_on_its_class(pooling, monkeypatch):
    config = tiny_config(dropout_rate=0.2, max_seq_len=48)
    params = init_encoder(config)
    lengths = np.array([40, 5, 33, 7, 3])  # class 2 rows 0, 2 (width 40); class 1 rows 1, 3, 4 (width 7)
    batch = with_lengths(np.random.default_rng(35).integers(3, 40, size=(5, 48)), lengths)
    shapes = _record_draws(monkeypatch)
    used = np.random.default_rng(5)
    pooled, caches = encode_batch(params, batch, train_mode=True, rng=used, return_cache=True)
    assert len(caches) == 2 and shapes == [(3 * 88 + 2 * 5, config.embed_dim)]  # 88 real cells, 5 rows
    reference = np.random.default_rng(5)
    want = batch_dropout_masks(reference, config, lengths, 0.2)
    assert used.bit_generator.state == reference.bit_generator.state
    for c in caches:  # each run holds its rows' real cells of the one draw
        rows, width = c.batch_rows, c.grid[2]
        real = np.arange(width) < lengths[rows][:, None]
        for got, grid in zip(_cached_masks(c), grid_masks(want, lengths, rows, width), strict=True):
            got = _as_grid(c, got).astype(bool)
            assert np.array_equal(got[real[:, :got.shape[1]]], grid[real[:, :grid.shape[1]]])
    # one class, one run: the same masks for every row, so the pooled rows move in the last bits at most
    monkeypatch.setattr(enc, "WIDTH_CLASS", 48)
    one, [_] = encode_batch(params, batch, train_mode=True, rng=np.random.default_rng(5), return_cache=True)
    assert _max_rel(one, pooled) <= 1e-12


@pytest.mark.parametrize("pooling", ["cls"])
def test_one_class_batch_runs_the_one_width_stack_bit_identically(pooling):
    config = tiny_config(dropout_rate=0.2, max_seq_len=24)
    params = init_encoder(config)
    batch = _short_ragged_batch(36, length=24)  # rows of 2..6 tokens: one class, padded past the longest
    upstream = np.random.default_rng(37).standard_normal((batch.size, config.embed_dim))
    used, reference = np.random.default_rng(8), np.random.default_rng(8)
    pooled, cache = encode_batch(params, batch, train_mode=True, rng=used, return_cache=True)
    ref_pooled, ref_cache = _one_width(params, batch, train_mode=True, rng=reference)
    assert len(cache) == 1
    assert used.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(pooled, ref_pooled)
    grads, ref = _dense(backward(params, cache, upstream), params), _reference_grads(params, ref_cache, upstream)
    assert all(np.array_equal(grads[name], ref[name]) for name in ref)


def _repeated_id_batch(vocab_size):
    """Three width classes over ids 3..vocab_size-1, so ids repeat within rows and across runs."""
    batch = _three_class_batch(39, rows=6, length=100)
    return with_lengths(3 + batch.ids % (vocab_size - 3), batch.lengths)


@pytest.mark.parametrize("pooling", ["cls"])
def test_token_emb_gradient_sums_repeated_ids_like_a_dense_scatter(pooling):
    config = tiny_config(vocab_size=12, max_seq_len=100)
    params = init_encoder(config)
    batch = _repeated_id_batch(config.vocab_size)
    upstream = np.random.default_rng(40).standard_normal((batch.size, config.embed_dim))
    _, caches = encode_batch(params, batch, return_cache=True)
    runs = [set(c.ids.ravel().tolist()) for c in caches]
    assert len(runs) >= 3 and set.intersection(*runs) - {0, 2}  # some word id occurs in every run
    rows = np.split(caches[0].ids.ravel(), np.cumsum(batch.lengths[caches[0].batch_rows])[:-1])
    assert any(np.bincount(row).max() > 1 for row in rows)  # and more than once in one row
    got = backward(params, caches, upstream)["token_emb"]
    assert isinstance(got, enc.RowSparseGrad) and got.shape == (len(set.union(*runs)), config.embed_dim)
    assert got.ids.tolist() == sorted(set.union(*runs))
    # reference: each run's token gradients scattered into a zeroed table with np.add.at, in class order,
    # from caches of their own (backward consumed the first ones; eval mode caches the same values again)
    dense = np.zeros_like(params.tensors["token_emb"])
    for c in encode_batch(params, batch, return_cache=True)[1]:
        np.add.at(dense, c.ids, enc._backward_rows(params, c, upstream[c.batch_rows])[1])
    assert got.dense(config.vocab_size).tobytes() == dense.tobytes()


@pytest.mark.parametrize("pooling", ["cls"])
def test_gradcheck_covers_every_token_emb_coordinate_through_the_row_gradient(pooling):
    config = tiny_config(vocab_size=12, max_seq_len=100)
    tensors = init_encoder(config).tensors
    batch = _repeated_id_batch(config.vocab_size)
    weights = np.random.default_rng(41).standard_normal((batch.size, config.embed_dim))
    params = EncoderParams(config=config, tensors=tensors)
    _, cache = encode_batch(params, batch, return_cache=True)
    g = backward(params, cache, weights)["token_emb"]

    def loss_fn(table):
        return float((encode_batch(EncoderParams(config=config, tensors={**tensors, **table}), batch) * weights).sum())

    table = {"token_emb": tensors["token_emb"]}
    every = table["token_emb"].size  # the rows outside the batch's ids are checked to be exactly 0
    # epsilon 1e-5: over every coordinate, the CLS loss has one whose O(epsilon^2) error reaches 1.1e-4 at 1e-4
    assert finite_difference_check(loss_fn, table, {"token_emb": g}, epsilon=1e-5, sample_count=every, seed=6) <= 1e-4
    # the oracle reads values through the ids: rows moved to the wrong ids fail it
    moved = {"token_emb": enc.RowSparseGrad((g.ids + 1) % config.vocab_size, g)}
    wrong = finite_difference_check(loss_fn, table, moved, epsilon=1e-5, sample_count=48, seed=6)
    assert wrong > 0.5


def test_each_class_runs_at_its_longest_real_row():
    config = tiny_config(max_seq_len=128)
    batch = _three_class_batch(38)
    lengths = batch.lengths
    _, caches = encode_batch(init_encoder(config), batch, return_cache=True)
    classes = [np.unique(-(-lengths[c.batch_rows] // WIDTH_CLASS)) for c in caches]
    assert all(c.size == 1 for c in classes) and [int(c[0]) for c in classes] == sorted(int(c[0]) for c in classes)
    assert sorted(np.concatenate([c.batch_rows for c in caches]).tolist()) == list(range(batch.size))
    for c in caches:
        width = c.grid[2]
        assert width == lengths[c.batch_rows].max()
        held = (lengths[c.batch_rows].sum(),) if _packed(c) else (c.batch_rows.size, width)
        for lc in c.layers:
            assert lc.x_in.shape[:-1] == held and lc.k.shape[2] == width


# --- runs of at most RUN_CELLS cells, on the thread pool ---------------------------


def _batch_of_lengths(seed, lengths, length=128):
    """Rows of the given real lengths over ids 3..39, padded to ``length``."""
    return with_lengths(np.random.default_rng(seed).integers(3, 40, size=(len(lengths), length)), lengths)


def _cached_masks(cache):
    """A run's dropout masks in draw order: the embedding's, then attention and FFN per layer."""
    return [cache.emb_drop] + [m for lc in cache.layers for m in (lc.attn_drop, lc.ffn_drop)]


def _as_grid(cache, held):
    """An array ``cache`` holds, as its (rows, width or 1, ...) grid: packed cells go back to their places."""
    return enc._to_grid(held, *cache.grid) if held.ndim == 2 else held


def _packed(cache):
    """Whether a run holds its real cells packed rather than its grid."""
    return cache.grid[0] is not None


def _runs_by_class(caches, batch):
    """Number of runs per width class, in class order."""
    classes = [int(-(-batch.lengths[c.batch_rows].max() // WIDTH_CLASS)) for c in caches]
    return [classes.count(c) for c in sorted(set(classes))]


# 34 rows of class 4 (longest 128: runs of 16 rows) and 6 of class 2 (longest 64: one run)
_POOLED_LENGTHS = [128] + [97 + (7 * i) % 31 for i in range(33)] + [40, 64, 33, 50, 61, 45]


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("pooling", ["cls"])
def test_one_two_and_four_workers_give_the_same_bits(pooling, train_mode, monkeypatch):
    config = tiny_config(dropout_rate=0.2, max_seq_len=128)
    params = init_encoder(config)
    batch = _batch_of_lengths(42, _POOLED_LENGTHS)
    upstream = np.random.default_rng(43).standard_normal((batch.size, config.embed_dim))
    seen = {}
    interval = sys.getswitchinterval()
    for workers in (1, 2, 4):  # 4: more threads than runs, switching often
        names = force_workers(monkeypatch, workers, enc, ("_encode_rows", "_backward_rows"))
        rng = np.random.default_rng(9)
        sys.setswitchinterval(1e-6 if workers == 4 else interval)
        try:
            pooled, caches = encode_batch(params, batch, train_mode=train_mode, rng=rng, return_cache=True)
            masks = [m for c in caches for m in _cached_masks(c)]  # before backward consumes the layers
            grads = backward(params, caches, upstream)
        finally:
            sys.setswitchinterval(interval)
        if workers > 1:
            enc._pool.shutdown()
        assert _runs_by_class(caches, batch) == [1, 3]
        assert len(names) == 8 and "MainThread" in names and (len(set(names)) > 1) == (workers > 1), names
        assert len(masks) == len(caches) * (1 + 2 * config.num_layers)  # every layer's masks are compared
        assert all(m is None for m in masks) != train_mode
        seen[workers] = (
            [pooled.tobytes(), grads["token_emb"].ids.tobytes(), rng.bit_generator.state]
            + [grads[name].tobytes() for name in sorted(grads)]
            + [None if m is None else m.tobytes() for m in masks]
        )
    assert seen[1] == seen[2] == seen[4]


@pytest.mark.parametrize("pooling", ["cls"])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_a_class_cut_into_runs_matches_one_unsplit_run(num_layers, pooling):
    config = tiny_config(num_layers=num_layers, dropout_rate=0.2, max_seq_len=128)
    params = init_encoder(config)
    # 32 x 128 of lengths 97..128 in shuffled order: 2 runs of 16 rows in length order, the first as wide as its
    # own longest row, 112
    batch = _batch_of_lengths(44, [128] + [97 + (5 * i) % 31 for i in range(31)])
    order = np.argsort(batch.lengths, kind="stable")
    upstream = np.random.default_rng(45).standard_normal((batch.size, config.embed_dim))
    for train_mode in (False, True):
        used, reference = np.random.default_rng(10), np.random.default_rng(10)
        pooled, caches = encode_batch(params, batch, train_mode=train_mode, rng=used, return_cache=True)
        assert [c.batch_rows.tolist() for c in caches] == [order[:16].tolist(), order[16:].tolist()]
        assert [c.grid[2] for c in caches] == [112, 128]
        ref_pooled, ref_cache = _one_width(params, batch, train_mode=train_mode, rng=reference)
        assert used.bit_generator.state == reference.bit_generator.state
        if train_mode:  # each run sees its rows' real cells of the masks an unsplit run draws
            for c in caches:
                for got, want in zip(_cached_masks(c), _cached_masks(ref_cache), strict=True):
                    at = np.argsort(ref_cache.batch_rows)[c.batch_rows]  # the run's rows in the unsplit run
                    got, want = _as_grid(c, got), _as_grid(ref_cache, want)[at, :c.grid[2]]
                    # a CLS-only layer's (rows, 1, d) masks too
                    real = np.arange(got.shape[1]) < batch.lengths[c.batch_rows][:, None]
                    assert np.array_equal(got[real], want[real])
        assert _max_rel(pooled, ref_pooled) <= 1e-12
        grads = _dense(backward(params, caches, upstream), params)
        ref = _reference_grads(params, ref_cache, upstream)
        for name in ref:
            assert _max_rel(grads[name], ref[name]) <= 1e-12, (train_mode, name)


@pytest.mark.parametrize("pooling", ["cls"])
def test_gradcheck_on_runs_cut_from_two_classes(pooling):
    # class 4: 17 rows at width 128 (runs of 16 and 1); class 3: 22 rows at width 96 (runs of 21 and 1)
    lengths = [128] + [100 + (3 * i) % 28 for i in range(16)] + [96] + [70 + (3 * i) % 26 for i in range(21)]
    batch = _batch_of_lengths(46, lengths)
    config = tiny_config(num_layers=1, max_seq_len=128)
    tensors = init_encoder(config).tensors
    _, caches = encode_batch(EncoderParams(config=config, tensors=tensors), batch, return_cache=True)
    assert _runs_by_class(caches, batch) == [2, 2]
    weights = np.random.default_rng(47).standard_normal((batch.size, config.embed_dim))
    err = _gradcheck_pooled_dot(config, tensors, batch, weights, epsilon=1e-4, sample_count=100, seed=8)
    assert err <= 1e-4, err


def test_a_class_below_run_cells_starts_no_thread(monkeypatch):
    monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(enc, "_pool", None)
    params = init_encoder(tiny_config(dropout_rate=0.2, max_seq_len=64))
    threads = threading.active_count()
    batch = _batch_of_lengths(48, [64] + [33 + i for i in range(31)], length=64)  # 32 x 64 = RUN_CELLS
    _, cache = encode_batch(params, batch, train_mode=True, rng=np.random.default_rng(0), return_cache=True)
    backward(params, cache, np.ones((batch.size, 16)))
    assert len(cache) == 1
    assert enc._pool is None and threading.active_count() == threads
    # one row more makes two runs, which go to a new pool
    batch = _batch_of_lengths(48, [64] + [33 + i for i in range(32)], length=64)
    encode_batch(params, batch)
    assert enc._pool is not None
    enc._pool.shutdown()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_a_forked_child_does_not_wait_on_the_parents_workers(monkeypatch):
    monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(2))
    params = init_encoder(tiny_config(max_seq_len=128))
    batch = _batch_of_lengths(49, [128] * 17)  # two runs
    expected = encode_batch(params, batch)  # the parent's workers now exist, and a fork copies none of them

    def child():
        assert np.array_equal(encode_batch(params, batch), expected)

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    proc.join(60)
    hung = proc.is_alive()
    if hung:
        proc.kill()
    enc._pool.shutdown()
    assert not hung and proc.exitcode == 0


@pytest.mark.parametrize("raiser", ["caller", "worker"])
def test_a_raising_run_reaches_the_caller_after_every_worker_stopped(raiser, monkeypatch):
    monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(2))
    all_three = threading.Barrier(3, timeout=30)  # each of the three threads holds one run before any goes on
    claim = threading.Lock()
    started, raised, finished = [], [], []

    def run(i):
        started.append(i)
        all_three.wait()
        name = threading.current_thread().name
        with claim:
            if (name == "MainThread") == (raiser == "caller") and not raised:
                raised.append(name)
                raise RuntimeError(name)
        time.sleep(0.2)
        finished.append(name)

    with pytest.raises(RuntimeError) as caught:
        enc.run_each(run, [(i,) for i in range(4)])
    assert raised == [str(caught.value)] and (raised == ["MainThread"]) == (raiser == "caller")
    assert len(finished) == 2  # the two runs that did not raise had ended
    assert sorted(started) == [0, 1, 2]  # and no run started after one raised

    def thread_name(i):  # the pool still takes runs on the next call
        all_three.wait()
        return threading.current_thread().name

    all_three.reset()
    names = enc.run_each(thread_name, [(i,) for i in range(3)])
    assert len(set(names)) == 3 and "MainThread" in names
    enc._pool.shutdown()


def test_one_cpu_makes_no_pool(monkeypatch):
    monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(enc, "_pool", None)
    threads = threading.active_count()
    params = init_encoder(tiny_config(max_seq_len=128))
    batch = _batch_of_lengths(50, [128] * 40)  # three runs
    _, caches = encode_batch(params, batch, return_cache=True)
    backward(params, caches, np.ones((batch.size, 16)))
    assert len(caches) == 3 and enc._pool is None and threading.active_count() == threads


def test_gradcheck_rejects_bad_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        finite_difference_check(lambda tree: 0.0, {"w": np.ones(3)}, {"w": np.zeros(3)}, epsilon=0.0)


def test_gradcheck_rejects_nonfinite_loss():
    with pytest.raises(ValueError, match="non-finite"):
        finite_difference_check(lambda tree: float("nan"), {"w": np.ones(3)}, {"w": np.zeros(3)})


# --- packed real cells against the padded path (the conftest oracle) ---------------


def _compare_with_padded_path(params, batch, train_mode, exact_grads=False):
    """Run both paths with one dropout seed: the pooled bytes must match and every gradient within 1e-12."""
    upstream = np.random.default_rng(60).standard_normal((batch.size, params.config.embed_dim))
    pooled, caches = encode_batch(params, batch, train_mode=train_mode, rng=np.random.default_rng(61),
                                  return_cache=True)
    ref_pooled, ref_caches = padded_encode_batch(params, batch, train_mode=train_mode, rng=np.random.default_rng(61))
    assert pooled.tobytes() == ref_pooled.tobytes()
    sparse = backward(params, caches, upstream)
    # a packed run's token gradient sums its real cells only, so PAD's id leaves the ids unless a grid holds PAD
    pad = {0} if any(not _packed(c) and batch.lengths[c.batch_rows].min() < c.grid[2] for c in caches) else set()
    assert sparse["token_emb"].ids.tolist() == sorted(set(batch.ids[batch.mask].tolist()) | pad)
    grads, ref = _dense(sparse, params), padded_backward(params, ref_caches, upstream)
    assert set(grads) == set(ref)
    for name in ref:
        if exact_grads:
            assert np.array_equal(grads[name], ref[name]), name
        else:
            assert _max_rel(grads[name], ref[name]) <= 1e-12, name
    return [_packed(c) for c in caches]


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_packed_cells_match_the_padded_path_on_ragged_multi_class_batches(num_layers, train_mode):
    config = tiny_config(num_layers=num_layers, dropout_rate=0.2, max_seq_len=128)
    params = init_encoder(config)
    layouts = []
    for batch in (_three_class_batch(51), _batch_of_lengths(52, _POOLED_LENGTHS), _short_ragged_batch(53)):
        assert batch.lengths.min() < batch.lengths.max()
        layouts += _compare_with_padded_path(params, batch, train_mode)
    assert True in layouts and False in layouts  # packed runs and runs held as their grid, with PAD


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_packed_cells_give_the_padded_paths_exact_gradients_without_pad(num_layers, train_mode):
    config = tiny_config(num_layers=num_layers, dropout_rate=0.2, max_seq_len=64)
    params = init_encoder(config)
    batch = _batch_of_lengths(54, [64] * 40, length=64)  # runs of 32 and 8 rows, no PAD cell
    _compare_with_padded_path(params, batch, train_mode, exact_grads=True)


@pytest.mark.parametrize("train_mode", [False, True])
def test_packed_cells_match_the_padded_path_at_the_desk_config(train_mode):
    params = init_encoder(EncoderConfig(vocab_size=300, seed=5))  # d 64, 4 heads, FFN 128, 2 layers, 128 tokens
    rng = np.random.default_rng(55)
    short = _batch_of_lengths(56, rng.integers(6, 17, size=32).tolist(), length=16)  # about 30% PAD
    long = _batch_of_lengths(57, [128] + rng.integers(118, 129, size=15).tolist())  # a few % PAD
    assert _compare_with_padded_path(params, short, train_mode) == [True]
    assert _compare_with_padded_path(params, long, train_mode) == [False]  # too little PAD to pack


def test_a_ragged_runs_caches_hold_its_real_cells_only():
    config = tiny_config(dropout_rate=0.2, max_seq_len=24)
    batch = _short_ragged_batch(58, length=24)
    _, [cache] = encode_batch(init_encoder(config), batch, train_mode=True, rng=np.random.default_rng(0),
                              return_cache=True)
    rows, cells, d = batch.size, int(batch.lengths.sum()), config.embed_dim
    assert cells < rows * cache.grid[2] and _packed(cache)
    assert cache.ids.shape == (cells,) and cache.emb_drop.shape == cache.xhat0.shape == (cells, d)
    assert cache.inv0.shape == (cells, 1)
    token_wise = ("x_in", "ctx", "attn_drop", "xhat1", "inv1", "h_pre", "h_cdf", "ffn_drop", "xhat2", "inv2")
    assert {f.name for f in dataclasses.fields(enc._LayerCache)} == set(token_wise) | {"q", "k", "v", "probs"}
    assert cache.emb_drop.dtype == bool
    for i, lc in enumerate(cache.layers):
        cls_only = i == config.num_layers - 1  # one cell per row past its keys and values
        for name in token_wise:
            a = getattr(lc, name)
            assert a.size // a.shape[-1] == (rows if cls_only and name != "x_in" else cells), (i, name)
        assert lc.attn_drop.dtype == lc.ffn_drop.dtype == bool
        # the attention's operands alone see the grid
        assert lc.k.shape == lc.v.shape == (rows, config.num_heads, cache.grid[2], config.head_dim)
        assert lc.probs.shape == (rows, config.num_heads, 1 if cls_only else cache.grid[2], cache.grid[2])


def test_gradcheck_with_fixed_dropout_masks_on_packed_runs():
    # the oracle on packed runs with dropout: each run gathers its real cells of the batch's one draw
    batch = _three_class_batch(59, rows=12, length=100)
    config = tiny_config(dropout_rate=0.3, max_seq_len=100)
    tensors = init_encoder(config).tensors
    _, caches = encode_batch(EncoderParams(config=config, tensors=tensors), batch, return_cache=True)
    assert sum(_packed(c) for c in caches) >= 2
    weights = np.random.default_rng(60).standard_normal((batch.size, config.embed_dim))
    err = _gradcheck_pooled_dot(config, tensors, batch, weights, rng_seed=7, epsilon=1e-4, sample_count=150, seed=9)
    assert err <= 1e-4, err


def test_a_run_packs_once_pack_pad_of_its_cells_are_pad():
    config = tiny_config()
    assert enc.PACK_PAD == 1 / 8
    # 8 rows x 8 columns: 8 PAD cells are 1/8 of the grid, 7 are fewer
    _, grid, pos, _ = enc._layout(config, np.array([8] * 6 + [4, 4]), 8)
    assert grid[0][0].size == 56 and pos.tolist()[:10] == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]
    assert enc._layout(config, np.array([8] * 6 + [5, 4]), 8)[1][0] is None



# --- the tiled attention core against the padded path's whole-array attention ------------


def _backward_probabilities(cache, lc):
    """A layer's attention probabilities as its backward takes them: cached if one score tile held them all, else
    rebuilt from its q and k one tile at a time."""
    shape = lc.q.shape[:3] + lc.k.shape[2:3]
    tiles = enc._score_tiles(shape)
    assert (lc.probs is None) == (len(tiles) > 1)
    if lc.probs is not None:
        return lc.probs
    probs = np.empty(shape)
    for b in tiles:
        enc._softmax_tile(lc.q, lc.k, cache.key_pad, b, probs[b])
    return probs


@pytest.mark.parametrize("tile", [72, 576])
@pytest.mark.parametrize("train_mode", [False, True])
def test_score_tiles_match_the_padded_path_bit_for_bit(tile, train_mode, monkeypatch):
    # 7 rows at width 12 with 2 heads: a score row holds 288 elements in a full layer and 24 in the CLS-only last
    # layer. Tiles of 72 elements take 1 row there and 3, 3, 1 rows here; of 576, 2, 2, 2, 1 rows there and 7 here.
    monkeypatch.setattr(enc, "SCORE_TILE", tile)
    tiles = [[b.stop - b.start for b in enc._score_tiles((7, 2, rows, 12))] for rows in (12, 1)]
    assert any(len(t) > 1 and t[-1] < t[0] for t in tiles)  # several tiles, the last one ragged
    config = tiny_config(dropout_rate=0.2)
    params = init_encoder(config)
    # PAD keys in a packed run (29% PAD) and in a run held as its grid (1 PAD cell)
    for seed, lengths in ((72, [12, 3, 12, 7, 12, 5, 9]), (73, [12, 12, 11, 12, 12, 12, 12])):
        batch, rows = _batch_of_lengths(seed, lengths, length=12), np.arange(7)
        masks = batch_dropout_masks(np.random.default_rng(seed), config, batch.lengths, 0.2) if train_mode else None
        pooled, cache = enc._encode_rows(params, batch.ids, batch.lengths, rows, 12, masks, train_mode)
        ref, ref_cache = padded_encode_rows(params, batch.ids, batch.lengths, rows, 12,
                                            None if masks is None else grid_masks(masks, batch.lengths, rows, 12))
        assert pooled.tobytes() == ref.tobytes()
        assert (cache is None) == (not train_mode)
        if train_mode:  # the probabilities the backward takes, at every real query (a packed run's PAD queries are 0)
            assert _packed(cache) == (seed == 72)
            # the CLS-only layer's 168 score elements fit in a tile of 576, the full layer's 2016 in none
            assert [lc.probs is not None for lc in cache.layers] == [False, tile == 576]
            for lc, ref_lc in zip(cache.layers, ref_cache["layers"]):
                probs = _backward_probabilities(cache, lc)
                for r, n in enumerate(lengths):
                    assert probs[r, :, :n].tobytes() == ref_lc["probs"][r, :, :n].tobytes()


def test_backward_gives_the_same_bits_whether_it_keeps_or_rebuilds_the_probabilities(monkeypatch):
    config = tiny_config(dropout_rate=0.2)
    params = init_encoder(config)
    batch = _batch_of_lengths(74, [12, 3, 12, 7, 12, 5, 9], length=12)
    up = np.random.default_rng(76).standard_normal((batch.size, config.embed_dim))
    results = []
    for tile in (1 << 22, 72):  # every layer's probabilities kept whole; every layer's rebuilt in several tiles
        monkeypatch.setattr(enc, "SCORE_TILE", tile)
        pooled, caches = encode_batch(params, batch, train_mode=True, rng=np.random.default_rng(8), return_cache=True)
        assert all((lc.probs is None) == (tile == 72) for c in caches for lc in c.layers)
        grads = backward(params, caches, up)
        results.append([pooled] + [grads[name] for name in sorted(grads)])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*results))


def test_gradcheck_on_a_run_of_several_score_tiles(monkeypatch):
    monkeypatch.setattr(enc, "SCORE_TILE", 2 * 2 * 12 * 12)  # 2 rows a tile in the full layer, 7 rows in 4 tiles
    config = tiny_config(dropout_rate=0.2)
    batch = _batch_of_lengths(74, [12, 3, 12, 7, 12, 5, 9], length=12)
    weights = np.random.default_rng(75).standard_normal((batch.size, config.embed_dim))
    err = _gradcheck_pooled_dot(config, init_encoder(config).tensors, batch, weights, rng_seed=8, epsilon=1e-4,
                                sample_count=150, seed=10)
    assert err <= 1e-4, err

# --- numpy erf (Cephes ndtr.c port) -------------------------------------------


def _ulps(values, reference):
    """Distance in units in the last place of the reference."""
    return np.abs(values - reference) / np.spacing(np.abs(reference))


def test_erf_within_4_ulp_of_math_erf():
    rng = np.random.default_rng(0)
    x = np.concatenate([np.linspace(-7.0, 7.0, 280_001), rng.normal(0.0, 2.0, 40_000)])
    reference = np.array([math.erf(v) for v in x])
    assert _ulps(enc.erf(x), reference).max() <= 4


def test_erf_special_values_and_branch_edges_without_warnings():
    edges = [1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 6.0, np.nextafter(6.0, 0.0),
             np.nextafter(6.0, 7.0), 1e-300, 5e-324, 1e155, 1e300]
    x = np.array(edges + [-e for e in edges])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = enc.erf(x)
        zeros = enc.erf(np.array([0.0, -0.0]))
        specials = enc.erf(np.array([np.inf, -np.inf, np.nan]))
    assert _ulps(y, np.array([math.erf(v) for v in x])).max() <= 4
    assert np.array_equal(y[: len(edges)], -y[len(edges):])
    assert zeros.tolist() == [0.0, 0.0] and np.signbit(zeros).tolist() == [False, True]
    assert specials[0] == 1.0 and specials[1] == -1.0 and np.isnan(specials[2])
    assert enc.erf(np.array([6.0, 7.5, 1e300])).tolist() == [1.0, 1.0, 1.0]


def test_erf_is_odd_shape_preserving_and_chunk_independent():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.5, (3, 7001, 2))  # spans several chunks
    y = enc.erf(x)
    assert y.shape == x.shape
    assert np.array_equal(enc.erf(-x), -y)
    # elementwise: evaluating one element at a time gives the same bits
    flat = x.reshape(-1)[::997]
    assert np.array_equal(np.array([enc.erf(np.array([v]))[0] for v in flat]), y.reshape(-1)[::997])
    # in place, and from a non-contiguous view
    z = x.copy()
    assert enc.erf(z, out=z) is z and np.array_equal(z, y)
    assert np.array_equal(enc.erf(x[:, ::2]), y[:, ::2])


def test_importing_the_cli_loads_no_scipy():
    src = Path(enc.__file__).resolve().parents[1]
    code = "import sys, misinfo_mtl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "[]"


# --- in-place numerics against the expressions they replaced ------------------


def _ref_ln_forward(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + enc.LN_EPS)
    xhat = xc * inv
    return gain * xhat + bias, xhat, inv


def _ref_ln_backward(dout, gain, xhat, inv):
    dgain = (dout * xhat).sum(axis=tuple(range(dout.ndim - 1)))
    dbias = dout.sum(axis=tuple(range(dout.ndim - 1)))
    dxhat = dout * gain
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgain, dbias


def _ref_masked_softmax(scores, key_keep, scale):
    x = np.where(key_keep, scores * scale, -np.inf)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_softmax_backward(probs, dprobs):
    return probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))


def _ref_gelu_grad(x, cdf):
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


@pytest.mark.parametrize("shape", [(4, 9, 16), (32, 1, 64), (8, 20, 64)])
def test_in_place_layer_norm_is_bit_identical_to_reference(shape):
    rng = np.random.default_rng(21)
    x = rng.normal(0.3, 2.0, shape)
    gain, bias = rng.normal(1.0, 0.2, shape[-1]), rng.normal(0.0, 0.2, shape[-1])
    dout = rng.standard_normal(shape)
    expected = _ref_ln_forward(x, gain, bias)
    got = enc._ln_forward(x.copy(), gain, bias)
    for e, g in zip(expected, got):
        assert np.array_equal(e, g)
    _, xhat, inv = expected
    for e, g in zip(_ref_ln_backward(dout, gain, xhat, inv), enc._ln_backward(dout.copy(), gain, xhat, inv)):
        assert np.array_equal(e, g)


def test_in_place_softmax_and_its_backward_are_bit_identical_to_reference():
    rng = np.random.default_rng(22)
    b, h, lq, lk, dh = 6, 2, 11, 11, 16
    mask = np.ones((b, lk), dtype=np.int64)
    for i in range(b):
        mask[i, int(rng.integers(1, lk + 1)):] = 0
    q, k, v = (rng.normal(0.0, 3.0, (b, h, n, dh)) for n in (lq, lk, lk))
    scale = 1.0 / math.sqrt(dh)
    probs = _ref_masked_softmax(q @ k.transpose(0, 1, 3, 2), mask[:, None, None, :] > 0, scale)
    # the encoder's order: q scaled first (exact for head_dim 16), -inf on PAD keys, then softmax in place
    got = (q * scale) @ k.transpose(0, 1, 3, 2)
    np.copyto(got, -np.inf, where=mask[:, None, None, :] == 0)
    assert np.array_equal(enc._softmax_inplace(got), probs)
    # the backward's row term comes from the context vectors, so it matches to rounding only
    ctx, dctx = probs @ v, rng.standard_normal((b, h, lq, dh))
    dprobs = dctx @ v.transpose(0, 1, 3, 2)
    expected = _ref_softmax_backward(probs, dprobs)
    got = enc._softmax_backward(probs, dprobs.copy(), ctx, dctx, out=np.empty_like(probs))
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.all(got[np.broadcast_to(mask[:, None, None, :] == 0, got.shape)] == 0.0)


def test_in_place_gelu_and_dropout_are_bit_identical_to_reference():
    rng = np.random.default_rng(23)
    x = rng.normal(0.0, 2.0, (5, 13, 32))
    cdf = enc.gelu_cdf(x)
    assert np.array_equal(cdf, 0.5 * (1.0 + enc.erf(x / math.sqrt(2.0))))
    assert np.array_equal(gelu_grad(x, cdf), _ref_gelu_grad(x, cdf))
    assert np.array_equal(gelu_grad(x), _ref_gelu_grad(x, cdf))
    mask = enc.dropout_mask(np.random.default_rng(3), (4, 7, 16), 0.3)
    assert mask.dtype == bool
    assert np.array_equal(mask, np.random.default_rng(3).random((4, 7, 16), dtype=np.float32) >= np.float32(0.3))
    # a bool mask applied gives the bits, signed zeros included, of x times the float mask with the rescaling
    x = rng.normal(0.0, 2.0, (4, 7, 16))
    expected = x * (mask / (1.0 - 0.3))
    assert np.signbit(expected[~mask]).any()
    assert enc.apply_dropout(x, mask, 0.3).tobytes() == expected.tobytes()
    assert enc.apply_dropout(x, mask, 0.3, out=x) is x and x.tobytes() == expected.tobytes()
