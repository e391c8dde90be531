import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from misinfo_mtl.encoder import (
    EncoderConfig,
    EncoderParams,
    backward,
    encode_batch,
    finite_difference_check,
    gelu_grad,
    init_encoder,
    param_shapes,
)
from misinfo_mtl import encoder as enc
from misinfo_mtl.tokenization import WIDTH_CLASS, Batch

from conftest import random_batch, tiny_config, trim_batch, with_lengths


def test_config_rejects_indivisible_heads():
    with pytest.raises(ValueError, match="divisible"):
        EncoderConfig(vocab_size=10, embed_dim=10, num_heads=4)


def test_config_rejects_bad_dropout_and_pooling():
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, dropout_rate=1.0)
    with pytest.raises(ValueError):
        EncoderConfig(vocab_size=10, pooling="max")


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


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_trimmed_batch_matches_padded_batch(pooling):
    params = init_encoder(tiny_config(pooling=pooling, max_seq_len=24))
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
    for pooling in ("cls", "mean"):
        config = tiny_config(pooling=pooling, max_seq_len=20)
        params = init_encoder(config)
        err = _gradcheck_pooled_dot(config, params.tensors, batch, weights, epsilon=1e-4, sample_count=150, seed=2)
        assert err <= 1e-4, (pooling, err)
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
    # reference: the backward pass recomputing erf from h_pre in every layer
    monkeypatch.setattr(enc, "gelu_grad", lambda x, cdf=None: gelu_grad(x))
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


def test_mean_pooling_matches_masked_average():
    config = tiny_config(pooling="mean", num_layers=1)
    params = init_encoder(config)
    batch = random_batch(np.random.default_rng(4), 40, 3, 12)
    pooled = encode_batch(params, batch)
    assert pooled.shape == (3, config.embed_dim)
    assert np.all(np.isfinite(pooled))


def test_backward_without_forward_errors():
    params = init_encoder(tiny_config())
    with pytest.raises(ValueError, match="forward"):
        backward(params, None, np.zeros((2, 16)))


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


def test_gradcheck_full_encoder_cls_and_mean():
    rng = np.random.default_rng(9)
    batch = random_batch(rng, 40, 4, 12)
    assert batch.lengths.min() < batch.seq_len
    weights = rng.standard_normal((4, 16))
    # With one layer under CLS pooling, the only layer is the one that computes the CLS row alone.
    for num_layers in (1, 2):
        for pooling in ("cls", "mean"):
            config = tiny_config(pooling=pooling, num_layers=num_layers)
            params = init_encoder(config)
            err = _gradcheck_pooled_dot(config, params.tensors, batch, weights,
                                        epsilon=1e-4, sample_count=150, seed=1)
            assert err <= 1e-4, (num_layers, pooling, err)


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_cls_pooled_output_matches_row_0_of_the_full_last_layer(num_layers, train_mode, monkeypatch):
    # Mean pooling computes every row of the last layer. It replays the CLS run's dropout
    # masks; the CLS-only last layer draws (B, 1, d) ones, which go into row 0 of its full masks.
    config = tiny_config(num_layers=num_layers, max_seq_len=24, dropout_rate=0.2)
    params = init_encoder(config)
    padded = _short_ragged_batch(15, length=24)
    batch = trim_batch(padded, np.arange(padded.size))
    assert batch.seq_len < padded.seq_len and batch.lengths.min() < batch.seq_len
    drawn, real_mask = [], enc._dropout_mask
    monkeypatch.setattr(enc, "_dropout_mask", lambda *args: drawn.append(real_mask(*args)) or drawn[-1])
    cls_pooled = encode_batch(params, batch, train_mode=train_mode, rng=np.random.default_rng(6))

    def replay(rng, shape, rate):
        mask, recorded = np.ones(shape), drawn.pop(0)
        mask[:, : recorded.shape[1]] = recorded
        return mask

    monkeypatch.setattr(enc, "_dropout_mask", replay)
    full = EncoderParams(config=replace(config, pooling="mean"), tensors=params.tensors)
    _, [cache] = encode_batch(full, batch, train_mode=train_mode, rng=np.random.default_rng(6), return_cache=True)
    assert not drawn
    assert cache.x_final.shape[1] == batch.seq_len
    np.testing.assert_allclose(cls_pooled, cache.x_final[:, 0], rtol=1e-12, atol=0)


def test_cls_last_layer_caches_one_query_row():
    config = tiny_config(num_layers=2)
    batch = random_batch(np.random.default_rng(16), 40, 4, 12)
    _, [cache] = encode_batch(init_encoder(config), batch, return_cache=True)
    first, last = cache.layers
    length = batch.seq_len
    assert first.q.shape[2] == first.probs.shape[2] == first.x_mid.shape[1] == first.h_pre.shape[1] == length
    assert last.q.shape[2] == last.probs.shape[2] == last.x_mid.shape[1] == last.h_pre.shape[1] == 1
    # keys and values (and the attention's key axis) still cover every row
    assert last.k.shape[2] == last.v.shape[2] == last.probs.shape[3] == length
    assert cache.x_final.shape == (4, 1, config.embed_dim)


def _mask_shapes(config, rows, width):
    """Dropout draws of one run: the embedding mask, then attention and FFN per layer at the rows it computes."""
    shapes = [(rows, width, config.embed_dim)]
    for i in range(config.num_layers):
        last_cls = config.pooling == "cls" and i == config.num_layers - 1
        shapes += 2 * [(rows, 1 if last_cls else width, config.embed_dim)]
    return shapes


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_train_forward_draws_dropout_masks_at_the_computed_rows_shape(pooling):
    config = tiny_config(pooling=pooling, dropout_rate=0.2)
    batch = random_batch(np.random.default_rng(17), 40, 3, 12)
    used = np.random.default_rng(5)
    _, [cache] = encode_batch(init_encoder(config), batch, train_mode=True, rng=used, return_cache=True)
    width = int(batch.lengths.max())  # the encoder cuts the batch to its longest real row
    assert width < batch.seq_len
    reference = np.random.default_rng(5)
    shapes = _mask_shapes(config, 3, width)
    for shape in shapes:
        reference.random(shape)
    assert used.bit_generator.state == reference.bit_generator.state
    drawn = [cache.emb_drop] + [m for lc in cache.layers for m in (lc.attn_drop, lc.ffn_drop)]
    assert [m.shape for m in drawn] == shapes


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_gradcheck_with_fixed_dropout_masks(pooling):
    # A fresh generator with one seed on every call fixes the masks, so the loss is deterministic.
    rng = np.random.default_rng(19)
    batch = random_batch(rng, 40, 4, 12)
    weights = rng.standard_normal((4, 16))
    config = tiny_config(pooling=pooling, dropout_rate=0.3)
    err = _gradcheck_pooled_dot(config, init_encoder(config).tensors, batch, weights, rng_seed=4,
                                epsilon=1e-4, sample_count=150, seed=4)
    assert err <= 1e-4, (pooling, err)


# --- one run of the stack per width class ---------------------------------------


def _three_class_batch(seed, rows=32, length=128):
    """Rows of 2..length real tokens over at least three width classes, padded to ``length``."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, length + 1, size=rows)
    lengths[:4] = (9, 40, 90, length)
    assert np.unique(-(-lengths // WIDTH_CLASS)).size >= 3
    return with_lengths(rng.integers(3, 40, size=(rows, length)), lengths)


def _one_width(params, batch, train_mode=False, rng=None):
    """Reference: one run of the stack over every row at the batch's longest real row."""
    width = int(batch.lengths.max())
    cfg = params.config
    masks = enc._dropout_masks(rng, cfg, batch.size, width, cfg.dropout_rate) if train_mode else None
    return enc._encode_rows(params, batch.ids, batch.lengths, np.arange(batch.size), width, masks, True)


def _reference_grads(params, cache, upstream):
    """Dense gradients of one run; the token_emb table is scattered with ``np.add.at``."""
    grads, de = enc._backward_rows(params, cache, upstream)
    grads["token_emb"] = np.zeros_like(params.tensors["token_emb"])
    np.add.at(grads["token_emb"], cache.ids, de)
    return grads


def _dense(grads, params):
    """``grads`` with the token_emb row gradient spread over the full table."""
    return {**grads, "token_emb": grads["token_emb"].dense(params.config.vocab_size)}


def _max_rel(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("pooling", ["cls", "mean"])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_grouped_encoder_matches_one_width_reference(num_layers, pooling, train_mode):
    config = tiny_config(num_layers=num_layers, pooling=pooling, max_seq_len=128, dropout_rate=0.0)
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


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_gradcheck_on_a_three_class_batch(pooling):
    batch = _three_class_batch(33, rows=12, length=100)
    weights = np.random.default_rng(34).standard_normal((batch.size, 16))
    config = tiny_config(pooling=pooling, max_seq_len=100)
    err = _gradcheck_pooled_dot(config, init_encoder(config).tensors, batch, weights,
                                epsilon=1e-4, sample_count=150, seed=5)
    assert err <= 1e-4, (pooling, err)


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_two_class_train_forward_draws_masks_per_class_in_class_order(pooling):
    config = tiny_config(pooling=pooling, dropout_rate=0.2, max_seq_len=48)
    params = init_encoder(config)
    lengths = np.array([40, 5, 33, 7, 3])  # class 2 rows 0, 2 (width 40); class 1 rows 1, 3, 4 (width 7)
    batch = with_lengths(np.random.default_rng(35).integers(3, 40, size=(5, 48)), lengths)
    used = np.random.default_rng(5)
    pooled = encode_batch(params, batch, train_mode=True, rng=used)
    reference = np.random.default_rng(5)
    for rows, width in ((3, 7), (2, 40)):
        for shape in _mask_shapes(config, rows, width):  # (rows, 1, d) in a CLS-only last layer
            reference.random(shape)
    assert used.bit_generator.state == reference.bit_generator.state
    # the same as encoding each class as its own batch, in class order, from one generator
    again = np.random.default_rng(5)
    for rows in ([1, 3, 4], [0, 2]):
        alone = encode_batch(params, trim_batch(batch, rows), train_mode=True, rng=again)
        assert np.array_equal(pooled[rows], alone)


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_one_class_batch_runs_the_one_width_stack_bit_identically(pooling):
    config = tiny_config(pooling=pooling, dropout_rate=0.2, max_seq_len=24)
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


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_token_emb_gradient_sums_repeated_ids_like_a_dense_scatter(pooling):
    config = tiny_config(pooling=pooling, vocab_size=12, max_seq_len=100)
    params = init_encoder(config)
    batch = _repeated_id_batch(config.vocab_size)
    upstream = np.random.default_rng(40).standard_normal((batch.size, config.embed_dim))
    _, caches = encode_batch(params, batch, return_cache=True)
    runs = [set(c.ids.ravel().tolist()) for c in caches]
    assert len(runs) >= 3 and set.intersection(*runs) - {0, 2}  # some word id occurs in every run
    assert any(np.bincount(row).max() > 1 for row in caches[0].ids)  # and more than once in one row
    got = backward(params, caches, upstream)["token_emb"]
    assert isinstance(got, enc.RowSparseGrad) and got.shape == (len(set.union(*runs)), config.embed_dim)
    assert got.ids.tolist() == sorted(set.union(*runs))
    # reference: each run's token gradients scattered into a zeroed table with np.add.at, in class order
    dense = np.zeros_like(params.tensors["token_emb"])
    for c in caches:
        np.add.at(dense, c.ids, enc._backward_rows(params, c, upstream[c.batch_rows])[1])
    assert got.dense(config.vocab_size).tobytes() == dense.tobytes()


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_gradcheck_covers_every_token_emb_coordinate_through_the_row_gradient(pooling):
    config = tiny_config(pooling=pooling, vocab_size=12, max_seq_len=100)
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
    config = tiny_config(max_seq_len=128, pooling="mean")
    batch = _three_class_batch(38)
    lengths = batch.lengths
    _, caches = encode_batch(init_encoder(config), batch, return_cache=True)
    classes = [np.unique(-(-lengths[c.batch_rows] // WIDTH_CLASS)) for c in caches]
    assert all(c.size == 1 for c in classes) and [int(c[0]) for c in classes] == sorted(int(c[0]) for c in classes)
    assert sorted(np.concatenate([c.batch_rows for c in caches]).tolist()) == list(range(batch.size))
    for c in caches:
        for lc in c.layers:
            assert lc.x_in.shape[:2] == (c.batch_rows.size, lengths[c.batch_rows].max())


# --- runs of at most RUN_CELLS cells, on the thread pool ---------------------------


def _batch_of_lengths(seed, lengths, length=128):
    """Rows of the given real lengths over ids 3..39, padded to ``length``."""
    return with_lengths(np.random.default_rng(seed).integers(3, 40, size=(len(lengths), length)), lengths)


def _force_workers(monkeypatch, workers):
    """Run the encoder's runs on ``workers`` threads (1: the calling thread alone), whatever the machine.

    Returns the list of thread names the runs of the stack (forward and backward)
    ran on. Each run starts with a 20 ms sleep, so every thread takes one.
    """
    monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: set(range(workers)), raising=False)
    monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(workers - 1) if workers > 1 else None)
    names = []
    for fn_name in ("_encode_rows", "_backward_rows"):
        real = getattr(enc, fn_name)
        monkeypatch.setattr(enc, fn_name, lambda *a, _real=real, **k: names.append(
            threading.current_thread().name) or time.sleep(0.02) or _real(*a, **k))
    return names


def _cached_masks(cache):
    """A run's dropout masks in draw order: the embedding's, then attention and FFN per layer."""
    return [cache.emb_drop] + [m for lc in cache.layers for m in (lc.attn_drop, lc.ffn_drop)]


def _runs_by_class(caches, batch):
    """Number of runs per width class, in class order."""
    classes = [int(-(-batch.lengths[c.batch_rows].max() // WIDTH_CLASS)) for c in caches]
    return [classes.count(c) for c in sorted(set(classes))]


# 34 rows of class 4 (longest 128: runs of 16 rows) and 6 of class 2 (longest 64: one run)
_POOLED_LENGTHS = [128] + [97 + (7 * i) % 31 for i in range(33)] + [40, 64, 33, 50, 61, 45]


@pytest.mark.parametrize("train_mode", [False, True])
@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_one_two_and_four_workers_give_the_same_bits(pooling, train_mode, monkeypatch):
    config = tiny_config(pooling=pooling, dropout_rate=0.2, max_seq_len=128)
    params = init_encoder(config)
    batch = _batch_of_lengths(42, _POOLED_LENGTHS)
    upstream = np.random.default_rng(43).standard_normal((batch.size, config.embed_dim))
    seen = {}
    interval = sys.getswitchinterval()
    for workers in (1, 2, 4):  # 4: more threads than runs, switching often
        names = _force_workers(monkeypatch, workers)
        rng = np.random.default_rng(9)
        sys.setswitchinterval(1e-6 if workers == 4 else interval)
        try:
            pooled, caches = encode_batch(params, batch, train_mode=train_mode, rng=rng, return_cache=True)
            grads = backward(params, caches, upstream)
        finally:
            sys.setswitchinterval(interval)
        if workers > 1:
            enc._pool.shutdown()
        assert _runs_by_class(caches, batch) == [1, 3]
        assert len(names) == 8 and "MainThread" in names and (len(set(names)) > 1) == (workers > 1), names
        masks = [m for c in caches for m in _cached_masks(c)]
        assert all(m is None for m in masks) != train_mode
        seen[workers] = (
            [pooled.tobytes(), grads["token_emb"].ids.tobytes(), rng.bit_generator.state]
            + [grads[name].tobytes() for name in sorted(grads)]
            + [None if m is None else m.tobytes() for m in masks]
        )
    assert seen[1] == seen[2] == seen[4]


@pytest.mark.parametrize("pooling", ["cls", "mean"])
@pytest.mark.parametrize("num_layers", [1, 2])
def test_a_class_cut_into_runs_matches_one_unsplit_run(num_layers, pooling):
    config = tiny_config(num_layers=num_layers, pooling=pooling, dropout_rate=0.2, max_seq_len=128)
    params = init_encoder(config)
    # 32 x 128: 2 runs of 16 rows, the second as wide as its own longest row, 125
    batch = _batch_of_lengths(44, [128] + [97 + (5 * i) % 31 for i in range(31)])
    upstream = np.random.default_rng(45).standard_normal((batch.size, config.embed_dim))
    for train_mode in (False, True):
        used, reference = np.random.default_rng(10), np.random.default_rng(10)
        pooled, caches = encode_batch(params, batch, train_mode=train_mode, rng=used, return_cache=True)
        assert [c.batch_rows.tolist() for c in caches] == [list(range(16)), list(range(16, 32))]
        assert [c.ids.shape[1] for c in caches] == [128, 125]
        ref_pooled, ref_cache = _one_width(params, batch, train_mode=train_mode, rng=reference)
        assert used.bit_generator.state == reference.bit_generator.state
        if train_mode:  # each run sees its rows and columns of the masks an unsplit run draws
            for c in caches:
                for got, want in zip(_cached_masks(c), _cached_masks(ref_cache), strict=True):
                    assert np.array_equal(got, want[c.batch_rows, :c.ids.shape[1]])  # (rows, 1, d) keeps its column
        assert _max_rel(pooled, ref_pooled) <= 1e-12
        grads = _dense(backward(params, caches, upstream), params)
        ref = _reference_grads(params, ref_cache, upstream)
        for name in ref:
            assert _max_rel(grads[name], ref[name]) <= 1e-12, (train_mode, name)


@pytest.mark.parametrize("pooling", ["cls", "mean"])
def test_gradcheck_on_runs_cut_from_two_classes(pooling):
    # class 4: 17 rows at width 128 (runs of 16 and 1); class 3: 22 rows at width 96 (runs of 21 and 1)
    lengths = [128] + [100 + (3 * i) % 28 for i in range(16)] + [96] + [70 + (3 * i) % 26 for i in range(21)]
    batch = _batch_of_lengths(46, lengths)
    config = tiny_config(pooling=pooling, num_layers=1, max_seq_len=128)
    tensors = init_encoder(config).tensors
    _, caches = encode_batch(EncoderParams(config=config, tensors=tensors), batch, return_cache=True)
    assert _runs_by_class(caches, batch) == [2, 2]
    weights = np.random.default_rng(47).standard_normal((batch.size, config.embed_dim))
    err = _gradcheck_pooled_dot(config, tensors, batch, weights, epsilon=1e-4, sample_count=100, seed=8)
    assert err <= 1e-4, (pooling, err)


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
        enc._run_each(run, [(i,) for i in range(4)])
    assert raised == [str(caught.value)] and (raised == ["MainThread"]) == (raiser == "caller")
    assert len(finished) == 2  # the two runs that did not raise had ended
    assert sorted(started) == [0, 1, 2]  # and no run started after one raised

    def thread_name(i):  # the pool still takes runs on the next call
        all_three.wait()
        return threading.current_thread().name

    all_three.reset()
    names = enc._run_each(thread_name, [(i,) for i in range(3)])
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
    got = enc._softmax_backward(probs, dprobs.copy(), ctx, dctx)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    assert np.all(got[np.broadcast_to(mask[:, None, None, :] == 0, got.shape)] == 0.0)


def test_in_place_gelu_and_dropout_are_bit_identical_to_reference():
    rng = np.random.default_rng(23)
    x = rng.normal(0.0, 2.0, (5, 13, 32))
    cdf = enc.gelu_cdf(x)
    assert np.array_equal(cdf, 0.5 * (1.0 + enc.erf(x / math.sqrt(2.0))))
    assert np.array_equal(gelu_grad(x, cdf), _ref_gelu_grad(x, cdf))
    assert np.array_equal(gelu_grad(x), _ref_gelu_grad(x, cdf))
    mask = enc._dropout_mask(np.random.default_rng(3), (4, 7, 16), 0.3)
    assert np.array_equal(mask, (np.random.default_rng(3).random((4, 7, 16)) >= 0.3) / (1.0 - 0.3))
