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


# --- the padded encoder: the old path, an oracle for the packed one -----------------------------------------


def _merge_heads(x):
    b, h, length, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, length, h * dh)


def padded_encode_rows(params, batch_ids, batch_lengths, batch_rows, width, drop_masks, all_rows=False):
    """One run of the stack the way the encoder ran it before it packed real cells: every token-wise layer over
    the whole (rows, width) grid, PAD cells included. Returns (pooled, cache), the cache a dict of grids.

    The last layer computes the CLS row alone unless ``all_rows``; ``drop_masks`` is None or the run's bool
    masks as ``grid_masks`` gives them (each a (rows, width, d) grid, or (rows, 1, d) for a CLS-only layer), each
    applied as the float mask mask / (1 - rate) that carries its rescaling.
    """
    cfg, t = params.config, params.tensors
    ids, lengths = batch_ids[batch_rows, :width], batch_lengths[batch_rows]
    float_masks = [m / (1.0 - cfg.dropout_rate) for m in drop_masks] if drop_masks else None
    emb_drop, *layer_drops = float_masks or [None] * (1 + 2 * cfg.num_layers)
    x, xhat0, inv0 = enc._ln_forward(t["token_emb"][ids] + t["pos_emb"][:width], t["emb_ln.gain"], t["emb_ln.bias"])
    if emb_drop is not None:
        x *= emb_drop
    real = np.arange(width) < lengths[:, None]
    key_pad = None if real.all() else ~real[:, None, None, :]
    layers = []
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        rows = slice(0, 1) if i == cfg.num_layers - 1 and not all_rows else slice(None)
        attn_drop, ffn_drop = layer_drops[2 * i:2 * i + 2]
        x_in = x
        q = x_in[:, rows] @ t[p + "attn.wq"] + t[p + "attn.bq"]
        q *= 1.0 / np.sqrt(cfg.head_dim)
        q = enc._split_heads(q, cfg.num_heads)
        k = enc._split_heads(x_in @ t[p + "attn.wk"], cfg.num_heads)
        v = enc._split_heads(x_in @ t[p + "attn.wv"] + t[p + "attn.bv"], cfg.num_heads)
        scores = q @ k.transpose(0, 1, 3, 2)
        if key_pad is not None:
            np.copyto(scores, -np.inf, where=key_pad)
        probs = enc._softmax_inplace(scores)
        ctx = _merge_heads(probs @ v)
        attn_out = ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]
        if attn_drop is not None:
            attn_out *= attn_drop
        x_mid, xhat1, inv1 = enc._ln_forward(x_in[:, rows] + attn_out, t[p + "attn_ln.gain"], t[p + "attn_ln.bias"])
        h_pre = x_mid @ t[p + "ffn.w1"] + t[p + "ffn.b1"]
        h_cdf = enc.gelu_cdf(h_pre)
        ffn_out = (h_pre * h_cdf) @ t[p + "ffn.w2"] + t[p + "ffn.b2"]
        if ffn_drop is not None:
            ffn_out *= ffn_drop
        x, xhat2, inv2 = enc._ln_forward(x_mid + ffn_out, t[p + "ffn_ln.gain"], t[p + "ffn_ln.bias"])
        layers.append(dict(rows=rows, x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx, attn_drop=attn_drop,
                           xhat1=xhat1, inv1=inv1, x_mid=x_mid, h_pre=h_pre, h_cdf=h_cdf, ffn_drop=ffn_drop,
                           xhat2=xhat2, inv2=inv2))
    return x[:, 0, :], dict(batch_rows=batch_rows, ids=ids, emb_drop=emb_drop, xhat0=xhat0, inv0=inv0, layers=layers)


def padded_backward_rows(params, cache, upstream):
    """The padded run's gradients (every parameter but token_emb) and its (rows, width, d) token gradients."""
    cfg, t, d, f = params.config, params.tensors, params.config.embed_dim, params.config.ffn_dim
    grads = {name: np.zeros_like(arr) for name, arr in t.items() if name != "token_emb"}
    dx = upstream[:, None, :]
    for i in reversed(range(cfg.num_layers)):
        p, lc = f"layers.{i}.", cache["layers"][i]
        dz2, dg, db = enc._ln_backward(dx, t[p + "ffn_ln.gain"], lc["xhat2"], lc["inv2"])
        grads[p + "ffn_ln.gain"] += dg
        grads[p + "ffn_ln.bias"] += db
        dffn_out = dz2 if lc["ffn_drop"] is None else dz2 * lc["ffn_drop"]
        grads[p + "ffn.w2"] += (lc["h_pre"] * lc["h_cdf"]).reshape(-1, f).T @ dffn_out.reshape(-1, d)
        grads[p + "ffn.b2"] += dffn_out.sum(axis=(0, 1))
        dh_pre = enc.gelu_grad(lc["h_pre"], lc["h_cdf"]) * (dffn_out @ t[p + "ffn.w2"].T)
        grads[p + "ffn.w1"] += lc["x_mid"].reshape(-1, d).T @ dh_pre.reshape(-1, f)
        grads[p + "ffn.b1"] += dh_pre.sum(axis=(0, 1))
        dx_mid = dz2 + dh_pre @ t[p + "ffn.w1"].T
        dz1, dg, db = enc._ln_backward(dx_mid, t[p + "attn_ln.gain"], lc["xhat1"], lc["inv1"])
        grads[p + "attn_ln.gain"] += dg
        grads[p + "attn_ln.bias"] += db
        dattn_out = dz1 if lc["attn_drop"] is None else dz1 * lc["attn_drop"]
        grads[p + "attn.wo"] += lc["ctx"].reshape(-1, d).T @ dattn_out.reshape(-1, d)
        grads[p + "attn.bo"] += dattn_out.sum(axis=(0, 1))
        dctx = enc._split_heads(dattn_out @ t[p + "attn.wo"].T, cfg.num_heads)
        dv = lc["probs"].transpose(0, 1, 3, 2) @ dctx
        dprobs = dctx @ lc["v"].transpose(0, 1, 3, 2)  # the whole (rows, heads, L, L) score gradient at once
        dscores = enc._softmax_backward(lc["probs"], dprobs, enc._split_heads(lc["ctx"], cfg.num_heads), dctx,
                                        out=dprobs)
        dq = _merge_heads((dscores @ lc["k"]) * (1.0 / np.sqrt(cfg.head_dim)))
        dk, dv = _merge_heads(dscores.transpose(0, 1, 3, 2) @ lc["q"]), _merge_heads(dv)
        x_all, rows = lc["x_in"].reshape(-1, d), lc["rows"]
        grads[p + "attn.wq"] += lc["x_in"][:, rows].reshape(-1, d).T @ dq.reshape(-1, d)
        grads[p + "attn.bq"] += dq.sum(axis=(0, 1))
        grads[p + "attn.wk"] += x_all.T @ dk.reshape(-1, d)
        grads[p + "attn.wv"] += x_all.T @ dv.reshape(-1, d)
        grads[p + "attn.bv"] += dv.sum(axis=(0, 1))
        dx = np.zeros_like(lc["x_in"])
        dx[:, rows] = dz1 + dq @ t[p + "attn.wq"].T
        dx += dk @ t[p + "attn.wk"].T
        dx += dv @ t[p + "attn.wv"].T
    if cache["emb_drop"] is not None:
        dx = dx * cache["emb_drop"]
    de, dg, db = enc._ln_backward(dx, t["emb_ln.gain"], cache["xhat0"], cache["inv0"])
    grads["emb_ln.gain"] += dg
    grads["emb_ln.bias"] += db
    grads["pos_emb"][:cache["ids"].shape[1]] += de.sum(axis=0)
    return grads, de


def batch_dropout_masks(rng, cfg, lengths, rate):
    """A train batch's dropout draws, written out apart from the encoder's: one float32 draw, split into the
    embedding's masks, then attention's and the FFN's per layer. A layer that computes every cell gets one row
    per real cell of the batch, row-major, (cells, d); the CLS-only last layer one per batch row, (rows, d)."""
    cells, rows = int(lengths.sum()), lengths.size
    sizes = [cells] * (2 * cfg.num_layers - 1) + [rows, rows]
    keep = rng.random((sum(sizes), cfg.embed_dim), dtype=np.float32) >= rate
    return np.split(keep, np.cumsum(sizes)[:-1])


def grid_masks(masks, lengths, rows, width):
    """``rows`` of a batch's ``batch_dropout_masks`` as the padded path takes them: (rows, width, d) grids, each
    real cell's mask in its place and True at PAD; the CLS-only layer's (rows, 1, d)."""
    real = np.arange(lengths.max()) < lengths[:, None]
    index = np.full(real.shape, -1)
    index[real] = np.arange(real.sum())  # each real cell's row in a (cells, d) mask
    index = index[rows, :width]
    grids = []
    for m in masks[:-2]:
        grid = np.ones(index.shape + m.shape[1:], dtype=bool)
        grid[index >= 0] = m[index[index >= 0]]
        grids.append(grid)
    return grids + [m[rows][:, None] for m in masks[-2:]]


def padded_encode_batch(params, batch, train_mode=False, rng=None):
    """``encode_batch(..., return_cache=True)`` on the padded path: the same runs, the same dropout draws."""
    cfg = params.config
    drop = cfg.dropout_rate if train_mode else 0.0
    masks = batch_dropout_masks(rng, cfg, batch.lengths, drop) if drop > 0.0 else None
    pooled, caches = np.empty((batch.size, cfg.embed_dim)), []
    for rows, width in enc.split_runs(batch.lengths):
        run_masks = None if masks is None else grid_masks(masks, batch.lengths, rows, width)
        pooled[rows], cache = padded_encode_rows(params, batch.ids, batch.lengths, rows, width, run_masks)
        caches.append(cache)
    return pooled, caches


def padded_backward(params, caches, upstream):
    """``backward`` on the padded path, every gradient dense: token_emb is summed over every cell, PAD too."""
    results = [padded_backward_rows(params, c, upstream[c["batch_rows"]]) for c in caches]
    grads = results[0][0]
    for run_grads, _ in results[1:]:
        for name, g in run_grads.items():
            grads[name] += g
    d = params.config.embed_dim
    grads["token_emb"] = enc._row_sums(np.concatenate([c["ids"].reshape(-1) for c in caches]),
                                       np.concatenate([de.reshape(-1, d) for _, de in results]),
                                       params.config.vocab_size).dense(params.config.vocab_size)
    return grads
