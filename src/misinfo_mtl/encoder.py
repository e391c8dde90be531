"""Shared text encoder: a small Transformer with exact reverse-mode gradients.

All math runs in float64. On request the forward pass caches every
intermediate needed for the hand-written backward pass, and
``finite_difference_check`` provides an independent numerical oracle for the
analytic gradients. Parameters are a flat name->array dict so the optimizer,
checkpointing and gradient checking can all treat them uniformly.

A batch runs through the stack as independent runs, each at its own longest
real row (``split_runs``). The calling thread and a pool of one worker per
further usable CPU take a call's runs from one queue; the cut never depends on
the CPU count, and the calling thread draws every random number, so results
do not either. Parameters are immutable during a forward/backward pair;
eval-mode forwards over shared parameters are safe to run concurrently.
"""

import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from itertools import count

import numpy as np

from .tokenization import Batch, width_groups

LN_EPS = 1e-5
GRADCHECK_FLOOR = 1e-12
RUN_ROWS = 32  # most rows in one run of the stack, so a scored split runs in train-batch-sized pieces
RUN_CELLS = 2048  # most rows x class-width cells in one run; wider classes run fewer rows per run

# Cephes ndtr.c erf: x T(x^2) / U(x^2) for |x| <= 1, 1 - exp(-x^2) P(|x|) / Q(|x|)
# above. Coefficients run from the highest degree down; U and Q are monic. Each
# numerator/denominator pair is one (degree + 1, 2, 1) array so one Horner pass
# evaluates both; T gets a leading 0 to match U's degree (0 * z + T[0] is T[0] exactly).
_ERF_TU = np.array([
    (0.0, 1.0),
    (9.60497373987051638749E0, 3.35617141647503099647E1),
    (9.00260197203842689217E1, 5.21357949780152679795E2),
    (2.23200534594684319226E3, 4.59432382970980127987E3),
    (7.00332514112805075473E3, 2.26290000613890934246E4),
    (5.55923013010394962768E4, 4.92673942608635921086E4),
])[:, :, None]
_ERF_PQ = np.array([
    (2.46196981473530512524E-10, 1.0),
    (5.64189564831068821977E-1, 1.32281951154744992508E1),
    (7.46321056442269912687E0, 8.67072140885989742329E1),
    (4.86371970985681366614E1, 3.54937778887819891062E2),
    (1.96520832956077098242E2, 9.75708501743205489753E2),
    (5.26445194995477358631E2, 1.82390916687909736289E3),
    (9.34528527171957607540E2, 2.24633760818710981792E3),
    (1.02755188689515710272E3, 1.65666309194161350182E3),
    (5.57535335369399327526E2, 5.57535340817727675546E2),
])[:, :, None]
_ERF_CLAMP = 6.0  # erfc(6) < 2**-55, so erf rounds to exactly +-1 from here on
_ERF_CHUNK = 16384  # elements per pass: a chunk's temporaries stay in cache


@dataclass(frozen=True)
class EncoderConfig:
    """Architecture of the shared encoder stand-in (desk-scale by default)."""

    vocab_size: int
    embed_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 128
    max_seq_len: int = 128
    dropout_rate: float = 0.1
    seed: int = 0
    pooling: str = "cls"

    def __post_init__(self):
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim ({self.embed_dim}) must be divisible by num_heads ({self.num_heads})"
            )
        for name in ("vocab_size", "embed_dim", "num_layers", "num_heads", "ffn_dim", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.pooling not in ("cls", "mean"):
            raise ValueError(f"pooling must be 'cls' or 'mean', got {self.pooling!r}")

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads


@dataclass
class EncoderParams:
    """Encoder weights: a flat name->float64-array dict plus the config they fit."""

    config: EncoderConfig
    tensors: dict[str, np.ndarray]


class RowSparseGrad(np.ndarray):
    """Gradient of a table read by row: an (n, d) array of the summed rows of ``ids`` only.

    Row i is the gradient of table row ``ids[i]``; ``ids`` is sorted and
    unique, and every other row's gradient is exactly zero. Arrays derived from
    one (views, ufunc results) carry the same ``ids``.
    """

    def __new__(cls, ids: np.ndarray, rows: np.ndarray):
        out = np.asarray(rows).view(cls)
        out.ids = ids
        return out

    def __array_finalize__(self, obj):
        self.ids = getattr(obj, "ids", None)

    def dense(self, num_rows: int) -> np.ndarray:
        """The full (num_rows, d) gradient, zero outside ``ids``."""
        out = np.zeros((num_rows,) + self.shape[1:])
        out[self.ids] = self
        return out


def param_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes, in initialization order."""
    d, f = config.embed_dim, config.ffn_dim
    shapes: dict[str, tuple[int, ...]] = {
        "token_emb": (config.vocab_size, d),
        "pos_emb": (config.max_seq_len, d),
        "emb_ln.gain": (d,),
        "emb_ln.bias": (d,),
    }
    for i in range(config.num_layers):
        p = f"layers.{i}."
        shapes[p + "attn.wq"] = (d, d)
        shapes[p + "attn.bq"] = (d,)
        # No key bias: it shifts all scores for a query equally, so softmax
        # cancels it exactly and it could never receive a gradient.
        shapes[p + "attn.wk"] = (d, d)
        shapes[p + "attn.wv"] = (d, d)
        shapes[p + "attn.bv"] = (d,)
        shapes[p + "attn.wo"] = (d, d)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "attn_ln.gain"] = (d,)
        shapes[p + "attn_ln.bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, d)
        shapes[p + "ffn.b2"] = (d,)
        shapes[p + "ffn_ln.gain"] = (d,)
        shapes[p + "ffn_ln.bias"] = (d,)
    return shapes


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Scaled-uniform init with bound sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = shape[0], shape[-1]
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_encoder(config: EncoderConfig) -> EncoderParams:
    """Deterministically initialize all encoder parameters from config.seed.

    Weight matrices (embeddings included) are Glorot-uniform; layer-norm gains
    are 1, every bias is 0.
    """
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            tensors[name] = np.ones(shape)
        elif name.endswith((".bias", ".bq", ".bv", ".bo", ".b1", ".b2")):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = glorot_uniform(rng, shape)
    return EncoderParams(config=config, tensors=tensors)


# --- primitive forward/backward pieces -------------------------------------


def _horner_pair(x: np.ndarray, coefs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Evaluate two polynomials at ``x`` into ``out``, shape (2, x.size), by Horner's rule."""
    np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        np.add(out, c, out=out)
        np.multiply(out, x, out=out)
    np.add(out, coefs[-1], out=out)
    return out


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Error function, elementwise in float64 (a port of Cephes ``ndtr.c``).

    Odd in x (the sign of -0.0 is kept), +-inf gives +-1 and NaN stays NaN.
    ``out``, a C-contiguous float64 array, may be ``x`` itself. Works over
    cache-sized chunks and evaluates the |x| > 1 branch on those elements only.
    """
    x = np.asarray(x, dtype=np.float64)
    if out is None:
        out = np.empty(x.shape)
    elif not out.flags.c_contiguous:
        raise ValueError("erf needs a C-contiguous out array")
    src, dst = x.reshape(-1), out.reshape(-1)
    n = min(src.size, _ERF_CHUNK)
    buf_z, buf_tu = np.empty(n), np.empty((2, n))
    # The |x| <= 1 formula runs on every element; on the |x| > 1 ones it may overflow
    # (x*x for huge x, inf/inf for x = inf), and those results are overwritten below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, src.size, _ERF_CHUNK):
            xs, ys = src[start:start + _ERF_CHUNK], dst[start:start + _ERF_CHUNK]
            z, tu = buf_z[:xs.size], buf_tu[:, :xs.size]
            np.multiply(xs, xs, out=z)
            tail = np.flatnonzero(z > 1.0)  # NaN stays in the |x| <= 1 branch, which propagates it
            x_tail = xs[tail]
            _horner_pair(z, _ERF_TU, tu)
            np.multiply(xs, tu[0], out=ys)
            np.divide(ys, tu[1], out=ys)
            if tail.size:
                a = np.abs(x_tail)
                np.minimum(a, _ERF_CLAMP, out=a)
                pq = _horner_pair(a, _ERF_PQ, np.empty((2, a.size)))
                e = np.multiply(a, a)
                np.negative(e, out=e)
                np.exp(e, out=e)
                np.multiply(e, pq[0], out=e)
                np.divide(e, pq[1], out=e)
                np.subtract(1.0, e, out=e)
                ys[tail] = np.copysign(e, x_tail, out=e)
    return out


def gelu_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, the gate of GELU(x) = x * Phi(x)."""
    out = np.divide(x, math.sqrt(2.0))
    erf(out, out=out)
    np.add(out, 1.0, out=out)
    np.multiply(out, 0.5, out=out)
    return out


def gelu_grad(x: np.ndarray, cdf: np.ndarray | None = None) -> np.ndarray:
    """d GELU / dx; pass the forward pass's ``gelu_cdf(x)`` to skip recomputing it."""
    if cdf is None:
        cdf = gelu_cdf(x)
    # cdf + x * exp(-0.5 * x * x) / sqrt(2 pi), in one buffer
    out = np.multiply(x, -0.5)
    np.multiply(out, x, out=out)
    np.exp(out, out=out)
    np.divide(out, math.sqrt(2.0 * math.pi), out=out)
    np.multiply(out, x, out=out)
    np.add(out, cdf, out=out)
    return out


def _ln_forward(x, gain, bias):
    """LayerNorm over the last axis; returns (output, xhat, inv) and overwrites ``x`` with xhat."""
    x -= x.mean(axis=-1, keepdims=True)
    out = np.multiply(x, x)
    var = out.mean(axis=-1, keepdims=True)
    var += LN_EPS
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    x *= inv
    np.multiply(gain, x, out=out)
    out += bias
    return out, x, inv


def _ln_backward(dout, gain, xhat, inv):
    axes = tuple(range(dout.ndim - 1))
    tmp = np.multiply(dout, xhat)
    dgain = tmp.sum(axis=axes)
    dbias = dout.sum(axis=axes)
    # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built in the dxhat buffer
    dx = np.multiply(dout, gain)
    mean_dxhat = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=tmp)
    np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
    dx -= mean_dxhat
    dx -= tmp
    dx *= inv
    return dx, dgain, dbias


def _softmax_inplace(x):
    """Softmax over the last axis, computed in ``x`` itself."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    # Inverted dropout: mask already carries the 1/(1-rate) rescaling; built in the random draws' buffer.
    mask = rng.random(shape)
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return mask


def _split_heads(x, num_heads):
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


# --- forward / backward -----------------------------------------------------


def _query_rows(cfg: EncoderConfig, layer: int) -> slice:
    """Rows whose outputs a layer computes: its consumer reads only those.

    CLS pooling reads row 0 of the last layer, so that layer runs queries,
    attention, residual, LayerNorms and FFN for the CLS row alone (keys and
    values still cover every row). Every other layer computes all rows.
    """
    if cfg.pooling == "cls" and layer == cfg.num_layers - 1:
        return slice(0, 1)
    return slice(None)


@dataclass
class _LayerCache:
    x_in: np.ndarray
    q: np.ndarray  # queries times 1/sqrt(head_dim)
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray
    ctx: np.ndarray
    attn_drop: np.ndarray | None
    xhat1: np.ndarray
    inv1: np.ndarray
    x_mid: np.ndarray
    h_pre: np.ndarray
    h_cdf: np.ndarray  # gelu_cdf(h_pre); GELU output is h_pre * h_cdf
    ffn_drop: np.ndarray | None
    xhat2: np.ndarray
    inv2: np.ndarray


@dataclass
class EncoderCache:
    """Activations from one run of the stack over some rows of a batch, consumed by ``backward``."""

    batch_rows: np.ndarray  # the rows of the batch this run covered
    ids: np.ndarray  # their ids at the run's width
    lengths: np.ndarray
    emb_drop: np.ndarray | None
    xhat0: np.ndarray
    inv0: np.ndarray
    layers: list[_LayerCache]
    x_final: np.ndarray  # last layer's output; under CLS pooling only the CLS row, (B, 1, d)


_pool = None  # a ThreadPoolExecutor with one worker per usable CPU but one, made on the first call that needs one
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist there, so the next call makes a new pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_each(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, the jobs taken in turn by this thread and up to cpus - 1 pool workers.

    No job starts after one raised; the earliest such job's exception is raised once every worker stopped.
    """
    global _pool
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    helpers = min(len(jobs), cpus) - 1
    if helpers < 1:
        return [fn(*job) for job in jobs]
    with _pool_lock:
        if _pool is None:
            # imported here, not at start-up: concurrent.futures loads logging (about 6 ms)
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(cpus - 1, thread_name_prefix="encoder-run")
    taken, results, errors = count(), [None] * len(jobs), {}

    def take():
        while not errors and (i := next(taken)) < len(jobs):  # next() on a count is atomic: each job runs once
            try:
                results[i] = fn(*jobs[i])
            except BaseException as exc:
                errors[i] = exc

    waits = [_pool.submit(take) for _ in range(helpers)]
    take()
    for wait in waits:
        wait.result()
    if errors:
        raise errors[min(errors)]
    return results


def split_runs(lengths: np.ndarray):
    """Yield how the encoder cuts a batch with these row lengths into runs of the stack, in run order.

    Per width class (``width_groups``), ascending: its row indices, its width (longest real row) and its
    runs: slices of its rows, in row order, of at most ``RUN_ROWS`` rows and ``RUN_CELLS`` cells at the
    class width, each paired with its own width (its longest real row).
    """
    for group in width_groups(lengths):
        width = int(lengths[group].max())
        step = min(RUN_ROWS, max(1, RUN_CELLS // width))
        cuts = [slice(start, min(start + step, group.size)) for start in range(0, group.size, step)]
        yield group, width, [(cut, int(lengths[group[cut]].max())) for cut in cuts]


def _dropout_masks(rng, cfg: EncoderConfig, rows: int, width: int, rate: float) -> list[np.ndarray]:
    """One width class's dropout masks in draw order: the embedding's, then attention and FFN per layer.

    Each is drawn at the shape of the rows its layer computes: (rows, 1, d) for a CLS-only layer.
    """
    shapes = [(rows, width, cfg.embed_dim)]
    for i in range(cfg.num_layers):
        shapes += 2 * [(rows, len(range(width)[_query_rows(cfg, i)]), cfg.embed_dim)]
    return [_dropout_mask(rng, shape, rate) for shape in shapes]


def encode_batch(
    params: EncoderParams,
    batch: Batch,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    return_cache: bool = False,
):
    """Run the encoder stack and pool one vector per input.

    ``batch.lengths`` must hold one length in [1, width] per row. The rows are
    cut into runs by ``split_runs``, each an independent run of the stack that
    gathers its rows at its own longest row; this thread and the pool's
    workers take them from one queue. Pooled rows come back in input order.
    Keys past a row's length get a -inf pre-softmax attention score, so PAD
    content can never reach the pooled output. Under CLS pooling the last
    layer computes keys and values for every row and everything else for the
    CLS row only.
    Dropout fires only in train mode (and then requires ``rng``): this thread
    draws each class's masks at the class's shape, class by class, and each
    run takes its rows and columns of them (a CLS-only layer's one column
    stays). Per-layer activations are kept only with ``return_cache=True``,
    and then the result is ``(pooled, caches)`` for a subsequent ``backward``
    call: a list of one ``EncoderCache`` per run.
    """
    cfg = params.config
    ids, lengths = batch.ids, batch.lengths
    if ids.size == 0:
        raise ValueError(f"empty batch: ids have shape {ids.shape}, need at least one row and column")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id out of range [0, {cfg.vocab_size})")
    rows, width = ids.shape
    if width > cfg.max_seq_len:
        raise ValueError(f"sequence length {width} exceeds max_seq_len {cfg.max_seq_len}")
    if lengths.shape != (rows,) or lengths.min() < 1 or lengths.max() > width:
        raise ValueError(f"lengths must be {rows} values in [1, {width}], got shape {lengths.shape}")
    drop = cfg.dropout_rate if train_mode else 0.0
    if drop > 0.0 and rng is None:
        raise ValueError("train-mode forward with dropout requires an rng")

    jobs = []
    for group, class_width, cuts in split_runs(lengths):
        masks = _dropout_masks(rng, cfg, group.size, class_width, drop) if drop > 0.0 else None
        for cut, run_width in cuts:
            jobs.append((group[cut], run_width, None if masks is None else [m[cut, :run_width] for m in masks]))
    results = _run_each(partial(_encode_rows, params, ids, lengths, return_cache=return_cache), jobs)
    pooled = np.empty((rows, cfg.embed_dim))
    for (run_rows, *_), (out, _) in zip(jobs, results):
        pooled[run_rows] = out
    if not return_cache:
        return pooled
    return pooled, [cache for _, cache in results]


def _encode_rows(params, batch_ids, batch_lengths, batch_rows, width, drop_masks, return_cache):
    """One run of the stack over ``batch_rows`` of a batch (ids, lengths), gathered at ``width`` columns.

    ``drop_masks`` is None or the run's rows of its class's ``_dropout_masks``.
    """
    cfg = params.config
    t = params.tensors
    ids, lengths = batch_ids[batch_rows, :width], batch_lengths[batch_rows]
    emb_drop, *layer_drops = drop_masks or [None] * (1 + 2 * cfg.num_layers)
    x = t["token_emb"][ids] + t["pos_emb"][:width]
    x, xhat0, inv0 = _ln_forward(x, t["emb_ln.gain"], t["emb_ln.bias"])
    if emb_drop is not None:
        x *= emb_drop
    layer_caches: list[_LayerCache] = []

    real = np.arange(width) < lengths[:, None]  # (B, L): True below each row's length
    key_pad = None if real.all() else ~real[:, None, None, :]  # (B,1,1,L) over the key axis
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        rows = _query_rows(cfg, i)
        attn_drop, ffn_drop = layer_drops[2 * i:2 * i + 2]
        x_in = x
        # 1/sqrt(head_dim) is folded into q, so the scores come out scaled (exactly so for a power of 2).
        q = x_in[:, rows] @ t[p + "attn.wq"] + t[p + "attn.bq"]
        q *= scale
        q = _split_heads(q, cfg.num_heads)
        k = _split_heads(x_in @ t[p + "attn.wk"], cfg.num_heads)
        v = _split_heads(x_in @ t[p + "attn.wv"] + t[p + "attn.bv"], cfg.num_heads)
        scores = q @ k.transpose(0, 1, 3, 2)
        if key_pad is not None:
            np.copyto(scores, -np.inf, where=key_pad)
        probs = _softmax_inplace(scores)
        ctx = _merge_heads(probs @ v)
        attn_out = ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]
        if attn_drop is not None:
            attn_out *= attn_drop
        x_mid, xhat1, inv1 = _ln_forward(x_in[:, rows] + attn_out, t[p + "attn_ln.gain"], t[p + "attn_ln.bias"])
        h_pre = x_mid @ t[p + "ffn.w1"] + t[p + "ffn.b1"]
        h_cdf = gelu_cdf(h_pre)
        ffn_out = (h_pre * h_cdf) @ t[p + "ffn.w2"] + t[p + "ffn.b2"]
        if ffn_drop is not None:
            ffn_out *= ffn_drop
        x, xhat2, inv2 = _ln_forward(x_mid + ffn_out, t[p + "ffn_ln.gain"], t[p + "ffn_ln.bias"])
        if return_cache:
            layer_caches.append(
                _LayerCache(
                    x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx, attn_drop=attn_drop,
                    xhat1=xhat1, inv1=inv1, x_mid=x_mid, h_pre=h_pre, h_cdf=h_cdf,
                    ffn_drop=ffn_drop, xhat2=xhat2, inv2=inv2,
                )
            )

    if cfg.pooling == "cls":
        pooled = x[:, 0, :]
    else:
        pooled = (x * real[:, :, None]).sum(axis=1) / lengths[:, None]
    if not return_cache:
        return pooled, None
    return pooled, EncoderCache(batch_rows=batch_rows, ids=ids, lengths=lengths, emb_drop=emb_drop, xhat0=xhat0,
                                inv0=inv0, layers=layer_caches, x_final=x)


def backward(params: EncoderParams, caches: list[EncoderCache], upstream_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the pooled output w.r.t. every parameter.

    ``upstream_grad`` has shape (batch, embed_dim) and is contracted with the
    pooled output's Jacobian; requires the caches produced by the matching
    forward pass. Each run of the forward fills its own gradient dict (taken
    from one queue by this thread and the pool's workers), and the dicts are
    summed in run order. ``token_emb`` gets a ``RowSparseGrad`` over the ids
    the batch holds, summed over every run's token gradients in run order;
    every other gradient is a dense array of its parameter's shape.
    """
    if caches is None:
        raise ValueError("backward requires the caches from a forward pass")
    results = _run_each(partial(_backward_rows, params), [(run, upstream_grad[run.batch_rows]) for run in caches])
    grads = results[0][0]
    for run_grads, _ in results[1:]:
        for name, g in run_grads.items():
            grads[name] += g
    grads["token_emb"] = _row_sums(np.concatenate([run.ids.reshape(-1) for run in caches]),
                                   np.concatenate([de.reshape(-1, de.shape[-1]) for _, de in results]),
                                   params.config.vocab_size)
    return grads


def _row_sums(ids: np.ndarray, values: np.ndarray, num_rows: int) -> RowSparseGrad:
    """Sum the rows of ``values``, (len(ids), d), that share an id.

    One weighted ``bincount`` over (row slot, column) adds each id's rows in
    input order starting from 0.0, the order a scatter with ``np.add.at`` into
    a zeroed (num_rows, d) table uses, so the sums match it bit for bit.
    """
    counts = np.bincount(ids, minlength=num_rows)
    touched = np.flatnonzero(counts)
    slot = np.zeros(num_rows, dtype=np.int64)
    slot[touched] = np.arange(touched.size)
    d = values.shape[1]
    cells = (slot[ids][:, None] * d + np.arange(d)).reshape(-1)
    sums = np.bincount(cells, weights=values.reshape(-1), minlength=touched.size * d)
    return RowSparseGrad(touched, sums.reshape(touched.size, d))


def _softmax_backward(probs, dprobs, ctx, dctx):
    """Score gradient probs * (dprobs - rowsum(dprobs * probs)), built in the ``dprobs`` buffer.

    With dprobs = dctx v^T and ctx = probs v (per head), the row term
    sum_j dprobs_ij probs_ij equals dctx_i . ctx_i, a product over the head dim
    rather than the key axis (the identity FlashAttention's backward uses).
    Masked keys have prob 0 and thus zero score gradient.
    """
    dprobs -= (dctx * ctx).sum(axis=-1, keepdims=True)
    return np.multiply(dprobs, probs, out=dprobs)


def _backward_rows(params, cache: EncoderCache, upstream_grad) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of one run of the stack (``cache``), each added once into its own zeroed array.

    Returns them (every parameter but ``token_emb``) with the gradient w.r.t.
    the run's embedded tokens, (B, L, d), whose rows ``backward`` sums per
    token id into the ``token_emb`` gradient.
    """
    cfg = params.config
    t = params.tensors
    length = cache.ids.shape[1]
    grads = {name: np.zeros_like(arr) for name, arr in t.items() if name != "token_emb"}

    dx = np.zeros_like(cache.x_final)
    if cfg.pooling == "cls":
        dx[:, 0, :] = upstream_grad
    else:
        real = np.arange(length) < cache.lengths[:, None]
        dx += (upstream_grad / cache.lengths[:, None])[:, None, :] * real[:, :, None]

    scale = 1.0 / math.sqrt(cfg.head_dim)
    for i in reversed(range(cfg.num_layers)):
        p = f"layers.{i}."
        rows = _query_rows(cfg, i)
        lc = cache.layers[i]

        dz2, dg, dbias = _ln_backward(dx, t[p + "ffn_ln.gain"], lc.xhat2, lc.inv2)
        grads[p + "ffn_ln.gain"] += dg
        grads[p + "ffn_ln.bias"] += dbias
        dffn_out = dz2 if lc.ffn_drop is None else dz2 * lc.ffn_drop
        # GELU output, recomputed from the cache as a temporary freed right after use.
        h_act = (lc.h_pre * lc.h_cdf).reshape(-1, cfg.ffn_dim)
        grads[p + "ffn.w2"] += h_act.T @ dffn_out.reshape(-1, cfg.embed_dim)
        del h_act
        grads[p + "ffn.b2"] += dffn_out.sum(axis=(0, 1))
        dh_act = dffn_out @ t[p + "ffn.w2"].T
        dh_pre = gelu_grad(lc.h_pre, lc.h_cdf)
        dh_pre *= dh_act
        x_mid2d = lc.x_mid.reshape(-1, cfg.embed_dim)
        grads[p + "ffn.w1"] += x_mid2d.T @ dh_pre.reshape(-1, cfg.ffn_dim)
        grads[p + "ffn.b1"] += dh_pre.sum(axis=(0, 1))
        dx_mid = dz2 + dh_pre @ t[p + "ffn.w1"].T

        dz1, dg, dbias = _ln_backward(dx_mid, t[p + "attn_ln.gain"], lc.xhat1, lc.inv1)
        grads[p + "attn_ln.gain"] += dg
        grads[p + "attn_ln.bias"] += dbias
        dattn_out = dz1 if lc.attn_drop is None else dz1 * lc.attn_drop
        ctx2d = lc.ctx.reshape(-1, cfg.embed_dim)
        grads[p + "attn.wo"] += ctx2d.T @ dattn_out.reshape(-1, cfg.embed_dim)
        grads[p + "attn.bo"] += dattn_out.sum(axis=(0, 1))
        dctx = _split_heads(dattn_out @ t[p + "attn.wo"].T, cfg.num_heads)

        dv = lc.probs.transpose(0, 1, 3, 2) @ dctx
        dscores = _softmax_backward(lc.probs, dctx @ lc.v.transpose(0, 1, 3, 2),
                                    _split_heads(lc.ctx, cfg.num_heads), dctx)
        dq = (dscores @ lc.k) * scale
        dk = dscores.transpose(0, 1, 3, 2) @ lc.q  # q carries the scale already

        # Queries (and the residual) come from the layer's rows only; keys and values from every row.
        # The sums keep the order ((dz1 + dq Wq^T) + dk Wk^T) + dv Wv^T of an all-rows layer.
        dx = np.zeros_like(lc.x_in)
        for name, dproj in (("q", dq), ("k", dk), ("v", dv)):
            dmerged = _merge_heads(dproj)
            x_src = lc.x_in[:, rows] if name == "q" else lc.x_in
            grads[p + f"attn.w{name}"] += x_src.reshape(-1, cfg.embed_dim).T @ dmerged.reshape(-1, cfg.embed_dim)
            if name != "k":  # the key projection has no bias
                grads[p + f"attn.b{name}"] += dmerged.sum(axis=(0, 1))
            if name == "q":
                dx[:, rows] = dz1 + dmerged @ t[p + "attn.wq"].T
            else:
                dx += dmerged @ t[p + f"attn.w{name}"].T

    if cache.emb_drop is not None:
        dx = dx * cache.emb_drop
    de, dg, dbias = _ln_backward(dx, t["emb_ln.gain"], cache.xhat0, cache.inv0)
    grads["emb_ln.gain"] += dg
    grads["emb_ln.bias"] += dbias
    grads["pos_emb"][:length] += de.sum(axis=0)
    return grads, de


# --- numerical gradient oracle ----------------------------------------------


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
