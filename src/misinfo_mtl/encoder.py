"""Shared text encoder: a small Transformer with exact reverse-mode gradients.

All math runs in float64. On request the forward pass caches the
intermediates the hand-written backward pass needs and cannot cheaply
rebuild bit for bit. The pooled output is the last layer's CLS row. Parameters are a flat name->array dict so the
optimizer, checkpointing and gradient checking can all treat them uniformly.

A batch runs through the stack as independent runs of rows of similar length,
each at its own longest real row: ``split_runs`` alone orders and cuts the rows,
so callers pass batches as they are. A run with enough PAD packs its real
cells, so its token-wise layers skip PAD and only attention sees its padded
grid. The calling thread and a pool of one worker per further usable CPU take
a call's runs from one queue; the cut never depends on the CPU count, and the
calling thread draws every random number, over the batch's real cells, so
results do not either and a row's dropout does not depend on the cut.
Parameters are immutable during a forward/backward pair; eval-mode forwards
over shared parameters are safe to run concurrently.
"""

import ctypes
import math
import os
import threading
from dataclasses import dataclass
from functools import partial
from itertools import count

import numpy as np

from .tokenization import Batch

LN_EPS = 1e-5
# A row's width class is ceil(real length / WIDTH_CLASS). Each class of a batch runs apart from the others, so
# this sets how many runs a batch is cut into: a finer class trims more PAD from a run, in more, smaller runs.
WIDTH_CLASS = 32
RUN_ROWS = 32  # most rows in one run of the stack, so a scored split runs in train-batch-sized pieces
RUN_CELLS = 2048  # most rows x class-width cells in one run; wider classes run fewer rows per run
# A run packs its real cells once this share of its cells is PAD: below, the copies to and from the attention's grid
PACK_PAD = 0.125  # cost more than the PAD cells skipped (break-even measured at 6-10% PAD on 16 x 128 runs)
SCORE_TILE = 1 << 16  # most attention score (or score-gradient) elements built at once, forward and backward (512 KiB)

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

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "num_layers", "num_heads", "ffn_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.embed_dim % self.num_heads != 0:
            raise ValueError(
                f"embed_dim ({self.embed_dim}) must be divisible by num_heads ({self.num_heads})"
            )
        if self.max_seq_len < 2:
            raise ValueError(f"max_seq_len must be >= 2 (CLS plus one token), got {self.max_seq_len}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

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


def dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    """The cells dropout keeps, as a bool array (1 byte a cell) of float32 draws; ``apply_dropout`` applies it."""
    return rng.random(shape, dtype=np.float32) >= rate


def apply_dropout(x: np.ndarray, mask: np.ndarray, rate: float, out: np.ndarray | None = None) -> np.ndarray:
    """Inverted dropout, x * mask * (1 / (1 - rate)), into ``out`` (which may be ``x``). x * 1 * s is x * s and
    x * 0 * s the same signed zero as x * 0, so the bits are those of x times the float mask mask / (1 - rate)."""
    out = np.multiply(x, mask, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


def _split_heads(x, num_heads):
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


# --- forward / backward -----------------------------------------------------


def _layout(cfg: EncoderConfig, lengths: np.ndarray, width: int):
    """How a run holds its cells: (its (rows, width) real mask, its grid (cells, rows, width), their ``pos_emb``
    rows, each layer's (index, grid) of the cells it computes queries and all after them for). With ``PACK_PAD``
    or more of PAD, cells are the real cells' (row, column) indices, packed row-major into (cells, ·) arrays; else
    None: the run holds its (rows, width, ·) grid. The last layer computes only the CLS cells, the pooled output."""
    real = np.arange(width) < lengths[:, None]
    if lengths.sum() > (1.0 - PACK_PAD) * real.size:
        grid, pos, cls = (None, lengths.size, width), slice(0, width), np.s_[:, :1]
    else:
        cells = np.nonzero(real)
        grid, pos, cls = (cells, lengths.size, width), cells[1], np.s_[np.flatnonzero(cells[1] == 0), None]
    return real, grid, pos, [(..., grid)] * (cfg.num_layers - 1) + [(cls, (None, lengths.size, 1))]


def _to_grid(packed: np.ndarray, cells, rows: int, width: int) -> np.ndarray:
    """A run's array as its (rows, width, ·) grid, zero at PAD (``packed`` itself when cells is None)."""
    if cells is None:
        return packed
    grid = np.zeros((rows, width, packed.shape[-1]))
    grid[cells] = packed
    return grid


def _from_grid(grid: np.ndarray, cells) -> np.ndarray:
    """The cells of a (rows, width, ...) grid, or a strided view of one, as a run holds them (itself if cells is None)."""
    return grid if cells is None else grid[cells]


@dataclass
class _LayerCache:
    x_in: np.ndarray  # this and every token-wise array: the run's cells as ``_layout`` holds them
    q: np.ndarray  # queries times 1/sqrt(head_dim); q, k and v are (rows, heads, width, ·) grids
    k: np.ndarray
    v: np.ndarray
    probs: np.ndarray | None  # the (rows, heads, Lq, L) probabilities if they were one score tile, else None
    ctx: np.ndarray
    attn_drop: np.ndarray | None  # the dropout masks are bool, as ``dropout_mask`` draws them
    xhat1: np.ndarray  # the block's output, x_mid, is gain * xhat1 + bias: the backward rebuilds it
    inv1: np.ndarray
    h_pre: np.ndarray
    h_cdf: np.ndarray  # gelu_cdf(h_pre); GELU output is h_pre * h_cdf
    ffn_drop: np.ndarray | None
    xhat2: np.ndarray
    inv2: np.ndarray


@dataclass
class EncoderCache:
    """Activations from one run of the stack over some rows of a batch, consumed by one ``backward``."""

    batch_rows: np.ndarray  # the rows of the batch this run covered
    grid: tuple  # its grid and each layer's query cells, from ``_layout``
    queries: list
    key_pad: np.ndarray | None  # (rows, 1, 1, width): the keys scoring -inf, as the forward masked them
    ids: np.ndarray  # the ids of its cells, held as ``_layout`` says
    emb_drop: np.ndarray | None
    xhat0: np.ndarray
    inv0: np.ndarray
    layers: list[_LayerCache]


def _tune_allocator() -> None:
    """Tune glibc's heap (glibc only); run once, when this module is imported.

    Raise the trim and mmap thresholds so freed buffers are reused, not
    re-faulted, and keep one arena so the run pool's worker threads reuse the
    main heap instead of each growing their own.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_tune_allocator()
_pool = None  # a ThreadPoolExecutor with one worker per usable CPU but one, made on the first call that needs one
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's workers do not exist there, so the next call makes a new pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_each(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, the jobs taken in turn by this thread and up to cpus - 1 pool workers.

    The one pool of the program: ``encode_batch`` and ``backward`` run their runs of the stack on it, and
    ``training.adam_step`` the row blocks of a large parameter. No job starts after one raised; the earliest
    such job's exception is raised once every worker stopped.
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


def split_runs(lengths: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """How the encoder cuts a batch with these row lengths into runs of the stack: each run's row indices and
    width (its longest real row), in run order. The one place rows are ordered.

    A stable sort by length is cut where the width class (``WIDTH_CLASS``) changes, and each class into runs of
    at most ``RUN_ROWS`` rows and ``RUN_CELLS`` cells at the class width. A run's rows are in length order, so
    its width is its last row's length.
    """
    order = np.argsort(lengths, kind="stable")
    runs = []
    for group in np.split(order, np.flatnonzero(np.diff(-(-lengths[order] // WIDTH_CLASS))) + 1):
        step = min(RUN_ROWS, max(1, RUN_CELLS // int(lengths[group[-1]])))
        runs += [(rows, int(lengths[rows[-1]])) for rows in np.split(group, range(step, group.size, step))]
    return runs


def encode_batch(
    params: EncoderParams,
    batch: Batch,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    return_cache: bool = False,
):
    """Run the encoder stack and return each input's CLS row of the last layer.

    ``batch.lengths`` must hold one length in [1, width] per row, in any order.
    ``split_runs`` orders the rows by length and cuts them into runs, each an
    independent run of the stack at its own longest row; this thread and the
    pool's workers take them from one queue. Pooled rows keep input order.
    A run with at least ``PACK_PAD`` of PAD packs its real cells, (cells, d),
    for its token-wise layers; scores, softmax and context see its (rows,
    heads, width, ·) grid, where keys past a row's length get a -inf score, so
    PAD never reaches the pooled output. The last layer computes keys and
    values for every cell and everything else for the CLS cells only.
    Dropout fires only in train mode (and then requires ``rng``): this thread
    draws the batch's masks in one call over its real cells, so a row's masks
    do not depend on how the batch is cut into runs, and each run gathers its
    cells of them. Per-layer activations are kept only
    with ``return_cache=True``, and then the result is ``(pooled, caches)``
    for one subsequent ``backward`` call, which consumes them: a list of one
    ``EncoderCache`` per run.
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

    masks = None
    if drop > 0.0:
        # The embedding's masks, then attention's and the FFN's per layer: a layer that computes every cell
        # has one per real cell of the batch, row-major, and the CLS-only last layer one per row.
        bounds = np.cumsum([int(lengths.sum())] * (2 * cfg.num_layers - 1) + [rows, rows])
        masks = np.split(dropout_mask(rng, (bounds[-1], cfg.embed_dim), drop), bounds[:-1])
    jobs = split_runs(lengths)
    results = run_each(partial(_encode_rows, params, ids, lengths, drop_masks=masks, return_cache=return_cache),
                       jobs)
    pooled = np.empty((rows, cfg.embed_dim))
    for (run_rows, _), (out, _) in zip(jobs, results):
        pooled[run_rows] = out
    if not return_cache:
        return pooled
    return pooled, [cache for _, cache in results]


def _encode_rows(params, batch_ids, batch_lengths, batch_rows, width, drop_masks, return_cache):
    """One run of the stack over ``batch_rows`` of a batch (ids, lengths): a (rows, ``width``) grid, as ``_layout``.

    ``drop_masks`` is None or ``encode_batch``'s masks of the whole batch; the run gathers its cells of them (a
    grid's PAD cells take their row's last real cell's, which nothing reads). Without ``return_cache`` each block's
    activations die as it returns, so the run holds about one block's arrays and one score tile at once.
    """
    cfg = params.config
    t = params.tensors
    lengths = batch_lengths[batch_rows]
    real, grid, pos, queries = _layout(cfg, lengths, width)
    ids = _from_grid(batch_ids[batch_rows, :width], grid[0])
    drops = [None] * (1 + 2 * cfg.num_layers)
    if drop_masks is not None:
        first = np.cumsum(batch_lengths)[batch_rows] - lengths  # each row's first cell in the batch's masks
        at = _from_grid(first[:, None] + np.minimum(np.arange(width), lengths[:, None] - 1), grid[0])
        drops = [m[at] for m in drop_masks[:-2]] + [m[batch_rows, None] for m in drop_masks[-2:]]
    emb_drop, *layer_drops = drops
    x, xhat0, inv0 = _ln_forward(t["token_emb"][ids] + t["pos_emb"][pos], t["emb_ln.gain"], t["emb_ln.bias"])
    if emb_drop is not None:
        apply_dropout(x, emb_drop, cfg.dropout_rate, out=x)
    key_pad = None if real.all() else ~real[:, None, None, :]  # (B,1,1,L) over the key axis
    cache = EncoderCache(batch_rows=batch_rows, grid=grid, queries=queries, key_pad=key_pad, ids=ids,
                         emb_drop=emb_drop, xhat0=xhat0, inv0=inv0, layers=[]) if return_cache else None
    del xhat0, inv0

    for i in range(cfg.num_layers):
        p = f"layers.{i}."
        sel, q_grid = queries[i]
        attn_drop, ffn_drop = layer_drops[2 * i:2 * i + 2]
        x, attn_cache = _attn_forward(cfg, t, p, grid, sel, q_grid, key_pad, x, attn_drop, return_cache)
        x, ffn_cache = _ffn_forward(cfg, t, p, x, ffn_drop, return_cache)
        if return_cache:
            cache.layers.append(_LayerCache(**attn_cache, **ffn_cache))
    return x[:, 0, :], cache


def _score_tiles(shape) -> list[slice]:
    """Slices of the rows of a (rows, heads, Lq, L) score array, each of at most ``SCORE_TILE`` elements (or one
    row). A tile runs the whole array's per-head products and last-axis reductions on its rows, so tiled results
    match one pass over the whole array bit for bit (the row tiling of FlashAttention, Dao et al. 2022)."""
    step = max(1, SCORE_TILE // math.prod(shape[1:]))
    return [slice(start, min(start + step, shape[0])) for start in range(0, shape[0], step)]


def _softmax_tile(q, k, key_pad, b: slice, buf: np.ndarray) -> np.ndarray:
    """softmax(q k^T) on the rows ``b`` of (rows, heads, ·, ·) grids, keys at ``key_pad`` (or none) scoring -inf,
    built in the first rows of ``buf``. The backward rebuilds a tile with this, so its bits are the forward's."""
    scores = np.matmul(q[b], k[b].transpose(0, 1, 3, 2), out=buf[:b.stop - b.start])
    if key_pad is not None:
        np.copyto(scores, -np.inf, where=key_pad[b])
    return _softmax_inplace(scores)


def _attention(q, k, v, key_pad):
    """softmax(q k^T) v over (rows, heads, ·, ·) grids, one score tile at a time in one reused buffer. Returns the
    context, (rows, Lq, d), and that buffer if its one tile held the whole (rows, heads, Lq, L) probabilities,
    else None: a train run keeps no probabilities that take more than a tile, the backward rebuilds them."""
    shape = q.shape[:3] + k.shape[2:3]
    tiles = _score_tiles(shape)
    buf = np.empty((tiles[0].stop,) + shape[1:])
    ctx = np.empty((shape[0], shape[2], shape[1], v.shape[3]))  # heads merged as each tile's context is written
    for b in tiles:
        ctx[b] = (_softmax_tile(q, k, key_pad, b, buf) @ v[b]).transpose(0, 2, 1, 3)
    return ctx.reshape(shape[0], shape[2], -1), buf if len(tiles) == 1 else None


def _attn_forward(cfg, t, p, grid, sel, q_grid, key_pad, x_in, attn_drop, caching):
    """One layer's attention block (Wq/Wk/Wv, the tiled core, Wo, its LayerNorm) forward: returns ``x_mid`` and,
    if ``caching``, its fields of the layer's ``_LayerCache`` (else None). Arguments as ``_attn_backward``'s."""
    # 1/sqrt(head_dim) is folded into q, so the scores come out scaled (exactly so for a power of 2).
    q = x_in[sel] @ t[p + "attn.wq"] + t[p + "attn.bq"]
    q *= 1.0 / math.sqrt(cfg.head_dim)
    q = _split_heads(_to_grid(q, *q_grid), cfg.num_heads)
    k = _split_heads(_to_grid(x_in @ t[p + "attn.wk"], *grid), cfg.num_heads)
    v = _split_heads(_to_grid(x_in @ t[p + "attn.wv"] + t[p + "attn.bv"], *grid), cfg.num_heads)
    ctx, probs = _attention(q, k, v, key_pad)
    ctx = _from_grid(ctx, q_grid[0])
    attn_out = ctx @ t[p + "attn.wo"] + t[p + "attn.bo"]
    if attn_drop is not None:
        apply_dropout(attn_out, attn_drop, cfg.dropout_rate, out=attn_out)
    x_mid, xhat1, inv1 = _ln_forward(x_in[sel] + attn_out, t[p + "attn_ln.gain"], t[p + "attn_ln.bias"])
    return x_mid, dict(x_in=x_in, q=q, k=k, v=v, probs=probs, ctx=ctx, attn_drop=attn_drop, xhat1=xhat1,
                       inv1=inv1) if caching else None


def _ffn_forward(cfg, t, p, x_mid, ffn_drop, caching):
    """One layer's FFN block (W1, GELU, W2, its LayerNorm) forward: returns its output and, if ``caching``, its
    fields of the layer's ``_LayerCache`` (else None)."""
    h_pre = x_mid @ t[p + "ffn.w1"] + t[p + "ffn.b1"]
    h_cdf = gelu_cdf(h_pre)
    ffn_out = (h_pre * h_cdf) @ t[p + "ffn.w2"] + t[p + "ffn.b2"]
    if ffn_drop is not None:
        apply_dropout(ffn_out, ffn_drop, cfg.dropout_rate, out=ffn_out)
    x, xhat2, inv2 = _ln_forward(x_mid + ffn_out, t[p + "ffn_ln.gain"], t[p + "ffn_ln.bias"])
    return x, dict(h_pre=h_pre, h_cdf=h_cdf, ffn_drop=ffn_drop, xhat2=xhat2, inv2=inv2) if caching else None


def backward(params: EncoderParams, caches: list[EncoderCache], upstream_grad: np.ndarray) -> dict[str, np.ndarray]:
    """Exact reverse-mode gradients of the pooled output w.r.t. every parameter.

    ``upstream_grad`` has shape (batch, embed_dim) and is contracted with the
    pooled output's Jacobian; requires the caches produced by the matching
    forward pass. The caches are single-use: backward releases each layer's
    activations once its gradients are taken and builds the score gradient
    in the cached attention probabilities, if any, so a second call on them
    raises ``ValueError``. Each run of the forward fills its own gradient
    dict (taken from one queue by this thread and the pool's workers), and
    the dicts are summed in run order; a packed run adds no terms for PAD.
    ``token_emb`` gets a ``RowSparseGrad`` over the ids of the cells the runs
    hold, summed over every run's token gradients in run order; every other
    gradient is a dense array of its parameter's shape.
    """
    if caches is None:
        raise ValueError("backward requires the caches from a forward pass")
    if any(len(run.layers) != params.config.num_layers for run in caches):
        raise ValueError("encoder caches already consumed by a backward call; run the forward pass again")
    results = run_each(partial(_backward_rows, params), [(run, upstream_grad[run.batch_rows]) for run in caches])
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


def _softmax_backward(probs, dprobs, ctx, dctx, out):
    """Score gradient probs * (dprobs - rowsum(dprobs * probs)), built in ``out`` (``dprobs`` is overwritten).

    With dprobs = dctx v^T and ctx = probs v (per head), the row term
    sum_j dprobs_ij probs_ij equals dctx_i . ctx_i, a product over the head dim
    rather than the key axis (the identity FlashAttention's backward uses).
    Masked keys have prob 0 and thus zero score gradient.
    """
    dprobs -= (dctx * ctx).sum(axis=-1, keepdims=True)
    return np.multiply(dprobs, probs, out=out)


def _ffn_backward(cfg, t, p, lc: _LayerCache, dx, grads):
    """One layer's FFN block (its LayerNorm, W2, GELU, W1) backward: returns the gradient w.r.t. ``x_mid``."""
    dz2, dg, dbias = _ln_backward(dx, t[p + "ffn_ln.gain"], lc.xhat2, lc.inv2)
    grads[p + "ffn_ln.gain"] += dg
    grads[p + "ffn_ln.bias"] += dbias
    dffn_out = dz2 if lc.ffn_drop is None else apply_dropout(dz2, lc.ffn_drop, cfg.dropout_rate)
    # GELU output, recomputed from the cache as a temporary freed right after use.
    h_act = (lc.h_pre * lc.h_cdf).reshape(-1, cfg.ffn_dim)
    grads[p + "ffn.w2"] += h_act.T @ dffn_out.reshape(-1, cfg.embed_dim)
    del h_act
    grads[p + "ffn.b2"] += dffn_out.reshape(-1, cfg.embed_dim).sum(axis=0)
    dh_pre = gelu_grad(lc.h_pre, lc.h_cdf)
    dh_pre *= dffn_out @ t[p + "ffn.w2"].T
    del dffn_out
    x_mid = np.multiply(t[p + "attn_ln.gain"], lc.xhat1)  # the attention block's output, as _ln_forward built it
    x_mid += t[p + "attn_ln.bias"]
    grads[p + "ffn.w1"] += x_mid.reshape(-1, cfg.embed_dim).T @ dh_pre.reshape(-1, cfg.ffn_dim)
    del x_mid
    grads[p + "ffn.b1"] += dh_pre.reshape(-1, cfg.ffn_dim).sum(axis=0)
    return dz2 + dh_pre @ t[p + "ffn.w1"].T


def _attention_backward(q, k, v, ctx, dctx, probs, key_pad):
    """Gradients of ``_attention`` w.r.t. its q, k and v grids, given its context and the context's gradient as
    (rows, heads, ·, ·) grids: (dq, dk, dv), each (rows, L, d) with heads merged. ``probs`` is what ``_attention``
    returned; if None, each tile's probabilities are rebuilt by ``_softmax_tile``. One loop over the
    ``_score_tiles`` tiles takes dv, the score gradient (built over the probabilities), dq and dk of a tile while
    it is in cache. Each tile runs the whole array's per-head products on its rows, so the gradients match one
    pass over the whole array bit for bit (FlashAttention's backward, Dao et al. 2022, in exact float64)."""
    tiles = _score_tiles(q.shape[:3] + k.shape[2:3])
    buf = np.empty((tiles[0].stop,) + q.shape[1:3] + k.shape[2:3]) if probs is None else probs
    scratch = np.empty_like(buf)
    dq, dk, dv = (np.empty((a.shape[0], a.shape[2], a.shape[1], a.shape[3])) for a in (q, k, v))
    for b in tiles:
        tile = buf if probs is not None else _softmax_tile(q, k, key_pad, b, buf)
        dv[b] = (tile.transpose(0, 1, 3, 2) @ dctx[b]).transpose(0, 2, 1, 3)
        dprobs = np.matmul(dctx[b], v[b].transpose(0, 1, 3, 2), out=scratch[:b.stop - b.start])
        dscores = _softmax_backward(tile, dprobs, ctx[b], dctx[b], out=tile)
        dq_tile = dscores @ k[b]
        dq_tile *= 1.0 / math.sqrt(q.shape[3])
        dq[b] = dq_tile.transpose(0, 2, 1, 3)
        dk[b] = (dscores.transpose(0, 1, 3, 2) @ q[b]).transpose(0, 2, 1, 3)  # q carries the scale already
    return tuple(g.reshape(g.shape[0], g.shape[1], -1) for g in (dq, dk, dv))


def _attn_backward(cfg, t, p, grid, sel, q_grid, key_pad, lc: _LayerCache, dx_mid, grads):
    """One layer's attention block (its LayerNorm, Wo, the tiled core, Wq/Wk/Wv) backward: returns the gradient
    w.r.t. ``x_in``. ``grid`` is the run's (cells, rows, width); ``sel, q_grid`` the layer's query cells and
    ``key_pad`` the keys the forward masked."""
    d, heads = cfg.embed_dim, cfg.num_heads
    dz1, dg, dbias = _ln_backward(dx_mid, t[p + "attn_ln.gain"], lc.xhat1, lc.inv1)
    grads[p + "attn_ln.gain"] += dg
    grads[p + "attn_ln.bias"] += dbias
    dattn_out = dz1 if lc.attn_drop is None else apply_dropout(dz1, lc.attn_drop, cfg.dropout_rate)
    grads[p + "attn.wo"] += lc.ctx.reshape(-1, d).T @ dattn_out.reshape(-1, d)
    grads[p + "attn.bo"] += dattn_out.reshape(-1, d).sum(axis=0)
    dctx = _split_heads(_to_grid(dattn_out @ t[p + "attn.wo"].T, *q_grid), heads)
    del dattn_out

    grads_qkv = _attention_backward(lc.q, lc.k, lc.v, _split_heads(_to_grid(lc.ctx, *q_grid), heads), dctx, lc.probs,
                                    key_pad)
    # Queries (and the residual) come from the layer's cells only; keys and values from every cell.
    # The sums keep the order ((dz1 + dq Wq^T) + dk Wk^T) + dv Wv^T of an all-cells layer.
    dq, dk, dv = (_from_grid(g, c) for g, c in zip(grads_qkv, (q_grid[0], grid[0], grid[0])))
    x_all = lc.x_in.reshape(-1, d)
    grads[p + "attn.wq"] += lc.x_in[sel].reshape(-1, d).T @ dq.reshape(-1, d)
    grads[p + "attn.bq"] += dq.reshape(-1, d).sum(axis=0)
    grads[p + "attn.wk"] += x_all.T @ dk.reshape(-1, d)  # the key projection has no bias
    grads[p + "attn.wv"] += x_all.T @ dv.reshape(-1, d)
    grads[p + "attn.bv"] += dv.reshape(-1, d).sum(axis=0)
    dx = np.zeros_like(lc.x_in)
    dx[sel] = dz1 + dq @ t[p + "attn.wq"].T
    dx += dk @ t[p + "attn.wk"].T
    dx += dv @ t[p + "attn.wv"].T
    return dx


def _backward_rows(params, cache: EncoderCache, upstream_grad) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of one run of the stack (``cache``), each added once into its own zeroed array.

    Returns them (every parameter but ``token_emb``) with the gradient w.r.t.
    the run's embedded cells, held as ``_layout`` says, whose rows ``backward``
    sums per token id into the ``token_emb`` gradient. Consumes the cache: each
    layer's activations leave ``cache.layers`` once its gradients are taken.
    """
    cfg = params.config
    t = params.tensors
    grads = {name: np.zeros_like(arr) for name, arr in t.items() if name != "token_emb"}

    dx = upstream_grad[:, None, :]  # the last layer's one (CLS) row
    for i in reversed(range(cfg.num_layers)):
        p = f"layers.{i}."
        lc = cache.layers.pop()
        dx = _ffn_backward(cfg, t, p, lc, dx, grads)
        dx = _attn_backward(cfg, t, p, cache.grid, *cache.queries[i], cache.key_pad, lc, dx, grads)
    del lc

    if cache.emb_drop is not None:
        apply_dropout(dx, cache.emb_drop, cfg.dropout_rate, out=dx)
    de, dg, dbias = _ln_backward(dx, t["emb_ln.gain"], cache.xhat0, cache.inv0)
    grads["emb_ln.gain"] += dg
    grads["emb_ln.bias"] += dbias
    grads["pos_emb"][:cache.grid[2]] += _to_grid(de, *cache.grid).sum(axis=0)
    return grads, de
