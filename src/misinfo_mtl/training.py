"""Two-stage training: joint multi-task optimization, then per-task fine-tuning.

Stage 1 realizes the summed multi-task objective stochastically: every step
draws one task-homogeneous batch from a balanced oversampling schedule and
applies one Adam update, so each epoch exposes every task to (nearly) the same
number of examples. Stage 2 continues training the jointly trained model on a
single task, selected by that task's validation loss.

A run is fully determined by (datasets, config.seed): the encoder spreads a
step's runs, and Adam a large parameter's row blocks, over one thread pool, but
the results do not depend on the CPU count. Independent runs can be
parallelized as separate processes.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import metrics
from .encoder import RowSparseGrad, run_each, split_runs
from .multitask import (
    MultiTaskModel, assign_params, encode_for_task, flatten_params, require_task, score, task_step_gradients,
)
from .tokenization import Batch


@dataclass(frozen=True)
class TrainConfig:
    """Loop settings; defaults follow the published recipe.

    The rest of the recipe is fixed: Adam at ``ADAM_BETA1``, ``ADAM_BETA2``
    and ``ADAM_EPS``, with the learning rate decayed linearly to 0 over
    ``max_epochs`` (``lr_at``), on texts cut at the encoder's ``max_seq_len``.
    """

    learning_rate: float = 5e-6
    batch_size: int = 32
    max_epochs: int = 15
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.patience > self.max_epochs:
            raise ValueError("patience must be <= max_epochs")
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class EpochSchedule:
    """Deterministic sequence of task-homogeneous (task, index-batch) draws."""

    batches: tuple[tuple[str, tuple[int, ...]], ...]

    def example_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for task, idx in self.batches:
            counts[task] = counts.get(task, 0) + len(idx)
        return counts


def make_epoch_schedule(dataset_sizes: dict[str, int], batch_size: int, seed: int) -> EpochSchedule:
    """Balanced oversampling schedule for one epoch.

    Every task contributes ceil(max_size / batch_size) batches. Tasks at the
    maximum size are shuffled without replacement; smaller tasks draw indices
    uniformly with replacement up to the maximum size. Batch order is a seeded
    global shuffle across tasks.
    """
    if not dataset_sizes:
        raise ValueError("empty task set")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    for task, n in dataset_sizes.items():
        if n < 1:
            raise ValueError(f"task {task!r} has no examples")
    n_star = max(dataset_sizes.values())
    num_batches = math.ceil(n_star / batch_size)
    rng = np.random.default_rng(seed)
    batches: list[tuple[str, tuple[int, ...]]] = []
    for task in sorted(dataset_sizes):
        n = dataset_sizes[task]
        if n == n_star:
            order = rng.permutation(n)
        else:
            order = rng.integers(0, n, size=n_star)
        for b in range(num_batches):
            chunk = order[b * batch_size : (b + 1) * batch_size]
            batches.append((task, tuple(int(i) for i in chunk)))
    shuffled = rng.permutation(len(batches))
    return EpochSchedule(batches=tuple(batches[i] for i in shuffled))


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay: base_lr * (1 - step / total_steps)."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * (1.0 - step / total_steps)


# Adam's recipe constants. At beta1 > 0.5, beta1 * m never rounds a negative subnormal moment
# to -0.0, so updating only a RowSparseGrad's rows keeps the dense update's bits.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Most elements in one Adam job: a larger parameter is updated in blocks of whole rows on the run pool.
ADAM_BLOCK = 1 << 17


@dataclass
class AdamState:
    """Per-parameter first/second moments and update counts."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: dict[str, int] = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update for every key present in ``grads``.

    Keys without gradients keep their exact array objects (no moment decay, no
    update), which is what guarantees head isolation across tasks. lr == 0 is
    a bit-exact parameter no-op (moments still advance). Parameter arrays are
    only read, never written: an updated parameter is a fresh array. A
    ``RowSparseGrad`` still gets dense Adam: every row's moments decay and
    every row moves, and only the gradient terms and the finiteness check run
    on its rows alone. Parameters and moments come out bit-identical to the
    update with the dense gradient, whose other rows would add exact zeros.

    A key's gradient is checked before any of its state changes. A parameter
    of at most ``ADAM_BLOCK`` elements is then updated whole on this thread;
    a larger one in blocks of whole rows, run by ``encoder.run_each`` on this
    thread and the pool's workers, each block doing the whole update of its
    rows into one fresh output array. Every element gets the same operations
    in the same order either way, so the bits do not depend on the CPU count.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    new_params = dict(params)
    for key in sorted(grads):
        g = grads[key]
        if key not in params:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        param = params[key]
        shape = param.shape
        ids = g.ids if isinstance(g, RowSparseGrad) else None
        if g.shape != (shape if ids is None else (ids.size,) + shape[1:]):
            raise ValueError(f"gradient shape {g.shape} does not fit parameter {key!r} of shape {shape}")
        if ids is not None and (ids.ndim != 1 or ids.size and (
                ids[0] < 0 or ids[-1] >= shape[0] or np.any(ids[1:] <= ids[:-1]))):
            raise ValueError(f"gradient rows for {key!r} must be sorted, unique and in [0, {shape[0]})")
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for {key!r}")
        if key not in state.m:
            state.m[key] = np.zeros(shape)
            state.v[key] = np.zeros(shape)
            state.t[key] = 0
        state.t[key] += 1
        t = state.t[key]
        m, v = state.m[key], state.v[key]
        if param.size <= ADAM_BLOCK:
            new = _adam_rows(lr, t, param, g, ids, m, v)
        else:
            new = None if lr == 0.0 else np.empty(shape)
            block_rows = max(1, ADAM_BLOCK * shape[0] // param.size)
            bounds = [*range(0, shape[0], block_rows), shape[0]]
            cuts = bounds if ids is None else np.searchsorted(ids, bounds).tolist()  # each block's slice of ids
            jobs = []
            for r0, r1, lo, hi in zip(bounds, bounds[1:], cuts, cuts[1:]):
                part = (g[r0:r1], None) if ids is None else (g[lo:hi], ids[lo:hi] - r0)
                jobs.append((param[r0:r1], *part, m[r0:r1], v[r0:r1], None if new is None else new[r0:r1]))
            run_each(partial(_adam_rows, lr, t), jobs)
        if new is not None:
            new_params[key] = new
    return new_params, state


def _adam_rows(lr, t, param, g, ids, m, v, out=None):
    """Adam at step ``t`` for some rows: ``g`` holds the gradients of rows ``ids`` (None: every row).

    Advances ``m`` and ``v`` in place. Returns None at lr == 0, else the new parameter rows, written to
    ``out`` if given and to a fresh array otherwise.
    """
    rows = slice(None) if ids is None else ids
    # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2, in place
    tmp = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m[rows] += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v[rows] += tmp
    if lr == 0.0:
        return None
    # param - lr * m_hat / (sqrt(v_hat) + eps); the denominator is built where the result goes
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=out)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = np.divide(m, 1.0 - ADAM_BETA1**t)
    step *= lr
    step /= denom
    return np.subtract(param, step, out=denom)


class EarlyStopper:
    """Stop when the monitored value has not strictly improved for `patience` epochs."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.best_epoch: int | None = None
        self.best_value = math.inf

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch's value; True means training should stop after it."""
        if not math.isfinite(value):
            raise ValueError(f"monitored value at epoch {epoch} is not finite: {value}")
        if value < self.best_value:
            self.best_value = value
            self.best_epoch = epoch
        return epoch - self.best_epoch >= self.patience


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: dict[str, float]
    train_pad_fraction: dict[str, float]  # 1 - real tokens / cells of the runs' attention grids, over the epoch
    val_loss: dict[str, float]
    val_accuracy: dict[str, float]
    val_macro_f1: dict[str, float]
    val_loss_total: float
    lr: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord]
    best_epoch: int
    stop_reason: str  # "early_stopping", "max_epochs" or "diverged" (a step or validation loss was not finite)


def epoch_seed(base_seed: int, epoch: int) -> int:
    """Per-epoch schedule seed derived from the run seed (stable across reruns)."""
    return base_seed * 1_000_003 + epoch


def _fit(
    model: MultiTaskModel,
    splits,
    config: TrainConfig,
    train_encoder: bool = True,
    verbose: bool = False,
) -> tuple[MultiTaskModel, TrainHistory]:
    """Shared training core over a task->SplitDataset mapping.

    Trains the encoder (optionally) plus the heads of the tasks in ``splits``
    in place, early-stops on the summed validation loss of those tasks and
    returns ``model`` holding the best-epoch parameters. Updates are swapped
    into ``model``'s dicts; no parameter array is written into or copied, so
    a caller that needs the input again passes ``multitask.copy_dicts(model)``.
    A non-finite step or validation loss stops training ("diverged") at the
    best epoch so far, or raises ``ValueError`` if no epoch has finished.
    """
    for task in splits:
        require_task(model, task)
    if not splits:
        raise ValueError("no tasks to train on")
    encoded = {}
    for task in sorted(splits):
        encoded[task] = {}
        for part in ("train", "validation"):
            examples = getattr(splits[task], part).examples
            if not examples:
                raise ValueError(f"task {task!r} has an empty {part} split")
            encoded[task][part] = encode_for_task(model, task, examples)

    sizes = {task: encoded[task]["train"][0].size for task in encoded}
    batches_per_epoch = len(sizes) * math.ceil(max(sizes.values()) / config.batch_size)
    # Decay horizon is fixed up front so lr is defined even under early stopping.
    total_steps = batches_per_epoch * config.max_epochs
    opt_state = AdamState()
    drop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 208]))
    stopper = EarlyStopper(config.patience)
    history: list[EpochRecord] = []
    best_flat: dict[str, np.ndarray] | None = None
    stop_reason = "max_epochs"
    diverged = None  # the reason, once a step or validation loss is not finite
    step = 0
    current_lr = config.learning_rate

    for epoch in range(1, config.max_epochs + 1):
        schedule = make_epoch_schedule(sizes, config.batch_size, epoch_seed(config.seed, epoch))
        losses: dict[str, list[float]] = {t: [] for t in sizes}  # every task has a batch in every epoch
        cells = {t: np.zeros(2, dtype=np.int64) for t in sizes}  # real tokens, computed cells
        for task, idx in schedule.batches:
            batch, labels = encoded[task]["train"]
            rows = np.asarray(idx)
            batch = Batch(batch.ids[rows], batch.lengths[rows])
            cells[task] += batch.lengths.sum(), sum(run.size * width for run, width in split_runs(batch.lengths))
            loss, grads = task_step_gradients(
                model, task, batch, labels[rows],
                train_mode=True, rng=drop_rng, train_encoder=train_encoder,
            )
            if not math.isfinite(loss):
                diverged = f"task {task!r} has loss {loss} at epoch {epoch}, step {step + 1}"
                break
            current_lr = lr_at(step, total_steps, config.learning_rate)
            # One parameter generation between steps: the old arrays die as the updated ones are assigned,
            # and the gradients before the next forward (adam_step updates opt_state in place).
            assign_params(model, adam_step(flatten_params(model), grads, opt_state, current_lr)[0])
            del grads
            losses[task].append(loss)
            step += 1
        else:
            val_loss: dict[str, float] = {}
            val_reports: dict[str, metrics.MetricsReport] = {}
            for task in sorted(sizes):
                batch, labels = encoded[task]["validation"]
                val_loss[task], preds = score(model, task, batch, labels)
                val_reports[task] = metrics.compute_report(preds.tolist(), labels.tolist(), model.tasks[task].labels)
            val_total = sum(val_loss.values())
            if not math.isfinite(val_total):
                diverged = f"validation loss is {val_total} at epoch {epoch}"
        if diverged is not None:
            if not history:
                raise ValueError(f"training diverged before any epoch finished: {diverged}")
            stop_reason = "diverged"
            break
        history.append(EpochRecord(
            epoch=epoch,
            train_loss={t: sum(losses[t]) / len(losses[t]) for t in sorted(sizes)},
            train_pad_fraction={t: float(1.0 - cells[t][0] / cells[t][1]) for t in sorted(sizes)},
            val_loss=val_loss,
            val_accuracy={t: r.accuracy for t, r in val_reports.items()},
            val_macro_f1={t: r.macro_f1 for t, r in val_reports.items()},
            val_loss_total=val_total,
            lr=current_lr,
        ))
        if verbose:
            print(f"[epoch {epoch:02d}] val_loss={val_total:.4f} " +
                  " ".join(f"{t}:{val_loss[t]:.4f}" for t in sorted(val_loss)))

        should_stop = stopper.update(epoch, val_total)
        if stopper.best_epoch == epoch:
            best_flat = flatten_params(model)  # references: adam_step never writes into a parameter array
        if should_stop:
            stop_reason = "early_stopping"
            break

    assert best_flat is not None and stopper.best_epoch is not None
    assign_params(model, best_flat)
    return model, TrainHistory(epochs=history, best_epoch=stopper.best_epoch, stop_reason=stop_reason)


def train_multitask(
    model: MultiTaskModel, datasets, config: TrainConfig, verbose: bool = False
) -> tuple[MultiTaskModel, TrainHistory]:
    """Stage 1: jointly train the encoder and every registered task head.

    ``datasets`` maps every registered task to its SplitDataset. Selection is
    by summed validation loss. ``model`` is trained in place (see ``_fit``) and
    returned carrying the best-epoch parameters.
    """
    registered = set(model.tasks)
    provided = set(datasets)
    if registered != provided:
        raise ValueError(
            f"datasets must cover exactly the registered tasks; "
            f"missing={sorted(registered - provided)} extra={sorted(provided - registered)}"
        )
    return _fit(model, datasets, config, train_encoder=True, verbose=verbose)


def finetune_task(
    model: MultiTaskModel, task: str, dataset, config: TrainConfig, train_encoder: bool = True, verbose: bool = False
) -> tuple[MultiTaskModel, TrainHistory]:
    """Stage 2: specialize the stage-1 model on one task.

    Continues training the encoder (unless ``train_encoder`` is false) plus that
    task's head in place (see ``_fit``) with a fresh optimizer and decay horizon,
    early-stopping on the task's own validation loss. All other heads keep their arrays.
    """
    return _fit(model, {task: dataset}, config, train_encoder=train_encoder, verbose=verbose)

