"""Two-stage training: joint multi-task optimization, then per-task fine-tuning.

Stage 1 realizes the summed multi-task objective stochastically: every step
draws one task-homogeneous batch from a balanced oversampling schedule and
applies one Adam update, so each epoch exposes every task to (nearly) the same
number of examples. Stage 2 continues training the jointly trained model on a
single task, selected by that task's validation loss.

The loop is single-threaded and fully determined by (datasets, config.seed);
independent runs can be parallelized as separate processes.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .encoder import RowSparseGrad, split_runs
from .multitask import (
    MultiTaskModel, assign_params, encode_for_task, flatten_params, require_task, score, task_step_gradients,
)
from .tokenization import Batch, width_groups

GRID_LEARNING_RATES = (5e-5, 5e-6, 5e-7)
GRID_BATCH_SIZES = (16, 32)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and loop settings; defaults follow the published recipe."""

    learning_rate: float = 5e-6
    batch_size: int = 32
    max_epochs: int = 15
    patience: int = 5
    max_seq_len: int = 128
    seed: int = 0
    lr_schedule: str = "linear-decay"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.patience > self.max_epochs:
            raise ValueError("patience must be <= max_epochs")
        for name in ("batch_size", "max_epochs", "patience", "max_seq_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.lr_schedule != "linear-decay":
            raise ValueError(f"unsupported lr_schedule {self.lr_schedule!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class EpochSchedule:
    """Deterministic sequence of task-homogeneous (task, index-batch) draws."""

    batches: tuple[tuple[str, tuple[int, ...]], ...]
    batch_size: int
    seed: int

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
    return EpochSchedule(
        batches=tuple(batches[i] for i in shuffled), batch_size=batch_size, seed=seed
    )


def width_grouped_batches(batches, lengths: dict[str, np.ndarray], seed: int) -> list[tuple[str, np.ndarray]]:
    """Regroup each task's scheduled rows so that rows of one width class share a batch.

    A task's rows (``lengths`` holds each row's real length) are pooled, stably
    sorted by width class, cut back into its batch sizes and dealt to its slots
    in an order drawn from ``seed``. Every slot keeps its task and batch size;
    a task with one slot, or whose rows share one class, keeps its batches.
    """
    out = [(task, np.asarray(idx, dtype=np.int64)) for task, idx in batches]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 209]))  # the dropout stream uses 208
    for task in sorted(lengths):
        slots = [s for s, (t, _) in enumerate(out) if t == task]
        if len(slots) < 2:
            continue
        pool = np.concatenate([out[s][1] for s in slots])
        groups = width_groups(lengths[task][pool])
        if len(groups) == 1:
            continue
        pool = pool[np.concatenate(groups)]
        start = 0
        for s in rng.permutation(slots):
            size = out[s][1].size
            out[s] = (task, pool[start : start + size])
            start += size
    return out


def lr_at(step: int, total_steps: int, base_lr: float) -> float:
    """Linear decay: base_lr * (1 - step / total_steps)."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return base_lr * (1.0 - step / total_steps)


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
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update for every key present in ``grads``.

    Keys without gradients keep their exact array objects (no moment decay, no
    update), which is what guarantees head isolation across tasks. lr == 0 is
    a bit-exact parameter no-op (moments still advance). A ``RowSparseGrad``
    still gets dense Adam: every row's moments decay and every row moves, and
    only the gradient terms and the finiteness check run on its rows alone.
    Parameters and moments come out bit-identical to the update with the
    dense gradient, whose other rows would add exact zeros.
    """
    if lr < 0:
        raise ValueError("lr must be >= 0")
    new_params = dict(params)
    for key in sorted(grads):
        g = grads[key]
        if key not in params:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        shape = params[key].shape
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
        rows = slice(None) if ids is None else ids
        # m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g^2, in place
        tmp = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m[rows] += tmp
        if ids is not None and beta1 <= 0.5:
            # Only then can beta1 * m round a negative subnormal to -0.0, which the dense
            # gradient's +0.0 term on the other rows turns into +0.0.
            m += 0.0
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v *= beta2
        v[rows] += tmp
        if lr == 0.0:
            continue
        # params - lr * m_hat / (sqrt(v_hat) + eps), built in fresh arrays
        denom = np.divide(v, 1.0 - beta2**t)
        np.sqrt(denom, out=denom)
        denom += eps
        step = np.divide(m, 1.0 - beta1**t)
        step *= lr
        step /= denom
        new_params[key] = np.subtract(params[key], step, out=step)
    return new_params, state


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
    train_pad_fraction: dict[str, float]  # 1 - real tokens / cells the encoder computes, over the epoch
    val_loss: dict[str, float]
    val_accuracy: dict[str, float]
    val_macro_f1: dict[str, float]
    val_loss_total: float
    lr: float

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class TrainHistory:
    epochs: list[EpochRecord]
    best_epoch: int
    stop_reason: str  # "early_stopping", "max_epochs" or "diverged" (a step or validation loss was not finite)

    @property
    def best_val_loss(self) -> float:
        return self.epochs[self.best_epoch - 1].val_loss_total


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

    Trains the encoder (optionally) plus the heads of the tasks in ``splits``,
    early-stops on the summed validation loss of those tasks and returns a new
    model holding the best-epoch parameters. The input model is not modified.
    A non-finite step or validation loss stops training ("diverged") at the
    best epoch so far, or raises ``ValueError`` if no epoch has finished.
    """
    if model.vocab is None:
        raise ValueError("model has no vocabulary attached")
    if not splits:
        raise ValueError("no tasks to train on")
    for task in splits:
        if task not in model.tasks:
            raise KeyError(f"task {task!r} is not registered on the model")

    model = model.clone()
    # The positional table is the hard length bound.
    seq_len = min(config.max_seq_len, model.config.max_seq_len)
    encoded = {}
    for task in sorted(splits):
        spec = model.tasks[task]
        split = splits[task]
        if len(split.train.examples) == 0:
            raise ValueError(f"task {task!r} has an empty train split")
        if len(split.validation.examples) == 0:
            raise ValueError(f"task {task!r} has an empty validation split")
        encoded[task] = {
            "train": encode_for_task(split.train.examples, spec, model.vocab, seq_len),
            "val": encode_for_task(split.validation.examples, spec, model.vocab, seq_len),
        }

    sizes = {task: encoded[task]["train"][0].size for task in encoded}
    lengths = {task: encoded[task]["train"][0].lengths for task in encoded}
    batches_per_epoch = len(sizes) * math.ceil(max(sizes.values()) / config.batch_size)
    # Decay horizon is fixed up front so lr is defined even under early stopping.
    total_steps = batches_per_epoch * config.max_epochs
    opt_state = AdamState()
    drop_rng = np.random.default_rng(np.random.SeedSequence([config.seed, 208]))
    stopper = EarlyStopper(config.patience)
    history: list[EpochRecord] = []
    best_flat: dict[str, np.ndarray] | None = None
    stop_reason = "max_epochs"
    step = 0
    current_lr = config.learning_rate

    for epoch in range(1, config.max_epochs + 1):
        seed = epoch_seed(config.seed, epoch)
        schedule = make_epoch_schedule(sizes, config.batch_size, seed)
        loss_sums: dict[str, float] = {t: 0.0 for t in sizes}
        loss_counts: dict[str, int] = {t: 0 for t in sizes}
        cells = {t: np.zeros(2, dtype=np.int64) for t in sizes}  # real tokens, computed cells
        for task, rows in width_grouped_batches(schedule.batches, lengths, seed):
            batch, labels = encoded[task]["train"]
            batch = Batch(batch.ids[rows], lengths[task][rows])
            cells[task] += (batch.lengths.sum(),
                            sum((c.stop - c.start) * w for *_, cuts in split_runs(batch.lengths) for c, w in cuts))
            loss, grads = task_step_gradients(
                model, task, batch, labels[rows],
                train_mode=True, rng=drop_rng, train_encoder=train_encoder,
            )
            if not math.isfinite(loss):
                stop_reason = "diverged"
                break
            current_lr = lr_at(step, total_steps, config.learning_rate)
            flat = flatten_params(model)
            updated, opt_state = adam_step(
                flat, grads, opt_state, current_lr,
                beta1=config.adam_beta1, beta2=config.adam_beta2, eps=config.adam_epsilon,
            )
            assign_params(model, updated)
            loss_sums[task] += loss
            loss_counts[task] += 1
            step += 1
        if stop_reason == "diverged":
            if best_flat is None:
                raise ValueError(f"training diverged before any epoch finished: task {task!r} has loss {loss} "
                                 f"at epoch {epoch}, step {step + 1}")
            break

        val_loss: dict[str, float] = {}
        val_reports: dict[str, metrics.MetricsReport] = {}
        for task in sorted(sizes):
            batch, labels = encoded[task]["val"]
            val_loss[task], preds = score(model, task, batch, labels)
            val_reports[task] = metrics.compute_report(preds.tolist(), labels.tolist(), model.tasks[task].labels)
        val_total = sum(val_loss.values())
        if not math.isfinite(val_total):
            if best_flat is None:
                raise ValueError(f"training diverged before any epoch finished: validation loss is {val_total} "
                                 f"at epoch {epoch}")
            stop_reason = "diverged"
            break
        record = EpochRecord(
            epoch=epoch,
            train_loss={t: loss_sums[t] / max(loss_counts[t], 1) for t in sorted(sizes)},
            train_pad_fraction={t: float(1.0 - cells[t][0] / cells[t][1]) for t in sorted(sizes)},
            val_loss=val_loss,
            val_accuracy={t: r.accuracy for t, r in val_reports.items()},
            val_macro_f1={t: r.macro_f1 for t, r in val_reports.items()},
            val_loss_total=val_total,
            lr=current_lr,
        )
        history.append(record)
        if verbose:
            print(f"[epoch {epoch:02d}] val_loss={val_total:.4f} " +
                  " ".join(f"{t}:{val_loss[t]:.4f}" for t in sorted(val_loss)))

        should_stop = stopper.update(epoch, val_total)
        if stopper.best_epoch == epoch:
            best_flat = {k: v.copy() for k, v in flatten_params(model).items()}
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
    by summed validation loss; the returned model carries the best-epoch
    parameters and the input model is left untouched.
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
    model: MultiTaskModel, task: str, dataset, config: TrainConfig, verbose: bool = False
) -> tuple[MultiTaskModel, TrainHistory]:
    """Stage 2: specialize the stage-1 model on one task.

    Continues training the encoder plus that task's head with a fresh optimizer
    and decay horizon, early-stopping on the task's own validation loss. All
    other heads come back bit-identical.
    """
    require_task(model, task)
    return _fit(model, {task: dataset}, config, train_encoder=True, verbose=verbose)


@dataclass(frozen=True)
class GridPoint:
    learning_rate: float
    batch_size: int
    best_val_loss: float
    best_epoch: int


def hyperparameter_grid(
    learning_rates=GRID_LEARNING_RATES, batch_sizes=GRID_BATCH_SIZES
) -> list[tuple[float, int]]:
    """The (learning rate, batch size) grid used for validation-loss search."""
    return [(lr, bs) for lr in learning_rates for bs in batch_sizes]


def grid_search(
    model_factory,
    datasets,
    config: TrainConfig,
    learning_rates=GRID_LEARNING_RATES,
    batch_sizes=GRID_BATCH_SIZES,
    verbose: bool = False,
) -> tuple[TrainConfig, list[GridPoint]]:
    """Train one model per grid point; pick the config with the best summed val loss.

    ``model_factory`` must return a fresh, identically initialized model per call.
    """
    points: list[GridPoint] = []
    for lr, bs in hyperparameter_grid(learning_rates, batch_sizes):
        cfg = replace(config, learning_rate=lr, batch_size=bs)
        _, hist = train_multitask(model_factory(), datasets, cfg, verbose=verbose)
        points.append(
            GridPoint(learning_rate=lr, batch_size=bs, best_val_loss=hist.best_val_loss, best_epoch=hist.best_epoch)
        )
        if verbose:
            print(f"[grid] lr={lr:g} batch={bs} best_val={hist.best_val_loss:.4f}")
    best = min(points, key=lambda p: p.best_val_loss)
    return replace(config, learning_rate=best.learning_rate, batch_size=best.batch_size), points
