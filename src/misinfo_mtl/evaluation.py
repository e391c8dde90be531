"""Evaluation harnesses: model scoring, task ablation, few-shot, event folds.

Every protocol is ``train_stage1`` then ``adapt`` (a fresh head on a copy of the stage-1 model) or ``finetune_task``;
all are deterministic given their seeds, audit-friendly (they return the exact id partitions they used) and
independent across folds/seeds/rows, so callers may parallelize them as separate processes.
"""

from dataclasses import dataclass

import numpy as np

from . import data as datamod
from .metrics import MetricsReport, average_reports, compute_report
from .multitask import MultiTaskModel, build_model, copy_dicts, encode_for_task, head_seed, register_task, score
from .tokenization import Vocabulary, build_vocab
from .training import TrainConfig, finetune_task, train_multitask


def evaluate_model(model: MultiTaskModel, task: str, examples) -> MetricsReport:
    """Score a model's predictions for one task over a list of examples.

    Predictions come from ``multitask.score`` (one forward pass over every
    example as given) and are compared with the gold labels in input order.
    """
    batch, labels = encode_for_task(model, task, examples)
    _, preds = score(model, task, batch, labels)
    return compute_report(preds.tolist(), labels.tolist(), model.tasks[task].labels)


def train_stage1(encoder_config, splits, train_config: TrainConfig, vocab: Vocabulary, verbose: bool = False):
    """Stage 1: ``train_multitask`` on a model over ``vocab`` with a head per task of ``splits``: (model, history)."""
    model = build_model(encoder_config, [s.train.spec for s in splits.values()], vocab=vocab)
    return train_multitask(model, splits, train_config, verbose=verbose)


def adapt(stage1: MultiTaskModel, split: datamod.SplitDataset, seed: int, train_config: TrainConfig,
          train_encoder: bool = True) -> MetricsReport:
    """Stage 2 for a task ``stage1`` lacks: fine-tune a fresh head (``head_seed(seed, task)``) on ``copy_dicts(stage1)``
    with ``split`` and score ``split.test``. ``train_encoder=False`` freezes the encoder. The adapted model is
    dropped once scored, so a loop never holds one adaptation's encoder through the next."""
    spec = split.train.spec
    model = register_task(copy_dicts(stage1), spec, head_seed(seed, spec.name))
    finetune_task(model, spec.name, split, train_config, train_encoder=train_encoder)
    return evaluate_model(model, spec.name, split.test.examples)


# --- few-shot adaptation ------------------------------------------------------


@dataclass(frozen=True)
class FewShotConfig:
    """k-shot adaptation settings; the published protocol uses k in {10, 25, 50}."""

    k: int
    seed: int = 0
    mode: str = "full-model"  # or "head-only" (frozen encoder)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in ("full-model", "head-only"):
            raise ValueError(f"mode must be 'full-model' or 'head-only', got {self.mode!r}")


@dataclass(frozen=True)
class FewShotResult:
    report: MetricsReport
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def check_fewshot_inputs(stage1_model: MultiTaskModel, unseen_dataset: datamod.Dataset, k: int) -> None:
    """Refuse a k that leaves no test rows and a task the model already has a head for."""
    if k >= unseen_dataset.size:
        raise ValueError(f"k={k} must be < dataset size {unseen_dataset.size}")
    name = unseen_dataset.spec.name
    if name in stage1_model.tasks:
        raise ValueError(f"task {name!r} is already registered; few-shot targets unseen tasks")


def fewshot_run(
    stage1_model: MultiTaskModel,
    unseen_dataset: datamod.Dataset,
    cfg: FewShotConfig,
    train_config: TrainConfig | None = None,
) -> FewShotResult:
    """Adapt to an unseen task from k examples and score the remaining N - k.

    ``adapt`` at ``cfg.seed``; "full-model" mode also updates the encoder while
    "head-only" freezes it. The k-shot sample doubles as the early-stopping
    validation set (there is nothing else to hold out).
    """
    check_fewshot_inputs(stage1_model, unseen_dataset, cfg.k)
    spec = unseen_dataset.spec
    train_config = train_config or TrainConfig()

    order = np.random.default_rng(cfg.seed).permutation(unseen_dataset.size)
    shots, test = (datamod.Dataset(spec=spec, examples=tuple(unseen_dataset.examples[i] for i in part))
                   for part in (order[: cfg.k], order[cfg.k :]))
    split = datamod.SplitDataset(train=shots, validation=shots, test=test)
    return FewShotResult(
        report=adapt(stage1_model, split, cfg.seed, train_config, train_encoder=(cfg.mode == "full-model")),
        train_ids=tuple(ex.id for ex in shots.examples),
        test_ids=tuple(ex.id for ex in test.examples),
    )


# --- task-combination ablation ---------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    subset: tuple[str, ...]
    report: MetricsReport


def train_vocab(splits, min_freq: int = 1, max_vocab: int | None = None) -> Vocabulary:
    """The vocabulary of every task's train texts, tasks in sorted order (``build_vocab``'s options)."""
    texts = [ex.text for task in sorted(splits) for ex in splits[task].train.examples]
    return build_vocab(texts, min_freq=min_freq, max_size=max_vocab)


def run_two_stage(
    encoder_config,
    splits,
    eval_task: str,
    train_config: TrainConfig,
    min_freq: int = 1, max_vocab: int | None = None,
) -> MetricsReport:
    """Stage-1 train on ``splits``, stage-2 fine-tune on ``eval_task``, score its test split."""
    model, _ = train_stage1(encoder_config, splits, train_config, train_vocab(splits, min_freq, max_vocab))
    finetune_task(model, eval_task, splits[eval_task], train_config)
    return evaluate_model(model, eval_task, splits[eval_task].test.examples)


def ablation_subsets(task_subsets, eval_task: str, datasets) -> list[tuple[str, ...]]:
    """Each subset as a sorted tuple.

    Refuses a subset given twice (in any order), one naming a task twice, one
    without ``eval_task`` and one naming a task with no dataset.
    """
    keys = [tuple(sorted(subset)) for subset in task_subsets]
    for i, key in enumerate(keys):
        if key in keys[:i]:
            raise ValueError(f"task subset {key} is given more than once")
        if len(set(key)) < len(key):
            raise ValueError(f"task subset {key} names a task more than once")
        if eval_task not in key:
            raise ValueError(f"eval task {eval_task!r} missing from subset {key}")
        for task in key:
            if task not in datasets:
                raise KeyError(f"no dataset provided for task {task!r}")
    return keys


def ablation_run(
    task_subsets,
    eval_task: str,
    datasets,
    encoder_config,
    train_config: TrainConfig,
    min_freq: int = 1, max_vocab: int | None = None,
) -> list[AblationRow]:
    """Train one two-stage model per task subset and score each on ``eval_task``.

    Every subset must contain ``eval_task`` and be given once. A singleton
    subset reduces to plain single-task training. Each subset builds its own
    vocabulary with ``min_freq`` and ``max_vocab``.
    """
    return [
        AblationRow(key, run_two_stage(encoder_config, {task: datasets[task] for task in key}, eval_task,
                                       train_config, min_freq, max_vocab))
        for key in ablation_subsets(task_subsets, eval_task, datasets)
    ]


# --- leave-one-event-out cross-validation -----------------------------------------


@dataclass(frozen=True)
class LoocvFold:
    event: str
    report: MetricsReport
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    train_events: tuple[str, ...]


@dataclass(frozen=True)
class LoocvResult:
    stage1_tasks: tuple[str, ...]
    folds: tuple[LoocvFold, ...]
    average: MetricsReport


def event_folds(stage1_datasets, eval_dataset: datamod.Dataset) -> list[datamod.EventFold]:
    """The eval task's leave-one-event-out folds; refused if ``stage1_datasets`` (the other tasks) is empty."""
    if not stage1_datasets:
        raise ValueError("no stage-1 tasks left after excluding the eval task")
    return datamod.leave_one_event_folds(eval_dataset)


def loocv_run(
    all_datasets,
    eval_dataset: datamod.Dataset,
    encoder_config,
    train_config: TrainConfig,
    min_freq: int = 1, max_vocab: int | None = None,
) -> LoocvResult:
    """Leave-one-event-out evaluation with an encoder trained without the eval task.

    Stage 1 trains on every dataset in ``all_datasets`` except the eval task
    (its data is excluded entirely, so no fold's test event can leak into the
    shared encoder or the vocabulary, ``train_vocab(..., min_freq, max_vocab)``).
    Each fold then ``adapt``s it to the remaining events (with a stratified
    carve-out for early stopping) and is scored on the held-out event.
    """
    eval_task = eval_dataset.spec.name
    stage1_splits = {t: ds for t, ds in all_datasets.items() if t != eval_task}
    folds = event_folds(stage1_splits, eval_dataset)

    stage1, _ = train_stage1(encoder_config, stage1_splits, train_config,
                             train_vocab(stage1_splits, min_freq, max_vocab))

    fold_results: list[LoocvFold] = []
    for i, fold in enumerate(folds):
        rest, held = datamod.carve_validation(fold.train, seed=train_config.seed + i)
        fold_results.append(LoocvFold(
            event=fold.event,
            report=adapt(stage1, datamod.SplitDataset(train=rest, validation=held, test=fold.test),
                         train_config.seed + i, train_config),
            train_ids=tuple(ex.id for ex in fold.train.examples),
            test_ids=tuple(ex.id for ex in fold.test.examples),
            train_events=tuple(sorted({ex.event for ex in fold.train.examples})),
        ))
    return LoocvResult(stage1_tasks=tuple(sorted(stage1_splits)), folds=tuple(fold_results),
                       average=average_reports([fold.report for fold in fold_results]))
