"""Evaluation harnesses: model scoring, task ablation, few-shot, event folds.

The three protocols are deterministic given their seeds, audit-friendly (they
return the exact id partitions they used) and independent across
folds/seeds/rows, so callers may parallelize them as separate processes.
"""

import importlib.resources
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import data as datamod
from . import training
from .metrics import MetricsReport, average_reports, compute_report
from .multitask import MultiTaskModel, build_model, encode_for_task, head_seed, register_task, require_task, score
from .tokenization import Vocabulary, build_vocab
from .training import TrainConfig, finetune_task, train_multitask


def published_targets() -> dict:
    """Published full-scale reference numbers for the misinformation tasks.

    Bundled for documentation and comparison; produced with a pretrained
    355M-parameter encoder on the original licensed corpora, so the desk-scale
    stand-in cannot reproduce them.
    """
    blob = importlib.resources.files("misinfo_mtl").joinpath("published_targets.json").read_text("utf-8")
    return json.loads(blob)


def evaluate_model(model: MultiTaskModel, task: str, examples) -> MetricsReport:
    """Score a model's predictions for one task over a list of examples.

    Predictions come from ``multitask.score`` (one forward pass over every
    example, input order restored) and are compared with the gold labels in
    input order.
    """
    spec = require_task(model, task)
    if model.vocab is None:
        raise ValueError("model has no vocabulary attached")
    batch, labels = encode_for_task(examples, spec, model.vocab, model.config.max_seq_len)
    _, preds = score(model, task, batch, labels)
    return compute_report(preds.tolist(), labels.tolist(), spec.labels)


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
    task: str
    k: int
    mode: str
    seed: int
    report: MetricsReport
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    model: MultiTaskModel  # the adapted copy (handy for audits and reuse)


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

    A fresh head is registered for the unseen task; "full-model" mode also
    updates the encoder while "head-only" freezes it. The k-shot sample doubles
    as the early-stopping validation set (there is nothing else to hold out).
    """
    check_fewshot_inputs(stage1_model, unseen_dataset, cfg.k)
    n = unseen_dataset.size
    spec = unseen_dataset.spec
    train_config = train_config or TrainConfig()

    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    train_examples = [unseen_dataset.examples[i] for i in order[: cfg.k]]
    test_examples = [unseen_dataset.examples[i] for i in order[cfg.k :]]

    model = stage1_model.clone()
    register_task(model, spec, head_seed(cfg.seed, spec.name))
    shots = datamod.Dataset(spec=spec, examples=tuple(train_examples))
    split = datamod.SplitDataset(
        train=shots, validation=shots, test=datamod.Dataset(spec=spec, examples=tuple(test_examples)),
        seed=cfg.seed, ratios=(1.0, 0.0, 0.0),
    )
    adapted, _ = training._fit(
        model, {spec.name: split}, train_config, train_encoder=(cfg.mode == "full-model")
    )
    report = evaluate_model(adapted, spec.name, test_examples)
    return FewShotResult(
        task=spec.name,
        k=cfg.k,
        mode=cfg.mode,
        seed=cfg.seed,
        report=report,
        train_ids=tuple(ex.id for ex in train_examples),
        test_ids=tuple(ex.id for ex in test_examples),
        model=adapted,
    )


# --- task-combination ablation ---------------------------------------------------


@dataclass(frozen=True)
class AblationRow:
    subset: tuple[str, ...]
    report: MetricsReport
    stage1_best_epoch: int
    stage2_best_epoch: int


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
):
    """Stage-1 train on ``splits``, stage-2 fine-tune on ``eval_task``, score its test split."""
    vocab = train_vocab(splits, min_freq, max_vocab)
    config = replace(encoder_config, vocab_size=vocab.size)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    stage1, hist1 = train_multitask(model, splits, train_config)
    stage2, hist2 = finetune_task(stage1, eval_task, splits[eval_task], train_config)
    report = evaluate_model(stage2, eval_task, splits[eval_task].test.examples)
    return report, hist1, hist2


def ablation_run(
    task_subsets,
    eval_task: str,
    datasets,
    encoder_config,
    train_config: TrainConfig,
    min_freq: int = 1, max_vocab: int | None = None,
) -> list[AblationRow]:
    """Train one two-stage model per task subset and score each on ``eval_task``.

    Every subset must contain ``eval_task``; duplicate subsets are dropped with
    a warning. A singleton subset reduces to plain single-task training. Each
    subset builds its own vocabulary with ``min_freq`` and ``max_vocab``.
    """
    seen: set[tuple[str, ...]] = set()
    rows: list[AblationRow] = []
    for subset in task_subsets:
        key = tuple(sorted(subset))
        if eval_task not in key:
            raise ValueError(f"eval task {eval_task!r} missing from subset {key}")
        for task in key:
            if task not in datasets:
                raise KeyError(f"no dataset provided for task {task!r}")
        if key in seen:
            warnings.warn(f"duplicate task subset {key} skipped", stacklevel=2)
            continue
        seen.add(key)
        splits = {task: datasets[task] for task in key}
        report, hist1, hist2 = run_two_stage(encoder_config, splits, eval_task, train_config, min_freq, max_vocab)
        rows.append(
            AblationRow(
                subset=key,
                report=report,
                stage1_best_epoch=hist1.best_epoch,
                stage2_best_epoch=hist2.best_epoch,
            )
        )
    return rows


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


def loocv_run(
    all_datasets,
    eval_dataset: datamod.Dataset,
    encoder_config,
    train_config: TrainConfig,
    val_fraction: float = 0.1,
    min_freq: int = 1, max_vocab: int | None = None,
) -> LoocvResult:
    """Leave-one-event-out evaluation with an encoder trained without the eval task.

    Stage 1 trains on every dataset in ``all_datasets`` except the eval task
    (its data is excluded entirely, so no fold's test event can leak into the
    shared encoder or the vocabulary, ``train_vocab(..., min_freq, max_vocab)``).
    Each fold then registers a fresh head, fine-tunes on the remaining events
    (with a stratified carve-out for early stopping) and is scored on the
    held-out event.
    """
    eval_task = eval_dataset.spec.name
    stage1_splits = {t: ds for t, ds in all_datasets.items() if t != eval_task}
    if not stage1_splits:
        raise ValueError("no stage-1 tasks left after excluding the eval task")
    folds = datamod.leave_one_event_folds(eval_dataset)

    vocab = train_vocab(stage1_splits, min_freq, max_vocab)
    config = replace(encoder_config, vocab_size=vocab.size)
    model = build_model(config, [stage1_splits[t].train.spec for t in sorted(stage1_splits)], vocab=vocab)
    stage1, _ = train_multitask(model, stage1_splits, train_config)

    fold_results: list[LoocvFold] = []
    reports: list[MetricsReport] = []
    for i, fold in enumerate(folds):
        fold_model = stage1.clone()
        register_task(fold_model, eval_dataset.spec, head_seed(train_config.seed + i, eval_task))
        rest, held = datamod.carve_validation(
            fold.train, fraction=val_fraction, seed=train_config.seed + i
        )
        split = datamod.SplitDataset(
            train=rest, validation=held, test=fold.test,
            seed=train_config.seed + i, ratios=(1.0 - val_fraction, val_fraction, 0.0),
        )
        adapted, _ = finetune_task(fold_model, eval_task, split, train_config)
        report = evaluate_model(adapted, eval_task, fold.test.examples)
        reports.append(report)
        fold_results.append(
            LoocvFold(
                event=fold.event,
                report=report,
                train_ids=tuple(ex.id for ex in fold.train.examples),
                test_ids=tuple(ex.id for ex in fold.test.examples),
                train_events=tuple(sorted({ex.event for ex in fold.train.examples})),
            )
        )
    return LoocvResult(
        stage1_tasks=tuple(sorted(stage1_splits)),
        folds=tuple(fold_results),
        average=average_reports(reports),
    )
