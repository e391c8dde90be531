"""Classification metrics: accuracy, macro-F1, per-class breakdowns, seed stats.

All functions are pure. Per-class scores use the zero-division -> 0 convention,
and macro-F1 averages over *all* declared classes, including classes absent
from the reference labels.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: float


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, macro-F1 and per-class scores; optionally mean +- std over runs."""

    accuracy: float
    macro_f1: float
    per_class: tuple[ClassMetrics, ...]
    num_examples: int
    n_runs: int = 1
    accuracy_std: float = 0.0
    macro_f1_std: float = 0.0
    std_defined: bool = False


def _confusion(preds, labels, num_classes: int | None = None) -> np.ndarray:
    """(C, C) counts, gold class by row and predicted class by column; C defaults to the largest index + 1."""
    if len(preds) != len(labels):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    if len(preds) == 0:
        raise ValueError("empty prediction list")
    preds, labels = np.asarray(preds, dtype=np.int64), np.asarray(labels, dtype=np.int64)
    both = np.concatenate([preds, labels])
    num_classes = int(both.max()) + 1 if num_classes is None else num_classes
    if both.min() < 0 or both.max() >= num_classes:
        raise ValueError(f"class index out of range [0, {num_classes})")
    return np.bincount(labels * num_classes + preds, minlength=num_classes**2).reshape(num_classes, num_classes)


def _scores(cm: np.ndarray) -> tuple[float, float, list[tuple[float, float, float, int]]]:
    """Accuracy, macro-F1 and per-class (precision, recall, F1, support) of a confusion matrix.

    Every value is a plain Python int or float, so reports serialize with ``json``.
    """
    tps, predicted, support = np.diag(cm).tolist(), cm.sum(axis=0).tolist(), cm.sum(axis=1).tolist()
    per_class = []
    f1_total = 0.0
    for c, tp in enumerate(tps):
        precision = tp / predicted[c] if predicted[c] else 0.0
        recall = tp / support[c] if support[c] else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        f1_total += f1
        per_class.append((precision, recall, f1, support[c]))
    return sum(tps) / sum(support), f1_total / len(support), per_class


def accuracy(preds, labels) -> float:
    """Fraction of positions where the predicted class index equals the label's."""
    return _scores(_confusion(preds, labels))[0]


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean of per-class F1 over all ``num_classes`` classes."""
    return _scores(_confusion(preds, labels, num_classes))[1]


def compute_report(preds, labels, class_names) -> MetricsReport:
    """Full metrics report for integer predictions against integer labels."""
    acc, macro, per_class = _scores(_confusion(preds, labels, len(class_names)))
    return MetricsReport(
        accuracy=acc,
        macro_f1=macro,
        per_class=tuple(ClassMetrics(name, *scores) for name, scores in zip(class_names, per_class)),
        num_examples=len(labels),
    )


def _mean_std(values) -> tuple[float, float, bool]:
    n = len(values)
    if all(v == values[0] for v in values):
        return values[0], 0.0, n >= 2  # exact when every run agrees
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0, False  # sample stddev undefined for one run
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var), True


def average_reports(reports: list[MetricsReport]) -> MetricsReport:
    """Arithmetic mean (and sample stddev) of metrics across runs.

    Per-class entries are averaged positionally; all reports must describe the
    same label set.
    """
    if not reports:
        raise ValueError("no reports to average")
    labels = [tuple(c.label for c in r.per_class) for r in reports]
    if len(set(labels)) != 1:
        raise ValueError("reports describe different label sets")
    acc_mean, acc_std, defined = _mean_std([r.accuracy for r in reports])
    f1_mean, f1_std, _ = _mean_std([r.macro_f1 for r in reports])
    per_class = []
    for i, name in enumerate(labels[0]):
        per_class.append(
            ClassMetrics(
                label=name,
                precision=sum(r.per_class[i].precision for r in reports) / len(reports),
                recall=sum(r.per_class[i].recall for r in reports) / len(reports),
                f1=sum(r.per_class[i].f1 for r in reports) / len(reports),
                support=sum(r.per_class[i].support for r in reports) / len(reports),
            )
        )
    return MetricsReport(
        accuracy=acc_mean,
        macro_f1=f1_mean,
        per_class=tuple(per_class),
        num_examples=round(sum(r.num_examples for r in reports) / len(reports)),
        n_runs=len(reports),
        accuracy_std=acc_std,
        macro_f1_std=f1_std,
        std_defined=defined,
    )


def seed_average(runs: dict[int, MetricsReport]) -> MetricsReport:
    """Mean and sample stddev of a metric report across seeds."""
    if not runs:
        raise ValueError("no seed runs to average")
    return average_reports([runs[seed] for seed in sorted(runs)])


def format_report_table(rows: list[tuple[str, MetricsReport]], title: str = "") -> str:
    """Aligned text table with one row per (name, report): Acc and F1 columns."""
    name_width = max([len(name) for name, _ in rows] + [len("row")])
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'row'.ljust(name_width)}  {'Acc':>8}  {'F1':>8}")
    for name, rep in rows:
        acc = f"{rep.accuracy * 100:.2f}%"
        f1 = f"{rep.macro_f1 * 100:.2f}%"
        lines.append(f"{name.ljust(name_width)}  {acc:>8}  {f1:>8}")
    return "\n".join(lines)
