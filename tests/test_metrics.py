import numpy as np
import pytest

from misinfo_mtl.metrics import (
    ClassMetrics,
    MetricsReport,
    accuracy,
    average_reports,
    compute_report,
    format_report_table,
    macro_f1,
    seed_average,
)


# Independent oracle: explicit confusion matrix, scalar arithmetic throughout.
def oracle_confusion(preds, labels, num_classes):
    cm = [[0] * num_classes for _ in range(num_classes)]
    for p, y in zip(preds, labels):
        cm[y][p] += 1
    return cm


def oracle_accuracy(preds, labels):
    return sum(1 for p, y in zip(preds, labels) if p == y) / len(labels)


def oracle_macro_f1(preds, labels, num_classes):
    cm = oracle_confusion(preds, labels, num_classes)
    f1s = []
    for c in range(num_classes):
        tp = cm[c][c]
        fp = sum(cm[r][c] for r in range(num_classes)) - tp
        fn = sum(cm[c][r] for r in range(num_classes)) - tp
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0)
    return sum(f1s) / num_classes


def test_accuracy_perfect_and_disjoint():
    assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0
    assert accuracy([1, 1, 1], [0, 0, 0]) == 0.0


def test_accuracy_hand_count():
    assert accuracy([1, 1, 0, 0], [1, 0, 0, 1]) == 0.5


def test_accuracy_guards():
    with pytest.raises(ValueError, match="length mismatch"):
        accuracy([1], [1, 2])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])


def test_macro_f1_hand_trace_half():
    # class1: TP=1 FP=1 FN=1 -> F1 0.5; class0: TP=1 FP=1 FN=1 -> F1 0.5
    assert macro_f1([1, 0, 1, 0], [1, 1, 0, 0], 2) == pytest.approx(0.5)


def test_macro_f1_zero_division_convention():
    # all-1 predictions: class1 F1 = 2/3, class0 F1 = 0 -> macro 1/3
    assert macro_f1([1, 1, 1, 1], [1, 1, 0, 0], 2) == pytest.approx(1.0 / 3.0)


def test_macro_f1_perfect():
    assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0


def test_macro_f1_counts_absent_classes():
    # class 2 never appears: F1 0 still averaged in
    score = macro_f1([0, 1], [0, 1], 3)
    assert score == pytest.approx(2.0 / 3.0)


def test_macro_f1_range_guard():
    with pytest.raises(ValueError, match="out of range"):
        macro_f1([0, 3], [0, 1], 2)


def test_metrics_match_oracle_exactly():
    rng = np.random.default_rng(42)
    for _ in range(300):
        num_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 201))
        preds = rng.integers(0, num_classes, size=n).tolist()
        labels = rng.integers(0, num_classes, size=n).tolist()
        assert accuracy(preds, labels) == oracle_accuracy(preds, labels)
        assert macro_f1(preds, labels, num_classes) == oracle_macro_f1(preds, labels, num_classes)


def test_compute_report_fields():
    report = compute_report([1, 0, 1, 0], [1, 1, 0, 0], ("neg", "pos"))
    assert report.accuracy == 0.5
    assert report.macro_f1 == pytest.approx(0.5)
    assert [c.label for c in report.per_class] == ["neg", "pos"]
    assert [c.support for c in report.per_class] == [2, 2]
    assert report.num_examples == 4
    assert 0.0 <= report.macro_f1 <= 1.0 and 0.0 <= report.accuracy <= 1.0
    # plain Python numbers, so reports serialize to JSON the same way as hand-counted ones
    values = [report.accuracy, report.macro_f1] + [v for c in report.per_class for v in (c.precision, c.recall, c.f1)]
    assert all(type(v) is float for v in values) and all(type(c.support) is int for c in report.per_class)


def _report(acc, f1):
    per_class = (ClassMetrics("neg", f1, f1, f1, 5), ClassMetrics("pos", f1, f1, f1, 5))
    return MetricsReport(accuracy=acc, macro_f1=f1, per_class=per_class, num_examples=10)


def test_seed_average_identical_reports():
    runs = {s: _report(0.8, 0.7) for s in (0, 1, 2)}
    avg = seed_average(runs)
    assert avg.accuracy == pytest.approx(0.8)
    assert avg.macro_f1 == pytest.approx(0.7)
    assert avg.accuracy_std == 0.0
    assert avg.n_runs == 3
    assert avg.std_defined


def test_seed_average_mean_of_three():
    runs = {0: _report(0.8, 0.5), 1: _report(0.9, 0.6), 2: _report(1.0, 0.7)}
    avg = seed_average(runs)
    assert avg.accuracy == pytest.approx(0.9)
    assert avg.macro_f1 == pytest.approx(0.6)
    assert avg.accuracy_std == pytest.approx(np.std([0.8, 0.9, 1.0], ddof=1))


def test_seed_average_single_seed_flagged():
    avg = seed_average({7: _report(0.75, 0.6)})
    assert avg.accuracy == 0.75
    assert avg.accuracy_std == 0.0 and avg.macro_f1_std == 0.0
    assert not avg.std_defined
    assert avg.n_runs == 1


def test_average_reports_rejects_mismatched_labels():
    a = _report(0.5, 0.5)
    b = MetricsReport(accuracy=0.5, macro_f1=0.5,
                      per_class=(ClassMetrics("x", 0, 0, 0, 1), ClassMetrics("y", 0, 0, 0, 1)),
                      num_examples=2)
    with pytest.raises(ValueError, match="different label sets"):
        average_reports([a, b])


def test_format_report_table_layout():
    table = format_report_table([("rumor", _report(0.929, 0.925))], title="results")
    assert "results" in table
    assert "Acc" in table and "F1" in table
    assert "92.90%" in table and "92.50%" in table
