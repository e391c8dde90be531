"""Unit tests for the benchmark's own arithmetic (run with the repository's pytest)."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_stats  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from bench_trace import Span, self_time, step_times_ms  # noqa: E402


def _span(name, start, end, span_id=0, parent=None):
    return Span(name=name, span_id=span_id, parent=parent, command=1, start=start, end=end)


def test_self_time_excludes_nested_children_once():
    parent = _span("p", 0.0, 10.0)
    child = _span("c", 1.0, 4.0)
    grandchild = _span("g", 2.0, 3.0)
    assert self_time(parent, [child, grandchild]) == pytest.approx(7.0)
    assert self_time(child, [grandchild]) == pytest.approx(2.0)


def test_self_time_back_to_back_and_overlapping_children():
    parent = _span("p", 0.0, 10.0)
    assert self_time(parent, [_span("a", 2.0, 5.0), _span("b", 5.0, 8.0)]) == pytest.approx(4.0)
    assert self_time(parent, [_span("a", 2.0, 6.0), _span("b", 5.0, 8.0)]) == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span("p", 1.0, 5.0)
    assert self_time(parent, [_span("a", 0.0, 2.0), _span("b", 4.0, 9.0)]) == pytest.approx(2.0)
    assert self_time(parent, []) == pytest.approx(4.0)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert bench_stats.tail_percentile(range(10)) is None
    assert bench_stats.tail_percentile(range(1, 21)) is None  # p50 is the median, not a tail
    assert bench_stats.tail_percentile(range(1, 101)) == (90.0, 90.0)
    assert bench_stats.tail_percentile(range(1, 22)) == (100 * 11 / 21, 11.0)
    pct, value = bench_stats.tail_percentile([5.0] * 20 + list(range(100, 111)))
    assert value == 100.0
    assert sum(v > value for v in range(100, 111)) == 10
    assert pct == pytest.approx(100 * 21 / 31)


@pytest.mark.parametrize("sizes", [{"a": 160}, {"a": 160, "b": 160, "c": 96}, {"x": 33, "y": 7}])
@pytest.mark.parametrize("batch_size", [1, 16, 32])
def test_scheduled_examples_match_the_epoch_schedule(sizes, batch_size):
    from misinfo_mtl.training import make_epoch_schedule

    epochs = 3
    scheduled = sum(
        sum(make_epoch_schedule(sizes, batch_size, seed).example_counts().values()) for seed in range(epochs)
    )
    assert bench_stats.scheduled_train_examples(sizes, epochs) == scheduled


@pytest.mark.parametrize("n", [120, 200, 201, 1000])
def test_split_sizes_match_the_program_split(n):
    from misinfo_mtl.data import Example, make_dataset, split
    from misinfo_mtl.multitask import TaskSpec

    spec = TaskSpec("t", bench_workloads.LABELS, "sentence")
    examples = [Example(id=f"t-{i}", text="w", task="t", label=bench_workloads.LABELS[i % 2]) for i in range(n)]
    parts = split(make_dataset(examples, spec), ratios=bench_workloads.SPLIT_RATIOS)
    assert bench_stats.split_sizes(n, bench_workloads.SPLIT_RATIOS) == (
        parts.train.size, parts.validation.size, parts.test.size)


def test_workload_scheduled_examples_cover_train_and_finetune():
    quick = bench_workloads.WORKLOADS["quickstart-short"]
    assert quick.scheduled_train_examples() == 4 * 160 * quick.train_epochs + 160 * quick.finetune_epochs


def test_step_times_pair_each_gradient_call_with_the_next_adam_step():
    spans = [
        _span("multitask.task_step_gradients", 0.0, 0.4),
        _span("training.adam_step", 0.45, 0.5),
        _span("multitask.task_step_gradients", 1.0, 1.3),
        _span("training.adam_step", 1.3, 1.4),
    ]
    assert step_times_ms(spans) == pytest.approx([500.0, 400.0])


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    workload = bench_workloads.WORKLOADS["adapt-eval"]

    def digests(seed):
        return bench_workloads.input_digests(bench_workloads.generate_inputs(workload, seed, tmp_path))

    first = digests(7)
    assert digests(7) == first
    other = digests(8)
    assert other.keys() == first.keys()
    assert all(other[name] != first[name] for name in first if name.endswith(".jsonl"))


def test_tracer_rebinds_names_imported_into_other_modules():
    import misinfo_mtl.training as training
    from misinfo_mtl import multitask

    original = training.task_step_gradients
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert training.task_step_gradients is multitask.task_step_gradients
        assert training.task_step_gradients is not original
        params = {"w": np.ones((3, 2))}
        grads = {"w": np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 0.0]])}
        training.adam_step(params, grads, training.AdamState(), 1e-3)
    finally:
        tracer.uninstall()
    assert training.task_step_gradients is original
    assert [s.name for s in tracer.spans] == ["training.adam_step"]
    assert tracer.spans[0].attrs["elements"] == 6
