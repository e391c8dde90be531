"""The record ``tools/claims.py`` writes per k, on synthetic per-seed scores."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import claims  # noqa: E402


def _seed(vanilla, singles, multi):
    return {"vanilla": vanilla, "multi_task": multi, **{f"single_task:{t}": v for t, v in zip("abc", singles)}}


def test_a_claims_record_pairs_the_methods_seed_by_seed_and_checks_the_ordering_in_the_means():
    per_seed = [_seed(0.5, (0.6, 0.7, 0.8), 0.9), _seed(0.6, (0.5, 0.5, 0.5), 0.7), _seed(0.4, (0.9, 0.9, 0.6), 0.7)]
    record = claims.table(per_seed)
    assert record["single_task"]["per_seed"] == pytest.approx([0.7, 0.5, 0.8])
    assert record["single_task"]["per_task"] == {"a": [0.6, 0.5, 0.9], "b": [0.7, 0.5, 0.9], "c": [0.8, 0.5, 0.6]}
    assert record["vanilla"]["mean"] == pytest.approx(0.5) and record["vanilla"]["sd"] == pytest.approx(0.1)
    gap = record["differences"]["multi_task - single_task"]
    assert gap["per_seed"] == pytest.approx([0.2, 0.2, -0.1]) and gap["seeds_positive"] == 2
    assert gap["mean"] == pytest.approx(0.1)
    assert record["differences"]["single_task - vanilla"]["seeds_positive"] == 2
    assert record["ordering_holds"]  # 0.5 < 0.667 < 0.767 in the means, though not on every seed
    record = claims.table([_seed(0.5, (0.9, 0.9, 0.9), 0.8), _seed(0.5, (0.9, 0.9, 0.9), 0.8)])
    assert not record["ordering_holds"]  # single-task above multi-task
