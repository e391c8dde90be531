"""The comparison ``tools/bench_pairs.py`` records per metric, on synthetic paired values, and its artifact hashes."""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def verdict(better, bound, base, head):
    result = bench_pairs.compare(better, bound, base, head)
    return {key: result[key] for key in ("gain", "regression")}


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.0]  # median 100, IQR 1.375


def test_a_gain_needs_nine_of_ten_pairs_and_a_median_move_past_the_base_iqr():
    assert verdict("higher", 0.25, BASE, [x + 5.0 for x in BASE]) == {"gain": True, "regression": False}
    result = bench_pairs.compare("higher", 0.25, BASE, [x + 5.0 for x in BASE])
    assert result["head_better_pairs"] == 10 and result["median_change"] == pytest.approx(0.05)
    # the same move on a lower-is-better metric is a loss, though inside the bound
    assert verdict("lower", 0.25, BASE, [x + 5.0 for x in BASE]) == {"gain": False, "regression": False}
    assert verdict("lower", 0.25, BASE, [x - 5.0 for x in BASE])["gain"]
    # better in 8 of 10 pairs only (a tie counts for neither side)
    head = [x + 5.0 for x in BASE[:8]] + [BASE[8] - 1.0, BASE[9]]
    assert bench_pairs.compare("higher", 0.25, BASE, head)["head_better_pairs"] == 8
    assert not verdict("higher", 0.25, BASE, head)["gain"]
    # better in every pair, but by less than the base's IQR
    assert not verdict("higher", 0.25, BASE, [x + 1.0 for x in BASE])["gain"]


def test_a_regression_is_a_median_move_the_wrong_way_past_the_bound():
    assert verdict("higher", 0.25, BASE, [x * 0.7 for x in BASE])["regression"]
    assert not verdict("higher", 0.25, BASE, [x * 0.8 for x in BASE])["regression"]
    assert verdict("lower", 0.1, BASE, [x * 1.2 for x in BASE]) == {"gain": False, "regression": True}
    assert not verdict("lower", 0.1, BASE, [x * 0.5 for x in BASE])["regression"]


def test_digests_hash_every_file_but_the_manifests(tmp_path):
    (tmp_path / "seed0").mkdir()
    files = {"metrics.json": b"{}\n", "seed0/model.ckpt": b"\x00\x01", "seed0/history.jsonl": b""}
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "manifest.json").write_text("{\"time\": 1}")
    (tmp_path / "seed0" / "manifest.json").write_text("{\"time\": 2}")
    assert bench_pairs.digests(tmp_path) == {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def test_the_artifact_verdict_names_each_file_a_run_lacks_or_wrote_otherwise():
    same = {"a": "1", "b/c": "2"}
    assert bench_pairs.artifact_verdict({"base": same, "head": dict(same), "head-1cpu": dict(same)}) == {
        "identical": True, "differ": [], "sides": {"head": {"identical": True, "differ": []}},
        "digests": {"base": same, "head": same, "head-1cpu": same}}
    runs = {"base": same, "head": {"a": "1", "b/c": "3"}, "head-1cpu": {"a": "1", "b/c": "2", "d": "4"}}
    verdict = bench_pairs.artifact_verdict(runs)
    assert verdict["differ"] == ["b/c", "d"] and not verdict["identical"] and verdict["digests"] is runs


def test_the_artifact_verdict_checks_each_side_on_all_cpus_and_on_one_apart_from_base_against_head():
    base, head = {"model.ckpt": "1", "metrics.json": "2"}, {"model.ckpt": "3", "metrics.json": "2"}
    # a change that moves a trajectory on purpose: the sides differ, and each side writes its own bytes twice
    verdict = bench_pairs.artifact_verdict({"base": base, "base-1cpu": dict(base), "head": head,
                                            "head-1cpu": dict(head)})
    assert not verdict["identical"] and verdict["differ"] == ["model.ckpt"]
    assert verdict["sides"] == {"base": {"identical": True, "differ": []}, "head": {"identical": True, "differ": []}}
    # a head whose one-CPU run writes other bytes, or a file fewer, fails its own check only
    verdict = bench_pairs.artifact_verdict({"base": base, "base-1cpu": dict(base), "head": head,
                                            "head-1cpu": {"model.ckpt": "4"}})
    assert verdict["sides"]["base"] == {"identical": True, "differ": []}
    assert verdict["sides"]["head"] == {"identical": False, "differ": ["metrics.json", "model.ckpt"]}
