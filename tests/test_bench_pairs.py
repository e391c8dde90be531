"""The comparison ``tools/bench_pairs.py`` records per metric, on synthetic paired values, and its artifact hashes."""

import hashlib
import json
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


def test_the_protocols_sequence_writes_the_ablation_and_loocv_files(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)  # the work directory goes under ROOT/.bench_build
    written = bench_pairs.run_sequence(Path(bench_pairs.__file__).resolve().parents[1], bench_pairs.PROTOCOLS,
                                       ["0"], one_cpu=True)
    assert sorted(written) == ["ablation/config.txt", "ablation/metrics.json", "ablation/report.jsonl",
                               "loocv/config.txt", "loocv/metrics.json", "loocv/report-seed0.jsonl",
                               "loocv/report-seed1.jsonl", "loocv/report.jsonl"]


def test_main_records_the_protocols_verdict_beside_the_workloads(tmp_path, monkeypatch, capsys):
    spec = json.loads((Path(bench_pairs.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    spec["workloads"] = spec["workloads"][:1]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    sequences = []

    def run_sequence(tree, script, args, one_cpu):
        sequences.append((script, args, one_cpu))
        return {"metrics.json": "1"}

    result = {"correct": True, "failed": 0,
              "metrics": {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}}
    monkeypatch.setattr(bench_pairs, "export", lambda rev: (rev * 40, tmp_path))
    monkeypatch.setattr(bench_pairs, "run_sequence", run_sequence)
    monkeypatch.setattr(bench_pairs, "run", lambda *args: (
        {"environment": {"blas_threads": 1, "nproc": 1, "affinity": [0]}}, result))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--base", "a", "--head", "b", "--pairs", "1", "--seed", "7", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    workload = spec["workloads"][0]["name"]
    assert record["protocols"]["identical"] and set(record["protocols"]["sides"]) == {"base", "head"}
    assert set(record["protocols"]["digests"]) == {"base", "base-1cpu", "head", "head-1cpu"}
    assert record["workloads"][workload]["artifacts"]["identical"]
    assert sequences == [(bench_pairs.PROTOCOLS, ["7"], one_cpu) for one_cpu in (False, True)] * 2 + [
        (bench_pairs.SEQUENCE, [workload, "7"], one_cpu) for one_cpu in (False, True)] * 2
    assert ("protocols artifacts: all runs identical; base on all CPUs and on one identical; "
            "head on all CPUs and on one identical") in capsys.readouterr().err
