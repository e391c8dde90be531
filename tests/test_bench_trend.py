"""``tools/bench_trend.py``: each BENCH record read against its own base, with ``bench_pairs.compare``'s verdict."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
import bench_trend  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "unit": "examples/s", "better": "higher", "bound": 0.25},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}


def bench(base_sha, **pairs):
    """A BENCH record of base ``base_sha``: per metric, a list of (base, head) values, pair by pair."""
    metrics = {name: {"base": {"values": [b for b, _ in values]}, "head": {"values": [h for _, h in values]}}
               for name, values in pairs.items()}
    return {"base": {"rev": "HEAD~1", "sha": base_sha}, "head": {"rev": "HEAD", "sha": "f" * 40},
            "workloads": {"w": {"metrics": metrics}}}


def write(tmp_path, pr, record):
    path = tmp_path / f"BENCH_{pr}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_each_record_reads_against_its_own_base_in_pr_order(tmp_path, capsys):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    # PR 10's machine ran every rate at half PR 9's: its head is level with its own base, so it reads level
    earlier = write(tmp_path, 9, bench("a" * 40, rate=[(100.0, 140.0)] * 9 + [(100.0, 90.0)],
                                       rss=[(100.0, 120.0)] * 10))
    later = write(tmp_path, 10, bench("b" * 40, rate=[(50.0, 49.0), (50.0, 51.0)] * 5))
    assert bench_trend.main([str(later), str(earlier), "--spec", str(spec)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "w rate",
        "  PR9 aaaaaaa -> fffffff: +40.0%, head better in 9/10: gain",
        "  PR10 bbbbbbb -> fffffff: +0.0%, head better in 5/10: no verdict",
        "w rss",
        "  PR9 aaaaaaa -> fffffff: +20.0%, head better in 0/10: regression",
        "  PR10 bbbbbbb -> fffffff: -",
    ]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json"), key=bench_trend.pr_number), ids=lambda p: p.name)
def test_every_verdict_is_bench_pairs_compare_on_that_record(path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(path.read_text(encoding="utf-8"))
    for row in bench_trend.trend(spec, [record]):
        metric = next(m for m in spec["end_to_end"] if m["name"] == row["metric"])
        stored = record["workloads"][row["workload"]]["metrics"][row["metric"]]
        expected = bench_pairs.compare(metric["better"], metric["bound"], stored["base"]["values"],
                                       stored["head"]["values"])
        (got,) = row["verdicts"]
        assert {k: got[k] for k in expected} == expected
        # the record's own fields, where bench_pairs wrote them, agree
        assert {k: stored[k] for k in expected if k in stored} == {k: expected[k] for k in expected if k in stored}


def test_a_file_not_named_bench_pr_is_refused(tmp_path):
    with pytest.raises(ValueError, match="not a BENCH_<pr>.json file"):
        bench_trend.pr_number(tmp_path / "BENCH_final.json")
