"""``tools/bench_trend.py`` over two synthetic BENCH files: head medians in PR order, drift and its flags."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_trend  # noqa: E402

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "rate", "unit": "examples/s", "better": "higher", "bound": 0.25},
        {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
}


def bench(rate, rss):
    """A BENCH record whose head medians are ``rate`` and ``rss`` (the base side is not read)."""
    metrics = {name: {"base": {"median": -1.0}, "head": {"median": value}}
               for name, value in (("rate", rate), ("rss", rss)) if value is not None}
    return {"workloads": {"w": {"metrics": metrics}}}


def write(tmp_path, pr, record):
    path = tmp_path / f"BENCH_{pr}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_drift_from_the_first_and_best_files_is_flagged_beyond_the_bound(tmp_path, capsys):
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    # given out of order: PR 9 is read before PR 10
    later, earlier = write(tmp_path, 10, bench(70.0, 105.0)), write(tmp_path, 9, bench(100.0, 100.0))
    assert bench_trend.main([str(later), str(earlier), "--spec", str(spec)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload metric PR9 PR10 | from first | from best"
    # rate fell 30% (bound 25%): flagged against the first file, which is also the best
    assert lines[1] == ("w rate 100 70 | -30.0% | -30.0%  DRIFT beyond 25% of first  DRIFT beyond 25% of best")
    # rss rose 5% (bound 10%): no flag
    assert lines[2] == "w rss 100 105 | +5.0% | +5.0%"


def test_best_is_the_best_median_on_the_metrics_side_and_missing_values_are_skipped():
    records = [bench(100.0, 120.0), bench(140.0, None), bench(120.0, 100.0)]
    rate, rss = bench_trend.trend(SPEC, records)
    assert rate["medians"] == [100.0, 140.0, 120.0] and rate["from_first"] == pytest.approx(0.2)
    assert rate["from_best"] == pytest.approx(120 / 140 - 1) and rate["flags"] == []  # 14% worse, under 25%
    assert rss["medians"] == [120.0, None, 100.0] and rss["from_best"] == 0.0 and rss["flags"] == []
    worse = bench_trend.trend(SPEC, [bench(100.0, 100.0), bench(100.0, 80.0), bench(100.0, 90.0)])[1]
    assert worse["flags"] == ["best"]  # 12.5% above the best, 10% below the first


def test_a_file_not_named_bench_pr_is_refused(tmp_path):
    with pytest.raises(ValueError, match="not a BENCH_<pr>.json file"):
        bench_trend.pr_number(tmp_path / "BENCH_final.json")
