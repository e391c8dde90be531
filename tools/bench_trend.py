"""The benchmark's verdicts over the BENCH_<pr>.json files, each record read against its own base, in PR order.

Each file holds alternating pairs of runs of a base and a head revision, taken on one machine at one time
(``tools/bench_pairs.py``). For every workload and end-to-end metric of BENCHMARK.json this prints, per file,
the head's median change against that file's base, how many pairs read better on the head side and the
verdict of ``bench_pairs.compare`` on the file's per-pair values with the metric's bound. Absolute medians are
not compared across files, because they track the machine's state when each file was taken. A span file,
whose base is an older re-anchor, reads like any other. It reports and changes nothing. Standard library
only; run from the repository root:

    python3 tools/bench_trend.py                      # every BENCH_*.json here
    python3 tools/bench_trend.py BENCH_20.json BENCH_24.json
"""

import argparse
import json
import re
import sys
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parent.parent


def pr_number(path: Path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    if match is None:
        raise ValueError(f"{path}: not a BENCH_<pr>.json file")
    return int(match[1])


def verdict(better: str, bound: float, metric: dict) -> dict:
    """``bench_pairs.compare`` on one record's entry for a metric, from its per-pair base and head values, with
    ``pairs`` and a one-word ``verdict``."""
    base, head = metric["base"]["values"], metric["head"]["values"]
    result = bench_pairs.compare(better, bound, base, head)
    return {**result, "pairs": len(base),
            "verdict": "gain" if result["gain"] else "regression" if result["regression"] else "no verdict"}


def trend(spec: dict, records: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric: each record's ``verdict`` in file order (None where the
    record lacks the metric)."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            entries = [r.get("workloads", {}).get(workload, {}).get("metrics", {}).get(metric["name"])
                       for r in records]
            rows.append({"workload": workload, "metric": metric["name"], "verdicts": [
                None if m is None else verdict(metric["better"], metric["bound"], m) for m in entries]})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="BENCH_<pr>.json files (default: every one in the repo)")
    parser.add_argument("--spec", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    files = sorted(args.files or ROOT.glob("BENCH_*.json"), key=pr_number)
    if not files:
        parser.error("no BENCH_<pr>.json files")
    spec = json.loads(args.spec.read_text(encoding="utf-8"))
    records = [json.loads(path.read_text(encoding="utf-8")) for path in files]
    for row in trend(spec, records):
        print(f"{row['workload']} {row['metric']}")
        for path, record, v in zip(files, records, row["verdicts"]):
            span = f"PR{pr_number(path)} {record['base']['sha'][:7]} -> {record['head']['sha'][:7]}"
            print(f"  {span}: -" if v is None else f"  {span}: {v['median_change']:+.1%}, head better in "
                  f"{v['head_better_pairs']}/{v['pairs']}: {v['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
