"""Trajectory of the benchmark over the BENCH_<pr>.json files: each head median, in PR order, and its drift.

For every workload and end-to-end metric of BENCHMARK.json it prints the head side's median from each file,
then the drift of the last file's median from the first file's and from the best one's. A drift the worse
way by more than the metric's ``bound`` (a fraction of the reference median) is flagged. Every perf gate
compares a change with its parent only; this shows creep across changes. It reports and changes nothing.
Standard library only; run from the repository root:

    python3 tools/bench_trend.py                      # every BENCH_*.json here
    python3 tools/bench_trend.py BENCH_20.json BENCH_24.json
"""

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pr_number(path: Path) -> int:
    match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    if match is None:
        raise ValueError(f"{path}: not a BENCH_<pr>.json file")
    return int(match[1])


def worse_by(better: str, reference: float, value: float) -> float:
    """How much worse ``value`` reads than ``reference``, as a fraction of it (negative: better)."""
    return (reference - value if better == "higher" else value - reference) / abs(reference)


def trend(spec: dict, records: list[dict]) -> list[dict]:
    """One row per workload and end-to-end metric: the head medians in file order and the last one's drift."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            medians = [r.get("workloads", {}).get(workload, {}).get("metrics", {}).get(name, {}).get("head", {})
                       .get("median") for r in records]
            present = [m for m in medians if m is not None]
            row = {"workload": workload, "metric": name, "bound": bound, "medians": medians, "from_first": None,
                   "from_best": None, "flags": []}
            if present:
                first, last = present[0], present[-1]
                best = max(present) if better == "higher" else min(present)
                row["from_first"], row["from_best"] = last / first - 1.0, last / best - 1.0
                row["flags"] = [ref for ref, value in (("first", first), ("best", best))
                                if worse_by(better, value, last) > bound]
            rows.append(row)
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
    print("workload metric " + " ".join(f"PR{pr_number(path)}" for path in files) + " | from first | from best")
    for row in trend(spec, records):
        medians = " ".join("-" if m is None else f"{m:.4g}" for m in row["medians"])
        drift = ("-" if row["from_first"] is None else f"{row['from_first']:+.1%} | {row['from_best']:+.1%}")
        flags = "".join(f"  DRIFT beyond {row['bound']:.0%} of {ref}" for ref in row["flags"])
        print(f"{row['workload']} {row['metric']} {medians} | {drift}{flags}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
