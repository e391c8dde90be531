"""Before/after record of the benchmark: alternating pairs of runs over two git revisions, into BENCH_<pr>.json.

Each revision is exported with ``git archive`` into ``.bench_build/<sha>``, and its own unchanged
``perfbench/run.py --trace 0`` runs there. Pair i runs both revisions at seed ``--seed + i``, and the
revision that runs first alternates from pair to pair. For every workload and end-to-end metric the file
holds each side's values, median and quartiles and their ``compare``: how many pairs read better on the
head side, and whether that is a gain or a regression. It also holds both SHAs, the BLAS thread count, the
CPU count and the seeds, and one summary line per workload and metric goes to standard output.

Before a workload's pairs, an artifact pass runs its command sequence (``bench_workloads.commands``, at
``--seed``) once per revision on the process's CPU set and once pinned to one CPU, all four runs in the same
directories, and records every written file's SHA-256 (``manifest.json`` aside, which records the time),
whether all four runs wrote the same bytes, and whether each revision wrote the same bytes on all CPUs and on
one. One more such pass, under ``protocols``, runs ``ablation`` and ``loocv`` at 2 seeds on a
``gen-synthetic --events 3`` suite (``PROTOCOLS``). Their files hold accuracy and macro-F1 only, so that pass
sees a changed trajectory only where a prediction flips. Standard library only; run from the repository root:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD --pairs 10 --seed 601 --seconds 8 --out BENCH_20.json
"""

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One workload's command sequence in a revision's tree: argv is the workload, the seed, the inputs directory and
# the runs directory. perfbench's own modules generate the inputs and the argv lists, as for a timed run.
SEQUENCE = """
import sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
import bench_workloads as bw
from misinfo_mtl.cli import main
workload = bw.WORKLOADS[sys.argv[1]]
paths = bw.generate_inputs(workload, int(sys.argv[2]), Path(sys.argv[3]))
for phase, argv in bw.commands(workload, paths, Path(sys.argv[4])):
    if main(argv) != 0:
        sys.exit(f"{phase} failed")
"""
# The task-combination ablation and leave-one-event-out protocols, which train through the same loop as the
# workloads but are in none of them: argv is the seed, the inputs directory and the runs directory.
PROTOCOLS = """
import sys
from pathlib import Path
sys.path[:0] = ["src"]
from misinfo_mtl.cli import main
seed, inputs, runs = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
tasks = ("alpha", "beta", "gamma")
if main(["gen-synthetic", "--tasks", ",".join(tasks), "--examples", "120", "--events", "3", "--seed", seed,
         "--out", str(inputs)]) != 0:
    sys.exit("gen-synthetic failed")
config = inputs / "protocols.cfg"
config.write_text("embed_dim = 32\\nffn_dim = 64\\nmax_seq_len = 16\\nmax_epochs = 3\\npatience = 3\\n"
                  f"learning_rate = 1e-3\\ntasks = {','.join(tasks)}\\n" + "".join(
                      f"dataset.{t} = {inputs / t}.jsonl\\nlabels.{t} = negative,positive\\n" for t in tasks))
for name, argv in (("ablation", ["--task", "alpha", "--subset", "alpha", "--subset", "alpha,beta",
                                 "--subset", "alpha,beta,gamma"]), ("loocv", ["--task", "gamma"])):
    if main([name, "--config", str(config), *argv, "--seed", "0", "--seed", "1", "--out", str(runs / name)]) != 0:
        sys.exit(f"{name} failed")
"""


def export(rev: str) -> tuple[str, Path]:
    """The full SHA of ``rev`` and a directory holding its committed files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = ROOT / ".bench_build" / sha
    if not tree.is_dir():
        # Extract beside the final name and rename once done, so an interrupted export leaves no tree
        # that a later run would take as whole. git archive output is trusted, so a Python without the
        # tarfile extraction filters extracts it plainly.
        partial = tree.with_name(sha + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(partial, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        partial.rename(tree)
    return sha, tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py --trace 0`` run: (detail record, result record)."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"], cwd=tree, check=True, capture_output=True,
                         text=True).stdout.splitlines()
    return json.loads(out[-2]), json.loads(out[-1])


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory`` but those named ``manifest.json``, by path relative to it."""
    return {path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.rglob("*")) if path.is_file() and path.name != "manifest.json"}


def _check(runs: dict[str, dict[str, str]]) -> dict:
    """The files any of these runs lacks or wrote with other bytes than another (``differ``), ``identical`` if
    there are none."""
    differ = [name for name in sorted(set().union(*runs.values())) if len({d.get(name) for d in runs.values()}) > 1]
    return {"identical": not differ, "differ": differ}


def artifact_verdict(runs: dict[str, dict[str, str]]) -> dict:
    """Several runs' ``digests`` of one command sequence (run name -> digests): their ``_check`` and the digests
    themselves. ``sides`` holds the same check for each side that ran twice, ``<side>`` against ``<side>-1cpu``: a
    revision's own identity on all CPUs and on one, which a change that moves its artifacts on purpose still has
    to show."""
    sides = {side: _check({name: runs[name] for name in (side, side + "-1cpu")})
             for side in runs if side + "-1cpu" in runs}
    return {**_check(runs), "sides": sides, "digests": runs}


def _describe(check: dict) -> str:
    return "identical" if check["identical"] else "differ in " + ", ".join(check["differ"])


def run_sequence(tree: Path, script: str, args: list[str], one_cpu: bool) -> dict[str, str]:
    """Run a command sequence (``SEQUENCE`` or ``PROTOCOLS``, given ``args`` and then its inputs and runs
    directories) in ``tree``, pinned to one CPU if ``one_cpu``; the ``digests`` of its runs. Every call writes
    to the same directories, so paths recorded in the files are the same for each."""
    work = ROOT / ".bench_build" / "artifacts"
    shutil.rmtree(work, ignore_errors=True)
    # the child pins itself, after the fork: only its own affinity changes
    pin = (lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})) if one_cpu else None
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-c", script, *args, str(work / "inputs"), str(work / "runs")],
                   cwd=tree, env=env, preexec_fn=pin, check=True, capture_output=True)
    return digests(work / "runs")


def artifact_pass(name: str, trees: dict[str, Path], script: str, args: list[str]) -> dict:
    """The ``artifact_verdict`` of a command sequence run in each side's tree on all CPUs and on one, printed as
    one line headed ``name``."""
    verdict = artifact_verdict({f"{side}{suffix}": run_sequence(tree, script, args, one_cpu)
                                for side, tree in trees.items() for suffix, one_cpu in (("", False), ("-1cpu", True))})
    print(f"{name} artifacts: all runs {_describe(verdict)}; " + "; ".join(
        f"{side} on all CPUs and on one {_describe(check)}" for side, check in verdict["sides"].items()),
        file=sys.stderr, flush=True)
    return verdict


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def compare(better: str, bound: float, base: list[float], head: list[float]) -> dict:
    """Paired runs of one metric (``better`` is "higher" or "lower"), pair i being ``base[i]``, ``head[i]``.

    ``head_better_pairs`` counts the pairs the head reads better in (ties count for neither). ``gain``: that
    is at least 9 in 10 pairs, and the head's median beats the base's by more than the base's interquartile
    range. ``regression``: the head's median is worse by more than ``bound``, a fraction of the base's median
    (the metric's bound in BENCHMARK.json).
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(base, head))
    b, h = statistics.median(base), statistics.median(head)
    return {"head_better_pairs": wins, "median_change": h / b - 1.0,
            "gain": 10 * wins >= 9 * len(base) and sign * (h - b) > summary(base)["iqr"],
            "regression": sign * (b - h) > bound * abs(b)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision measured as before")
    parser.add_argument("--head", required=True, help="git revision measured as after")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=8.0, help="perfbench --seconds for every run")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    (base_sha, base), (head_sha, head) = export(args.base), export(args.head)
    spec = json.loads((head / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seeds = [args.seed + i for i in range(args.pairs)]
    record = {"base": {"rev": args.base, "sha": base_sha}, "head": {"rev": args.head, "sha": head_sha},
              "pairs": args.pairs, "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    trees = {"base": base, "head": head}
    record["protocols"] = artifact_pass("protocols", trees, PROTOCOLS, [str(args.seed)])
    for workload in [w["name"] for w in spec["workloads"]]:
        artifacts = artifact_pass(workload, trees, SEQUENCE, [workload, str(args.seed)])
        sides = {"base": [], "head": []}
        for i, seed in enumerate(seeds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                detail, result = run(base if side == "base" else head, workload, seed, args.seconds)
                sides[side].append(result)
                env = detail["environment"]
                record.update(blas_threads=env["blas_threads"], nproc=env["nproc"], affinity=env["affinity"])
                print(f"{workload} seed {seed} {side}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr, flush=True)
        metrics = {}
        for name, (direction, bound) in better.items():
            b, h = ([r["metrics"][name]["value"] for r in sides[s]] for s in ("base", "head"))
            metrics[name] = {"unit": sides["base"][0]["metrics"][name]["unit"], "better": direction,
                             "base": summary(b), "head": summary(h), **compare(direction, bound, b, h)}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for s in sides.values() for r in s),
            "failed": sum(r["failed"] for s in sides.values() for r in s), "metrics": metrics, "artifacts": artifacts}
    for workload, result in record["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: {m['base']['median']:.4g} -> {m['head']['median']:.4g} "
                  f"({m['median_change']:+.1%}), head better in {m['head_better_pairs']}/{args.pairs}, "
                  f"base IQR {m['base']['iqr']:.3g}: "
                  + ("gain" if m["gain"] else "regression" if m["regression"] else "no verdict"))
    tmp = args.out.with_name(args.out.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
