"""Benchmark of the misinfo-mtl command line, one workload per process.

Usage, from the repository root:

    python3 perfbench/run.py --workload quickstart-short --seed 1 --seconds 36 --trace 0

Set-up generates the workload's inputs from ``--seed`` in a fresh interpreter
(several times; ``setup_s`` is the median). The timed part then calls
``misinfo_mtl.cli.main`` in this process, running the workload's command
sequence back to back (a closed loop with one client), at least three times
and until ``--seconds`` would be exceeded, and checks every command's output.
With ``--trace 1`` the sequence runs as a warm-up, under
``bench_trace.Tracer``, and untraced once more; the per-layer metrics come
from the traced pass.

The last line of standard output is the result object; the line before it
holds the environment record and per-repetition detail.
"""

import os

# Pin BLAS to one thread before numpy loads: on small machines the default
# OpenBLAS threading is slower than one thread for these matrix sizes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
MIN_REPETITIONS = 3  # the median of three discards one repetition hit by a burst of outside load
# End-to-end figures printed on the detail line only: they exist on one
# workload only, or move with the training trajectory as much as with a new
# seed (see README.md), so they are reported and checked but not gated.
UNGATED_UNITS = {"fewshot_head_s": "s", "fewshot_full_s": "s", "val_loss": "nats", "test_macro_f1": "ratio"}

sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import bench_workloads as bw  # noqa: E402


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- environment -------------------------------------------------------------------


def _openblas() -> list[tuple[str, int, str]]:
    """(path, thread count, build config) of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if getter is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    found.append((path, getter(), config().decode()))
    return found


def environment(seed: int, digests: dict[str, str]) -> dict:
    import scipy

    blas = _openblas()
    if not blas or any(threads != BLAS_THREADS for _, threads, _ in blas):
        _fail(f"BLAS thread pin did not take effect: OpenBLAS libraries and thread counts {blas}")
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": sorted({config for _, _, config in blas}),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "inputs": digests,
    }


# --- set-up ----------------------------------------------------------------------------


def setup_only(workload: bw.Workload, seed: int, out: Path) -> None:
    """Body of one set-up sample: import the program, write the inputs, print digests."""
    import misinfo_mtl.cli  # noqa: F401  (import cost is part of set-up)

    paths = bw.generate_inputs(workload, seed, out)
    print(json.dumps(bw.input_digests(paths)))


def run_setups(workload: bw.Workload, seed: int, work: Path) -> tuple[list[float], dict[str, Path], dict]:
    """Set up ``SETUP_SAMPLES`` times in fresh interpreters, each rewriting the same inputs."""
    inputs = work / "inputs"
    times, digests = [], []
    for _ in range(SETUP_SAMPLES):
        shutil.rmtree(inputs, ignore_errors=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name, "--seed", str(seed),
               "--setup-into", str(inputs)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            _fail(f"set-up failed:\n{proc.stderr.strip()}")
        digests.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    if any(d != digests[0] for d in digests):
        _fail("set-up is not deterministic: input digests differ between samples")
    return times, {name: inputs / name for name in digests[0]}, digests[0]


# --- the timed sequence ------------------------------------------------------------------


def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def check_command(phase: str, argv: list[str], rc: int, workload: bw.Workload) -> tuple[list[str], dict]:
    """Problems with one command's outputs, and the values read from them."""
    if rc != 0:
        return [f"{phase}: exit code {rc}"], {}
    try:
        return _check_outputs(phase, Path(argv[argv.index("--out") + 1]), workload)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{phase}: unreadable output ({type(exc).__name__}: {exc})"], {}


def _check_outputs(phase: str, out: Path, workload: bw.Workload) -> tuple[list[str], dict]:
    problems, values = [], {}
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    if not _finite(report):
        problems.append(f"{phase}: non-finite value in metrics.json")
    if phase in ("train", "finetune"):
        lines = [json.loads(x) for x in (out / "seed0" / "history.jsonl").read_text(encoding="utf-8").splitlines()]
        epochs, summary = lines[:-1], lines[-1]
        if not epochs or not _finite(epochs):
            problems.append(f"{phase}: missing or non-finite loss in history.jsonl")
        elif phase == "train":
            values["val_loss"] = epochs[summary["best_epoch"] - 1]["val_loss_total"]
        if not (out / "seed0" / "model.ckpt").is_file():
            problems.append(f"{phase}: no model.ckpt")
    elif phase == "eval":
        scored = report[workload.eval_task]
        values["test_macro_f1"] = scored["macro_f1"]
        if scored["num_examples"] != workload.eval_examples:
            problems.append(f"eval: scored {scored['num_examples']} of {workload.eval_examples} examples")
        if scored["macro_f1"] < workload.min_eval_macro_f1:
            problems.append(f"eval: macro-F1 {scored['macro_f1']:.4f} below floor {workload.min_eval_macro_f1}")
    else:
        values[f"{phase}_macro_f1"] = report["averaged"]["macro_f1"]
        if report["test_size"] != workload.fewshot_examples - workload.fewshot_k:
            problems.append(f"{phase}: wrong test size {report['test_size']}")
    return problems, values


def run_sequence(workload, paths, runs: Path, tracer=None) -> dict:
    """Run the command sequence once; return its timings, values and failures."""
    from misinfo_mtl import cli

    runs.mkdir(parents=True)
    times, values, problems, failed = {}, {}, [], []
    seq = bw.commands(workload, paths, runs)
    for phase, argv in seq:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.command(argv[0], lambda: cli.main(argv))
        except Exception:  # a crash is a failed operation, not a benchmark error
            rc = "exception: " + " | ".join(traceback.format_exc().strip().splitlines()[-3:])
        times[phase] = time.perf_counter() - start
        found, got = check_command(phase, argv, rc, workload)
        if found and rc == 0:
            found = [f"{p} | output: {sink.getvalue()[-300:]!r}" for p in found]
        problems += found
        values.update(got)
        if found:
            failed.append(phase)
    shutil.rmtree(runs)
    train_s = times["train"] + times.get("finetune", 0.0)
    metrics = {
        "wall_s": sum(times.values()),
        "train_examples_per_s": workload.scheduled_train_examples() / train_s,
        "eval_examples_per_s": workload.eval_examples / times["eval"],
        "val_loss": values.get("val_loss", math.nan),
        "test_macro_f1": values.get("test_macro_f1", math.nan),
    }
    for mode in workload.fewshot_modes:
        metrics[f"fewshot_{mode.split('-')[0]}_s"] = times[f"fewshot-{mode}"]
    return {
        "times": times,
        "values": values,
        "metrics": metrics,
        "problems": problems,
        "attempted": len(seq),
        "failed": len(failed),
    }


# --- main ------------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bw.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = bw.WORKLOADS[args.workload]
    if args.setup_into:
        setup_only(workload, args.seed, Path(args.setup_into))
        return 0
    if not (SRC / "misinfo_mtl" / "cli.py").is_file():
        _fail(f"program source not found under {SRC}")

    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return _run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _run(args, workload: bw.Workload, work: Path) -> int:
    setup_times, paths, digests = run_setups(workload, args.seed, work)
    env = environment(args.seed, digests)

    reps = []
    if args.trace:
        import bench_trace

        # A warm-up pass first: the first pass in a process runs slower (the
        # allocator is still growing), which would read as negative overhead.
        tracer = bench_trace.Tracer()
        warmup = run_sequence(workload, paths, work / "warmup")
        tracer.install()
        try:
            traced = run_sequence(workload, paths, work / "traced", tracer)
        finally:
            tracer.uninstall()
        reps.append(run_sequence(workload, paths, work / "untraced"))
        passes = [warmup, traced] + reps
    else:
        start = time.perf_counter()
        while True:
            reps.append(run_sequence(workload, paths, work / f"rep{len(reps)}"))
            elapsed = time.perf_counter() - start
            if len(reps) >= MIN_REPETITIONS and elapsed + elapsed / len(reps) > args.seconds:
                break
        passes = reps

    problems = [p for r in passes for p in r["problems"]]
    quality = {(r["metrics"].get("val_loss"), r["metrics"].get("test_macro_f1")) for r in passes}
    if len(quality) != 1:
        problems.append(f"passes disagree on (val_loss, test_macro_f1): {sorted(quality)}")
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    figures = {name: statistics.median(r["metrics"][name] for r in reps) for name in reps[0]["metrics"]}
    detail = {
        "workload": workload.name,
        "environment": env,
        "setup_s_samples": setup_times,
        "repetitions": [{"times": r["times"], "values": r["values"]} for r in reps],
        "ungated": {name: {"value": figures[name], "unit": unit}
                    for name, unit in UNGATED_UNITS.items() if name in figures},
        "problems": problems,
    }
    if args.trace:
        metrics = bench_trace.layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = sum(traced["times"].values()) - figures["wall_s"]
        metrics["trace.spans"] = len(tracer.spans)
        recorded = {s.name for s in tracer.spans}
        required = bench_trace.required_spans(workload.finetune_task is not None, workload.fewshot_task is not None)
        missing = sorted(required - recorded)
        if missing:
            problems.append(f"traced run recorded no calls at: {', '.join(missing)}")
        detail["traced"] = {"times": traced["times"], "values": traced["values"]}
        kind = "per_layer"
    else:
        metrics = dict(figures)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kind = "end_to_end"
    result_metrics = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in _units(kind).items()}

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
