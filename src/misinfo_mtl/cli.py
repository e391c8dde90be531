"""Command-line surface: train / finetune / fewshot / loocv / ablation / eval
plus dataset validation and synthetic-suite generation.

Every command is non-interactive and deterministic given its config and seeds.
``parse_config`` is the one place where a config file becomes settings, and it
refuses every bad key or value. Once every input is validated, and before any training starts, runs write a
manifest (command, resolved config, input digests, seeds) and a config
snapshot; output directories default to a content-addressed name derived from
the config digest so reruns with different settings never silently overwrite
each other. Exit codes: 0 success; 2 a usage error or an input refused before
the command makes its output directory (``_make_out``), so nothing is written;
1 a failure after that, or an unexpected exception.
"""

import argparse
import hashlib
import json
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

from . import checkpoint as ckpt
from . import data as datamod
from . import evaluation, metrics, training
from .atomic import atomic_open, write_text_atomic
from .encoder import EncoderConfig
from .multitask import MultiTaskModel, require_task
from .tasks import BUILTIN_TASKS, TaskSpec
from .tokenization import RESERVED_TOKENS, check_vocab_settings
from .training import TrainConfig, finetune_task

DEFAULT_SEEDS = (0, 1, 2)

# Config keys naming an EncoderConfig / TrainConfig field, with its type; unset keys take the field's default.
_ENCODER_KEYS = {f.name: f.type for f in fields(EncoderConfig) if f.name not in ("vocab_size", "seed")}
_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig) if f.name != "seed"}
_SCALAR_KEYS = {*_ENCODER_KEYS, *_TRAIN_KEYS, "tasks", "seeds", "max_vocab", "min_freq", "split_seed", "split_ratios"}
_PREFIX_KEYS = ("dataset.", "labels.", "granularity.", "positive.", "drop_labels.", "derive.")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse flat `key = value` lines; '#' starts a comment."""
    path = Path(path)
    raw: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8", errors="surrogateescape").splitlines(), start=1):
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # an undecodable byte, read as a lone surrogate
            raise ValueError(f"{path}:{line_no}: not valid UTF-8") from None
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ValueError(f"{path}:{line_no}: duplicate key {key!r}")
        raw[key] = value
    for key in raw:
        if key in _SCALAR_KEYS or key.startswith(_PREFIX_KEYS):
            continue
        raise ValueError(f"unknown config key {key!r}")
    return raw


def _get(raw, key, cast, default, check=None):
    """``cast(raw[key])``, or ``default`` if ``key`` is unset; a value ``cast`` or ``check`` refuses names the key."""
    if key not in raw:
        return default
    try:
        value = cast(raw[key])
        if check is not None:
            check(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad value for config key {key!r}: {exc}") from None
    return value


def _csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _seeds(cli_seeds, raw: dict[str, str]) -> tuple[int, ...]:
    """The ``--seed`` values, else the config's ``seeds``, else ``DEFAULT_SEEDS``; each run once, all >= 0."""
    seeds = tuple(cli_seeds) if cli_seeds else _get(raw, "seeds", lambda v: tuple(map(int, _csv(v))), DEFAULT_SEEDS)
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ValueError(f"seeds must be one or more distinct integers >= 0, got {list(seeds)}")
    return seeds


@dataclass
class RunSpec:
    """Everything a command needs, resolved and validated from one config file."""

    tasks: tuple[str, ...]
    inputs: tuple[Path, ...]  # the config file and every dataset file
    dataset_paths: dict[str, Path]
    derived: dict[str, tuple[str, str]]  # task -> (source task, field)
    specs: dict[str, TaskSpec]
    drop_labels: dict[str, tuple[str, ...]]
    encoder: EncoderConfig  # vocab_size is the reserved ids' count; build_model sizes it from a run's vocabulary
    train: TrainConfig
    seeds: tuple[int, ...]
    max_vocab: int | None
    min_freq: int
    split_seed: int
    split_ratios: tuple[float, float, float]
    raw: dict[str, str]


def _task_spec(name: str, labels: str | None, granularity: str, positive: str | None, hint: str) -> TaskSpec:
    """A task defined by an explicit label list, else a built-in one; ``hint`` says how to define it."""
    if labels is not None:
        try:
            return TaskSpec(name, _csv(labels), granularity, positive or None)
        except ValueError as exc:
            raise ValueError(f"bad task definition for {name!r}: {exc}") from None
    if name in BUILTIN_TASKS:
        return BUILTIN_TASKS[name]
    raise ValueError(f"task {name!r} is not built in; {hint}")


def parse_config(path: str | Path, cli_seeds=None) -> RunSpec:
    """Read a config file into validated settings; any bad key or value raises ``ValueError``."""
    raw = load_config_file(path)
    tasks = _get(raw, "tasks", _csv, ())
    if not tasks:
        raise ValueError("config key 'tasks' is required and must name >= 1 task")
    dataset_paths: dict[str, Path] = {}
    derived: dict[str, tuple[str, str]] = {}
    specs: dict[str, TaskSpec] = {}
    drop_labels = dict(datamod.DEFAULT_DROP_LABELS)
    stray = sorted(key for key in raw if key.startswith(_PREFIX_KEYS) and key.split(".", 1)[1] not in tasks)
    if stray:
        raise ValueError(f"config keys name no task listed in 'tasks': {', '.join(stray)}")
    for task in tasks:
        if (f"dataset.{task}" in raw) == (f"derive.{task}" in raw):
            raise ValueError(f"task {task!r} needs exactly one of the config keys dataset.{task} and derive.{task}")
        if f"derive.{task}" in raw:
            source, _, fname = raw[f"derive.{task}"].partition(":")
            if fname not in ("bias_type", "polarity"):
                raise ValueError(f"derive.{task}: field must be bias_type or polarity")
            if source.strip() not in tasks:
                raise ValueError(f"derive.{task}: source task {source.strip()!r} not in tasks")
            derived[task] = (source.strip(), fname)
        else:
            dataset_paths[task] = Path(raw[f"dataset.{task}"])
        specs[task] = _task_spec(task, raw.get(f"labels.{task}"), raw.get(f"granularity.{task}", "sentence"),
                                 raw.get(f"positive.{task}"), f"config key labels.{task} is required")
        if f"drop_labels.{task}" in raw:
            drop_labels[task] = _csv(raw[f"drop_labels.{task}"])
    for task, (source, _) in derived.items():
        if source not in dataset_paths:  # the task itself, or another derived task
            raise ValueError(f"derive.{task}: source task {source!r} must have a dataset.{source} key")

    encoder = EncoderConfig(vocab_size=len(RESERVED_TOKENS), **{
        key: _get(raw, key, cast, None) for key, cast in _ENCODER_KEYS.items() if key in raw})
    train = TrainConfig(**{key: _get(raw, key, cast, None) for key, cast in _TRAIN_KEYS.items() if key in raw})
    return RunSpec(
        tasks=tasks,
        inputs=(Path(path), *dataset_paths.values()),
        dataset_paths=dataset_paths,
        derived=derived,
        specs=specs,
        drop_labels=drop_labels,
        encoder=encoder,
        train=train,
        seeds=_seeds(cli_seeds, raw),
        max_vocab=_get(raw, "max_vocab", int, None, lambda n: check_vocab_settings(max_size=n)),
        min_freq=_get(raw, "min_freq", int, 1, lambda n: check_vocab_settings(min_freq=n)),
        split_seed=_get(raw, "split_seed", int, 0, lambda n: datamod.check_split_settings(seed=n)),
        split_ratios=_get(raw, "split_ratios", lambda v: tuple(float(r) for r in _csv(v)), (0.8, 0.1, 0.1),
                          lambda r: datamod.check_split_settings(ratios=r)),
        raw=raw,
    )


@contextmanager
def _naming_origin(spec: RunSpec, task: str):
    """Prefix a ``ValueError`` raised inside with where ``task``'s examples come from: its dataset file, or its
    ``derive.`` key and the source task's file."""
    try:
        yield
    except ValueError as exc:
        origin = (f"derive.{task} (source {spec.dataset_paths[spec.derived[task][0]]})" if task in spec.derived
                  else spec.dataset_paths[task])
        raise ValueError(f"{origin}: {exc}") from None


def split_all(spec: RunSpec, datasets: dict[str, datamod.Dataset]) -> dict[str, datamod.SplitDataset]:
    splits = {}
    for task, ds in sorted(datasets.items()):
        with _naming_origin(spec, task):
            splits[task] = datamod.split(ds, ratios=spec.split_ratios, seed=spec.split_seed)
    return splits


def _config_run(args, task_listed: bool = False) -> tuple[RunSpec, dict[str, datamod.Dataset]]:
    """Parse ``--config``, check ``--task`` is one of its tasks, then load (or derive) every dataset."""
    spec = parse_config(args.config, args.seed)
    if task_listed and args.task not in spec.tasks:
        raise ValueError(f"task {args.task!r} is not listed in the config 'tasks'")
    datasets: dict[str, datamod.Dataset] = {}
    for task, path in spec.dataset_paths.items():
        datasets[task] = datamod.load_dataset(path, spec.specs[task], spec.drop_labels.get(task, ()))
    for task, (source, fname) in spec.derived.items():
        with _naming_origin(spec, task):
            datasets[task] = datamod.derive_field_task(datasets[source], fname, spec.specs[task])
    return spec, datasets


def _write_json(path: Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _make_out(args, out: Path) -> Path:
    """Make the command's output directory ``out``, its first write: ``main`` reads an error raised from here on
    as a runtime failure (exit 1), not a refused input (exit 2). Call it only once every input is validated."""
    args.writing = True
    out.mkdir(parents=True, exist_ok=True)
    return out


def _open_run(args, command: str, raw: dict[str, str], seeds, inputs, extra: dict | None = None) -> Path:
    """Make the run directory, then write ``manifest.json`` and ``config.txt`` into it.

    Without ``--out`` the directory is ``runs/<command>-<digest>``, the digest
    covering the command, config, seeds and ``extra``, so runs with different
    settings never overwrite each other.
    """
    config = dict(sorted(raw.items()))
    extra = extra or {}
    if args.out:
        out = Path(args.out)
    else:
        payload = {"command": command, "config": config, "seeds": list(seeds), "extra": extra}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
        out = Path("runs") / f"{command}-{digest}"
    _make_out(args, out)
    _write_json(out / "manifest.json", {
        "command": command,
        "config": config,
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(set(inputs))},
        "seeds": list(seeds),
        "out_dir": str(out),
        "extra": extra,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    write_text_atomic(out / "config.txt", "".join(f"{k} = {v}\n" for k, v in config.items()))
    return out


def _write_report_lines(path: Path, rows) -> None:
    """One line-delimited record per (row name, MetricsReport)."""
    with atomic_open(path) as fh:
        for name, report in rows:
            fh.write(json.dumps({"row": name, **asdict(report)}, sort_keys=True) + "\n")


def _finish_run(out: Path, payload: dict, rows, title: str) -> None:
    """Write ``metrics.json`` and ``report.jsonl``, then print the table and the run directory."""
    _write_json(out / "metrics.json", payload)
    _write_report_lines(out / "report.jsonl", rows)
    print(metrics.format_report_table(rows, title=title))
    print(f"run directory: {out}")


def _seed_entry(per_seed: dict[int, metrics.MetricsReport]) -> tuple[metrics.MetricsReport, dict]:
    """The mean over seeds, and the ``{"per_seed", "averaged"}`` entry recording it."""
    averaged = metrics.seed_average(per_seed)
    return averaged, {
        "per_seed": {str(s): asdict(r) for s, r in per_seed.items()},
        "averaged": asdict(averaged),
    }


def _write_seed(out: Path, seed: int, model: MultiTaskModel, history: training.TrainHistory) -> None:
    """Write one seed's ``model.ckpt`` and ``history.jsonl``."""
    seed_dir = out / f"seed{seed}"
    seed_dir.mkdir(exist_ok=True)
    ckpt.save_model(seed_dir / "model.ckpt", model)
    with atomic_open(seed_dir / "history.jsonl") as fh:
        for record in history.epochs:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
        fh.write(json.dumps({"best_epoch": history.best_epoch, "stop_reason": history.stop_reason}, sort_keys=True) + "\n")


def _load_model(checkpoint_path: str) -> MultiTaskModel:
    """The checkpoint's model, which must carry the vocabulary that maps text to its embedding rows."""
    model = ckpt.load_model(checkpoint_path)
    if model.vocab is None:
        raise ValueError(f"checkpoint {checkpoint_path} has no vocabulary")
    return model


def _unseen_spec(args) -> TaskSpec:
    return _task_spec(args.task, args.labels, args.granularity, args.positive, "pass --labels")


# --- commands -------------------------------------------------------------------


def cmd_train(args) -> int:
    spec, datasets = _config_run(args)
    splits = split_all(spec, datasets)
    vocab = evaluation.train_vocab(splits, spec.min_freq, spec.max_vocab)
    out = _open_run(args, "train", spec.raw, spec.seeds, spec.inputs)

    per_seed: dict[int, dict[str, metrics.MetricsReport]] = {}
    for seed in spec.seeds:
        model, history = evaluation.train_stage1(replace(spec.encoder, seed=seed), splits,
                                                 replace(spec.train, seed=seed), vocab, verbose=not args.quiet)
        _write_seed(out, seed, model, history)
        per_seed[seed] = {t: evaluation.evaluate_model(model, t, splits[t].test.examples) for t in sorted(splits)}
    averaged = {
        task: metrics.seed_average({s: reports[task] for s, reports in per_seed.items()})
        for task in sorted(splits)
    }
    _finish_run(out, {
        "per_seed": {str(s): {t: asdict(r) for t, r in reports.items()} for s, reports in per_seed.items()},
        "averaged": {t: asdict(r) for t, r in averaged.items()},
    }, sorted(averaged.items()), f"test metrics (mean of {len(spec.seeds)} seeds)")
    return 0


def cmd_finetune(args) -> int:
    spec, datasets = _config_run(args, task_listed=True)
    split = split_all(spec, datasets)[args.task]
    model = _load_model(args.checkpoint)
    require_task(model, args.task)
    reread = [Path(args.out) / f"seed{s}" / "model.ckpt" for s in spec.seeds[:-1]] if args.out else []
    if any(path.is_file() and path.samefile(args.checkpoint) for path in reread):
        raise ValueError(f"checkpoint {args.checkpoint} would be overwritten before later seeds load it")
    out = _open_run(args, "finetune", spec.raw, spec.seeds, spec.inputs,
                    {"task": args.task, "checkpoint": args.checkpoint})

    per_seed: dict[int, metrics.MetricsReport] = {}
    for seed in spec.seeds:
        if model is None:  # training consumed the loaded model: each later seed loads the checkpoint again
            model = _load_model(args.checkpoint)
        model, history = finetune_task(model, args.task, split, replace(spec.train, seed=seed),
                                       verbose=not args.quiet)
        _write_seed(out, seed, model, history)
        per_seed[seed] = evaluation.evaluate_model(model, args.task, split.test.examples)
        model = None
    averaged, entry = _seed_entry(per_seed)
    _finish_run(out, {"task": args.task, **entry}, [(args.task, averaged)], "fine-tuned test metrics")
    return 0


def cmd_fewshot(args) -> int:
    seeds = _seeds(args.seed, {})
    fewshot_config = evaluation.FewShotConfig(k=args.k, mode=args.mode)
    train_config = TrainConfig(learning_rate=args.learning_rate, max_epochs=args.max_epochs,
                               patience=min(args.patience, args.max_epochs))
    dataset = datamod.load_dataset(args.dataset, _unseen_spec(args))
    base = _load_model(args.checkpoint)
    evaluation.check_fewshot_inputs(base, dataset, args.k)
    raw = {"tasks": args.task, f"dataset.{args.task}": str(args.dataset), "k": str(args.k), "mode": args.mode,
           "learning_rate": str(train_config.learning_rate), "max_epochs": str(train_config.max_epochs),
           "patience": str(train_config.patience)}
    out = _open_run(args, "fewshot", raw, seeds, [Path(args.dataset)], {"checkpoint": args.checkpoint})

    per_seed: dict[int, metrics.MetricsReport] = {}
    for seed in seeds:
        result = evaluation.fewshot_run(base, dataset, replace(fewshot_config, seed=seed),
                                        replace(train_config, seed=seed))
        per_seed[seed] = result.report
        if not args.quiet:
            print(f"[seed {seed}] train={len(result.train_ids)} test={len(result.test_ids)} "
                  f"macro_f1={result.report.macro_f1:.4f}")
    averaged, entry = _seed_entry(per_seed)
    test_size = dataset.size - args.k
    print(f"train={args.k} test={test_size}")
    _finish_run(out, {"task": args.task, "k": args.k, "mode": args.mode, "train_size": args.k,
                      "test_size": test_size, **entry},
                [(args.task, averaged)], f"few-shot k={args.k} ({args.mode})")
    return 0


def cmd_loocv(args) -> int:
    spec, datasets = _config_run(args, task_listed=True)
    splits = split_all(spec, {t: d for t, d in datasets.items() if t != args.task})
    evaluation.event_folds(splits, datasets[args.task])  # refuse untagged or one-event data before writing
    out = _open_run(args, "loocv", spec.raw, spec.seeds, spec.inputs, {"task": args.task})

    results: dict[int, evaluation.LoocvResult] = {}
    for seed in spec.seeds:
        result = evaluation.loocv_run(splits, datasets[args.task], replace(spec.encoder, seed=seed),
                                      replace(spec.train, seed=seed), min_freq=spec.min_freq, max_vocab=spec.max_vocab)
        results[seed] = result
        rows = [(fold.event, fold.report) for fold in result.folds] + [("average", result.average)]
        _write_report_lines(out / f"report-seed{seed}.jsonl", rows)
        print(metrics.format_report_table(rows, title=f"leave-one-event-out (seed {seed})"))
    averaged = metrics.seed_average({s: r.average for s, r in results.items()})
    _finish_run(out, {
        "task": args.task,
        "stage1_tasks": list(results[spec.seeds[0]].stage1_tasks),
        "per_seed": {
            str(s): {
                "folds": {f.event: asdict(f.report) for f in r.folds},
                "average": asdict(r.average),
            }
            for s, r in results.items()
        },
        "averaged": asdict(averaged),
    }, [("average", averaged)], f"loocv mean of {len(spec.seeds)} seeds")
    return 0


def cmd_ablation(args) -> int:
    if not args.subset:
        raise ValueError("pass at least one --subset")
    spec, datasets = _config_run(args)
    splits = split_all(spec, datasets)
    subsets = evaluation.ablation_subsets([_csv(s) for s in args.subset], args.task, splits)
    out = _open_run(args, "ablation", spec.raw, spec.seeds, spec.inputs,
                    {"task": args.task, "subsets": [list(s) for s in subsets]})

    rows_by_subset: dict[tuple[str, ...], dict[int, metrics.MetricsReport]] = {}
    for seed in spec.seeds:
        for row in evaluation.ablation_run(subsets, args.task, splits, replace(spec.encoder, seed=seed),
                                           replace(spec.train, seed=seed), spec.min_freq, spec.max_vocab):
            rows_by_subset.setdefault(row.subset, {})[seed] = row.report
    table = []
    payload = {}
    for subset in sorted(rows_by_subset):
        name = "+".join(subset)
        averaged, payload[name] = _seed_entry(rows_by_subset[subset])
        table.append((name, averaged))
    _finish_run(out, {"eval_task": args.task, "rows": payload}, table,
                f"task-combination ablation on {args.task!r}")
    return 0


def cmd_eval(args) -> int:
    dataset = datamod.load_dataset(args.dataset, _unseen_spec(args))
    model = _load_model(args.checkpoint)
    report = evaluation.evaluate_model(model, args.task, dataset.examples)
    print(metrics.format_report_table([(args.task, report)], title="evaluation"))
    if args.out:
        out = _make_out(args, Path(args.out))
        _write_json(out / "metrics.json", {args.task: asdict(report)})
        print(f"run directory: {out}")
    return 0


def cmd_validate_data(args) -> int:
    dataset = datamod.load_dataset(args.dataset, _unseen_spec(args), _csv(args.drop_labels or ""))
    print(datamod.format_dataset_summary([dataset]))
    return 0


def cmd_gen_synthetic(args) -> int:
    try:
        config = datamod.SyntheticSuiteConfig(**{name: getattr(args, name) for name in _SUITE_FLAGS})
    except ValueError as exc:  # name the flag, not the field
        raise ValueError(re.sub("|".join(_SUITE_FLAGS), lambda m: _SUITE_FLAGS[m[0]], str(exc))) from None
    seeds = _seeds(args.seed or [0], {})
    if len(seeds) > 1:
        raise ValueError(f"gen-synthetic takes one --seed, got {list(seeds)}")
    suite = datamod.generate_synthetic_suite(seeds[0], config)
    out = _make_out(args, Path(args.out) if args.out else Path("runs") / "synthetic")
    for task, dataset in sorted(suite.items()):
        datamod.save_dataset(dataset, out / f"{task}.jsonl")
    print(datamod.format_dataset_summary([suite[t] for t in sorted(suite)]))
    print(f"wrote {len(suite)} dataset files to {out}")
    return 0


# --- parser ---------------------------------------------------------------------


# Flags that several commands read, declared once; each command adds the ones its handler reads.
_FLAGS = {
    "--config": {"required": True, "help": "config file of 'key = value' lines"},
    "--checkpoint": {"required": True},
    "--dataset": {"required": True},
    "--task": {"required": True, "help": "task name"},
    "--labels": {"help": "comma-separated label names for non-built-in tasks"},
    "--granularity": {"default": "sentence", "choices": ("sentence", "article", "tweet", "headline")},
    "--positive": {"help": "positive class name (optional)"},
    "--seed": {"type": int, "action": "append", "help": "run seed; repeat for multiple (default: 0 1 2)"},
    "--out": {"help": "output directory (default: content-addressed under runs/)"},
    "--quiet": {"action": "store_true", "help": "suppress per-epoch progress"},
}
_TASK_SPEC = ("--task", "--labels", "--granularity", "--positive")
# The SyntheticSuiteConfig fields gen-synthetic sets, each with its flag, which takes the field's type and default
_SUITE_FLAGS = {"task_names": "--tasks", "examples_per_task": "--examples", "vocab_size": "--vocab-size",
                "markers_per_task": "--markers", "shared_lexicon_size": "--shared-size", "p_shared": "--p-shared",
                "num_events": "--events"}
_RUN = ("--seed", "--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misinfo-mtl",
        description="Multi-task misinformation classifier training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        """A subcommand that runs ``func``, with the named ``_FLAGS``."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command("train", cmd_train, "stage-1 joint multi-task training", "--config", *_RUN, "--quiet")
    command("finetune", cmd_finetune, "stage-2 per-task fine-tuning of a checkpoint",
            "--config", "--checkpoint", "--task", *_RUN, "--quiet")
    p = command("fewshot", cmd_fewshot, "k-shot adaptation to an unseen dataset",
                "--checkpoint", "--dataset", *_TASK_SPEC, *_RUN, "--quiet")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="full-model", choices=("full-model", "head-only"))
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p = command("loocv", cmd_loocv, "leave-one-event-out cross-validation", "--config", *_RUN)
    p.add_argument("--task", required=True, help="event-tagged eval task (excluded from stage 1)")
    p = command("ablation", cmd_ablation, "task-combination ablation", "--config", *_RUN)
    p.add_argument("--task", required=True, help="eval task present in every subset")
    p.add_argument("--subset", action="append", help="comma-separated task subset; repeatable, each subset once")
    p = command("eval", cmd_eval, "score a checkpoint on a dataset file",
                "--checkpoint", "--dataset", *_TASK_SPEC)
    p.add_argument("--out", help="directory for metrics.json (default: print only)")
    p = command("validate-data", cmd_validate_data, "validate a canonical dataset file", "--dataset", *_TASK_SPEC)
    p.add_argument("--drop-labels", help="comma-separated labels to drop before validation")
    p = command("gen-synthetic", cmd_gen_synthetic, "generate a synthetic task suite")
    p.add_argument("--seed", type=int, action="append", help="suite seed, given at most once (default: 0)")
    p.add_argument("--out", help="output directory (default: runs/synthetic)")
    for f in fields(datamod.SyntheticSuiteConfig):
        if f.name in _SUITE_FLAGS:  # a tuple field takes comma-separated values
            p.add_argument(_SUITE_FLAGS[f.name], dest=f.name, type=f.type if f.type in (int, float) else _csv,
                           default=f.default)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.writing = False  # _make_out sets it
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # before the command's first write a refused input, nothing on disk; after it a runtime failure
        if isinstance(exc, OSError) and exc.filename:
            message = f"{exc.filename}: {exc.strerror}"
        else:  # str(KeyError) quotes its message; print the message itself
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print("error:" if args.writing else "config error:", message, file=sys.stderr)
        return 1 if args.writing else 2
    except Exception as exc:  # last resort: one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
