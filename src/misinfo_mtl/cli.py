"""Command-line surface: train / finetune / fewshot / loocv / ablation / eval
plus dataset validation and synthetic-suite generation.

Every command is non-interactive and deterministic given its config and seeds.
Once every input is validated, and before any training starts, runs write a
manifest (command, resolved config, input digests, seeds) and a config
snapshot; output directories default to a content-addressed name derived from
the config digest so reruns with different settings never silently overwrite
each other. Exit codes: 0 success, 1 runtime failure, 2 usage/config error.
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

from . import checkpoint as ckpt
from . import data as datamod
from . import evaluation, metrics, training
from .atomic import atomic_open, write_text_atomic
from .encoder import EncoderConfig
from .multitask import MultiTaskModel, build_model, require_task
from .tasks import BUILTIN_TASKS, TaskSpec
from .tokenization import load_vocab, save_vocab
from .training import TrainConfig, finetune_task, train_multitask

DEFAULT_SEEDS = (0, 1, 2)

# Config keys naming an EncoderConfig / TrainConfig field, with its type; unset keys take the field's default.
_ENCODER_KEYS = {f.name: f.type for f in fields(EncoderConfig) if f.name not in ("vocab_size", "seed")}
_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig) if f.name != "seed"}
_SCALAR_KEYS = {*_ENCODER_KEYS, *_TRAIN_KEYS, "tasks", "seeds", "max_vocab", "min_freq", "split_seed", "split_ratios"}
_PREFIX_KEYS = ("dataset.", "labels.", "granularity.", "positive.", "drop_labels.", "derive.")


class ConfigError(Exception):
    """Bad config file or command usage; maps to exit code 2."""


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse flat `key = value` lines; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{line_no}: duplicate key {key!r}")
        raw[key] = value
    for key in raw:
        if key in _SCALAR_KEYS or key.startswith(_PREFIX_KEYS):
            continue
        raise ConfigError(f"unknown config key {key!r}")
    return raw


def _get(raw, key, cast, default):
    if key not in raw:
        return default
    try:
        return cast(raw[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for config key {key!r}: {exc}") from None


def _csv(value: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _seeds(cli_seeds, raw: dict[str, str]) -> tuple[int, ...]:
    """The ``--seed`` values, else the config's ``seeds``, else ``DEFAULT_SEEDS``; each run once, all >= 0."""
    seeds = tuple(cli_seeds) if cli_seeds else _get(raw, "seeds", lambda v: tuple(map(int, _csv(v))), DEFAULT_SEEDS)
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be one or more distinct integers >= 0, got {list(seeds)}")
    return seeds


@dataclass
class RunSpec:
    """Everything a command needs, resolved from one config file."""

    tasks: tuple[str, ...]
    dataset_paths: dict[str, Path]
    derived: dict[str, tuple[str, str]]  # task -> (source task, field)
    specs: dict[str, TaskSpec]
    drop_labels: dict[str, tuple[str, ...]]
    encoder_kwargs: dict
    train_kwargs: dict
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
            raise ConfigError(f"bad task definition for {name!r}: {exc}") from None
    if name in BUILTIN_TASKS:
        return BUILTIN_TASKS[name]
    raise ConfigError(f"task {name!r} is not built in; {hint}")


def parse_config(raw: dict[str, str], cli_seeds=None) -> RunSpec:
    tasks = _get(raw, "tasks", _csv, ())
    if not tasks:
        raise ConfigError("config key 'tasks' is required and must name >= 1 task")
    dataset_paths: dict[str, Path] = {}
    derived: dict[str, tuple[str, str]] = {}
    specs: dict[str, TaskSpec] = {}
    drop_labels = dict(datamod.DEFAULT_DROP_LABELS)
    for task in tasks:
        if f"derive.{task}" in raw:
            source, _, fname = raw[f"derive.{task}"].partition(":")
            if fname not in ("bias_type", "polarity"):
                raise ConfigError(f"derive.{task}: field must be bias_type or polarity")
            if source.strip() not in tasks:
                raise ConfigError(f"derive.{task}: source task {source.strip()!r} not in tasks")
            derived[task] = (source.strip(), fname)
        elif f"dataset.{task}" in raw:
            dataset_paths[task] = Path(raw[f"dataset.{task}"])
        else:
            raise ConfigError(f"missing config key dataset.{task} (or derive.{task})")
        specs[task] = _task_spec(task, raw.get(f"labels.{task}"), raw.get(f"granularity.{task}", "sentence"),
                                 raw.get(f"positive.{task}"), f"config key labels.{task} is required")
        if f"drop_labels.{task}" in raw:
            drop_labels[task] = _csv(raw[f"drop_labels.{task}"])

    ratios = _get(raw, "split_ratios", lambda v: tuple(float(r) for r in _csv(v)), (0.8, 0.1, 0.1))
    return RunSpec(
        tasks=tasks,
        dataset_paths=dataset_paths,
        derived=derived,
        specs=specs,
        drop_labels=drop_labels,
        encoder_kwargs={key: _get(raw, key, cast, None) for key, cast in _ENCODER_KEYS.items() if key in raw},
        train_kwargs={key: _get(raw, key, cast, None) for key, cast in _TRAIN_KEYS.items() if key in raw},
        seeds=_seeds(cli_seeds, raw),
        max_vocab=_get(raw, "max_vocab", int, None),
        min_freq=_get(raw, "min_freq", int, 1),
        split_seed=_get(raw, "split_seed", int, 0),
        split_ratios=ratios,
        raw=dict(raw),
    )


def split_all(spec: RunSpec, datasets: dict[str, datamod.Dataset]) -> dict[str, datamod.SplitDataset]:
    return {
        task: datamod.split(ds, ratios=spec.split_ratios, seed=spec.split_seed)
        for task, ds in sorted(datasets.items())
    }


def _config_run(args, task_listed: bool = False):
    """Parse ``--config``, check ``--task`` is one of its tasks, then load (or derive) every dataset.

    Returns ``(spec, datasets, {seed: (encoder config, train config)})``. The
    encoder config's vocab_size is a placeholder; config-value errors exit 2.
    """
    spec = parse_config(load_config_file(args.config), args.seed)
    if task_listed and args.task not in spec.tasks:
        raise ConfigError(f"task {args.task!r} is not listed in the config 'tasks'")
    try:
        configs = {seed: (EncoderConfig(vocab_size=3, seed=seed, **spec.encoder_kwargs),
                          TrainConfig(seed=seed, **spec.train_kwargs)) for seed in spec.seeds}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    datasets: dict[str, datamod.Dataset] = {}
    for task, path in spec.dataset_paths.items():
        datasets[task] = datamod.load_dataset(path, spec.specs[task], spec.drop_labels.get(task, ()))
    for task, (source, fname) in spec.derived.items():
        datasets[task] = datamod.derive_field_task(datasets[source], fname, spec.specs[task])
    return spec, datasets, configs


def _write_json(path: Path, obj) -> None:
    write_text_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _open_run(args, command: str, raw: dict[str, str], seeds, inputs, extra: dict | None = None) -> Path:
    """Resolve the run directory, then write ``manifest.json`` and ``config.txt`` into it.

    Without ``--out`` the directory is ``runs/<command>-<digest>``, the digest
    covering the command, config, seeds and ``extra``, so runs with different
    settings never overwrite each other. Call it only once every input is validated.
    """
    config = dict(sorted(raw.items()))
    extra = extra or {}
    if args.out:
        out = Path(args.out)
    else:
        payload = {"command": command, "config": config, "seeds": list(seeds), "extra": extra}
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:12]
        out = Path("runs") / f"{command}-{digest}"
    out.mkdir(parents=True, exist_ok=True)
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
            fh.write(json.dumps({"row": name, **report.to_dict()}, sort_keys=True) + "\n")


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
        "per_seed": {str(s): r.to_dict() for s, r in per_seed.items()},
        "averaged": averaged.to_dict(),
    }


def _write_seed(out: Path, seed: int, model: MultiTaskModel, history: training.TrainHistory) -> Path:
    """Write one seed's ``model.ckpt`` and ``history.jsonl``; returns the seed directory."""
    seed_dir = out / f"seed{seed}"
    seed_dir.mkdir(exist_ok=True)
    ckpt.save_model(seed_dir / "model.ckpt", model)
    with atomic_open(seed_dir / "history.jsonl") as fh:
        for record in history.epochs:
            fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        fh.write(json.dumps({"best_epoch": history.best_epoch, "stop_reason": history.stop_reason}, sort_keys=True) + "\n")
    return seed_dir


def _load_model_and_vocab(checkpoint_path: str, vocab_path: str | None) -> MultiTaskModel:
    cp = Path(checkpoint_path)
    if not cp.exists():
        raise ConfigError(f"checkpoint not found: {cp}")
    model = ckpt.load_model(cp)
    candidates = [Path(vocab_path)] if vocab_path else [cp.parent / "vocab.txt", cp.parent.parent / "vocab.txt"]
    for cand in candidates:
        if cand.exists():
            model.vocab = load_vocab(cand)
            if model.vocab.size != model.config.vocab_size:
                raise ConfigError(f"vocabulary {cand} has {model.vocab.size} entries but checkpoint {cp} "
                                  f"has vocab_size {model.config.vocab_size}")
            return model
    raise ConfigError(f"vocabulary file not found next to {cp}; pass --vocab")


def _unseen_spec(args) -> TaskSpec:
    return _task_spec(args.task, args.labels, args.granularity, args.positive, "pass --labels")


# --- commands -------------------------------------------------------------------


def cmd_train(args) -> int:
    spec, datasets, configs = _config_run(args)
    splits = split_all(spec, datasets)
    vocab = evaluation.train_vocab(splits, spec.min_freq, spec.max_vocab)
    out = _open_run(args, "train", spec.raw, spec.seeds, [Path(args.config), *spec.dataset_paths.values()])
    save_vocab(vocab, out / "vocab.txt")

    per_seed: dict[int, dict[str, metrics.MetricsReport]] = {}
    for seed, (enc_config, train_config) in configs.items():
        enc_config = replace(enc_config, vocab_size=vocab.size)
        model = build_model(enc_config, [spec.specs[t] for t in spec.tasks], vocab=vocab)
        trained, history = train_multitask(model, splits, train_config, verbose=not args.quiet)
        _write_seed(out, seed, trained, history)
        per_seed[seed] = {
            task: evaluation.evaluate_model(trained, task, splits[task].test.examples)
            for task in sorted(splits)
        }
    averaged = {
        task: metrics.seed_average({s: reports[task] for s, reports in per_seed.items()})
        for task in sorted(splits)
    }
    _finish_run(out, {
        "per_seed": {str(s): {t: r.to_dict() for t, r in reports.items()} for s, reports in per_seed.items()},
        "averaged": {t: r.to_dict() for t, r in averaged.items()},
    }, sorted(averaged.items()), f"test metrics (mean of {len(spec.seeds)} seeds)")
    return 0


def cmd_finetune(args) -> int:
    spec, datasets, configs = _config_run(args, task_listed=True)
    split = split_all(spec, datasets)[args.task]
    model = _load_model_and_vocab(args.checkpoint, args.vocab)
    require_task(model, args.task)
    out = _open_run(args, "finetune", spec.raw, spec.seeds, [Path(args.config), *spec.dataset_paths.values()],
                    {"task": args.task, "checkpoint": args.checkpoint})

    per_seed: dict[int, metrics.MetricsReport] = {}
    for seed, (_, train_config) in configs.items():
        tuned, history = finetune_task(model, args.task, split, train_config, verbose=not args.quiet)
        save_vocab(model.vocab, _write_seed(out, seed, tuned, history) / "vocab.txt")
        per_seed[seed] = evaluation.evaluate_model(tuned, args.task, split.test.examples)
    averaged, entry = _seed_entry(per_seed)
    _finish_run(out, {"task": args.task, **entry}, [(args.task, averaged)], "fine-tuned test metrics")
    return 0


def cmd_fewshot(args) -> int:
    dataset = datamod.load_dataset(args.dataset, _unseen_spec(args))
    base = _load_model_and_vocab(args.checkpoint, args.vocab)
    seeds = _seeds(args.seed, {})
    fewshot_config = evaluation.FewShotConfig(k=args.k, mode=args.mode)
    evaluation.check_fewshot_inputs(base, dataset, args.k)
    train_config = TrainConfig(learning_rate=args.learning_rate, max_epochs=args.max_epochs,
                               patience=min(args.patience, args.max_epochs))
    raw = {"tasks": args.task, f"dataset.{args.task}": str(args.dataset), "k": str(args.k), "mode": args.mode,
           "learning_rate": str(train_config.learning_rate), "max_epochs": str(train_config.max_epochs),
           "patience": str(train_config.patience)}
    out = _open_run(args, "fewshot", raw, seeds, [Path(args.dataset)], {"checkpoint": args.checkpoint})

    per_seed: dict[int, metrics.MetricsReport] = {}
    for seed in seeds:
        result = evaluation.fewshot_run(base, dataset, replace(fewshot_config, seed=seed),
                                        replace(train_config, seed=seed))
        per_seed[seed] = result.report
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
    spec, datasets, configs = _config_run(args, task_listed=True)
    splits = split_all(spec, {t: d for t, d in datasets.items() if t != args.task})
    evaluation.event_folds(splits, datasets[args.task])  # refuse untagged or one-event data before writing
    out = _open_run(args, "loocv", spec.raw, spec.seeds, [Path(args.config), *spec.dataset_paths.values()],
                    {"task": args.task})

    results: dict[int, evaluation.LoocvResult] = {}
    for seed, (enc_config, train_config) in configs.items():
        # vocab_size is a placeholder: loocv_run swaps in its own vocabulary size
        result = evaluation.loocv_run(splits, datasets[args.task], enc_config, train_config,
                                      min_freq=spec.min_freq, max_vocab=spec.max_vocab)
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
                "folds": {f.event: f.report.to_dict() for f in r.folds},
                "average": r.average.to_dict(),
            }
            for s, r in results.items()
        },
        "averaged": averaged.to_dict(),
    }, [("average", averaged)], f"loocv mean of {len(spec.seeds)} seeds")
    return 0


def cmd_ablation(args) -> int:
    if not args.subset:
        raise ConfigError("pass at least one --subset")
    spec, datasets, configs = _config_run(args)
    splits = split_all(spec, datasets)
    subsets = evaluation.ablation_subsets([_csv(s) for s in args.subset], args.task, splits)
    out = _open_run(args, "ablation", spec.raw, spec.seeds, [Path(args.config), *spec.dataset_paths.values()],
                    {"task": args.task, "subsets": [list(s) for s in subsets]})

    rows_by_subset: dict[tuple[str, ...], dict[int, metrics.MetricsReport]] = {}
    for seed, (enc_config, train_config) in configs.items():
        # vocab_size is a placeholder: each ablation row builds its own vocabulary
        for row in evaluation.ablation_run(subsets, args.task, splits, enc_config, train_config,
                                           spec.min_freq, spec.max_vocab):
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
    model = _load_model_and_vocab(args.checkpoint, args.vocab)
    report = evaluation.evaluate_model(model, args.task, dataset.examples)
    print(metrics.format_report_table([(args.task, report)], title="evaluation"))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "metrics.json", {args.task: report.to_dict()})
        print(f"run directory: {out}")
    return 0


def cmd_validate_data(args) -> int:
    dataset = datamod.load_dataset(args.dataset, _unseen_spec(args), _csv(args.drop_labels or ""))
    print(datamod.format_dataset_summary([dataset]))
    return 0


def cmd_gen_synthetic(args) -> int:
    config = datamod.SyntheticSuiteConfig(
        task_names=_csv(args.tasks),
        examples_per_task=args.examples,
        vocab_size=args.vocab_size,
        markers_per_task=args.markers,
        shared_lexicon_size=args.shared_size,
        p_shared=args.p_shared,
        num_events=args.events,
    )
    suite = datamod.generate_synthetic_suite(_seeds(args.seed, {})[0], config)
    out = Path(args.out) if args.out else Path("runs") / "synthetic"
    out.mkdir(parents=True, exist_ok=True)
    for task, dataset in sorted(suite.items()):
        datamod.save_dataset(dataset, out / f"{task}.jsonl")
    print(datamod.format_dataset_summary([suite[t] for t in sorted(suite)]))
    print(f"wrote {len(suite)} dataset files to {out}")
    return 0


# --- parser ---------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, action="append",
                        help="run seed; repeat for multiple (default: 0 1 2)")
    parser.add_argument("--out", help="output directory (default: content-addressed under runs/)")
    parser.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")


def _add_task_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", required=True, help="task name")
    parser.add_argument("--labels", help="comma-separated label names for non-built-in tasks")
    parser.add_argument("--granularity", default="sentence",
                        choices=("sentence", "article", "tweet", "headline"))
    parser.add_argument("--positive", help="positive class name (optional)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="misinfo-mtl",
        description="Multi-task misinformation classifier training and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="stage-1 joint multi-task training")
    p.add_argument("--config", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="stage-2 per-task fine-tuning of a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--task", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("fewshot", help="k-shot adaptation to an unseen dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--dataset", required=True)
    _add_task_spec_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", default="full-model", choices=("full-model", "head-only"))
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    _add_common(p)
    p.set_defaults(func=cmd_fewshot)

    p = sub.add_parser("loocv", help="leave-one-event-out cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--task", required=True, help="event-tagged eval task (excluded from stage 1)")
    _add_common(p)
    p.set_defaults(func=cmd_loocv)

    p = sub.add_parser("ablation", help="task-combination ablation")
    p.add_argument("--config", required=True)
    p.add_argument("--task", required=True, help="eval task present in every subset")
    p.add_argument("--subset", action="append", help="comma-separated task subset; repeatable")
    _add_common(p)
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab")
    p.add_argument("--dataset", required=True)
    _add_task_spec_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("validate-data", help="validate a canonical dataset file")
    p.add_argument("--dataset", required=True)
    _add_task_spec_flags(p)
    p.add_argument("--drop-labels", help="comma-separated labels to drop before validation")
    _add_common(p)
    p.set_defaults(func=cmd_validate_data)

    p = sub.add_parser("gen-synthetic", help="generate a synthetic task suite")
    p.add_argument("--tasks", default="alpha,beta")
    p.add_argument("--examples", type=int, default=200)
    p.add_argument("--vocab-size", type=int, default=60)
    p.add_argument("--markers", type=int, default=3)
    p.add_argument("--shared-size", type=int, default=6)
    p.add_argument("--p-shared", type=float, default=0.0)
    p.add_argument("--events", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def _tune_allocator() -> None:
    """Tune glibc's heap (glibc only).

    Raise the trim and mmap thresholds so freed buffers are reused, not
    re-faulted, and keep one arena so the encoder's worker threads reuse the
    main heap instead of each growing their own.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


def main(argv=None) -> int:
    _tune_allocator()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        # str(KeyError) quotes its message; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1
    except Exception as exc:  # last resort: one line, no traceback
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
