"""Workload definitions: seeded input generators and the CLI command sequences.

Inputs are generated by this file alone (numpy's seeded generator and the
json module), never by the program under test, so a change to the program
cannot change what the benchmark feeds it. Every task is binary: positives
carry three of the task's marker words per 16 filler words and, with
probability ``P_SHARED``, as many words of a lexicon shared by all tasks;
negatives are filler only. Planted words go in among the first
``MARKER_WINDOW`` words, so truncation at ``max_seq_len`` keeps most of them.
"""

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_stats import scheduled_train_examples, split_sizes

LABELS = ("negative", "positive")
P_SHARED = 0.9
MARKERS_PER_TASK = 3
SHARED_LEXICON = 6
MARKER_WINDOW = 96
SPLIT_RATIOS = (0.8, 0.1, 0.1)

# The desk encoder of the README, used by every workload.
ENCODER_CONFIG = {
    "embed_dim": 64,
    "num_layers": 2,
    "num_heads": 4,
    "ffn_dim": 128,
    "max_seq_len": 128,
    "dropout_rate": 0.1,
    "learning_rate": 1e-3,
    "batch_size": 32,
}


@dataclass(frozen=True)
class Workload:
    """One named input family and the command sequence run over it.

    ``train_tasks`` are trained jointly by ``train``; ``finetune_task`` (if
    any) is specialised by ``finetune``; ``eval_task`` is scored on a fresh
    file of ``eval_examples``; ``fewshot_task`` (if any) is an unseen task
    adapted from ``fewshot_k`` shots in each of ``fewshot_modes``.
    """

    name: str
    vocab_words: int
    lengths: str  # "short", "long" or "long-tailed"
    train_tasks: tuple[str, ...]
    examples_per_task: int
    train_epochs: int
    eval_task: str
    eval_examples: int
    finetune_task: str | None = None
    finetune_epochs: int = 0
    fewshot_task: str | None = None
    fewshot_examples: int = 0
    fewshot_k: int = 25
    fewshot_epochs: int = 2
    fewshot_modes: tuple[str, ...] = ()
    min_eval_macro_f1: float = 0.0  # `eval` fails below this

    def scheduled_train_examples(self) -> int:
        """Examples the ``train`` and ``finetune`` commands are scheduled to process."""
        train_n = split_sizes(self.examples_per_task, SPLIT_RATIOS)[0]
        total = scheduled_train_examples({t: train_n for t in self.train_tasks}, self.train_epochs)
        if self.finetune_task:
            total += scheduled_train_examples({self.finetune_task: train_n}, self.finetune_epochs)
        return total


# Why each workload exists is in BENCHMARK.json and README.md: short padded
# texts, long unpadded texts, and forward-dominated adaptation and scoring.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart-short",
            vocab_words=60, lengths="short",
            train_tasks=("alpha", "beta", "gamma", "rumorlike"), examples_per_task=200, train_epochs=1,
            finetune_task="alpha", finetune_epochs=1, eval_task="alpha", eval_examples=200,
            # On the seed commit this eval scored macro-F1 >= 0.91 on every seed
            # tried; chance is 0.33 to 0.5.
            min_eval_macro_f1=0.7,
        ),
        Workload(
            name="articles-long",
            vocab_words=30000, lengths="long",
            train_tasks=("press", "wire"), examples_per_task=200, train_epochs=1,
            finetune_task="press", finetune_epochs=1, eval_task="press", eval_examples=400,
        ),
        Workload(
            name="adapt-eval",
            vocab_words=2000, lengths="long-tailed",
            train_tasks=("claims", "posts"), examples_per_task=120, train_epochs=1,
            eval_task="claims", eval_examples=800,
            fewshot_task="rumors", fewshot_examples=360, fewshot_modes=("head-only", "full-model"),
        ),
    )
}


def _text_length(rng: np.random.Generator, lengths: str) -> int:
    """Filler-token count of one text (markers come on top)."""
    if lengths == "short":
        return int(rng.integers(5, 10))
    if lengths == "long":
        return int(rng.integers(100, 201))
    if rng.random() < 0.1:  # long-tailed: about 1 in 10 texts reaches max_seq_len
        return int(rng.integers(120, 161))
    return int(rng.integers(4, 15))


def _task_records(rng, task, n, filler, markers, shared, lengths, id_prefix):
    """Balanced binary records for one task, in shuffled order."""
    labels = [LABELS[1]] * (n // 2) + [LABELS[0]] * (n - n // 2)
    records = []
    for i, label in enumerate(labels):
        tokens = [filler[j] for j in rng.integers(0, len(filler), size=_text_length(rng, lengths))]
        if label == LABELS[1]:
            n_planted = 3 * max(1, len(tokens) // 16)
            planted = [markers[j] for j in rng.integers(0, len(markers), size=n_planted)]
            if rng.random() < P_SHARED:
                planted += [shared[j] for j in rng.integers(0, len(shared), size=n_planted)]
            for word in planted:
                tokens.insert(int(rng.integers(0, min(MARKER_WINDOW, len(tokens)) + 1)), word)
        records.append({"id": f"{id_prefix}-{i:05d}", "text": " ".join(tokens), "task": task, "label": label})
    return [records[i] for i in rng.permutation(n)]


def generate_inputs(workload: Workload, seed: int, out: Path) -> dict[str, Path]:
    """Write every input file of ``workload`` under ``out``; return name -> path.

    The same (workload, seed) always writes the same bytes.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(workload.name.encode())]))
    tasks = workload.train_tasks + ((workload.fewshot_task,) if workload.fewshot_task else ())
    words = [f"w{i:05d}" for i in range(workload.vocab_words)]
    shared = words[:SHARED_LEXICON]
    markers = {}
    offset = SHARED_LEXICON
    for task in tasks:
        markers[task] = words[offset : offset + MARKERS_PER_TASK]
        offset += MARKERS_PER_TASK
    filler = words[offset:]

    files: dict[str, list[dict]] = {}
    for task in workload.train_tasks:
        files[f"{task}.jsonl"] = _task_records(
            rng, task, workload.examples_per_task, filler, markers[task], shared, workload.lengths, task)
    files["eval.jsonl"] = _task_records(
        rng, workload.eval_task, workload.eval_examples, filler, markers[workload.eval_task], shared,
        workload.lengths, f"{workload.eval_task}-eval")
    if workload.fewshot_task:
        files["fewshot.jsonl"] = _task_records(
            rng, workload.fewshot_task, workload.fewshot_examples, filler, markers[workload.fewshot_task], shared,
            workload.lengths, workload.fewshot_task)

    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, records in files.items():
        paths[name] = out / name
        paths[name].write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8")
    paths["stage1.cfg"] = out / "stage1.cfg"
    paths["stage1.cfg"].write_text(_config_text(workload, out, workload.train_epochs), encoding="utf-8")
    if workload.finetune_task:
        paths["stage2.cfg"] = out / "stage2.cfg"
        paths["stage2.cfg"].write_text(_config_text(workload, out, workload.finetune_epochs), encoding="utf-8")
    return paths


def _config_text(workload: Workload, out: Path, epochs: int) -> str:
    # patience == max_epochs: early stopping never fires, so every run does the same work.
    lines = [f"{k} = {v}" for k, v in ENCODER_CONFIG.items()]
    lines += [f"max_epochs = {epochs}", f"patience = {epochs}", f"tasks = {','.join(workload.train_tasks)}"]
    for task in workload.train_tasks:
        lines += [f"dataset.{task} = {out / f'{task}.jsonl'}", f"labels.{task} = {','.join(LABELS)}"]
    return "\n".join(lines) + "\n"


def input_digests(paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of every generated input file."""
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in sorted(paths.items())}


def commands(workload: Workload, paths: dict[str, Path], runs: Path) -> list[tuple[str, list[str]]]:
    """The timed CLI sequence as (phase, argv) pairs, in order."""
    labels = ",".join(LABELS)
    stage1 = runs / "stage1"
    seq = [("train", ["train", "--config", str(paths["stage1.cfg"]), "--seed", "0", "--quiet", "--out", str(stage1)])]
    checkpoint = stage1 / "seed0" / "model.ckpt"
    if workload.finetune_task:
        stage2 = runs / "stage2"
        seq.append(("finetune", [
            "finetune", "--config", str(paths["stage2.cfg"]), "--task", workload.finetune_task,
            "--checkpoint", str(checkpoint), "--seed", "0", "--quiet", "--out", str(stage2)]))
        checkpoint = stage2 / "seed0" / "model.ckpt"
    seq.append(("eval", [
        "eval", "--checkpoint", str(checkpoint), "--dataset", str(paths["eval.jsonl"]),
        "--task", workload.eval_task, "--labels", labels, "--out", str(runs / "eval")]))
    for mode in workload.fewshot_modes:
        epochs = str(workload.fewshot_epochs)
        seq.append((f"fewshot-{mode}", [
            "fewshot", "--checkpoint", str(stage1 / "seed0" / "model.ckpt"),
            "--dataset", str(paths["fewshot.jsonl"]), "--task", workload.fewshot_task, "--labels", labels,
            "--k", str(workload.fewshot_k), "--mode", mode,
            "--learning-rate", str(ENCODER_CONFIG["learning_rate"]),
            "--max-epochs", epochs, "--patience", epochs, "--seed", "0", "--quiet",
            "--out", str(runs / f"fewshot-{mode}")]))
    return seq
