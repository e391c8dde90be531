"""Paper-claims record: few-shot macro-F1 after no, single-task and multi-task training, into CLAIMS.json.

The paper claims that an encoder trained on several misinformation tasks at once adapts to an unseen task from
k examples better than one trained on a single task, which in turn beats a fresh model. This tool measures that
on acceptance criterion 7's synthetic suite and configs: 4 tasks of 200 examples over 60 word types (suite seed
7), ``delta`` held out as the unseen task; encoder d 32, 2 layers, 4 heads, FFN 64, 16 tokens, dropout 0.1;
stage 1 at lr 1e-3, batch 32, 30 epochs, patience 8; full-model adaptation for 15 epochs.

For each ``p_shared`` (how often a positive carries the tasks' shared lexicon) and each model seed it trains one
multi-task encoder on the three other tasks and one single-task encoder per task, then adapts each of them and a
fresh model (``vanilla``) to ``delta`` at every k, scoring the rest of ``delta``. ``single_task`` is the mean of
the three single-task encoders. The file holds the settings, every per-seed value, each method's mean and sd,
and per comparison the per-seed paired differences, their mean, sd and how many seeds are positive; and whether
vanilla < single-task < multi-task holds in the means. Nothing is gated. It depends on no time or machine, so two
runs write the same bytes. Standard library and the package's public API only; run from the repository root:

    python3 tools/claims.py --out CLAIMS.json
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from misinfo_mtl import (  # noqa: E402
    EncoderConfig,
    FewShotConfig,
    SyntheticSuiteConfig,
    TrainConfig,
    build_model,
    build_vocab,
    fewshot_run,
    generate_synthetic_suite,
    split,
    train_stage1,
)

SUITE_SEED = 7
TASKS = ("alpha", "beta", "gamma", "delta")
UNSEEN = "delta"
P_SHARED = (0.9, 0.0)
SEEDS = (0, 1, 2, 3, 4)
KS = (10, 25, 50)
SUITE = dict(task_names=TASKS, examples_per_task=200, vocab_size=60)
ENCODER = dict(embed_dim=32, num_layers=2, num_heads=4, ffn_dim=64, max_seq_len=16, dropout_rate=0.1)
STAGE1 = dict(learning_rate=1e-3, batch_size=32, max_epochs=30, patience=8)
ADAPTATION = dict(learning_rate=1e-3, batch_size=32, max_epochs=15, patience=15)
METHODS = ("vanilla", "single_task", "multi_task")
COMPARISONS = (("single_task", "vanilla"), ("multi_task", "single_task"), ("multi_task", "vanilla"))


def seed_scores(p_shared: float, seed: int) -> dict:
    """Macro-F1 on the unseen task at each k, per method (and per single-task encoder), for one model seed."""
    suite = generate_synthetic_suite(SUITE_SEED, SyntheticSuiteConfig(**SUITE, p_shared=p_shared))
    vocab = build_vocab([ex.text for t in sorted(suite) for ex in suite[t].examples])
    unseen = suite.pop(UNSEEN)
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    config = EncoderConfig(vocab_size=vocab.size, seed=seed, **ENCODER)

    def trained(tasks):
        return train_stage1(config, {t: splits[t] for t in tasks}, TrainConfig(seed=seed, **STAGE1), vocab)[0]

    models = {"vanilla": build_model(config, [], vocab=vocab), "multi_task": trained(sorted(splits))}
    models.update({f"single_task:{t}": trained([t]) for t in sorted(splits)})
    adapt = TrainConfig(seed=seed, **ADAPTATION)
    return {f"k={k}": {name: fewshot_run(model, unseen, FewShotConfig(k=k, seed=seed), adapt).report.macro_f1
                       for name, model in models.items()} for k in KS}


def spread(values: list[float]) -> dict:
    return {"per_seed": values, "mean": statistics.fmean(values), "sd": statistics.stdev(values)}


def table(per_seed: list[dict]) -> dict:
    """One k's record from each seed's scores at that k."""
    singles = sorted(name for name in per_seed[0] if name.startswith("single_task:"))
    values = {"vanilla": [s["vanilla"] for s in per_seed], "multi_task": [s["multi_task"] for s in per_seed],
              "single_task": [statistics.fmean(s[name] for name in singles) for s in per_seed]}
    record = {method: spread(values[method]) for method in METHODS}
    record["single_task"]["per_task"] = {name.split(":")[1]: [s[name] for s in per_seed] for name in singles}
    record["differences"] = {}
    for a, b in COMPARISONS:
        diffs = [x - y for x, y in zip(values[a], values[b])]
        record["differences"][f"{a} - {b}"] = {**spread(diffs), "seeds_positive": sum(d > 0 for d in diffs)}
    means = [record[method]["mean"] for method in METHODS]
    record["ordering_holds"] = means[0] < means[1] < means[2]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=ROOT / "CLAIMS.json")
    args = parser.parse_args(argv)
    started = time.monotonic()
    fewshot = {}
    for p_shared in P_SHARED:
        scores = [seed_scores(p_shared, seed) for seed in SEEDS]
        fewshot[f"p_shared={p_shared}"] = {f"k={k}": table([s[f"k={k}"] for s in scores]) for k in KS}
    record = {
        "claim": "few-shot macro-F1 on an unseen task: vanilla < single-task mean < multi-task",
        "suite": {**SUITE, "task_names": list(TASKS), "suite_seed": SUITE_SEED, "unseen": UNSEEN,
                  "p_shared": list(P_SHARED), "split_seed": 0},
        "encoder": ENCODER, "stage1": STAGE1, "adaptation": {**ADAPTATION, "mode": "full-model"},
        "seeds": list(SEEDS), "ks": list(KS), "fewshot": fewshot,
        "ordering_holds": all(r["ordering_holds"] for by_k in fewshot.values() for r in by_k.values()),
    }
    for setting, by_k in fewshot.items():
        for k, r in by_k.items():
            print(f"{setting} {k}: " + "  ".join(f"{m} {r[m]['mean']:.3f} ± {r[m]['sd']:.3f}" for m in METHODS)
                  + f"  ordering {'holds' if r['ordering_holds'] else 'FAILS'}")
    print(f"paper ordering holds everywhere: {record['ordering_holds']}")
    tmp = args.out.with_name(args.out.name + ".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, args.out)
    print(f"wrote {args.out} in {time.monotonic() - started:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
