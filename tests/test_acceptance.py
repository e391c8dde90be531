"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The learning/transfer criteria train real (desk-scale) models and take
about two minutes combined; every tolerance is asserted exactly as stated.
"""

import json
import time
from collections import Counter

import numpy as np

from misinfo_mtl.cli import main
from misinfo_mtl.data import SyntheticSuiteConfig, generate_synthetic_suite, split
from misinfo_mtl.encoder import EncoderConfig, init_encoder
from misinfo_mtl.evaluation import FewShotConfig, ablation_run, evaluate_model, fewshot_run, loocv_run
from misinfo_mtl.metrics import accuracy, macro_f1
from misinfo_mtl.multitask import (
    MultiTaskModel,
    TaskSpec,
    build_model,
    copy_dicts,
    flatten_params,
    assign_params,
    register_task,
    task_loss,
    task_step_gradients,
)
from misinfo_mtl.tokenization import Batch, build_vocab
from misinfo_mtl.training import (
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    finetune_task,
    lr_at,
    make_epoch_schedule,
    train_multitask,
)

from conftest import finite_difference_check
from test_metrics import oracle_accuracy, oracle_macro_f1


def _report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_gradient_correctness():
    started = time.monotonic()
    config = EncoderConfig(vocab_size=50, embed_dim=16, num_layers=2, num_heads=2,
                           ffn_dim=32, max_seq_len=12, dropout_rate=0.0, seed=3)
    model = MultiTaskModel(encoder=init_encoder(config))
    register_task(model, TaskSpec("probe", ("a", "b", "c"), "sentence"), seed=11)
    rng = np.random.default_rng(0)
    ids = rng.integers(3, 50, size=(6, 12))
    ids[:, 0] = 2
    lengths = np.array([int(rng.integers(5, 13)) for _ in range(6)])
    ids[np.arange(12) >= lengths[:, None]] = 0
    batch = Batch(ids, lengths)
    labels = rng.integers(0, 3, size=6)

    def loss_fn(tree):
        for key, arr in tree.items():
            scope, rest = key.split(".", 1)
            if scope == "encoder":
                model.encoder.tensors[rest] = arr
            else:
                task, name = rest.rsplit(".", 1)
                model.heads[task][name] = arr
        return task_loss(model, "probe", batch, labels, train_mode=False, return_cache=False)[0]

    flat = flatten_params(model)
    total = sum(v.size for v in flat.values())
    assert total >= 200
    _, grads = task_step_gradients(model, "probe", batch, labels, train_mode=False)
    err = finite_difference_check(loss_fn, flat, grads, epsilon=1e-4, sample_count=250, seed=7)
    elapsed = time.monotonic() - started
    assert err <= 1e-4, f"max relative error {err}"
    assert elapsed < 60.0
    _report(1, f"cross-entropy gradients vs central differences: max rel err {err:.2e} "
               f"<= 1e-4 over 250 sampled parameters ({elapsed:.1f}s)")


def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        num_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 201))
        preds = rng.integers(0, num_classes, size=n).tolist()
        labels = rng.integers(0, num_classes, size=n).tolist()
        assert accuracy(preds, labels) == oracle_accuracy(preds, labels)
        assert macro_f1(preds, labels, num_classes) == oracle_macro_f1(preds, labels, num_classes)
    _report(2, "accuracy and macro-F1 equal the brute-force confusion-matrix oracle "
               "exactly on 1000 random vectors (2-5 classes, lengths 1-200)")


def test_criterion_3_balanced_oversampling():
    sizes = {"newsbias": 7984, "fakenews": 1627, "rumor": 1705, "clickbait": 19538}
    schedule = make_epoch_schedule(sizes, batch_size=32, seed=0)
    counts = Counter(task for task, _ in schedule.batches)
    assert counts == {task: 611 for task in sizes}, counts
    drawn = schedule.example_counts()
    spread = max(drawn.values()) - min(drawn.values())
    assert spread <= 32, drawn
    _report(3, f"each task contributes 611 batches for sizes {sorted(sizes.values())}; "
               f"drawn-example spread {spread} <= 32")


def _two_task_setup(seed=0, examples=80):
    suite = generate_synthetic_suite(
        seed, SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=examples)
    )
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2,
                           ffn_dim=32, max_seq_len=16, dropout_rate=0.1, seed=seed)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    return model, splits


def test_criterion_4_head_isolation():
    model, splits = _two_task_setup()
    from misinfo_mtl.multitask import encode_for_task

    batch, labels = encode_for_task(model, "alpha", splits["alpha"].train.examples[:8])
    head_b_before = {k: v.copy() for k, v in model.heads["beta"].items()}
    _, grads = task_step_gradients(model, "alpha", batch, labels,
                                   train_mode=True, rng=np.random.default_rng(0))
    updated, _ = adam_step(flatten_params(model), grads, AdamState(), lr=1e-3)
    assign_params(model, updated)
    for name in head_b_before:
        assert np.array_equal(model.heads["beta"][name], head_b_before[name])
    assert any(np.any(grads[k] != 0) for k in grads if k.startswith("encoder."))

    cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=2, patience=2, seed=0)
    stage1, _ = train_multitask(model, splits, cfg)
    stage2, _ = finetune_task(copy_dicts(stage1), "alpha", splits["alpha"], cfg)
    for name in stage1.heads["beta"]:
        assert np.array_equal(stage2.heads["beta"][name], stage1.heads["beta"][name])
    _report(4, "one stage-1 step on task A leaves head B bit-identical; stage-2 "
               "fine-tuning leaves every other head bit-identical to the stage-1 checkpoint")


def test_criterion_5_optimizer_and_schedule_contracts():
    assert lr_at(0, 1000, 5e-6) == 5e-6
    assert lr_at(1000, 1000, 5e-6) == 0.0
    values = [lr_at(s, 1000, 5e-6) for s in range(1001)]
    assert all(a >= b for a, b in zip(values, values[1:]))

    rng = np.random.default_rng(1)
    params = {"w": rng.standard_normal((8, 8)), "b": -np.abs(rng.standard_normal(8))}
    before = {k: v.copy() for k, v in params.items()}
    state = AdamState()
    for _ in range(3):  # repeated lr=0 steps stay bit-exact even with moments built up
        params, state = adam_step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()},
                                  state, lr=0.0)
    for k in before:
        assert np.array_equal(params[k], before[k])

    stopper = EarlyStopper(patience=5)
    stops = [stopper.update(e, v) for e, v in enumerate([3, 2, 2, 2, 2, 2, 2], start=1)]
    assert stops[-1] and not any(stops[:-1])
    assert stopper.best_epoch == 2

    assert TrainConfig().max_epochs == 15 and TrainConfig().patience == 5
    model, splits = _two_task_setup()
    cfg = TrainConfig(learning_rate=5e-2, batch_size=32, max_epochs=15, patience=3, seed=0)
    _, hist = train_multitask(model, splits, cfg)
    assert len(hist.epochs) <= 15
    assert len(hist.epochs) - hist.best_epoch <= cfg.patience
    _report(5, "lr schedule endpoints and monotonicity, bit-exact lr=0 Adam no-op, and "
               f"early stopping bounds hold (ran {len(hist.epochs)} epochs, best {hist.best_epoch})")


def test_criterion_6_learning_sanity():
    started = time.monotonic()
    accs = {}
    for seed in (0, 1, 2):
        suite = generate_synthetic_suite(
            0, SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=200)
        )
        splits = {t: split(ds, seed=0) for t, ds in suite.items()}
        vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
        config = EncoderConfig(vocab_size=vocab.size, embed_dim=32, num_layers=2, num_heads=4,
                               ffn_dim=64, max_seq_len=16, dropout_rate=0.1, seed=seed)
        model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=50, patience=10, seed=seed)
        trained, hist = train_multitask(model, splits, cfg)
        assert len(hist.epochs) <= 50
        for task in splits:
            acc = evaluate_model(trained, task, splits[task].train.examples).accuracy
            accs[(seed, task)] = acc
            assert acc >= 0.95, f"seed {seed} task {task}: train accuracy {acc}"
            assert min(r.train_loss[task] for r in hist.epochs) < 0.1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    worst = min(accs.values())
    _report(6, f"two separable tasks reach >= 95% train accuracy within 50 epochs on all "
               f"3 seeds (worst {worst:.3f}, {elapsed:.0f}s < 5 min)")


def test_criterion_7_fewshot_transfer_analogue():
    started = time.monotonic()
    suite_cfg = SyntheticSuiteConfig(task_names=("alpha", "beta", "gamma", "delta"),
                                     examples_per_task=200, vocab_size=60, p_shared=0.9)
    suite = generate_synthetic_suite(7, suite_cfg)
    vocab = build_vocab([ex.text for t in sorted(suite) for ex in suite[t].examples])
    unseen = suite.pop("delta")
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}

    gaps = []
    for seed in (0, 1, 2):
        config = EncoderConfig(vocab_size=vocab.size, embed_dim=32, num_layers=2, num_heads=4,
                               ffn_dim=64, max_seq_len=16, dropout_rate=0.1, seed=seed)
        stage1_cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=30, patience=8, seed=seed)
        adapt_cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=15, patience=15, seed=seed)
        model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
        stage1, _ = train_multitask(model, splits, stage1_cfg)
        fresh = build_model(config, [], vocab=vocab)

        fs = FewShotConfig(k=10, seed=seed, mode="full-model")
        pre = fewshot_run(stage1, unseen, fs, adapt_cfg).report.macro_f1
        scratch = fewshot_run(fresh, unseen, fs, adapt_cfg).report.macro_f1
        gaps.append(pre - scratch)
    mean_gap = float(np.mean(gaps))
    elapsed = time.monotonic() - started
    assert mean_gap >= 0.05, f"mean macro-F1 gap {mean_gap:.4f} (per-seed {gaps})"
    assert elapsed < 600.0
    _report(7, f"k=10 adaptation from the jointly trained encoder beats a fresh model by "
               f"{mean_gap * 100:.1f} macro-F1 points (mean of 3 seeds, needs >= 5; {elapsed:.0f}s < 10 min)")


def test_criterion_8_protocol_audits():
    # few-shot partitions
    suite = generate_synthetic_suite(
        1, SyntheticSuiteConfig(task_names=("alpha", "unseen"), examples_per_task=60)
    )
    vocab = build_vocab([ex.text for t in sorted(suite) for ex in suite[t].examples])
    enc = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2,
                        ffn_dim=32, max_seq_len=16, dropout_rate=0.1, seed=0)
    quick = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=1, patience=1, seed=0)
    base = build_model(enc, [suite["alpha"].spec], vocab=vocab)
    result = fewshot_run(base, suite["unseen"], FewShotConfig(k=10, seed=0), quick)
    assert len(result.train_ids) == 10 and len(result.test_ids) == 50
    assert set(result.train_ids).isdisjoint(result.test_ids)
    assert set(result.train_ids) | set(result.test_ids) == {ex.id for ex in suite["unseen"].examples}

    # leave-one-event-out audit on 9-event data
    ev_suite = generate_synthetic_suite(
        2, SyntheticSuiteConfig(task_names=("alpha", "beta", "rumor"), examples_per_task=90,
                                p_shared=0.5, num_events=9)
    )
    stage1_splits = {t: split(ev_suite[t], seed=0) for t in ("alpha", "beta")}
    lo = loocv_run(stage1_splits, ev_suite["rumor"], enc, quick)
    assert lo.stage1_tasks == ("alpha", "beta")
    assert "rumor" not in lo.stage1_tasks
    assert len(lo.folds) == 9
    for fold in lo.folds:
        assert fold.event not in fold.train_events
        test_events = {ex.event for ex in ev_suite["rumor"].examples if ex.id in set(fold.test_ids)}
        assert test_events == {fold.event}
        assert set(fold.test_ids).isdisjoint(fold.train_ids)

    # ablation reduction: singleton subset == direct single-task two-stage run
    alpha_split = split(ev_suite["alpha"], seed=0)
    rows = ablation_run([("alpha",)], "alpha", {"alpha": alpha_split}, enc, quick)
    direct_vocab = build_vocab([ex.text for ex in alpha_split.train.examples])
    from dataclasses import replace as dc_replace

    direct_cfg = dc_replace(enc, vocab_size=direct_vocab.size)
    direct_model = build_model(direct_cfg, [alpha_split.train.spec], vocab=direct_vocab)
    stage1, _ = train_multitask(direct_model, {"alpha": alpha_split}, quick)
    stage2, _ = finetune_task(stage1, "alpha", alpha_split, quick)
    direct_report = evaluate_model(stage2, "alpha", alpha_split.test.examples)
    assert rows[0].report == direct_report
    _report(8, "few-shot partitions are exact k / N-k splits; LOOCV runs 9 folds with the "
               "eval task excluded from stage 1 and no test-event leakage; singleton "
               "ablation equals direct single-task training")


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--tasks", "alpha,beta,gamma", "--examples", "60",
                 "--p-shared", "0.5", "--out", str(data), "--seed", "5"]) == 0
    assert main(["gen-synthetic", "--tasks", "alpha,beta,gamma", "--examples", "60",
                 "--p-shared", "0.5", "--out", str(tmp_path / "data2"), "--seed", "5"]) == 0
    assert (data / "alpha.jsonl").read_bytes() == (tmp_path / "data2" / "alpha.jsonl").read_bytes()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "embed_dim = 16\nnum_layers = 1\nnum_heads = 2\nffn_dim = 32\nmax_seq_len = 16\n"
        "learning_rate = 1e-3\nbatch_size = 32\nmax_epochs = 2\npatience = 2\n"
        "tasks = alpha,beta\n"
        f"dataset.alpha = {data}/alpha.jsonl\ndataset.beta = {data}/beta.jsonl\n"
        "labels.alpha = negative,positive\nlabels.beta = negative,positive\n"
    )
    for out in ("t1", "t2"):
        assert main(["train", "--config", str(cfg), "--seed", "0",
                     "--out", str(tmp_path / out), "--quiet"]) == 0
    assert (tmp_path / "t1" / "metrics.json").read_bytes() == (tmp_path / "t2" / "metrics.json").read_bytes()
    assert ((tmp_path / "t1" / "seed0" / "model.ckpt").read_bytes()
            == (tmp_path / "t2" / "seed0" / "model.ckpt").read_bytes())

    for out in ("f1", "f2"):
        assert main(["fewshot", "--checkpoint", str(tmp_path / "t1" / "seed0" / "model.ckpt"),
                     "--dataset", str(data / "gamma.jsonl"), "--task", "gamma",
                     "--labels", "negative,positive", "--k", "10", "--seed", "0",
                     "--out", str(tmp_path / out), "--max-epochs", "1", "--quiet"]) == 0
    assert (tmp_path / "f1" / "metrics.json").read_bytes() == (tmp_path / "f2" / "metrics.json").read_bytes()
    _report(9, "reruns with identical config and seed produce byte-identical dataset files, "
               "metrics reports and checkpoints (gen-synthetic, train, fewshot)")
