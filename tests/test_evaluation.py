import numpy as np
import pytest

from misinfo_mtl.data import SyntheticSuiteConfig, generate_synthetic_suite, split
from misinfo_mtl.encoder import EncoderConfig
from misinfo_mtl.evaluation import (
    FewShotConfig,
    ablation_run,
    evaluate_model,
    fewshot_run,
    loocv_run,
    run_two_stage,
)
from misinfo_mtl.metrics import macro_f1
from misinfo_mtl.multitask import build_model, encode_for_task, predict
from misinfo_mtl.tokenization import build_vocab
from misinfo_mtl.training import TrainConfig, train_multitask


def _suite_and_vocab(task_names, examples=80, p_shared=0.0, num_events=0, seed=1):
    suite = generate_synthetic_suite(
        seed,
        SyntheticSuiteConfig(task_names=tuple(task_names), examples_per_task=examples,
                             p_shared=p_shared, num_events=num_events),
    )
    vocab = build_vocab([ex.text for t in sorted(suite) for ex in suite[t].examples])
    return suite, vocab


def _enc(vocab, seed=0, **overrides):
    base = dict(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2,
                ffn_dim=32, max_seq_len=16, dropout_rate=0.1, seed=seed)
    base.update(overrides)
    return EncoderConfig(**base)


def _tc(**overrides):
    base = dict(learning_rate=1e-3, batch_size=32, max_epochs=2, patience=2, max_seq_len=16, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_evaluate_model_matches_manual_predictions():
    suite, vocab = _suite_and_vocab(("alpha", "beta"))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    model = build_model(_enc(vocab), [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    examples = splits["alpha"].test.examples
    report = evaluate_model(model, "alpha", examples)
    batch, labels = encode_for_task(examples, splits["alpha"].test.spec, vocab, 16)
    preds = predict(model, "alpha", batch).argmax(axis=1)
    assert report.accuracy == np.mean(preds == labels)
    assert report.macro_f1 == macro_f1(preds.tolist(), labels.tolist(), 2)


def _trained_alpha():
    suite, vocab = _suite_and_vocab(("alpha", "beta"), examples=120)
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    model = build_model(_enc(vocab), [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    model, _ = train_multitask(model, splits, _tc(max_epochs=2, patience=2))
    return model, list(suite["alpha"].examples)


def test_evaluate_model_ignores_input_order():
    model, examples = _trained_alpha()
    shuffled = [examples[i] for i in np.random.default_rng(0).permutation(len(examples))]
    assert evaluate_model(model, "alpha", shuffled) == evaluate_model(model, "alpha", examples)


def test_evaluate_model_scores_predictions_in_input_order(monkeypatch):
    import misinfo_mtl.evaluation as ev

    model, examples = _trained_alpha()
    seen = []
    real_report = ev.compute_report

    def capture(preds, gold, labels):
        seen.append((preds, gold))
        return real_report(preds, gold, labels)

    monkeypatch.setattr(ev, "compute_report", capture)
    evaluate_model(model, "alpha", examples)
    batch, labels = encode_for_task(examples, model.tasks["alpha"], model.vocab, 16)
    assert len(set(batch.lengths.tolist())) > 1  # ragged, so length order differs from input order
    expected = predict(model, "alpha", batch).argmax(axis=1)  # one padded batch, input order
    assert 0 < expected.sum() < len(expected)
    assert seen == [(expected.tolist(), labels.tolist())]


def test_fewshot_config_validation():
    with pytest.raises(ValueError, match="k must be"):
        FewShotConfig(k=0)
    with pytest.raises(ValueError, match="mode"):
        FewShotConfig(k=10, mode="adapter")


def test_fewshot_partition_and_paper_sizes():
    suite, vocab = _suite_and_vocab(("alpha", "unseen"), examples=504)
    base = build_model(_enc(vocab), [suite["alpha"].spec], vocab=vocab)
    result = fewshot_run(base, suite["unseen"], FewShotConfig(k=50, seed=0), _tc(max_epochs=1, patience=1))
    assert len(result.train_ids) == 50
    assert len(result.test_ids) == 454  # N=504, k=50
    assert set(result.train_ids).isdisjoint(result.test_ids)
    assert set(result.train_ids) | set(result.test_ids) == {ex.id for ex in suite["unseen"].examples}


def test_fewshot_seed_determinism_and_variation():
    suite, vocab = _suite_and_vocab(("alpha", "unseen"), examples=60)
    base = build_model(_enc(vocab), [suite["alpha"].spec], vocab=vocab)
    r1 = fewshot_run(base, suite["unseen"], FewShotConfig(k=10, seed=3), _tc(max_epochs=1, patience=1))
    r2 = fewshot_run(base, suite["unseen"], FewShotConfig(k=10, seed=3), _tc(max_epochs=1, patience=1))
    r3 = fewshot_run(base, suite["unseen"], FewShotConfig(k=10, seed=4), _tc(max_epochs=1, patience=1))
    assert r1.train_ids == r2.train_ids
    assert r1.report == r2.report
    assert r1.train_ids != r3.train_ids


def test_fewshot_guards():
    suite, vocab = _suite_and_vocab(("alpha", "unseen"), examples=20)
    base = build_model(_enc(vocab), [suite["alpha"].spec], vocab=vocab)
    with pytest.raises(ValueError, match="must be <"):
        fewshot_run(base, suite["unseen"], FewShotConfig(k=20, seed=0), _tc())
    with pytest.raises(ValueError, match="already registered"):
        fewshot_run(base, suite["alpha"], FewShotConfig(k=5, seed=0), _tc())


def test_fewshot_head_only_freezes_encoder():
    suite, vocab = _suite_and_vocab(("alpha", "unseen"), examples=40)
    base = build_model(_enc(vocab), [suite["alpha"].spec], vocab=vocab)
    frozen = fewshot_run(base, suite["unseen"], FewShotConfig(k=10, seed=0, mode="head-only"),
                         _tc(max_epochs=2, patience=2))
    for k in base.encoder.tensors:
        assert np.array_equal(frozen.model.encoder.tensors[k], base.encoder.tensors[k])
    # the new head itself did train
    assert "unseen" in frozen.model.heads
    full = fewshot_run(base, suite["unseen"], FewShotConfig(k=10, seed=0, mode="full-model"),
                       _tc(max_epochs=2, patience=2))
    assert any(
        not np.array_equal(full.model.encoder.tensors[k], base.encoder.tensors[k])
        for k in base.encoder.tensors
    )


def test_head_only_fewshot_skips_encoder_backward_bit_identically(monkeypatch):
    import misinfo_mtl.encoder as enc
    import misinfo_mtl.training as training

    suite, vocab = _suite_and_vocab(("alpha", "unseen"), examples=60)
    base = build_model(_enc(vocab), [suite["alpha"].spec], vocab=vocab)
    cfg, tc = FewShotConfig(k=20, seed=1, mode="head-only"), _tc(batch_size=8, max_epochs=2, patience=2)

    backward_calls, caches = [], []
    real_backward = enc.backward
    monkeypatch.setattr(enc, "backward", lambda *a, **kw: backward_calls.append(1) or real_backward(*a, **kw))

    class CountedCache(enc.EncoderCache):
        def __init__(self, *args, **kwargs):
            caches.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(enc, "EncoderCache", CountedCache)
    skipped = fewshot_run(base, suite["unseen"], cfg, tc)
    assert backward_calls == [] and caches == []  # no backward, and no cache built for one

    # reference: compute the full backward, then keep only the head gradients
    real_step = training.task_step_gradients

    def full_then_filter(*args, train_encoder=True, **kwargs):
        loss, grads = real_step(*args, **kwargs)
        return loss, {k: g for k, g in grads.items() if train_encoder or k.startswith("head.")}

    monkeypatch.setattr(training, "task_step_gradients", full_then_filter)
    reference = fewshot_run(base, suite["unseen"], cfg, tc)
    assert backward_calls and caches
    assert skipped.report == reference.report
    for k, v in reference.model.heads["unseen"].items():
        assert np.array_equal(skipped.model.heads["unseen"][k], v), k
    for k, v in reference.model.encoder.tensors.items():
        assert np.array_equal(skipped.model.encoder.tensors[k], v), k


def test_loocv_excludes_eval_task_and_partitions_events():
    suite, vocab = _suite_and_vocab(("alpha", "beta", "rumorlike"), examples=90, num_events=9)
    splits = {t: split(suite[t], seed=0) for t in ("alpha", "beta")}
    result = loocv_run(splits, suite["rumorlike"], _enc(vocab), _tc())
    assert result.stage1_tasks == ("alpha", "beta")
    assert "rumorlike" not in result.stage1_tasks
    assert len(result.folds) == 9
    all_ids = {ex.id for ex in suite["rumorlike"].examples}
    for fold in result.folds:
        assert set(fold.test_ids).isdisjoint(fold.train_ids)
        assert set(fold.test_ids) | set(fold.train_ids) == all_ids
        assert fold.event not in fold.train_events
    # average row is the arithmetic mean of fold metrics
    accs = [f.report.accuracy for f in result.folds]
    assert result.average.accuracy == pytest.approx(sum(accs) / len(accs))
    f1s = [f.report.macro_f1 for f in result.folds]
    assert result.average.macro_f1 == pytest.approx(sum(f1s) / len(f1s))


def test_loocv_requires_other_tasks():
    suite, vocab = _suite_and_vocab(("alpha", "rumorlike"), examples=30, num_events=3)
    with pytest.raises(ValueError, match="no stage-1 tasks"):
        loocv_run({}, suite["rumorlike"], _enc(vocab), _tc())


def test_ablation_requires_eval_task_in_every_subset():
    suite, vocab = _suite_and_vocab(("alpha", "beta"))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    with pytest.raises(ValueError, match="missing from subset"):
        ablation_run([("beta",)], "alpha", splits, _enc(vocab), _tc())


def test_ablation_deduplicates_with_warning():
    suite, vocab = _suite_and_vocab(("alpha", "beta"))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    with pytest.warns(UserWarning, match="duplicate task subset"):
        rows = ablation_run(
            [("alpha",), ("alpha", "beta"), ("beta", "alpha")], "alpha", splits, _enc(vocab), _tc()
        )
    assert [r.subset for r in rows] == [("alpha",), ("alpha", "beta")]


def test_ablation_accepts_the_full_combination_grid():
    # The published ablation layout: over four tasks, subsets of sizes
    # 1, 2, 2, 2, 3, 3, 3, 4 all containing the eval task -> 8 rows.
    suite, vocab = _suite_and_vocab(("rumor_like", "bias_like", "click_like", "fake_like"),
                                    examples=40)
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    others = ("bias_like", "click_like", "fake_like")
    subsets = [("rumor_like",)]
    subsets += [("rumor_like", o) for o in others]
    subsets += [tuple(sorted(("rumor_like",) + pair))
                for pair in (("bias_like", "click_like"), ("bias_like", "fake_like"),
                             ("click_like", "fake_like"))]
    subsets += [tuple(sorted(("rumor_like",) + others))]
    assert sorted(len(s) for s in subsets) == [1, 2, 2, 2, 3, 3, 3, 4]
    rows = ablation_run(subsets, "rumor_like", splits, _enc(vocab),
                        _tc(max_epochs=1, patience=1))
    assert len(rows) == 8
    assert all("rumor_like" in row.subset for row in rows)


def test_ablation_singleton_reduces_to_single_task_training():
    suite, vocab = _suite_and_vocab(("alpha", "beta"))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    rows = ablation_run([("alpha",)], "alpha", splits, _enc(vocab), _tc())
    direct_report, _, _ = run_two_stage(_enc(vocab), {"alpha": splits["alpha"]}, "alpha", _tc())
    assert rows[0].report == direct_report


# --- synthetic transfer statistics (slower; frozen desk-scale settings) ----------


def _direct_zero_shot(p_shared, seeds):
    cfg = SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=300,
                               vocab_size=60, p_shared=p_shared)
    suite = generate_synthetic_suite(11, cfg)
    vocab = build_vocab([ex.text for t in sorted(suite) for ex in suite[t].examples])
    splits = {"alpha": split(suite["alpha"], seed=0)}
    scores = []
    for seed in seeds:
        enc = _enc(vocab, seed=seed, embed_dim=32, num_layers=2, num_heads=4, ffn_dim=64)
        tc = _tc(seed=seed, max_epochs=25, patience=8)
        model = build_model(enc, [splits["alpha"].train.spec], vocab=vocab)
        stage1, _ = train_multitask(model, splits, tc)
        batch, labels = encode_for_task(suite["beta"].examples, suite["beta"].spec, vocab, 16)
        preds = predict(stage1, "alpha", batch).argmax(axis=1)
        scores.append(macro_f1(preds.tolist(), labels.tolist(), 2))
    return float(np.mean(scores))


def test_independent_tasks_give_chance_level_zero_shot():
    # p_shared = 0: applying the trained task's head to the other task hovers
    # at chance (3-seed mean within 0.5 +- 0.1).
    score = _direct_zero_shot(0.0, seeds=(0, 1, 2))
    assert abs(score - 0.5) <= 0.1, score


def test_shared_lexicon_transfers_zero_shot():
    score = _direct_zero_shot(0.9, seeds=(0, 1))
    assert score > 0.5, score


def test_published_targets_reference_parses():
    from misinfo_mtl.evaluation import published_targets

    targets = published_targets()
    assert "NOT reproducible" in targets["note"]
    assert targets["jointly_trained_tasks"]["rumor"] == {"accuracy": 0.929, "f1": 0.925}
    assert targets["leave_one_event_out_rumor"] == {"accuracy": 0.6474, "macro_f1": 0.4474}
    assert targets["few_shot_macro_f1_averages"]["k=10"]["multitask"] == 0.5398
