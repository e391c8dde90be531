import inspect
import weakref
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from misinfo_mtl import encoder as enc
from misinfo_mtl import training
from misinfo_mtl.data import (
    Dataset, Example, SplitDataset, SyntheticSuiteConfig, generate_synthetic_suite, make_dataset, split,
)
from misinfo_mtl.encoder import WIDTH_CLASS, EncoderConfig, RowSparseGrad
from misinfo_mtl.multitask import TaskSpec, build_model, copy_dicts, encode_for_task, flatten_params
from misinfo_mtl.tokenization import build_vocab
from misinfo_mtl.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    epoch_seed,
    finetune_task,
    lr_at,
    make_epoch_schedule,
    train_multitask,
)

from conftest import reference_adam

TABLE1_SIZES = {"newsbias": 7984, "fakenews": 1627, "rumor": 1705, "clickbait": 19538}


def test_train_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert cfg.learning_rate == 5e-6
    assert cfg.batch_size == 32
    assert cfg.max_epochs == 15
    assert cfg.patience == 5
    assert [f.name for f in fields(TrainConfig)] == ["learning_rate", "batch_size", "max_epochs", "patience", "seed"]
    # the rest of the recipe: texts cut at the encoder's length, Adam at fixed constants
    assert EncoderConfig(vocab_size=3).max_seq_len == 128
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert [p for p in inspect.signature(adam_step).parameters] == ["params", "grads", "state", "lr"]


def test_train_config_validation():
    for lr in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be finite and > 0"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError):
        TrainConfig(patience=20, max_epochs=15)


def test_schedule_equal_sizes_no_oversampling():
    sched = make_epoch_schedule({"A": 10, "B": 10}, batch_size=5, seed=0)
    assert Counter(task for task, _ in sched.batches) == {"A": 2, "B": 2}
    assert len(sched.batches) == 4
    a_indices = sorted(i for task, idx in sched.batches if task == "A" for i in idx)
    assert a_indices == list(range(10))  # a permutation, no repeats
    b_indices = sorted(i for task, idx in sched.batches if task == "B" for i in idx)
    assert b_indices == list(range(10))


def test_schedule_table1_sizes_balanced():
    sched = make_epoch_schedule(TABLE1_SIZES, batch_size=32, seed=1)
    counts = Counter(task for task, _ in sched.batches)
    assert counts == {task: 611 for task in TABLE1_SIZES}
    drawn = sched.example_counts()
    assert max(drawn.values()) - min(drawn.values()) <= 32
    # largest task is a without-replacement shuffle
    click = [i for task, idx in sched.batches if task == "clickbait" for i in idx]
    assert sorted(click) == list(range(19538))
    # smaller tasks oversample with replacement but stay in range
    rumor = [i for task, idx in sched.batches if task == "rumor" for i in idx]
    assert len(rumor) == 19538
    assert min(rumor) >= 0 and max(rumor) < 1705


def test_schedule_batches_homogeneous_and_bounded():
    sched = make_epoch_schedule({"A": 7, "B": 23}, batch_size=4, seed=3)
    for task, idx in sched.batches:
        assert task in ("A", "B")
        assert 1 <= len(idx) <= 4


def test_schedule_deterministic_per_seed():
    s1 = make_epoch_schedule(TABLE1_SIZES, 32, seed=5)
    s2 = make_epoch_schedule(TABLE1_SIZES, 32, seed=5)
    s3 = make_epoch_schedule(TABLE1_SIZES, 32, seed=6)
    assert s1.batches == s2.batches
    assert s1.batches != s3.batches


def test_schedule_rejects_bad_input():
    with pytest.raises(ValueError, match="empty task set"):
        make_epoch_schedule({}, 32, 0)
    with pytest.raises(ValueError, match="no examples"):
        make_epoch_schedule({"A": 0}, 32, 0)


def test_lr_at_linear_decay():
    assert lr_at(0, 100, 5e-6) == 5e-6
    assert lr_at(100, 100, 5e-6) == 0.0
    assert lr_at(50, 100, 5e-6) == pytest.approx(2.5e-6, rel=1e-15)
    values = [lr_at(s, 100, 5e-6) for s in range(101)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        lr_at(101, 100, 5e-6)
    with pytest.raises(ValueError):
        lr_at(0, 0, 5e-6)


def test_adam_lr_zero_is_bit_exact_noop():
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal((4, 4)), "b": rng.standard_normal(4)}
    before = {k: v.copy() for k, v in params.items()}
    state = AdamState()
    new, state = adam_step(params, {k: rng.standard_normal(v.shape) for k, v in params.items()}, state, lr=0.0)
    for k in params:
        assert np.array_equal(new[k], before[k])
    # moments did advance
    assert state.t["w"] == 1 and np.any(state.m["w"] != 0)


def test_adam_first_step_magnitude_is_lr():
    params = {"w": np.array([1.0])}
    new, _ = adam_step(params, {"w": np.array([1.0])}, AdamState(), lr=0.5)
    delta = params["w"][0] - new["w"][0]
    # bias-corrected first step moves by lr/(1 + eps)
    assert delta == pytest.approx(0.5, rel=1e-7)


def test_adam_zero_gradients_leave_params():
    params = {"w": np.array([2.0, -3.0])}
    state = AdamState()
    new, state = adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(new["w"], params["w"])
    # after a real step, zero grads decay the moments toward 0
    new, state = adam_step(new, {"w": np.ones(2)}, state, lr=0.1)
    m_after_grad = state.m["w"].copy()
    _, state = adam_step(new, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.all(np.abs(state.m["w"]) < np.abs(m_after_grad))


def test_in_place_adam_is_bit_identical_to_reference():
    def reference_step(params, grads, m, v, t, lr):
        new = dict(params)
        for key, g in grads.items():
            new[key], m[key], v[key] = reference_adam(params[key], g, m[key], v[key], t, lr)
        return new

    rng = np.random.default_rng(31)
    params = {"w": rng.standard_normal((50, 8)), "b": rng.standard_normal(8), "frozen": rng.standard_normal(3)}
    ref_params = dict(params)
    ref_m = {k: np.zeros_like(v) for k, v in params.items() if k != "frozen"}
    ref_v = {k: np.zeros_like(v) for k, v in params.items() if k != "frozen"}
    state = AdamState()
    for t, lr in enumerate((1e-3, 5e-4, 2e-2, 1e-3), start=1):
        grads = {k: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), params[k].shape) for k in ("w", "b")}
        before = {k: v.copy() for k, v in params.items()}
        new = adam_step(params, grads, state, lr)[0]
        ref_params = reference_step(ref_params, grads, ref_m, ref_v, t, lr)
        for k in ("w", "b"):
            assert np.array_equal(new[k], ref_params[k]), k
            assert np.array_equal(state.m[k], ref_m[k]) and np.array_equal(state.v[k], ref_v[k]), k
            # parameters come back as new arrays; the inputs are untouched
            assert new[k] is not params[k] and np.array_equal(params[k], before[k])
        assert new["frozen"] is params["frozen"]
        params = new


def test_adam_rejects_nonfinite_gradients():
    with pytest.raises(ValueError, match="non-finite"):
        adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, AdamState(), lr=0.1)


def test_adam_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, AdamState(), lr=0.1)


def _bits(a):
    return np.asarray(a).tobytes()


def test_adam_over_row_gradients_is_bit_identical_to_the_dense_update():
    rng = np.random.default_rng(32)
    table = rng.standard_normal((30, 4))
    table[3] = -0.0
    table[4] = 0.0
    params = {"emb": table, "b": rng.standard_normal(4)}
    dense_params, dense_state, sparse_state = dict(params), AdamState(), AdamState()
    touched = [[0, 3, 4, 7, 29], [1, 7], [0, 1, 2], [7], [3, 4, 5, 6], [0, 29]]  # rows 8-28 never, 3 and 4 rarely
    for step, rows in enumerate(touched, start=1):
        before = params["emb"].copy()
        g = rng.normal(0.0, 10.0 ** rng.integers(-6, 2), (len(rows), 4))
        g[0, 0] = -0.0
        if step == 1:
            g[1] = -2.0 * 5e-324  # row 3: a subnormal gradient whose (1 - beta1) g term rounds to -0.0
        grads = {"emb": RowSparseGrad(np.array(rows), g), "b": rng.standard_normal(4)}
        dense = {"emb": grads["emb"].dense(30), "b": grads["b"]}
        lr = 10.0 ** -step
        params, sparse_state = adam_step(params, grads, sparse_state, lr)
        dense_params, dense_state = adam_step(dense_params, dense, dense_state, lr)
        if step == 2:  # row 29, touched at step 1 only, still moves on its moments: this is dense Adam
            assert np.all(params["emb"][29] != before[29])
        for key in ("emb", "b"):
            assert _bits(params[key]) == _bits(dense_params[key]), (step, key)
            assert _bits(sparse_state.m[key]) == _bits(dense_state.m[key]), (step, key)
            assert _bits(sparse_state.v[key]) == _bits(dense_state.v[key]), (step, key)
    assert sparse_state.t == dense_state.t == {"emb": 6, "b": 6}


@pytest.mark.parametrize("lr", [1e-2, 0.0])
def test_adam_never_writes_into_a_parameter_array(lr):
    # _fit keeps the best epoch's parameters by reference, which holds only while updates are fresh arrays
    rng = np.random.default_rng(7)
    params = {"emb": rng.standard_normal((6, 3)), "w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
    before = {k: v.tobytes() for k, v in params.items()}
    for arr in params.values():
        arr.flags.writeable = False
    state = AdamState()
    for _ in range(2):
        grads = {"emb": RowSparseGrad(np.array([1, 4]), rng.standard_normal((2, 3))),
                 "w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
        new, state = adam_step(params, grads, state, lr)
        assert {k: v.tobytes() for k, v in params.items()} == before
        assert all((new[k] is params[k]) == (lr == 0.0) for k in params)


def test_adam_rejects_malformed_row_gradients():
    params = {"emb": np.zeros((5, 2))}
    for ids, rows, match in (
        ([0, 1], np.ones((3, 2)), "does not fit"),
        ([0, 1], np.ones((2, 3)), "does not fit"),
        ([2, 1], np.ones((2, 2)), "sorted, unique"),
        ([1, 1], np.ones((2, 2)), "sorted, unique"),
        ([1, 5], np.ones((2, 2)), r"in \[0, 5\)"),
        ([-1, 1], np.ones((2, 2)), r"in \[0, 5\)"),
        ([0, 1], np.array([[1.0, np.inf], [0.0, 0.0]]), "non-finite"),
    ):
        with pytest.raises(ValueError, match=match):
            adam_step(params, {"emb": RowSparseGrad(np.array(ids), rows)}, AdamState(), lr=0.1)


def test_early_stopper_patience_trace():
    # val sequence [3,2,2,2,2,2,2] with patience 5: stop after epoch 7, best 2
    stopper = EarlyStopper(patience=5)
    stops = [stopper.update(e, v) for e, v in enumerate([3, 2, 2, 2, 2, 2, 2], start=1)]
    assert stops == [False, False, False, False, False, False, True]
    assert stopper.best_epoch == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_early_stopper_refuses_a_non_finite_value(value):
    stopper = EarlyStopper(patience=2)
    with pytest.raises(ValueError, match="not finite"):
        stopper.update(1, value)
    assert stopper.best_epoch is None


# --- end-to-end loop behavior ---------------------------------------------------


def _tiny_setup(task_names=("alpha", "beta"), examples=60, seed=0, p_shared=0.0):
    suite = generate_synthetic_suite(
        seed, SyntheticSuiteConfig(task_names=tuple(task_names), examples_per_task=examples,
                                   p_shared=p_shared)
    )
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    texts = [ex.text for t in sorted(splits) for ex in splits[t].train.examples]
    vocab = build_vocab(texts)
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2,
                           ffn_dim=32, max_seq_len=16, dropout_rate=0.1, seed=seed)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    return model, splits


def _quick_config(**overrides):
    base = dict(learning_rate=1e-3, batch_size=32, max_epochs=3, patience=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def test_train_multitask_requires_matching_task_set():
    model, splits = _tiny_setup()
    with pytest.raises(ValueError, match="missing"):
        train_multitask(model, {"alpha": splits["alpha"]}, _quick_config())


def test_train_rejects_empty_split():
    model, splits = _tiny_setup()
    spec = splits["alpha"].train.spec
    empty = SplitDataset(
        train=Dataset(spec=spec, examples=()),
        validation=splits["alpha"].validation,
        test=splits["alpha"].test,
    )
    with pytest.raises(ValueError, match="empty train split"):
        train_multitask(model, {"alpha": empty, "beta": splits["beta"]}, _quick_config())


def test_training_is_deterministic():
    model, splits = _tiny_setup()
    m1, h1 = train_multitask(copy_dicts(model), splits, _quick_config())
    m2, h2 = train_multitask(model, splits, _quick_config())
    f1, f2 = flatten_params(m1), flatten_params(m2)
    for k in f1:
        assert np.array_equal(f1[k], f2[k])
    assert h1.epochs == h2.epochs
    assert h1.best_epoch == h2.best_epoch


def test_training_a_dict_level_copy_leaves_the_original_untouched():
    model, splits = _tiny_setup()
    before = {k: v.copy() for k, v in flatten_params(model).items()}
    trained, _ = train_multitask(copy_dicts(model), splits, _quick_config())
    after, moved = flatten_params(model), flatten_params(trained)
    assert set(after) == set(before)
    for k in before:
        assert np.array_equal(before[k], after[k])
    assert all(not np.array_equal(moved[k], before[k]) for k in before)  # every parameter trained


def test_training_trains_the_model_it_is_given():
    model, splits = _tiny_setup()
    encoder, heads = model.encoder.tensors, model.heads["alpha"]
    trained, _ = train_multitask(model, splits, _quick_config(max_epochs=1, patience=1))
    assert trained is model and trained.encoder.tensors is encoder and trained.heads["alpha"] is heads


def test_training_holds_one_parameter_generation_between_steps(monkeypatch):
    # When a step starts, the token tables earlier steps started from (updated away since) and the previous
    # step's gradients are gone: nothing of the previous generation lives through the next forward and backward.
    # The one exception is the best epoch's parameters, which training keeps by reference: the table the
    # epoch ended with, which is the table the next epoch's first step started from. The input model's own
    # table is gone by the second step too, though the caller still holds the model: training swaps its arrays.
    model, splits = _tiny_setup()
    real, previous, epoch_starts = training.task_step_gradients, [], []
    real_schedule = training.make_epoch_schedule

    def step(model, *args, **kwargs):
        alive = [i for i, (table, _) in enumerate(previous) if table() is not None]
        assert len(alive) <= 1 and set(alive) <= set(epoch_starts[1:]), \
            f"step {len(previous) + 1}: the token tables of steps {[i + 1 for i in alive]} are alive"
        if previous:
            assert previous[-1][1]() is None, f"step {len(previous) + 1}: the previous step's token gradient is alive"
            assert given() is None, f"step {len(previous) + 1}: the input model's token table is alive"
        table = weakref.ref(model.encoder.tensors["token_emb"])
        loss, grads = real(model, *args, **kwargs)
        previous.append((table, weakref.ref(grads["encoder.token_emb"])))
        return loss, grads

    monkeypatch.setattr(training, "task_step_gradients", step)
    monkeypatch.setattr(training, "make_epoch_schedule",
                        lambda *a: epoch_starts.append(len(previous)) or real_schedule(*a))
    config = _quick_config(max_epochs=2, patience=2)
    for fit in (lambda: train_multitask(model, splits, config),
                lambda: finetune_task(model, "alpha", splits["alpha"], config)):
        previous.clear(), epoch_starts.clear()
        given = weakref.ref(model.encoder.tensors["token_emb"])
        fit()
        assert len(previous) >= 4  # two epochs of at least two steps


def test_single_task_multitask_equals_finetune_loop():
    # With one task the stage-1 loop is plain single-task training.
    model, splits = _tiny_setup(task_names=("alpha", "beta"))
    single = {"alpha": splits["alpha"]}
    only_alpha, _ = finetune_task(copy_dicts(model), "alpha", splits["alpha"], _quick_config())

    import misinfo_mtl.multitask as mt

    solo_model = mt.MultiTaskModel(encoder=model.encoder, vocab=model.vocab)
    mt.register_task(solo_model, model.tasks["alpha"], seed=0)
    solo_model.heads["alpha"] = {k: v.copy() for k, v in model.heads["alpha"].items()}
    solo_trained, _ = train_multitask(solo_model, single, _quick_config())
    for k in solo_trained.encoder.tensors:
        assert np.array_equal(solo_trained.encoder.tensors[k], only_alpha.encoder.tensors[k])
    for k in solo_trained.heads["alpha"]:
        assert np.array_equal(solo_trained.heads["alpha"][k], only_alpha.heads["alpha"][k])


def test_stage1_step_isolation_and_stage2_head_freeze():
    model, splits = _tiny_setup()
    trained, _ = train_multitask(model, splits, _quick_config(max_epochs=1, patience=1))
    tuned, _ = finetune_task(copy_dicts(trained), "alpha", splits["alpha"], _quick_config(max_epochs=2, patience=2))
    for k in trained.heads["beta"]:
        assert tuned.heads["beta"][k] is trained.heads["beta"][k]  # neither written nor copied
    assert any(
        not np.array_equal(tuned.encoder.tensors[k], trained.encoder.tensors[k])
        for k in trained.encoder.tensors
    )


def test_early_stopping_bounds_respected():
    model, splits = _tiny_setup(examples=40)
    cfg = _quick_config(learning_rate=5e-2, max_epochs=10, patience=2)
    _, hist = train_multitask(model, splits, cfg)
    assert len(hist.epochs) <= 10
    assert len(hist.epochs) - hist.best_epoch <= cfg.patience
    vals = [r.val_loss_total for r in hist.epochs]
    assert hist.best_epoch == int(np.argmin(vals)) + 1
    if hist.stop_reason == "early_stopping":
        assert len(hist.epochs) - hist.best_epoch == cfg.patience


def test_history_records_are_complete():
    model, splits = _tiny_setup()
    _, hist = train_multitask(model, splits, _quick_config(max_epochs=2, patience=2))
    assert [r.epoch for r in hist.epochs] == list(range(1, len(hist.epochs) + 1))
    for record in hist.epochs:
        assert set(record.train_loss) == {"alpha", "beta"}
        assert set(record.val_loss) == {"alpha", "beta"}
        assert set(record.train_pad_fraction) == {"alpha", "beta"}
        assert all(0.0 <= v < 1.0 for v in record.train_pad_fraction.values())
        assert record.val_loss_total == pytest.approx(sum(record.val_loss.values()))
        assert 0.0 <= record.lr <= 1e-3


def _nan_loss_after(monkeypatch, good_steps):
    """Make every step after the first ``good_steps`` return a NaN loss; returns the parameters each step saw."""
    real, seen = training.task_step_gradients, []

    def step(model, *args, **kwargs):
        seen.append({k: v.copy() for k, v in flatten_params(model).items()})
        loss, grads = real(model, *args, **kwargs)
        return (loss if len(seen) <= good_steps else float("nan")), grads

    monkeypatch.setattr(training, "task_step_gradients", step)
    return seen


def test_nan_loss_stops_at_the_best_epoch_so_far(monkeypatch):
    model, splits = _tiny_setup()
    steps_per_epoch = len(make_epoch_schedule({t: len(s.train.examples) for t, s in splits.items()}, 32, 0).batches)
    seen = _nan_loss_after(monkeypatch, steps_per_epoch + 1)  # the second step of epoch 2 diverges
    trained, hist = train_multitask(model, splits, _quick_config(max_epochs=3, patience=3))
    assert hist.stop_reason == "diverged"
    assert [r.epoch for r in hist.epochs] == [1] and hist.best_epoch == 1
    assert len(seen) == steps_per_epoch + 2
    # the model comes back as it stood at the end of epoch 1, not one step later
    flat, end_of_epoch_1 = flatten_params(trained), seen[steps_per_epoch]
    assert all(np.array_equal(flat[k], end_of_epoch_1[k]) for k in flat)
    assert any(not np.array_equal(flat[k], seen[-1][k]) for k in flat)


def test_nan_loss_before_any_epoch_finished_raises_naming_where(monkeypatch):
    model, splits = _tiny_setup()
    _nan_loss_after(monkeypatch, 1)
    with pytest.raises(ValueError, match=r"diverged.*task '(alpha|beta)'.*epoch 1, step 2"):
        train_multitask(model, splits, _quick_config())


def _nan_validation_after(monkeypatch, good_calls):
    """Make every validation score after the first ``good_calls`` NaN; returns the parameters each call saw."""
    real, seen = training.score, []

    def scored(model, *args, **kwargs):
        seen.append({k: v.copy() for k, v in flatten_params(model).items()})
        loss, preds = real(model, *args, **kwargs)
        return (loss if len(seen) <= good_calls else float("nan")), preds

    monkeypatch.setattr(training, "score", scored)
    return seen


def test_nan_validation_loss_stops_at_the_best_epoch_so_far(monkeypatch):
    model, splits = _tiny_setup()
    seen = _nan_validation_after(monkeypatch, 2)  # both tasks score at epoch 1, then NaN at epoch 2
    trained, hist = train_multitask(model, splits, _quick_config(max_epochs=3, patience=3))
    assert hist.stop_reason == "diverged"
    assert [r.epoch for r in hist.epochs] == [1] and hist.best_epoch == 1
    assert len(seen) == 4
    flat = flatten_params(trained)
    assert all(np.array_equal(flat[k], seen[0][k]) for k in flat)  # as it stood at epoch 1's validation
    assert any(not np.array_equal(flat[k], seen[-1][k]) for k in flat)


def test_nan_validation_loss_in_the_first_epoch_raises(monkeypatch):
    model, splits = _tiny_setup()
    _nan_validation_after(monkeypatch, 1)
    with pytest.raises(ValueError, match=r"diverged before any epoch finished: validation loss is nan at epoch 1$"):
        train_multitask(model, splits, _quick_config())


def test_finetune_unknown_task(tiny_model):
    with pytest.raises(KeyError, match="unknown task"):
        finetune_task(tiny_model, "nope", None, _quick_config())


def test_stage2_improves_or_ties_validation_macro_f1():
    # Mean over 3 seeds: specializing on one task must not hurt its val macro-F1.
    from misinfo_mtl.evaluation import evaluate_model

    stage1_scores, stage2_scores = [], []
    for seed in (0, 1, 2):
        suite = generate_synthetic_suite(
            4, SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=150)
        )
        splits = {t: split(ds, seed=0) for t, ds in suite.items()}
        vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
        enc = EncoderConfig(vocab_size=vocab.size, embed_dim=32, num_layers=2, num_heads=4,
                            ffn_dim=64, max_seq_len=16, dropout_rate=0.1, seed=seed)
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=10, patience=10, seed=seed)
        model = build_model(enc, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
        stage1, _ = train_multitask(model, splits, cfg)
        stage2, _ = finetune_task(copy_dicts(stage1), "alpha", splits["alpha"], cfg)
        val = splits["alpha"].validation.examples
        stage1_scores.append(evaluate_model(stage1, "alpha", val).macro_f1)
        stage2_scores.append(evaluate_model(stage2, "alpha", val).macro_f1)
    assert np.mean(stage2_scores) >= np.mean(stage1_scores) - 1e-9


# --- scheduled batches in the loop, over long-tailed lengths ------------------------


def _long_tailed_setup():
    """Two tasks whose texts are mostly 2-9 words, with every eighth one 50-90 words long."""
    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(40)]
    splits = {}
    for task in ("alpha", "beta"):
        spec = TaskSpec(task, ("neg", "pos"), "sentence")
        examples = []
        for i in range(96):
            n = int(rng.integers(50, 91)) if i % 8 == 0 else int(rng.integers(2, 10))
            text = " ".join(words[j] for j in rng.integers(0, len(words), size=n))
            examples.append(Example(id=f"{task}-{i}", text=text, task=task, label=spec.labels[i % 2]))
        splits[task] = split(make_dataset(examples, spec), seed=0)
    vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2,
                           ffn_dim=32, max_seq_len=96, dropout_rate=0.1, seed=0)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    return model, splits


def _record_steps(monkeypatch, model, splits, config):
    """Run the loop with a stub step that records its batch and labels and updates nothing."""
    steps = []

    def stub(model, task, batch, labels, train_mode, rng, train_encoder):
        steps.append((task, batch.ids.copy(), batch.lengths.copy(), labels.copy()))
        return 0.0, {}

    monkeypatch.setattr(training, "task_step_gradients", stub)
    _, hist = train_multitask(model, splits, config)
    return steps, hist


def _computed_cells(lengths):
    """Cells the encoder computes for a batch: per width class, its lengths in ascending order cut into runs of
    min(32, 2048 // class width) rows, each run's rows times its own longest row."""
    classes = -(-lengths // WIDTH_CLASS)
    cells = 0
    for c in np.unique(classes):
        rows = np.sort(lengths[classes == c])
        step = min(32, max(1, 2048 // rows.max()))
        cells += sum(int(rows[i:i + step].size * rows[i:i + step].max()) for i in range(0, rows.size, step))
    return cells


def test_training_steps_take_the_scheduled_batches_in_order(monkeypatch):
    model, splits = _long_tailed_setup()
    config = _quick_config(max_epochs=2, patience=2)
    steps, hist = _record_steps(monkeypatch, model, splits, config)
    encoded = {t: encode_for_task(model, t, splits[t].train.examples) for t in splits}
    sizes = {t: batch.size for t, (batch, _) in encoded.items()}
    expected = [b for e in range(1, len(hist.epochs) + 1)
                for b in make_epoch_schedule(sizes, config.batch_size, epoch_seed(config.seed, e)).batches]
    assert len(hist.epochs) == 2 and len(steps) == len(expected)
    for (task, ids, lengths, labels), (want, idx) in zip(steps, expected):
        batch, task_labels = encoded[want]
        rows = np.asarray(idx)
        assert task == want
        assert np.array_equal(lengths, batch.lengths[rows]) and np.array_equal(labels, task_labels[rows])
        assert np.array_equal(ids, batch.ids[rows])
    # the long rows land in batches with short ones, which the encoder then runs by width class
    assert any(np.unique(-(-lengths // WIDTH_CLASS)).size > 1 for _, _, lengths, _ in steps)


def test_train_pad_fraction_is_over_each_tasks_batches_of_the_epoch(monkeypatch):
    model, splits = _long_tailed_setup()
    steps, hist = _record_steps(monkeypatch, model, splits, _quick_config(max_epochs=2, patience=2))
    # train_pad_fraction is 1 - real tokens / computed cells over each task's batches of an epoch
    per_epoch = len(steps) // len(hist.epochs)
    for e, record in enumerate(hist.epochs):
        epoch_steps = steps[e * per_epoch : (e + 1) * per_epoch]
        for task in ("alpha", "beta"):
            lengths = [n for t, _, n, _ in epoch_steps if t == task]
            expected = 1.0 - sum(int(n.sum()) for n in lengths) / sum(_computed_cells(n) for n in lengths)
            assert record.train_pad_fraction[task] == pytest.approx(expected, rel=1e-12)


def test_train_pad_fraction_counts_the_runs_the_encoder_computes(monkeypatch):
    # 32 train rows of width class 4, one of 127 tokens and the rest of 97-110: one batch, cut into
    # 2 runs of 16 rows, each as wide as its own longest row
    rng = np.random.default_rng(29)
    spec = TaskSpec("alpha", ("neg", "pos"), "article")
    words = [126] + rng.integers(96, 110, size=35).tolist()
    examples = [Example(id=f"a{i}", text=" ".join(f"w{j}" for j in rng.integers(0, 30, size=n)),
                        task="alpha", label=spec.labels[i % 2]) for i, n in enumerate(words)]
    data = SplitDataset(train=Dataset(spec=spec, examples=tuple(examples[:32])),
                        validation=Dataset(spec=spec, examples=tuple(examples[32:])),
                        test=Dataset(spec=spec, examples=()))
    vocab = build_vocab([ex.text for ex in examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                           max_seq_len=128, dropout_rate=0.1, seed=0)
    model = build_model(config, [spec], vocab=vocab)
    runs, real = [], enc._encode_rows
    monkeypatch.setattr(enc, "_encode_rows", lambda params, ids, lengths, rows, width, drop_masks, return_cache: (
        drop_masks is not None and runs.append((lengths[rows], width))
    ) or real(params, ids, lengths, rows, width, drop_masks, return_cache))
    _, hist = train_multitask(model, {"alpha": data}, _quick_config(max_epochs=1, patience=1))
    widths = [width for _, width in runs]
    assert len(runs) == 2 and widths[0] != widths[1]  # one run is narrower than the class
    expected = 1.0 - sum(int(n.sum()) for n, _ in runs) / sum(n.size * width for n, width in runs)
    assert hist.epochs[0].train_pad_fraction["alpha"] == pytest.approx(expected, rel=1e-12)


def test_long_tailed_training_reruns_bit_identically():
    model, splits = _long_tailed_setup()
    config = _quick_config(max_epochs=2, patience=2)
    m1, h1 = train_multitask(copy_dicts(model), splits, config)
    m2, h2 = train_multitask(model, splits, config)
    f1, f2 = flatten_params(m1), flatten_params(m2)
    assert all(np.array_equal(f1[k], f2[k]) for k in f1)
    assert h1.epochs == h2.epochs


def _final_val_loss():
    """The last epoch's validation loss of 2 train epochs on a 2-task suite of 3-124-token texts at d = 32."""
    suite = generate_synthetic_suite(3, SyntheticSuiteConfig(examples_per_task=64, min_tokens=3, max_tokens=124))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=32, num_layers=2, num_heads=4, ffn_dim=64,
                           max_seq_len=128, dropout_rate=0.1, seed=0)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    _, hist = train_multitask(model, splits, _quick_config(max_epochs=2, patience=2))
    assert len(hist.epochs) == 2
    return hist.epochs[-1].val_loss_total


@pytest.fixture(scope="module")
def layout_baseline():
    return _final_val_loss()


@pytest.mark.parametrize("constant, value", [("WIDTH_CLASS", 16), ("RUN_CELLS", 512), ("RUN_ROWS", 8),
                                             ("PACK_PAD", 0.5)])
def test_the_run_layout_moves_the_final_validation_loss_in_the_last_bits_only(layout_baseline, constant, value,
                                                                              monkeypatch):
    # how the encoder cuts a batch into runs, and which runs pack, is an implementation detail: the dropout a row
    # gets does not depend on it, and the sums the cut reorders move the loss by rounding alone
    assert getattr(enc, constant) != value
    monkeypatch.setattr(enc, constant, value)
    assert abs(_final_val_loss() - layout_baseline) <= 1e-12
