from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misinfo_mtl import encoder as enc
from misinfo_mtl import training
from misinfo_mtl.data import (
    Dataset, Example, SplitDataset, SyntheticSuiteConfig, generate_synthetic_suite, make_dataset, split,
)
from misinfo_mtl.encoder import EncoderConfig, RowSparseGrad
from misinfo_mtl.multitask import TaskSpec, build_model, flatten_params
from misinfo_mtl.tokenization import WIDTH_CLASS, build_vocab
from misinfo_mtl.training import (
    GRID_BATCH_SIZES,
    GRID_LEARNING_RATES,
    AdamState,
    EarlyStopper,
    TrainConfig,
    adam_step,
    finetune_task,
    hyperparameter_grid,
    lr_at,
    make_epoch_schedule,
    train_multitask,
    width_grouped_batches,
)

TABLE1_SIZES = {"newsbias": 7984, "fakenews": 1627, "rumor": 1705, "clickbait": 19538}


def test_train_config_defaults_match_protocol():
    cfg = TrainConfig()
    assert cfg.learning_rate == 5e-6
    assert cfg.batch_size == 32
    assert cfg.max_epochs == 15
    assert cfg.patience == 5
    assert cfg.max_seq_len == 128
    assert (cfg.adam_beta1, cfg.adam_beta2, cfg.adam_epsilon) == (0.9, 0.999, 1e-8)
    assert cfg.lr_schedule == "linear-decay"


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
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


@st.composite
def _scheduled_lengths(draw):
    """An epoch schedule over 1-3 tasks plus a real length for every row of every task."""
    sizes = {f"t{i}": draw(st.integers(1, 40)) for i in range(draw(st.integers(1, 3)))}
    lengths = {}
    for task, n in sizes.items():
        longest = draw(st.sampled_from([8, WIDTH_CLASS, 2 * WIDTH_CLASS, 130]))
        lengths[task] = np.array(draw(st.lists(st.integers(1, longest), min_size=n, max_size=n)), dtype=np.int64)
    seed = draw(st.integers(0, 2**32))
    return make_epoch_schedule(sizes, draw(st.integers(1, 12)), seed), lengths, seed


def _width_classes(lengths, rows):
    return -(-lengths[rows] // WIDTH_CLASS)


def _computed_cells(lengths):
    """Cells the encoder computes for a batch: per width class, its runs of min(32, 2048 // class width)
    rows, each run's rows times its own longest row."""
    classes = _width_classes(lengths, slice(None))
    cells = 0
    for c in np.unique(classes):
        rows = lengths[classes == c]
        step = min(32, max(1, 2048 // rows.max()))
        cells += sum(int(rows[i:i + step].size * rows[i:i + step].max()) for i in range(0, rows.size, step))
    return cells


@settings(max_examples=300, deadline=None)
@given(_scheduled_lengths())
def test_width_grouping_keeps_slots_and_rows(case):
    schedule, lengths, seed = case
    grouped = width_grouped_batches(schedule.batches, lengths, seed)
    assert [(t, len(idx)) for t, idx in schedule.batches] == [(t, rows.size) for t, rows in grouped]
    assert all(rows.dtype == np.int64 for _, rows in grouped)
    for task in lengths:
        before = [np.asarray(idx) for t, idx in schedule.batches if t == task]
        after = [rows for t, rows in grouped if t == task]
        assert sorted(np.concatenate(before).tolist()) == sorted(np.concatenate(after).tolist())
        classes = np.unique(_width_classes(lengths[task], np.concatenate(before)))
        if classes.size == 1 or len(before) == 1:
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
        mixed = sum(np.unique(_width_classes(lengths[task], rows)).size > 1 for rows in after)
        assert mixed <= classes.size - 1
    again = width_grouped_batches(schedule.batches, lengths, seed)
    assert all(t == u and np.array_equal(a, b) for (t, a), (u, b) in zip(grouped, again))


def test_width_grouping_deals_batches_from_its_seed():
    sizes = {"a": 64, "b": 64}
    lengths = {t: np.where(np.arange(64) % 4 == 0, 100, 5) for t in sizes}
    schedule = make_epoch_schedule(sizes, 8, seed=3)
    deals = {
        tuple(tuple(rows.tolist()) for _, rows in width_grouped_batches(schedule.batches, lengths, seed))
        for seed in range(6)
    }
    assert len(deals) > 1
    # the long rows fill two batches of each task whichever slots they land in
    for _, rows in width_grouped_batches(schedule.batches, lengths, 0):
        assert np.unique(_width_classes(lengths["a"], rows)).size == 1


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
    def reference_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        new = dict(params)
        for key, g in grads.items():
            m[key] = beta1 * m[key] + (1.0 - beta1) * g
            v[key] = beta2 * v[key] + (1.0 - beta2) * (g * g)
            m_hat = m[key] / (1.0 - beta1**t)
            v_hat = v[key] / (1.0 - beta2**t)
            new[key] = params[key] - lr * m_hat / (np.sqrt(v_hat) + eps)
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


@pytest.mark.parametrize("beta1", [0.9, 0.5])
def test_adam_over_row_gradients_is_bit_identical_to_the_dense_update(beta1):
    # At beta1 = 0.5 row 3's moment of -2**-1074 decays to -0.0; the dense update's zero term makes it +0.0.
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
            g[1] = -2.0 * 5e-324  # row 3: (1 - beta1) g is a negative subnormal (exactly -2**-1074 at beta1 0.5)
        grads = {"emb": RowSparseGrad(np.array(rows), g), "b": rng.standard_normal(4)}
        dense = {"emb": grads["emb"].dense(30), "b": grads["b"]}
        lr = 10.0 ** -step
        params, sparse_state = adam_step(params, grads, sparse_state, lr, beta1=beta1)
        dense_params, dense_state = adam_step(dense_params, dense, dense_state, lr, beta1=beta1)
        if step == 1:
            decayed = beta1 * sparse_state.m["emb"][3, 1]  # what row 3's moment decays to at step 2
        if step == 2:  # row 29, touched at step 1 only, still moves on its moments: this is dense Adam
            assert np.all(params["emb"][29] != before[29])
        for key in ("emb", "b"):
            assert _bits(params[key]) == _bits(dense_params[key]), (step, key)
            assert _bits(sparse_state.m[key]) == _bits(dense_state.m[key]), (step, key)
            assert _bits(sparse_state.v[key]) == _bits(dense_state.v[key]), (step, key)
    assert sparse_state.t == dense_state.t == {"emb": 6, "b": 6}
    if beta1 == 0.5:
        assert decayed == 0.0 and np.signbit(decayed)  # the -0.0 case did arise


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
    base = dict(learning_rate=1e-3, batch_size=32, max_epochs=3, patience=3, max_seq_len=16, seed=0)
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
        seed=0, ratios=(0.8, 0.1, 0.1),
    )
    with pytest.raises(ValueError, match="empty train split"):
        train_multitask(model, {"alpha": empty, "beta": splits["beta"]}, _quick_config())


def test_training_is_deterministic():
    model, splits = _tiny_setup()
    m1, h1 = train_multitask(model, splits, _quick_config())
    m2, h2 = train_multitask(model, splits, _quick_config())
    f1, f2 = flatten_params(m1), flatten_params(m2)
    for k in f1:
        assert np.array_equal(f1[k], f2[k])
    assert [r.to_dict() for r in h1.epochs] == [r.to_dict() for r in h2.epochs]
    assert h1.best_epoch == h2.best_epoch


def test_training_leaves_input_model_untouched():
    model, splits = _tiny_setup()
    before = {k: v.copy() for k, v in flatten_params(model).items()}
    train_multitask(model, splits, _quick_config())
    after = flatten_params(model)
    for k in before:
        assert np.array_equal(before[k], after[k])


def test_single_task_multitask_equals_finetune_loop():
    # With one task the stage-1 loop is plain single-task training.
    model, splits = _tiny_setup(task_names=("alpha", "beta"))
    single = {"alpha": splits["alpha"]}
    only_alpha, _ = finetune_task(model, "alpha", splits["alpha"], _quick_config())

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
    tuned, _ = finetune_task(trained, "alpha", splits["alpha"], _quick_config(max_epochs=2, patience=2))
    for k in trained.heads["beta"]:
        assert np.array_equal(tuned.heads["beta"][k], trained.heads["beta"][k])
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


def test_grid_bounds_are_the_published_ones():
    assert GRID_LEARNING_RATES == (5e-5, 5e-6, 5e-7)
    assert GRID_BATCH_SIZES == (16, 32)
    grid = hyperparameter_grid()
    assert len(grid) == 6
    assert (5e-6, 32) in grid


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
        cfg = TrainConfig(learning_rate=1e-3, batch_size=32, max_epochs=10, patience=10,
                          max_seq_len=16, seed=seed)
        model = build_model(enc, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
        stage1, _ = train_multitask(model, splits, cfg)
        stage2, _ = finetune_task(stage1, "alpha", splits["alpha"], cfg)
        val = splits["alpha"].validation.examples
        stage1_scores.append(evaluate_model(stage1, "alpha", val).macro_f1)
        stage2_scores.append(evaluate_model(stage2, "alpha", val).macro_f1)
    assert np.mean(stage2_scores) >= np.mean(stage1_scores) - 1e-9


def test_grid_search_picks_lowest_validation_loss():
    from misinfo_mtl.training import grid_search

    model, splits = _tiny_setup(examples=40)
    best_cfg, points = grid_search(
        lambda: model, splits, _quick_config(max_epochs=2, patience=2),
        learning_rates=(1e-2, 1e-3), batch_sizes=(32,),
    )
    assert len(points) == 2
    winner = min(points, key=lambda p: p.best_val_loss)
    assert best_cfg.learning_rate == winner.learning_rate
    assert best_cfg.batch_size == winner.batch_size
    assert best_cfg.max_epochs == 2  # other settings carried over


# --- width-grouped batches in the loop --------------------------------------------


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


def _scheduled_order(batches, lengths, seed):
    return [(task, np.asarray(idx, dtype=np.int64)) for task, idx in batches]


def _record_steps(monkeypatch, model, splits, config):
    """Run the loop with a stub step that draws from the dropout generator and updates nothing."""
    steps = []

    def stub(model, task, batch, labels, train_mode, rng, train_encoder):
        steps.append((task, batch.lengths.copy(), rng.random(2)))
        return 0.0, {}

    monkeypatch.setattr(training, "task_step_gradients", stub)
    _, hist = train_multitask(model, splits, config)
    return steps, hist


def test_width_grouping_leaves_the_dropout_stream_alone(monkeypatch):
    model, splits = _long_tailed_setup()
    config = _quick_config(max_epochs=2, patience=2, max_seq_len=96)
    grouped, hist = _record_steps(monkeypatch, model, splits, config)
    monkeypatch.setattr(training, "width_grouped_batches", _scheduled_order)
    scheduled, scheduled_hist = _record_steps(monkeypatch, model, splits, config)

    assert [task for task, _, _ in grouped] == [task for task, _, _ in scheduled]
    assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(grouped, scheduled))
    # grouping fired: the same rows, with fewer batches mixing width classes
    mixed = [sum(np.unique(_width_classes(n, slice(None))).size > 1 for _, n, _ in steps)
             for steps in (grouped, scheduled)]
    assert mixed[0] < mixed[1]
    assert sum(int(n.sum()) for _, n, _ in grouped) == sum(int(n.sum()) for _, n, _ in scheduled)

    # train_pad_fraction is 1 - real tokens / computed cells over each task's batches of an epoch
    per_epoch = len(grouped) // len(hist.epochs)
    for steps, h in ((grouped, hist), (scheduled, scheduled_hist)):
        for e, record in enumerate(h.epochs):
            epoch_steps = steps[e * per_epoch : (e + 1) * per_epoch]
            for task in ("alpha", "beta"):
                lengths = [n for t, n, _ in epoch_steps if t == task]
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
                        test=Dataset(spec=spec, examples=()), seed=0, ratios=(0.9, 0.1, 0.0))
    vocab = build_vocab([ex.text for ex in examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                           max_seq_len=128, dropout_rate=0.1, seed=0)
    model = build_model(config, [spec], vocab=vocab)
    runs, real = [], enc._encode_rows
    monkeypatch.setattr(enc, "_encode_rows", lambda params, ids, lengths, rows, width, drop_masks, return_cache: (
        drop_masks is not None and runs.append((lengths[rows], width))
    ) or real(params, ids, lengths, rows, width, drop_masks, return_cache))
    _, hist = train_multitask(model, {"alpha": data}, _quick_config(max_epochs=1, patience=1, max_seq_len=128))
    widths = [width for _, width in runs]
    assert len(runs) == 2 and widths[0] != widths[1]  # one run is narrower than the class
    expected = 1.0 - sum(int(n.sum()) for n, _ in runs) / sum(n.size * width for n, width in runs)
    assert hist.epochs[0].train_pad_fraction["alpha"] == pytest.approx(expected, rel=1e-12)


def test_width_grouped_training_reruns_bit_identically():
    model, splits = _long_tailed_setup()
    config = _quick_config(max_epochs=2, patience=2, max_seq_len=96)
    m1, h1 = train_multitask(model, splits, config)
    m2, h2 = train_multitask(model, splits, config)
    f1, f2 = flatten_params(m1), flatten_params(m2)
    assert all(np.array_equal(f1[k], f2[k]) for k in f1)
    assert [r.to_dict() for r in h1.epochs] == [r.to_dict() for r in h2.epochs]
