import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from misinfo_mtl.encoder import EncoderConfig, encode_batch, init_encoder
from misinfo_mtl.multitask import (
    HEAD_DROPOUT,
    MultiTaskModel,
    TaskSpec,
    assign_params,
    build_model,
    copy_dicts,
    flatten_params,
    head_seed,
    predict,
    register_task,
    score,
    task_loss,
    task_step_gradients,
)
from misinfo_mtl import encoder as enc
from misinfo_mtl.tokenization import Batch

from conftest import finite_difference_check, force_workers, random_batch, tiny_config, trim_batch, with_lengths


def test_task_spec_validation():
    with pytest.raises(ValueError, match=">= 2 labels"):
        TaskSpec("t", ("only",), "tweet")
    with pytest.raises(ValueError, match="duplicate"):
        TaskSpec("t", ("a", "a"), "tweet")
    with pytest.raises(ValueError, match="granularity"):
        TaskSpec("t", ("a", "b"), "paragraph")
    with pytest.raises(ValueError, match="positive"):
        TaskSpec("t", ("a", "b"), "tweet", positive_label="c")


def test_register_head_shapes_at_d64():
    config = tiny_config(embed_dim=64, num_heads=4, vocab_size=50)
    model = MultiTaskModel(encoder=init_encoder(config))
    register_task(model, TaskSpec("rumor", ("true", "false"), "tweet"), seed=0)
    head = model.heads["rumor"]
    assert head["hidden_w"].shape == (64, 64)
    assert head["hidden_b"].shape == (64,)
    assert head["out_w"].shape == (64, 2)
    assert head["out_b"].shape == (2,)


def test_register_twice_errors(tiny_model):
    with pytest.raises(ValueError, match="already registered"):
        register_task(tiny_model, TaskSpec("a_task", ("p", "q"), "tweet"), seed=0)


def test_register_leaves_existing_parameters_bit_identical(tiny_model):
    before_enc = {k: v.copy() for k, v in tiny_model.encoder.tensors.items()}
    before_head = {k: v.copy() for k, v in tiny_model.heads["a_task"].items()}
    register_task(tiny_model, TaskSpec("c_task", ("u", "v"), "headline"), seed=99)
    for k in before_enc:
        assert np.array_equal(tiny_model.encoder.tensors[k], before_enc[k])
    for k in before_head:
        assert np.array_equal(tiny_model.heads["a_task"][k], before_head[k])


def test_head_init_deterministic():
    config = tiny_config()
    m1 = MultiTaskModel(encoder=init_encoder(config))
    m2 = MultiTaskModel(encoder=init_encoder(config))
    spec = TaskSpec("t", ("a", "b"), "tweet")
    register_task(m1, spec, seed=5)
    register_task(m2, spec, seed=5)
    for k in m1.heads["t"]:
        assert np.array_equal(m1.heads["t"][k], m2.heads["t"][k])
    assert head_seed(0, "rumor") != head_seed(0, "clickbait")


def test_predict_rows_sum_to_one(tiny_model):
    batch = random_batch(np.random.default_rng(0), 40, 6, 12)
    probs = predict(tiny_model, "b_task", batch)
    assert probs.shape == (6, 3)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), rtol=0, atol=1e-12)


def test_predict_unknown_task(tiny_model):
    batch = random_batch(np.random.default_rng(0), 40, 2, 12)
    with pytest.raises(KeyError, match="unknown task"):
        predict(tiny_model, "nope", batch)


def test_zeroed_output_layer_gives_uniform(tiny_model):
    tiny_model.heads["b_task"]["out_w"][:] = 0.0
    tiny_model.heads["b_task"]["out_b"][:] = 0.0
    batch = random_batch(np.random.default_rng(1), 40, 4, 12)
    probs = predict(tiny_model, "b_task", batch)
    np.testing.assert_allclose(probs, np.full((4, 3), 1.0 / 3.0), rtol=0, atol=1e-15)


def test_prediction_isolated_from_other_heads(tiny_model):
    batch = random_batch(np.random.default_rng(2), 40, 4, 12)
    before = predict(tiny_model, "a_task", batch)
    tiny_model.heads["b_task"]["out_b"][:] = 123.0
    tiny_model.heads["b_task"]["hidden_w"][:] = -1.0
    after = predict(tiny_model, "a_task", batch)
    assert np.array_equal(before, after)


def test_argmax_of_probs_equals_argmax_of_logits(tiny_model):
    batch = random_batch(np.random.default_rng(3), 40, 8, 12)
    probs = predict(tiny_model, "b_task", batch)
    # independent recomputation of the logits
    from misinfo_mtl.encoder import encode_batch

    pooled = encode_batch(tiny_model.encoder, batch)
    head = tiny_model.heads["b_task"]
    hidden = np.tanh(pooled @ head["hidden_w"] + head["hidden_b"])
    logits = hidden @ head["out_w"] + head["out_b"]
    assert np.array_equal(probs.argmax(axis=1), logits.argmax(axis=1))


def test_task_loss_uniform_is_ln2(tiny_model):
    tiny_model.heads["a_task"]["out_w"][:] = 0.0
    tiny_model.heads["a_task"]["out_b"][:] = 0.0
    batch = random_batch(np.random.default_rng(4), 40, 5, 12)
    loss, _ = task_loss(tiny_model, "a_task", batch, np.array([0, 1, 0, 1, 1]))
    assert loss == pytest.approx(math.log(2), abs=1e-15)


def test_task_loss_perfect_prediction_is_zero(tiny_model):
    tiny_model.heads["a_task"]["out_w"][:] = 0.0
    tiny_model.heads["a_task"]["out_b"][:] = [1000.0, 0.0]
    batch = random_batch(np.random.default_rng(5), 40, 3, 12)
    loss, _ = task_loss(tiny_model, "a_task", batch, np.zeros(3, dtype=np.int64))
    assert loss == 0.0


def test_task_loss_hand_value_point_nine(tiny_model):
    tiny_model.heads["a_task"]["out_w"][:] = 0.0
    tiny_model.heads["a_task"]["out_b"][:] = [math.log(0.9), math.log(0.1)]
    batch = random_batch(np.random.default_rng(6), 40, 3, 12)
    loss, _ = task_loss(tiny_model, "a_task", batch, np.zeros(3, dtype=np.int64))
    assert loss == pytest.approx(-math.log(0.9), abs=1e-12)  # 0.10536...


def test_score_matches_task_loss_on_the_same_rows(tiny_model):
    rng = np.random.default_rng(21)
    batch = random_batch(rng, 40, 11, 12)
    labels = rng.integers(0, 3, size=11)
    nll, preds = score(tiny_model, "b_task", batch, labels)
    loss, state = task_loss(tiny_model, "b_task", batch, labels)
    assert len(set(batch.lengths.tolist())) > 1  # ragged, so length order differs from input order
    assert nll == pytest.approx(loss, rel=1e-12, abs=0.0)
    assert np.array_equal(preds, state["probs"].argmax(axis=1))


def test_score_builds_no_backward_cache(tiny_model, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eval forward built a backward cache")

    monkeypatch.setattr(enc, "EncoderCache", refuse)
    monkeypatch.setattr(enc, "_LayerCache", refuse)
    batch = random_batch(np.random.default_rng(22), 40, 5, 12)
    nll, preds = score(tiny_model, "a_task", batch, np.array([0, 1, 0, 1, 1]))
    assert np.isfinite(nll) and preds.shape == (5,)


def _long_model():
    model = MultiTaskModel(encoder=init_encoder(tiny_config(max_seq_len=128)))
    return register_task(model, TaskSpec("b_task", ("x", "y", "z"), "sentence"), seed=12)


def _ragged_split(seed, rows=150, length=128):
    """Rows of 2..length real tokens in every width class, some classes over RUN_ROWS rows, in random order."""
    rng = np.random.default_rng(seed)
    lengths = np.concatenate([rng.integers(2, 33, size=rows // 2), rng.integers(33, length + 1, size=rows - rows // 2)])
    lengths = rng.permutation(lengths)
    return with_lengths(rng.integers(3, 40, size=(rows, length)), lengths), rng.integers(0, 3, size=rows)


def test_score_gives_the_same_bits_on_one_two_and_four_threads(monkeypatch):
    model = _long_model()
    batch, labels = _ragged_split(23)
    classes = [-(-width // enc.WIDTH_CLASS) for _, width in enc.split_runs(batch.lengths)]
    assert len(set(classes)) >= 3 and max(map(classes.count, classes)) >= 2  # a class cut into several runs
    seen = []
    for threads in (1, 2, 4):
        monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
        monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(threads - 1) if threads > 1 else None)
        nll, preds = score(model, "b_task", batch, labels)
        seen.append((np.float64(nll).tobytes(), preds.tobytes()))
        if threads > 1:
            enc._pool.shutdown()
    assert seen[0] == seen[1] == seen[2]


def test_split_runs_orders_a_shuffled_batch_by_length_and_encodes_it_as_its_sorted_copy():
    model = _long_model()
    batch, _ = _ragged_split(26)
    lengths = batch.lengths
    runs = enc.split_runs(lengths)
    classes = [-(-width // enc.WIDTH_CLASS) for _, width in runs]
    assert len(set(classes)) >= 3 and classes == sorted(classes)
    for c in set(classes):  # within a class, row lengths never decrease, across its runs too
        class_lengths = np.concatenate([lengths[rows] for (rows, _), rc in zip(runs, classes) if rc == c])
        assert np.all(-(-class_lengths // enc.WIDTH_CLASS) == c) and np.all(np.diff(class_lengths) >= 0)
    assert all(width == lengths[rows[-1]] for rows, width in runs)  # a run's width is its last row's length
    rows = np.concatenate([rows for rows, _ in runs])
    assert sorted(rows.tolist()) == list(range(batch.size)) and not np.array_equal(rows, np.arange(batch.size))
    # the encoder runs the same rows in the same order either way: its pooled rows match bit for bit
    order = np.argsort(lengths, kind="stable")
    sorted_copy = Batch(batch.ids[order], lengths[order])
    pooled, sorted_pooled = encode_batch(model.encoder, batch), encode_batch(model.encoder, sorted_copy)
    assert pooled.tobytes() == sorted_pooled[np.argsort(order)].tobytes()
    # the head's BLAS products round the last (rows % 4) rows of a matrix with another kernel, so a row's
    # probabilities can move by an ulp or two with its position (of 150 rows: the two sorted last and the two last)
    probs, sorted_probs = predict(model, "b_task", batch), predict(model, "b_task", sorted_copy)
    np.testing.assert_array_max_ulp(probs, sorted_probs[np.argsort(order)], maxulp=2)
    assert np.array_equal(probs.argmax(axis=1), sorted_probs.argmax(axis=1)[np.argsort(order)])


def _desk_width_split(rows, seed):
    """``rows`` rows padded to 128 tokens, a tenth of them 128 real tokens long and the rest 5-16, shuffled."""
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.where(np.arange(rows) < rows // 10, 128, rng.integers(5, 17, size=rows)))
    return with_lengths(rng.integers(3, 40, size=(rows, 128)), lengths), rng.integers(0, 3, size=rows)


def test_score_memory_grows_by_less_than_an_id_row_per_scored_row(monkeypatch):
    # score hands the encoder the split as given, so its tracemalloc peak grows from 1k to 8k rows by less than
    # one (128,) int64 id row per added row: a length-sorted copy of the ids alone would add that much. About
    # 0.3 s on one CPU.
    force_workers(monkeypatch, 1, enc, ())
    config = EncoderConfig(vocab_size=40, embed_dim=8, num_layers=1, num_heads=2, ffn_dim=16, max_seq_len=128)
    model = register_task(MultiTaskModel(encoder=init_encoder(config)), TaskSpec("b", ("x", "y", "z"), "sentence"),
                          seed=12)
    peaks = {}
    for rows in (1000, 8000):
        batch, labels = _desk_width_split(rows, 27)
        tracemalloc.start()
        try:
            score(model, "b", batch, labels)
            peaks[rows] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_row = (peaks[8000] - peaks[1000]) / 7000
    assert per_row < batch.ids[0].nbytes, per_row


def test_score_matches_per_row_predict():
    model = _long_model()
    batch, labels = _ragged_split(24)
    nll, preds = score(model, "b_task", batch, labels)
    probs = np.concatenate([predict(model, "b_task", trim_batch(batch, [i])) for i in range(batch.size)])
    expected = -np.log(probs[np.arange(batch.size), labels]).mean()
    assert abs(nll - expected) <= 1e-12 * abs(expected)
    assert np.array_equal(preds, probs.argmax(axis=1))


def test_task_loss_rejects_bad_labels(tiny_model):
    batch = random_batch(np.random.default_rng(7), 40, 3, 12)
    with pytest.raises(ValueError, match="out of range"):
        task_loss(tiny_model, "a_task", batch, np.array([0, 1, 2]))


def test_gradients_cover_encoder_and_own_head_only(tiny_model):
    batch = random_batch(np.random.default_rng(8), 40, 4, 12)
    _, grads = task_step_gradients(tiny_model, "a_task", batch, np.array([0, 1, 1, 0]), train_mode=False)
    assert all(k.startswith(("encoder.", "head.a_task.")) for k in grads)
    assert not any(k.startswith("head.b_task.") for k in grads)
    assert any(np.any(g != 0) for k, g in grads.items() if k.startswith("encoder."))


def test_duplicated_batch_keeps_mean_gradients(tiny_model):
    rng = np.random.default_rng(9)
    batch = random_batch(rng, 40, 3, 12)
    labels = np.array([0, 1, 0])
    _, g1 = task_step_gradients(tiny_model, "a_task", batch, labels, train_mode=False)
    doubled = Batch(np.concatenate([batch.ids] * 2), np.concatenate([batch.lengths] * 2))
    _, g2 = task_step_gradients(tiny_model, "a_task", doubled, np.concatenate([labels] * 2), train_mode=False)
    for k in g1:
        np.testing.assert_allclose(g2[k], g1[k], rtol=1e-12, atol=1e-14)


def test_head_dropout_gives_the_float_mask_bits_forward_and_backward(tiny_model, monkeypatch):
    # the reference is the float mask (u >= p) / (1 - p) on the same float32 u; tiny_model's encoder draws no dropout
    batch = random_batch(np.random.default_rng(11), 40, 8, 12)
    labels = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    pooled, dpooled = [], []
    real_encode = enc.encode_batch
    monkeypatch.setattr(enc, "encode_batch", lambda *a, **k: pooled.append((out := real_encode(*a, **k))[0]) or out)
    monkeypatch.setattr(enc, "backward", lambda params, cache, d: dpooled.append(d.copy()) or {})

    rng = np.random.default_rng(5)
    _, state = task_loss(tiny_model, "a_task", batch, labels, train_mode=True, rng=rng)
    ref_rng = np.random.default_rng(5)
    drop = (ref_rng.random(pooled[0].shape, dtype=np.float32) >= np.float32(HEAD_DROPOUT)) / (1.0 - HEAD_DROPOUT)
    x = pooled[0] * drop
    assert state["head_cache"]["drop"].dtype == bool
    assert state["head_cache"]["x"].tobytes() == x.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state

    head, hidden = tiny_model.heads["a_task"], state["head_cache"]["hidden"]
    dlogits = state["probs"].copy()
    dlogits[np.arange(labels.size), labels] -= 1.0
    dlogits /= labels.size
    dpre = (dlogits @ head["out_w"].T) * (1.0 - hidden**2)
    expected = (dpre @ head["hidden_w"].T) * drop
    task_step_gradients(tiny_model, "a_task", batch, labels, train_mode=True, rng=np.random.default_rng(5))
    assert dpooled[0].tobytes() == expected.tobytes()
    # dropped negative cells are -0.0 in both, so the byte comparisons above cover the signed zeros
    for values in (x, expected):
        assert np.any((values == 0.0) & np.signbit(values))


def test_full_model_gradients_match_finite_differences(tiny_model):
    batch = random_batch(np.random.default_rng(10), 40, 4, 12)
    labels = np.array([0, 1, 2, 1])

    def loss_fn(tree):
        for key, arr in tree.items():
            scope, rest = key.split(".", 1)
            if scope == "encoder":
                tiny_model.encoder.tensors[rest] = arr
            else:
                task, name = rest.rsplit(".", 1)
                tiny_model.heads[task][name] = arr
        return task_loss(tiny_model, "b_task", batch, labels, train_mode=False, return_cache=False)[0]

    flat = flatten_params(tiny_model, tasks=["b_task"])
    _, grads = task_step_gradients(tiny_model, "b_task", batch, labels, train_mode=False)
    err = finite_difference_check(loss_fn, flat, grads, epsilon=1e-4, sample_count=120, seed=2)
    assert err <= 1e-4, err


def test_flatten_assign_round_trip(tiny_model):
    flat = flatten_params(tiny_model)
    assert any(k.startswith("encoder.") for k in flat)
    assert any(k.startswith("head.a_task.") for k in flat)
    assert any(k.startswith("head.b_task.") for k in flat)
    # flat view holds references
    flat["head.a_task.out_b"][:] = 5.0
    assert np.all(tiny_model.heads["a_task"]["out_b"] == 5.0)


def test_build_model_sorted_registration():
    config = tiny_config(vocab_size=30)
    specs = [TaskSpec("zeta", ("a", "b"), "tweet"), TaskSpec("alpha", ("a", "b"), "tweet")]
    m1 = build_model(config, specs)
    m2 = build_model(config, list(reversed(specs)))
    for task in ("alpha", "zeta"):
        for k in m1.heads[task]:
            assert np.array_equal(m1.heads[task][k], m2.heads[task][k])


def test_copy_dicts_shares_every_array_and_copies_every_dict():
    from misinfo_mtl.tokenization import Vocabulary

    config = tiny_config(vocab_size=6)
    model = build_model(config, [TaskSpec("t", ("a", "b"), "tweet")], vocab=Vocabulary.from_tokens(["x", "y", "z"]))
    copy = copy_dicts(model)
    assert copy.vocab is model.vocab and copy.tasks["t"] is model.tasks["t"]
    assert copy.config == model.config
    assert copy.tasks is not model.tasks and copy.heads is not model.heads
    assert copy.encoder is not model.encoder and copy.encoder.tensors is not model.encoder.tensors
    assert copy.heads["t"] is not model.heads["t"]
    before, shared = flatten_params(model), flatten_params(copy)
    assert before.keys() == shared.keys() and all(shared[key] is before[key] for key in before)
    # swapping the copy's entries, as training does, leaves the original's alone
    assign_params(copy, {key: value + 1.0 for key, value in shared.items()})
    assert all(flatten_params(model)[key] is before[key] for key in before)
    copy.tasks["u"] = TaskSpec("u", ("a", "b"), "tweet")
    assert "u" not in model.tasks
