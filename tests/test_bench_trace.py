"""The benchmark's traced pass must keep working over the training loop and scoring.

perfbench's ``Tracer`` reads ``.size``, ``.shape[0]`` and ``!= 0`` on every
gradient that reaches ``adam_step``; a change to how gradients are held must
not break it. Its ``required_spans`` needs a ``multitask.predict`` and an
``encoder.forward_eval`` span from every workload's scoring. It counts a
forward's real tokens as ``batch.mask.sum()``, so ``Batch.mask`` must keep
deriving one True per real token from the batch's lengths.
"""

import functools
import sys
from pathlib import Path

from misinfo_mtl import encoder as enc
from misinfo_mtl import evaluation, training
from misinfo_mtl.data import SyntheticSuiteConfig, generate_synthetic_suite, split
from misinfo_mtl.encoder import EncoderConfig
from misinfo_mtl.multitask import build_model
from misinfo_mtl.tokenization import build_vocab

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import bench_trace  # noqa: E402


def test_traced_train_and_finetune_record_every_adam_step():
    suite = generate_synthetic_suite(0, SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=40))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                           max_seq_len=16, dropout_rate=0.1, seed=0)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    train_config = training.TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=2, patience=2,
                                        max_seq_len=16, seed=0)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        stage1, _ = training.train_multitask(model, splits, train_config)
        training.finetune_task(stage1, "alpha", splits["alpha"], train_config)
    finally:
        tracer.uninstall()
    adams = [s for s in tracer.spans if s.name == "training.adam_step"]
    assert adams and all("elements" in s.attrs and "emb_touched" in s.attrs for s in adams)
    assert all(0 < s.attrs["emb_touched"] <= s.attrs["emb_rows"] <= vocab.size for s in adams)
    metrics = bench_trace.layer_metrics(tracer.spans)
    assert metrics["training.adam_step.calls"] == len(adams)
    assert metrics["training.adam_step.elements"] > 0
    assert 0.0 < metrics["training.adam_step.token_emb_touched_row_ratio"] <= 1.0


def test_traced_evaluate_model_records_one_predict_and_one_eval_forward():
    suite = generate_synthetic_suite(1, SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=80))
    examples = list(suite["alpha"].examples)
    vocab = build_vocab([ex.text for ex in examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                           max_seq_len=16, seed=0)
    model = build_model(config, [suite["alpha"].spec], vocab=vocab)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for _ in range(2):
            evaluation.evaluate_model(model, "alpha", examples)  # 80 rows: more than one run
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    for name in ("evaluation.evaluate_model", "multitask.predict", "encoder.forward_eval"):
        assert names.count(name) == 2, name
    assert "encoder.forward_train" not in names


def test_traced_forwards_count_the_batchs_summed_lengths_as_real(monkeypatch):
    summed = []
    real_encode_batch = enc.encode_batch

    @functools.wraps(real_encode_batch)  # the tracer binds the arguments by the wrapped signature
    def recording(params, batch, *args, **kwargs):
        summed.append(int(batch.lengths.sum()))
        return real_encode_batch(params, batch, *args, **kwargs)

    monkeypatch.setattr(enc, "encode_batch", recording)
    suite = generate_synthetic_suite(2, SyntheticSuiteConfig(task_names=("alpha", "beta"), examples_per_task=40,
                                                             min_tokens=2, max_tokens=30))
    splits = {t: split(ds, seed=0) for t, ds in suite.items()}
    vocab = build_vocab([ex.text for t in sorted(splits) for ex in splits[t].train.examples])
    config = EncoderConfig(vocab_size=vocab.size, embed_dim=16, num_layers=1, num_heads=2, ffn_dim=32,
                           max_seq_len=24, dropout_rate=0.1, seed=0)
    model = build_model(config, [splits[t].train.spec for t in sorted(splits)], vocab=vocab)
    train_config = training.TrainConfig(learning_rate=1e-3, batch_size=16, max_epochs=1, patience=1,
                                        max_seq_len=24, seed=0)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        trained, _ = training.train_multitask(model, splits, train_config)
        evaluation.evaluate_model(trained, "alpha", list(splits["alpha"].test.examples))
    finally:
        tracer.uninstall()
    forwards = [s for s in tracer.spans if s.name in ("encoder.forward_train", "encoder.forward_eval")]
    assert {s.name for s in forwards} == {"encoder.forward_train", "encoder.forward_eval"}
    assert [s.attrs["real"] for s in forwards] == summed
    assert all(s.attrs["real"] < s.attrs["rows"] * s.attrs["length"] for s in forwards)  # the batches are ragged
