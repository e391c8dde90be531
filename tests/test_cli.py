import contextlib
import errno
import io
import json
import math
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from misinfo_mtl import cli, evaluation, training
from misinfo_mtl import encoder as enc
from misinfo_mtl.checkpoint import load_model, save_model
from misinfo_mtl.cli import main
from misinfo_mtl.data import SyntheticSuiteConfig, generate_synthetic_suite, save_dataset
from misinfo_mtl.multitask import flatten_params

from conftest import tamper_header

CFG_TEMPLATE = """
# desk-scale settings
embed_dim = 16
num_layers = 1
num_heads = 2
ffn_dim = 32
max_seq_len = 16
dropout_rate = 0.1

learning_rate = 1e-3
batch_size = 32
max_epochs = 2
patience = 2

tasks = alpha,beta
dataset.alpha = {data}/alpha.jsonl
dataset.beta = {data}/beta.jsonl
labels.alpha = negative,positive
labels.beta = negative,positive
positive.alpha = positive
positive.beta = positive
"""


@pytest.fixture
def workdir(tmp_path):
    data = tmp_path / "data"
    rc = main(["gen-synthetic", "--tasks", "alpha,beta", "--examples", "60",
               "--p-shared", "0.5", "--out", str(data), "--seed", "5"])
    assert rc == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=data))
    return tmp_path


def test_gen_synthetic_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-synthetic", "--tasks", "x,y", "--examples", "40", "--out", str(a), "--seed", "2"]) == 0
    assert main(["gen-synthetic", "--tasks", "x,y", "--examples", "40", "--out", str(b), "--seed", "2"]) == 0
    assert (a / "x.jsonl").read_bytes() == (b / "x.jsonl").read_bytes()
    assert (a / "y.jsonl").read_bytes() == (b / "y.jsonl").read_bytes()


def test_validate_data_prints_counts(workdir, capsys):
    rc = main(["validate-data", "--dataset", str(workdir / "data" / "alpha.jsonl"),
               "--task", "alpha", "--labels", "negative,positive", "--positive", "positive"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "60" in out and "30" in out


def test_validate_data_bad_label_fails(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"id": "1", "text": "x", "task": "t", "label": "wat"}) + "\n")
    rc = main(["validate-data", "--dataset", str(path), "--task", "t", "--labels", "a,b"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: line 1: ") and "wat" in err and err.count("\n") == 1, err


def test_train_writes_run_directory(workdir):
    out = workdir / "run"
    rc = main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("manifest.json", "config.txt", "metrics.json"):
        assert (out / name).exists()
    assert not (out / "vocab.txt").exists()  # the checkpoint carries the vocabulary
    assert (out / "seed0" / "model.ckpt").exists()
    assert (out / "seed0" / "history.jsonl").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seeds"] == [0]
    assert len(manifest["inputs"]) == 3  # config + two dataset files
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics["averaged"]) == {"alpha", "beta"}
    model = load_model(out / "seed0" / "model.ckpt")
    assert set(model.tasks) == {"alpha", "beta"}
    assert model.vocab is not None and model.vocab.size == model.config.vocab_size


def test_train_rerun_is_byte_identical(workdir):
    out1, out2 = workdir / "r1", workdir / "r2"
    for out in (out1, out2):
        assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "1",
                     "--out", str(out), "--quiet"]) == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "seed1" / "model.ckpt").read_bytes() == (out2 / "seed1" / "model.ckpt").read_bytes()


def test_train_missing_dataset_exits_2(workdir, capsys):
    cfg = workdir / "broken.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=workdir / "nope"))
    rc = main(["train", "--config", str(cfg), "--seed", "0", "--out", str(workdir / "x"), "--quiet"])
    assert rc == 2
    assert str(workdir / "nope") in capsys.readouterr().err


def test_unknown_config_key_exits_2_naming_key(workdir, capsys):
    cfg = workdir / "bad.cfg"
    cfg.write_text("tasks = alpha\nlearning_rat = 1e-3\n")
    rc = main(["train", "--config", str(cfg), "--out", str(workdir / "x")])
    assert rc == 2
    assert "learning_rat" in capsys.readouterr().err


def test_semantically_invalid_config_exits_2(workdir, capsys):
    cfg = workdir / "bad2.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=workdir / "data")
                   .replace("patience = 2", "patience = 99"))
    rc = main(["train", "--config", str(cfg), "--seed", "0", "--out", str(workdir / "x"), "--quiet"])
    assert rc == 2
    assert "patience" in capsys.readouterr().err


def test_finetune_leaves_other_heads_bit_identical(workdir):
    out = workdir / "stage1"
    assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0",
                 "--out", str(out), "--quiet"]) == 0
    ft = workdir / "stage2"
    rc = main(["finetune", "--config", str(workdir / "run.cfg"), "--checkpoint",
               str(out / "seed0" / "model.ckpt"), "--task", "alpha", "--seed", "0",
               "--out", str(ft), "--quiet"])
    assert rc == 0
    stage1 = load_model(out / "seed0" / "model.ckpt")
    stage2 = load_model(ft / "seed0" / "model.ckpt")
    for name in stage1.heads["beta"]:
        assert np.array_equal(stage1.heads["beta"][name], stage2.heads["beta"][name])
    assert any(
        not np.array_equal(stage1.encoder.tensors[k], stage2.encoder.tensors[k])
        for k in stage1.encoder.tensors
    )


def test_fewshot_reports_partition_sizes(workdir, capsys, tmp_path):
    out = workdir / "stage1"
    assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0",
                 "--out", str(out), "--quiet"]) == 0
    unseen = tmp_path / "unseen"
    assert main(["gen-synthetic", "--tasks", "gamma,delta", "--examples", "50",
                 "--p-shared", "0.5", "--out", str(unseen), "--seed", "6"]) == 0
    fs = workdir / "fs"
    rc = main(["fewshot", "--checkpoint", str(out / "seed0" / "model.ckpt"),
               "--dataset", str(unseen / "gamma.jsonl"), "--task", "gamma",
               "--labels", "negative,positive", "--k", "25", "--seed", "0",
               "--out", str(fs), "--max-epochs", "2", "--learning-rate", "1e-3", "--quiet"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "train=25 test=25" in stdout
    payload = json.loads((fs / "metrics.json").read_text())
    assert payload["train_size"] == 25
    assert payload["test_size"] == 25


def test_fewshot_quiet_drops_only_the_per_seed_lines(stage1, tmp_path, capsys):
    argv = [arg for arg in RUN_COMMANDS["fewshot"](stage1) if arg != "--quiet"] + ["--seed", "0", "--seed", "1"]
    printed, written = {}, {}
    for name, quiet in (("loud", []), ("quiet", ["--quiet"])):
        out = tmp_path / name
        assert main(argv + quiet + ["--out", str(out)]) == 0
        printed[name] = capsys.readouterr().out.replace(str(out), "<out>").splitlines()
        written[name] = {p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                         if p.is_file() and p.name != "manifest.json"}
    assert written["quiet"] == written["loud"] and len(written["loud"]) == 3
    seed_lines = [line for line in printed["loud"] if line.startswith("[seed")]
    assert [line.split(" macro_f1=")[0] for line in seed_lines] == [
        "[seed 0] train=10 test=50", "[seed 1] train=10 test=50"]
    assert printed["quiet"] == [line for line in printed["loud"] if line not in seed_lines]
    assert "train=10 test=50" in printed["quiet"] and "run directory: <out>" in printed["quiet"]


def test_eval_command(workdir, capsys):
    out = workdir / "stage1"
    assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0",
                 "--out", str(out), "--quiet"]) == 0
    rc = main(["eval", "--checkpoint", str(out / "seed0" / "model.ckpt"),
               "--dataset", str(workdir / "data" / "alpha.jsonl"), "--task", "alpha",
               "--labels", "negative,positive"])
    assert rc == 0
    assert "alpha" in capsys.readouterr().out


def test_ablation_command_rows(workdir, capsys):
    out = workdir / "abl"
    rc = main(["ablation", "--config", str(workdir / "run.cfg"), "--task", "alpha",
               "--subset", "alpha", "--subset", "alpha,beta", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert set(payload["rows"]) == {"alpha", "alpha+beta"}
    stdout = capsys.readouterr().out
    assert "alpha+beta" in stdout


def test_loocv_command(workdir, capsys, tmp_path):
    events = tmp_path / "events"
    assert main(["gen-synthetic", "--tasks", "alpha,beta,rumorlike", "--examples", "60",
                 "--p-shared", "0.5", "--events", "3", "--out", str(events), "--seed", "7"]) == 0
    cfg = tmp_path / "loocv.cfg"
    cfg.write_text(
        CFG_TEMPLATE.format(data=events)
        + f"dataset.rumorlike = {events}/rumorlike.jsonl\n"
        + "labels.rumorlike = negative,positive\n"
    )
    # add rumorlike to the task list
    cfg.write_text(cfg.read_text().replace("tasks = alpha,beta", "tasks = alpha,beta,rumorlike"))
    out = tmp_path / "lo"
    rc = main(["loocv", "--config", str(cfg), "--task", "rumorlike", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["stage1_tasks"] == ["alpha", "beta"]
    assert len(payload["per_seed"]["0"]["folds"]) == 3
    assert "average" in capsys.readouterr().out


def test_train_ablation_and_loocv_build_the_vocabulary_the_config_asks_for(tmp_path, monkeypatch):
    sizes, real = [], evaluation.build_model
    monkeypatch.setattr(evaluation, "build_model", lambda config, specs, vocab: (
        sizes.append(vocab.size) or real(config, specs, vocab=vocab)))
    events = tmp_path / "events"
    assert main(["gen-synthetic", "--tasks", "alpha,beta,rumorlike", "--examples", "60",
                 "--p-shared", "0.5", "--events", "3", "--out", str(events), "--seed", "7"]) == 0
    cfg = tmp_path / "small-vocab.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=events).replace("tasks = alpha,beta", "tasks = alpha,beta,rumorlike")
                   .replace("max_epochs = 2\npatience = 2", "max_epochs = 1\npatience = 1")
                   + f"dataset.rumorlike = {events}/rumorlike.jsonl\nlabels.rumorlike = negative,positive\n"
                   + "max_vocab = 12\n")
    common = ["--config", str(cfg), "--seed", "0"]
    assert main(["train", *common, "--quiet", "--out", str(tmp_path / "train")]) == 0
    assert main(["ablation", *common, "--task", "alpha", "--subset", "alpha,beta", "--out", str(tmp_path / "abl")]) == 0
    assert main(["loocv", *common, "--task", "rumorlike", "--out", str(tmp_path / "lo")]) == 0
    assert sizes == [12, 12, 12]  # train, the one ablation row, loocv's stage 1
    assert load_model(tmp_path / "train" / "seed0" / "model.ckpt").vocab.size == 12


def test_usage_error_exits_2():
    assert main(["train"]) == 2  # missing --config
    assert main(["not-a-command"]) == 2


def test_train_emits_line_delimited_report(workdir):
    out = workdir / "run"
    assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0",
                 "--out", str(out), "--quiet"]) == 0
    lines = (out / "report.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert [r["row"] for r in rows] == ["alpha", "beta"]
    assert all("accuracy" in r and "macro_f1" in r for r in rows)


def _bias_records(n_pos=36, n_neg=24):
    types = ["lexical", "informational"]
    polarities = ["positive", "negative", "neutral"]
    records = []
    for i in range(n_pos):
        records.append({
            "id": f"p{i}", "text": f"slanted take {i} on topic {i % 5}", "task": "newsbias",
            "label": "contains-bias", "bias_type": types[i % 2], "polarity": polarities[i % 3],
        })
    for i in range(n_neg):
        records.append({
            "id": f"n{i}", "text": f"plain report {i} about topic {i % 5}", "task": "newsbias",
            "label": "no-bias",
        })
    return records


def test_train_with_derived_auxiliary_tasks(tmp_path):
    data = tmp_path / "newsbias.jsonl"
    with data.open("w") as fh:
        for rec in _bias_records():
            fh.write(json.dumps(rec) + "\n")
    cfg = tmp_path / "aux.cfg"
    cfg.write_text(
        "embed_dim = 16\nnum_layers = 1\nnum_heads = 2\nffn_dim = 32\nmax_seq_len = 16\n"
        "learning_rate = 1e-3\nbatch_size = 16\nmax_epochs = 1\npatience = 1\n"
        "tasks = newsbias,newsbias_type,newsbias_polarity\n"
        f"dataset.newsbias = {data}\n"
        "derive.newsbias_type = newsbias:bias_type\n"
        "derive.newsbias_polarity = newsbias:polarity\n"
    )
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 0
    model = load_model(out / "seed0" / "model.ckpt")
    assert set(model.tasks) == {"newsbias", "newsbias_type", "newsbias_polarity"}
    assert model.tasks["newsbias_polarity"].labels == ("positive", "negative", "neutral")
    assert len(model.heads) == 3


BAD_DERIVES = {
    "from-itself": ("x", "derive.x = x:bias_type\n", "derive.x: source task 'x' must have a dataset.x key"),
    "from-a-derived-task": ("x,y", "derive.x = alpha:bias_type\nderive.y = x:polarity\nlabels.y = a,b\n",
                            "derive.y: source task 'x' must have a dataset.x key"),
    "source-carries-no-field": ("x", "derive.x = alpha:bias_type\n",
                                "derive.x (source {alpha}): no examples carry field 'bias_type'"),
}


@pytest.mark.parametrize("case", sorted(BAD_DERIVES))
def test_a_bad_derive_key_exits_2_naming_it_and_writes_nothing(workdir, capsys, case):
    tasks, lines, message = BAD_DERIVES[case]
    cfg = workdir / "derive.cfg"
    cfg.write_text((workdir / "run.cfg").read_text().replace("tasks = alpha,beta", f"tasks = alpha,beta,{tasks}")
                   + lines + "labels.x = lexical,informational\n")
    out = workdir / "run"
    assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {message.format(alpha=workdir / 'data' / 'alpha.jsonl')}\n"
    assert not out.exists()


# Config lines beside run.cfg's settings and datasets (its tasks line dropped), and the refusal naming their keys
UNUSED_OR_MISSING_KEYS = {
    "key-of-an-unlisted-task": ("tasks = alpha,beta\nlabels.alpah = x,y\ndrop_labels.bta = positive\n",
                                "config keys name no task listed in 'tasks': drop_labels.bta, labels.alpah"),
    "dataset-beside-derive": ("tasks = alpha,beta,x\nderive.x = alpha:bias_type\ndataset.x = {alpha}\n"
                              "labels.x = lexical,informational\n",
                              "task 'x' needs exactly one of the config keys dataset.x and derive.x"),
    "neither-dataset-nor-derive": ("tasks = alpha,beta,x\nlabels.x = lexical,informational\n",
                                   "task 'x' needs exactly one of the config keys dataset.x and derive.x"),
}


@pytest.mark.parametrize("case", sorted(UNUSED_OR_MISSING_KEYS))
def test_a_config_key_that_configures_nothing_or_is_missing_exits_2_naming_it(workdir, capsys, case):
    lines, message = UNUSED_OR_MISSING_KEYS[case]
    alpha = workdir / "data" / "alpha.jsonl"
    cfg = workdir / "unused.cfg"
    cfg.write_text((workdir / "run.cfg").read_text().replace("tasks = alpha,beta\n", "") + lines.format(alpha=alpha))
    out = workdir / "run"
    assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_a_config_that_is_not_utf8_exits_2_naming_its_file_and_line(workdir, capsys):
    cfg = workdir / "latin1.cfg"
    cfg.write_bytes(b"tasks = alpha\nlabels.alpha = caf\xe9,th\xffe\n")
    out = workdir / "run"
    assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {cfg}:2: not valid UTF-8\n"
    assert not out.exists()


def test_a_split_refusal_names_the_dataset_file_or_the_derive_key(workdir, capsys):
    small = workdir / "alpha_small.jsonl"
    small.write_text("".join((workdir / "data" / "alpha.jsonl").read_text().splitlines(True)[:5]))
    small_cfg = workdir / "small.cfg"
    small_cfg.write_text((workdir / "run.cfg").read_text().replace(str(workdir / "data" / "alpha.jsonl"), str(small)))
    records = _bias_records()
    for i, rec in enumerate(r for r in records if "bias_type" in r):
        rec["bias_type"] = "informational" if i < 2 else "lexical"
    bias = workdir / "newsbias.jsonl"
    bias.write_text("".join(json.dumps(r) + "\n" for r in records))
    derived_cfg = workdir / "derived.cfg"
    derived_cfg.write_text(f"tasks = newsbias,newsbias_type\ndataset.newsbias = {bias}\n"
                           "derive.newsbias_type = newsbias:bias_type\n")
    for cfg, message in ((small_cfg, f"{small}: dataset too small to split (5 < 10)"), (derived_cfg, (
            f"derive.newsbias_type (source {bias}): class 'informational' has 2 examples; need >= 3 to stratify"))):
        out = workdir / "run"
        assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


def test_bad_record_exits_2_naming_its_file_once_and_writes_nothing(workdir, capsys):
    path = workdir / "data" / "alpha.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[3]["text"] = 5
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = workdir / "run"
    rc = main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: line 4: ") and err.count("\n") == 1 and "'text'" in err, err
    assert err.count(str(path)) == 1
    assert not out.exists()


DATASET_COMMANDS = {
    "train": lambda cfg, data: ["train", "--config", str(cfg), "--quiet"],
    "finetune": lambda cfg, data: ["finetune", "--config", str(cfg), "--task", "alpha", "--checkpoint",
                                   str(cfg.parent / "model.ckpt"), "--quiet"],
    "loocv": lambda cfg, data: ["loocv", "--config", str(cfg), "--task", "beta"],
    "ablation": lambda cfg, data: ["ablation", "--config", str(cfg), "--task", "alpha", "--subset", "alpha"],
    "fewshot": lambda cfg, data: ["fewshot", "--checkpoint", str(cfg.parent / "model.ckpt"), "--dataset", str(data),
                                  "--task", "beta", "--labels", "negative,positive", "--k", "1", "--quiet"],
    "eval": lambda cfg, data: ["eval", "--checkpoint", str(cfg.parent / "model.ckpt"), "--dataset", str(data),
                               "--task", "beta", "--labels", "negative,positive"],
    "validate-data": lambda cfg, data: ["validate-data", "--dataset", str(data), "--task", "beta",
                                        "--labels", "negative,positive"],
}


@pytest.mark.parametrize("command", sorted(DATASET_COMMANDS))
def test_a_malformed_second_dataset_exits_2_naming_its_file_and_writes_nothing(workdir, capsys, command):
    # alpha's file is fine; line 3 of beta's lacks every field but the id
    bad = workdir / "beta_bad.jsonl"
    bad.write_text("".join((workdir / "data" / "beta.jsonl").read_text().splitlines(True)[:2]) + '{"id": 5}\n')
    cfg = workdir / "bad.cfg"
    cfg.write_text((workdir / "run.cfg").read_text().replace(str(workdir / "data" / "beta.jsonl"), str(bad)))
    before = sorted(workdir.rglob("*"))
    argv = DATASET_COMMANDS[command](cfg, bad)
    if command != "validate-data":
        argv += ["--out", str(workdir / "run")] + (["--seed", "0"] if command != "eval" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {bad}: line 3: record is missing required field 'text'\n"
    assert sorted(workdir.rglob("*")) == before


def test_diverged_training_exits_1_with_one_line(workdir, capsys, monkeypatch):
    from misinfo_mtl import training

    monkeypatch.setattr(training, "task_step_gradients", lambda *args, **kwargs: (float("nan"), {}))
    rc = main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0", "--out", str(workdir / "run"),
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training diverged") and err.count("\n") == 1, err
    assert "epoch 1, step 1" in err


def test_non_finite_validation_loss_in_the_first_epoch_exits_1_with_one_line(workdir, capsys, monkeypatch):
    from misinfo_mtl import training

    real = training.score
    monkeypatch.setattr(training, "score", lambda *args: (float("nan"), real(*args)[1]))
    rc = main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0", "--out", str(workdir / "run"),
               "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: training diverged before any epoch finished: validation loss is nan at epoch 1\n"


def test_unexpected_exception_exits_1_with_one_line(workdir, capsys, monkeypatch):
    from misinfo_mtl import cli

    def broken(args):
        raise RuntimeError("something broke")

    monkeypatch.setattr(cli, "cmd_eval", broken)
    rc = main(["eval", "--checkpoint", str(workdir / "x.ckpt"), "--dataset", str(workdir / "data" / "alpha.jsonl"),
               "--task", "alpha", "--labels", "negative,positive"])
    assert rc == 1
    assert capsys.readouterr().err == "error: internal error: RuntimeError: something broke\n"


def test_missing_checkpoint_exits_2_before_writing(workdir):
    out = workdir / "ft"
    rc = main(["finetune", "--config", str(workdir / "run.cfg"), "--checkpoint", str(workdir / "nope.ckpt"),
               "--task", "alpha", "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 2
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command", ["eval", "finetune", "fewshot"])
def test_directory_as_checkpoint_exits_2_with_one_line(workdir, capsys, command):
    data = workdir / "data"
    argv = {
        "eval": ["eval", "--dataset", str(data / "alpha.jsonl"), "--task", "alpha", "--labels", "negative,positive"],
        "finetune": ["finetune", "--config", str(workdir / "run.cfg"), "--task", "alpha", "--seed", "0", "--quiet"],
        "fewshot": ["fewshot", "--dataset", str(data / "beta.jsonl"), "--task", "beta",
                    "--labels", "negative,positive", "--k", "10", "--seed", "0", "--quiet"],
    }[command]
    out = workdir / "run"
    rc = main(argv + ["--checkpoint", str(data), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    # the same prefix as a missing or malformed checkpoint, and the path named once
    assert err.startswith(f"config error: {data}: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert err.count(str(data)) == 1
    assert not out.exists()


def test_bad_labels_flag_is_a_config_error(workdir, capsys):
    rc = main(["validate-data", "--dataset", str(workdir / "data" / "alpha.jsonl"),
               "--task", "alpha", "--labels", "positive"])
    assert rc == 2
    assert "needs >= 2 labels" in capsys.readouterr().err


@pytest.fixture(scope="module")
def stage1(tmp_path_factory):
    """Synthetic data, configs and one trained stage-1 checkpoint shared by the run-directory tests."""
    root = tmp_path_factory.mktemp("stage1")
    assert main(["gen-synthetic", "--tasks", "alpha,beta,gamma", "--examples", "60",
                 "--p-shared", "0.5", "--out", str(root / "data"), "--seed", "5"]) == 0
    assert main(["gen-synthetic", "--tasks", "alpha,beta,rumorlike", "--examples", "60",
                 "--p-shared", "0.5", "--events", "3", "--out", str(root / "events"), "--seed", "7"]) == 0
    (root / "run.cfg").write_text(CFG_TEMPLATE.format(data=root / "data"))
    (root / "loocv.cfg").write_text(
        CFG_TEMPLATE.format(data=root / "events").replace("tasks = alpha,beta", "tasks = alpha,beta,rumorlike")
        + f"dataset.rumorlike = {root}/events/rumorlike.jsonl\nlabels.rumorlike = negative,positive\n"
    )
    assert main(["train", "--config", str(root / "run.cfg"), "--seed", "0",
                 "--out", str(root / "run"), "--quiet"]) == 0
    return root


RUN_COMMANDS = {
    "train": lambda r: ["train", "--config", str(r / "run.cfg"), "--quiet"],
    "finetune": lambda r: ["finetune", "--config", str(r / "run.cfg"), "--task", "alpha",
                           "--checkpoint", str(r / "run" / "seed0" / "model.ckpt"), "--quiet"],
    "fewshot": lambda r: ["fewshot", "--checkpoint", str(r / "run" / "seed0" / "model.ckpt"),
                          "--dataset", str(r / "data" / "gamma.jsonl"), "--task", "gamma",
                          "--labels", "negative,positive", "--k", "10", "--max-epochs", "1", "--quiet"],
    "loocv": lambda r: ["loocv", "--config", str(r / "loocv.cfg"), "--task", "rumorlike"],
    "ablation": lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "alpha",
                           "--subset", "alpha", "--subset", "alpha,beta"],
}


@pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
def test_run_directory_is_complete_and_rerun_identical(stage1, tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(RUN_COMMANDS[command](stage1) + ["--seed", "0", "--out", str(out)]) == 0
    for name in ("manifest.json", "config.txt", "metrics.json", "report.jsonl"):
        assert (first / name).is_file(), name
    if command in ("train", "finetune"):
        assert (first / "seed0" / "model.ckpt").is_file()
    # the manifest records the run directory and the wall-clock time; everything else must repeat
    written = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file() and p.name != "manifest.json")
    assert written == sorted(p.relative_to(second) for p in second.rglob("*")
                             if p.is_file() and p.name != "manifest.json")
    for rel in written:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


def _checkpoint_commands(stage1, checkpoint):
    """A finetune, fewshot and eval argv on ``checkpoint``, each missing only ``--out``."""
    return {
        "finetune": ["finetune", "--config", str(stage1 / "run.cfg"), "--task", "alpha",
                     "--checkpoint", str(checkpoint), "--quiet", "--seed", "0"],
        "fewshot": ["fewshot", "--checkpoint", str(checkpoint), "--dataset", str(stage1 / "data" / "gamma.jsonl"),
                    "--task", "gamma", "--labels", "negative,positive", "--k", "10", "--max-epochs", "1", "--quiet",
                    "--seed", "0"],
        "eval": ["eval", "--checkpoint", str(checkpoint), "--dataset", str(stage1 / "data" / "alpha.jsonl"),
                 "--task", "alpha", "--labels", "negative,positive"],
    }


def test_a_checkpoint_copied_alone_is_the_whole_model(stage1, tmp_path):
    alone = tmp_path / "alone" / "model.ckpt"
    alone.parent.mkdir()
    alone.write_bytes((stage1 / "run" / "seed0" / "model.ckpt").read_bytes())
    beside = _checkpoint_commands(stage1, stage1 / "run" / "seed0" / "model.ckpt")
    for command, argv in _checkpoint_commands(stage1, alone).items():
        assert main(argv + ["--out", str(tmp_path / command / "alone")]) == 0
        assert main(beside[command] + ["--out", str(tmp_path / command / "beside")]) == 0
        metrics = [(tmp_path / command / run / "metrics.json").read_bytes() for run in ("alone", "beside")]
        assert metrics[0] == metrics[1], command
    assert sorted(p.name for p in alone.parent.iterdir()) == ["model.ckpt"]
    assert not (tmp_path / "finetune" / "alone" / "seed0" / "vocab.txt").exists()


@pytest.mark.parametrize("command", ["finetune", "fewshot", "eval"])
def test_a_checkpoint_without_a_vocabulary_exits_2_writing_nothing(stage1, tmp_path, capsys, command):
    model = load_model(stage1 / "run" / "seed0" / "model.ckpt")
    model.vocab = None
    checkpoint = tmp_path / "bare" / "model.ckpt"
    checkpoint.parent.mkdir()
    save_model(checkpoint, model)
    out = tmp_path / "run"
    assert main(_checkpoint_commands(stage1, checkpoint)[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: checkpoint {checkpoint} has no vocabulary\n", err
    assert not out.exists() and sorted(p.name for p in tmp_path.iterdir()) == ["bare"]


MALFORMED_CHECKPOINTS = {
    "bad-magic": (lambda raw: b"NOTACKPT" + raw[8:], "not a checkpoint file (bad magic)"),
    "vocab-one-token-short": (lambda raw: tamper_header(raw, lambda header: header["vocab"].pop()),
                              "tokens after the 3 reserved ids but vocab_size is"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
@pytest.mark.parametrize("command", ["finetune", "fewshot", "eval"])
def test_a_malformed_checkpoint_exits_2_writing_nothing(stage1, tmp_path, capsys, command, case):
    corrupt, message = MALFORMED_CHECKPOINTS[case]
    checkpoint = tmp_path / "bad" / "model.ckpt"
    checkpoint.parent.mkdir()
    checkpoint.write_bytes(corrupt((stage1 / "run" / "seed0" / "model.ckpt").read_bytes()))
    out = tmp_path / "run"
    assert main(_checkpoint_commands(stage1, checkpoint)[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {checkpoint}: ") and message in err and err.count("\n") == 1, err
    assert not out.exists() and sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("bad"), Path("bad") / "model.ckpt"]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("role", ["config", "dataset", "checkpoint"])
def test_an_unreadable_input_file_exits_2_with_one_config_error_line(stage1, tmp_path, capsys, role, kind):
    bad = tmp_path / "unreadable"
    if kind == "directory":
        bad.mkdir()
    inputs = {"dataset": stage1 / "data" / "alpha.jsonl", "checkpoint": stage1 / "run" / "seed0" / "model.ckpt",
              role: bad}
    argv = ["train", "--config", str(bad), "--seed", "0", "--quiet"] if role == "config" else [
        "eval", "--checkpoint", str(inputs["checkpoint"]), "--dataset", str(inputs["dataset"]), "--task", "alpha",
        "--labels", "negative,positive"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {bad}: ") and err.count("\n") == 1 and err.count(str(bad)) == 1, err
    assert sorted(tmp_path.rglob("*")) == ([bad] if kind == "directory" else [])



@pytest.mark.parametrize("command", ["train", "eval", "gen-synthetic"])
def test_a_failed_artifact_write_exits_1_with_one_error_line(stage1, tmp_path, capsys, monkeypatch, command):
    # a full disk raises OSError errno 28 naming no file: a runtime failure, not an unreadable input
    def full_disk(*args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_text_atomic", full_disk)
    monkeypatch.setattr(cli.datamod, "save_dataset", full_disk)
    argv = {
        "train": RUN_COMMANDS["train"](stage1) + ["--seed", "0"],
        "eval": ["eval", "--checkpoint", str(stage1 / "run" / "seed0" / "model.ckpt"), "--dataset",
                 str(stage1 / "data" / "alpha.jsonl"), "--task", "alpha", "--labels", "negative,positive"],
        "gen-synthetic": ["gen-synthetic", "--examples", "20"],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

def test_each_finetune_seed_starts_from_the_checkpoint(stage1, tmp_path):
    argv = RUN_COMMANDS["finetune"](stage1)
    assert main(argv + ["--seed", "0", "--seed", "1", "--out", str(tmp_path / "both")]) == 0
    assert main(argv + ["--seed", "1", "--out", str(tmp_path / "alone")]) == 0
    for name in ("model.ckpt", "history.jsonl"):
        assert (tmp_path / "both" / "seed1" / name).read_bytes() == (tmp_path / "alone" / "seed1" / name).read_bytes()


def test_each_fewshot_seed_starts_from_the_checkpoint(stage1, tmp_path, monkeypatch):
    checkpoint = stage1 / "run" / "seed0" / "model.ckpt"
    saved, starts, real = flatten_params(load_model(checkpoint)), [], evaluation.fewshot_run

    def fewshot_run(base, *args, **kwargs):
        starts.append(all(np.array_equal(v, saved[k]) for k, v in flatten_params(base).items()))
        return real(base, *args, **kwargs)

    monkeypatch.setattr(evaluation, "fewshot_run", fewshot_run)
    argv = RUN_COMMANDS["fewshot"](stage1)
    runs = {"both": ["--seed", "0", "--seed", "1"], "seed0": ["--seed", "0"], "seed1": ["--seed", "1"]}
    per_seed = {}
    for name, seeds in runs.items():
        assert main(argv + seeds + ["--out", str(tmp_path / name)]) == 0
        per_seed[name] = json.loads((tmp_path / name / "metrics.json").read_text())["per_seed"]
    assert per_seed["both"] == {**per_seed["seed0"], **per_seed["seed1"]}
    assert starts == [True] * 4


def test_finetune_refuses_a_checkpoint_an_earlier_seed_would_overwrite(stage1, tmp_path, capsys):
    checkpoint = tmp_path / "run" / "seed0" / "model.ckpt"
    checkpoint.parent.mkdir(parents=True)
    checkpoint.write_bytes((stage1 / "run" / "seed0" / "model.ckpt").read_bytes())
    argv = ["finetune", "--config", str(stage1 / "run.cfg"), "--task", "alpha", "--checkpoint", str(checkpoint),
            "--quiet", "--seed", "0", "--seed", "1", "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"config error: checkpoint {checkpoint} would be overwritten "
                                       "before later seeds load it\n")
    assert checkpoint.read_bytes() == (stage1 / "run" / "seed0" / "model.ckpt").read_bytes()
    assert sorted(p.name for p in (tmp_path / "run").rglob("*")) == ["model.ckpt", "seed0"]


def _gamma_config(root):
    """The stage-1 config plus a ``gamma`` task that the stage-1 checkpoint has no head for."""
    path = root / "gamma.cfg"
    path.write_text(
        CFG_TEMPLATE.format(data=root / "data").replace("tasks = alpha,beta", "tasks = alpha,beta,gamma")
        + f"dataset.gamma = {root}/data/gamma.jsonl\nlabels.gamma = negative,positive\n"
    )
    return path


BAD_ADAPTATIONS = {
    "fewshot-k-is-dataset-size": (
        lambda r: ["fewshot", "--checkpoint", str(r / "run" / "seed0" / "model.ckpt"),
                   "--dataset", str(r / "data" / "gamma.jsonl"), "--task", "gamma",
                   "--labels", "negative,positive", "--k", "60"],
        "k=60 must be < dataset size 60",
    ),
    "fewshot-task-registered": (
        lambda r: ["fewshot", "--checkpoint", str(r / "run" / "seed0" / "model.ckpt"),
                   "--dataset", str(r / "data" / "alpha.jsonl"), "--task", "alpha",
                   "--labels", "negative,positive", "--k", "10"],
        "task 'alpha' is already registered",
    ),
    "finetune-task-missing": (
        lambda r: ["finetune", "--config", str(_gamma_config(r)), "--task", "gamma",
                   "--checkpoint", str(r / "run" / "seed0" / "model.ckpt")],
        "error: unknown task 'gamma'; registered: ['alpha', 'beta']\n",
    ),
    "ablation-subset-task-not-in-config": (
        lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "alpha", "--subset", "alpha,zzz"],
        "error: no dataset provided for task 'zzz'\n",
    ),
    "ablation-subset-without-eval-task": (
        lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "alpha", "--subset", "beta"],
        "error: eval task 'alpha' missing from subset ('beta',)\n",
    ),
    "ablation-eval-task-not-in-config": (
        lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "zzz", "--subset", "alpha"],
        "error: eval task 'zzz' missing from subset ('alpha',)\n",
    ),
    "ablation-subset-repeated": (
        lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "alpha",
                   "--subset", "alpha,beta", "--subset", "beta,alpha"],
        "error: task subset ('alpha', 'beta') is given more than once\n",
    ),
    "ablation-subset-names-a-task-twice": (
        lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "alpha", "--subset", "alpha,alpha"],
        "error: task subset ('alpha', 'alpha') names a task more than once\n",
    ),
    "loocv-task-without-events": (
        lambda r: ["loocv", "--config", str(r / "run.cfg"), "--task", "alpha"],
        "has no event tag",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_ADAPTATIONS))
def test_bad_adaptation_exits_2_before_writing(stage1, tmp_path, capsys, case):
    argv, message = BAD_ADAPTATIONS[case]
    out = tmp_path / "run"
    assert main(argv(stage1) + ["--seed", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert err.startswith("config error: "), err
    assert not out.exists()


def _train_with(line, command="train"):
    """``command`` of ``RUN_COMMANDS`` on a copy of its config in which ``line`` sets its key."""
    def argv(root, tmp):
        argv = RUN_COMMANDS[command](root)
        at = argv.index("--config") + 1
        key = line.split("=")[0].strip()
        kept = [ln for ln in Path(argv[at]).read_text().splitlines() if ln.split("=")[0].strip() != key]
        (tmp / "edited.cfg").write_text("\n".join(kept + [line]) + "\n")
        argv[at] = str(tmp / "edited.cfg")
        return argv
    return argv


BAD_SETTINGS = {
    "seeds-empty": (_train_with("seeds ="), "seeds must be one or more distinct integers >= 0, got []"),
    "seeds-repeated-in-config": (_train_with("seeds = 1,2,1"), "got [1, 2, 1]"),
    "seed-repeated": (lambda r, t: RUN_COMMANDS["train"](r) + ["--seed", "0", "--seed", "0"], "got [0, 0]"),
    "seed-negative-fewshot": (lambda r, t: RUN_COMMANDS["fewshot"](r) + ["--seed", "-1"], "got [-1]"),
    "learning-rate-nan": (_train_with("learning_rate = nan"), "learning_rate must be finite and > 0, got nan"),
    "adam-setting-is-not-a-key": (_train_with("adam_epsilon = -1"), "unknown config key 'adam_epsilon'"),
    "pooling-is-not-a-key": (_train_with("pooling = mean"), "unknown config key 'pooling'"),
    "num-heads-0": (_train_with("num_heads = 0"), "num_heads must be >= 1"),
    "fewshot-learning-rate-nan": (lambda r, t: RUN_COMMANDS["fewshot"](r) + ["--learning-rate", "nan"],
                                  "learning_rate must be finite and > 0, got nan"),
    "fewshot-k-0": (lambda r, t: RUN_COMMANDS["fewshot"](r) + ["--k", "0"], "k must be >= 1"),
    "fewshot-max-epochs-0": (lambda r, t: RUN_COMMANDS["fewshot"](r) + ["--max-epochs", "0"],
                             "max_epochs must be >= 1"),
}
for _command in ("train", "finetune", "loocv", "ablation"):
    for _line, _message in (
        ("min_freq = 0", "config key 'min_freq': min_freq must be >= 1, got 0"),
        ("max_vocab = 2", "config key 'max_vocab': max_size must be >= 3, got 2"),
        ("max_seq_len = 1", "max_seq_len must be >= 2"),
        ("split_ratios = 0.5,0.5,0.1", "config key 'split_ratios': ratios must be three values summing to 1"),
        ("split_seed = -1", "config key 'split_seed': seed must be >= 0, got -1"),
    ):
        BAD_SETTINGS[f"{_command}-{_line.replace(' = ', '-')}"] = (_train_with(_line, _command), _message)


@pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
def test_bad_training_settings_exit_2_before_writing(stage1, tmp_path, capsys, case):
    argv, message = BAD_SETTINGS[case]
    out = tmp_path / "run"
    assert main(argv(stage1, tmp_path) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and message in err, err
    assert not out.exists()


BAD_SUITES = {
    "examples-0": (["--examples", "0"], "--examples must be >= 4"),
    "p-shared-2": (["--p-shared", "2"], "--p-shared must be in [0, 1]"),
    "markers-0": (["--markers", "0"], "--markers must be >= 1"),
    "markers-minus-1": (["--markers", "-1"], "--markers must be >= 1"),
    "shared-size-minus-2": (["--shared-size", "-2"], "--shared-size must be >= 0"),
    "shared-size-0-p-shared-0.5": (["--shared-size", "0", "--p-shared", "0.5"],
                                   "--p-shared > 0 needs --shared-size >= 1"),
    "events-minus-1": (["--events", "-1"], "--events must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_SUITES))
def test_bad_suite_settings_exit_2_writing_nothing(tmp_path, monkeypatch, capsys, case):
    flags, message = BAD_SUITES[case]
    monkeypatch.chdir(tmp_path)
    assert main(["gen-synthetic", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and message in err, err
    assert list(tmp_path.iterdir()) == []


_BAD_RATE = st.one_of(st.floats(max_value=0.0), st.just(math.inf), st.just(math.nan))
# Out-of-range values per flag; a drawn value goes in as --flag=value, so that -5 or -inf is not read as a flag
_BAD_FLAGS = {
    "fewshot": {
        "--k": st.one_of(st.integers(max_value=0), st.integers(min_value=60)),  # gamma.jsonl holds 60 records
        "--max-epochs": st.integers(max_value=0),
        "--patience": st.integers(max_value=0),
        "--learning-rate": _BAD_RATE,
    },
    "gen-synthetic": {
        "--examples": st.integers(max_value=3),
        "--markers": st.integers(max_value=0),
        "--shared-size": st.integers(max_value=-1),
        "--events": st.integers(max_value=-1),
        "--p-shared": st.floats().filter(lambda p: not 0 <= p <= 1),
    },
}
_BAD_KEYS = {
    "num_heads": st.integers(max_value=0),
    "max_seq_len": st.integers(max_value=1),
    "dropout_rate": st.floats().filter(lambda p: not 0 <= p < 1),
    "batch_size": st.integers(max_value=0),
    "max_epochs": st.integers(max_value=0),
    "learning_rate": _BAD_RATE,
    "min_freq": st.integers(max_value=0),
    "max_vocab": st.integers(max_value=2),
    "split_seed": st.integers(max_value=-1),
}
_FLAG_BASES = {"fewshot": lambda r: RUN_COMMANDS["fewshot"](r) + ["--seed", "0"], "gen-synthetic": lambda r: [
    "gen-synthetic"]}


def _bad_flag(command):
    flags = _BAD_FLAGS[command]
    return st.sampled_from(sorted(flags)).flatmap(lambda flag: flags[flag].map(
        lambda value: lambda r, t: _FLAG_BASES[command](r) + [f"{flag}={value}"]))


def _bad_key(command):
    return st.sampled_from(sorted(_BAD_KEYS)).flatmap(lambda key: _BAD_KEYS[key].map(
        lambda value: _train_with(f"{key} = {value}", command)))


# An argv builder (stage-1 root, scratch directory) -> argv of one subcommand holding at least one bad flag or
# config value: a case of the refusal tables above, or a drawn out-of-range number
REFUSED_ARGV = st.one_of(
    st.sampled_from(sorted(BAD_SETTINGS)).map(lambda case: BAD_SETTINGS[case][0]),
    st.sampled_from(sorted(BAD_ADAPTATIONS)).map(lambda case: lambda r, t: BAD_ADAPTATIONS[case][0](r) + ["--seed", "0"]),
    st.sampled_from(sorted(BAD_SUITES)).map(lambda case: lambda r, t: ["gen-synthetic", *BAD_SUITES[case][0]]),
    *(_bad_flag(command) for command in sorted(_BAD_FLAGS)),
    *(_bad_key(command) for command in ("ablation", "finetune", "loocv", "train")),
)


# 200 examples take about 1 s: every refusal comes before any training
@settings(max_examples=200, deadline=None)
@given(argv=REFUSED_ARGV)
def test_a_refused_flag_or_config_value_exits_2_with_one_config_error_line_writing_nothing(stage1, argv):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv(stage1, scratch) + ["--out", str(scratch / "run")])
        assert rc == 2, err.getvalue()
        assert err.getvalue().startswith("config error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        assert [p.name for p in scratch.iterdir()] in ([], ["edited.cfg"])


@st.composite
def _accepted_suite(draw):
    """A gen-synthetic argv inside every suite setting's range, and the files it writes."""
    tasks = ("alpha", "beta", "gamma", "delta")[:draw(st.integers(2, 4))]
    markers, shared = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    p_shared = draw(st.floats(0, 1)) if shared else 0.0
    vocab = shared + len(tasks) * markers + 2 + draw(st.integers(0, 20))
    flags = ["--tasks", ",".join(tasks), "--examples", str(draw(st.integers(4, 40))), "--vocab-size", str(vocab),
             "--markers", str(markers), "--shared-size", str(shared), f"--p-shared={p_shared}",
             "--events", str(draw(st.integers(0, 3))), "--seed", str(draw(st.integers(0, 99)))]
    return (lambda r, out: ["gen-synthetic", *flags, "--out", str(out)]), sorted(f"{t}.jsonl" for t in tasks)


@st.composite
def _accepted_on_stage1(draw):
    """A validate-data, eval --out or 1-epoch head-only fewshot argv on the stage-1 data and checkpoint, every flag
    in range, and the files it writes."""
    command = draw(st.sampled_from(("validate-data", "eval", "fewshot")))
    # eval scores a task the checkpoint has a head for, fewshot adapts it to one it has not
    task = draw(st.sampled_from({"validate-data": ("alpha", "beta", "gamma"), "eval": ("alpha", "beta"),
                                 "fewshot": ("gamma",)}[command]))
    flags = ["--task", task, "--labels", "negative,positive",
             "--granularity", draw(st.sampled_from(("sentence", "article", "tweet", "headline"))),
             *draw(st.sampled_from(([], ["--positive", "positive"])))]
    if command == "validate-data":
        flags += draw(st.sampled_from(([], ["--drop-labels", "unverified"])))
        written = []
    elif command == "eval":
        written = ["metrics.json"]
    else:  # gamma.jsonl holds 60 records
        flags += ["--mode", "head-only", "--max-epochs", "1", "--patience", "1", "--k", str(draw(st.integers(1, 59))),
                  f"--learning-rate={draw(st.floats(1e-6, 1e-2))}", "--seed", str(draw(st.integers(0, 9))), "--quiet"]
        written = ["config.txt", "manifest.json", "metrics.json", "report.jsonl"]

    def argv(root, out):
        inputs = ["--dataset", str(root / "data" / f"{task}.jsonl")]
        if command != "validate-data":
            inputs += ["--checkpoint", str(root / "run" / "seed0" / "model.ckpt"), "--out", str(out)]
        return [command, *inputs, *flags]
    return argv, written


# An argv builder (stage-1 root, output directory) -> argv of one cheap subcommand with every flag in range, and
# the files it writes under the output directory
ACCEPTED_ARGV = st.one_of(_accepted_suite(), _accepted_on_stage1())


# 100 examples take about 1 s: a fewshot trains one head-only epoch of a d = 16 model
@settings(max_examples=100, deadline=None)
@given(case=ACCEPTED_ARGV)
def test_an_accepted_flag_set_exits_0_and_writes_its_files(stage1, case):
    argv, written = case
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv(stage1, out))
        assert rc == 0, err.getvalue()
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == written


def test_the_suite_settings_edge_values_still_generate(tmp_path, capsys):
    # no shared lexicon at p_shared 0, one marker per task and no events are valid suites
    out = tmp_path / "suite"
    assert main(["gen-synthetic", "--shared-size", "0", "--markers", "1", "--events", "0", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["alpha.jsonl", "beta.jsonl"]


@pytest.mark.parametrize("argv", [
    ["validate-data", "--out", "X"],
    ["validate-data", "--seed", "0"],
    ["eval", "--seed", "0"],
    ["eval", "--quiet"],
    ["gen-synthetic", "--quiet"],
    ["loocv", "--quiet"],
    ["ablation", "--quiet"],
    ["gen-synthetic", "--seed", "1", "--seed", "2"],
    ["finetune", "--vocab", "vocab.txt"],
    ["fewshot", "--vocab", "vocab.txt"],
    ["eval", "--vocab", "vocab.txt"],
], ids=lambda argv: "-".join(argv).replace("--", ""))
def test_flags_a_command_does_not_read_exit_2_writing_nothing(stage1, tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    command, *flags = argv
    on_checkpoint = _checkpoint_commands(stage1, stage1 / "run" / "seed0" / "model.ckpt")
    needs = {
        "validate-data": ["--dataset", str(stage1 / "data" / "alpha.jsonl"), "--task", "alpha",
                          "--labels", "negative,positive"],
        **{name: full[1:] for name, full in on_checkpoint.items()},
        "gen-synthetic": ["--out", "suite"],
        "loocv": ["--config", str(stage1 / "loocv.cfg"), "--task", "rumorlike", "--seed", "0"],
        "ablation": ["--config", str(stage1 / "run.cfg"), "--task", "alpha", "--subset", "alpha", "--seed", "0"],
    }[command]
    assert main([command, *needs, *flags]) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "gen-synthetic takes one --seed, got [1, 2]" in err, err
    assert list(tmp_path.iterdir()) == []


def test_fewshot_training_flags_get_their_own_run_directory(stage1, tmp_path, monkeypatch):
    # each run differs from the first in one training flag only
    monkeypatch.chdir(tmp_path)
    base = RUN_COMMANDS["fewshot"](stage1) + ["--max-epochs", "2", "--seed", "0"]
    for flags in ([], ["--learning-rate", "1e-3"], ["--patience", "1"], ["--max-epochs", "3"]):
        assert main(base + flags) == 0
    configs = sorted((run / "config.txt").read_text() for run in (tmp_path / "runs").iterdir())
    assert len(configs) == 4
    for line in ("learning_rate = 0.001\n", "patience = 1\n", "max_epochs = 3\n"):
        assert sum(line in c for c in configs) == 1, line


def test_every_stage_writes_the_same_bytes_at_any_score_tile_and_worker_count(tmp_path, monkeypatch):
    # texts of 90-124 words fill max_seq_len 128: train batches cut class 4 into runs of 16 rows
    suite = SyntheticSuiteConfig(task_names=("alpha", "beta", "gamma"), examples_per_task=48, min_tokens=90,
                                 max_tokens=124, vocab_size=200)
    for name, dataset in generate_synthetic_suite(3, suite).items():
        save_dataset(dataset, tmp_path / f"{name}.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=tmp_path).replace("max_seq_len = 16", "max_seq_len = 128")
                   .replace("max_epochs = 2\npatience = 2", "max_epochs = 1\npatience = 1"))
    run_rows, kept = [], []
    real_rows, real_attention = enc._encode_rows, enc._attention
    monkeypatch.setattr(enc, "_encode_rows", lambda *a, **k: run_rows.append(a[3].size) or real_rows(*a, **k))
    monkeypatch.setattr(enc, "_attention", lambda *a: (out := real_attention(*a)) and kept.append(
        (enc.SCORE_TILE, out[1] is not None)) or out)
    adam_jobs, real_run_each, adam_block = [], training.run_each, training.ADAM_BLOCK
    monkeypatch.setattr(training, "run_each", lambda fn, jobs: adam_jobs.append(
        (training.ADAM_BLOCK, len(jobs))) or real_run_each(fn, jobs))
    outs = []
    # at 2^22 every run keeps its probabilities whole, at 2^8 the backward rebuilds every larger one tile by tile
    for tile in (1 << 8, 1 << 16, 1 << 22):
        monkeypatch.setattr(enc, "SCORE_TILE", tile)
        # the 2^8-tile runs also cut Adam's blocks at 2^10 elements, so the ~200 x 16 token table spans several
        monkeypatch.setattr(training, "ADAM_BLOCK", 1 << 10 if tile == 1 << 8 else adam_block)
        for workers in (1, 2):
            monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid, n=workers: set(range(n)), raising=False)
            monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(workers - 1) if workers > 1 else None)
            out = tmp_path / f"tile{tile}-w{workers}"
            checkpoint = str(out / "train" / "seed0" / "model.ckpt")
            assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out / "train"), "--quiet"]) == 0
            assert main(["finetune", "--config", str(cfg), "--task", "alpha", "--checkpoint", checkpoint, "--seed", "0",
                         "--out", str(out / "finetune"), "--quiet"]) == 0
            for mode in ("head-only", "full-model"):
                assert main(["fewshot", "--checkpoint", checkpoint, "--dataset", str(tmp_path / "gamma.jsonl"),
                             "--task", "gamma", "--labels", "negative,positive", "--k", "10", "--max-epochs", "1",
                             "--mode", mode, "--seed", "0", "--out", str(out / mode), "--quiet"]) == 0
            if workers > 1:
                enc._pool.shutdown()
            outs.append(out)
    assert 16 in run_rows
    assert {k for t, k in kept if t == 1 << 22} == {True} and {k for t, k in kept if t == 1 << 8} == {False, True}
    assert {block for block, _ in adam_jobs} == {1 << 10} and min(jobs for _, jobs in adam_jobs) > 1
    written = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                     if p.name in ("model.ckpt", "history.jsonl", "metrics.json") or p.match("report*.jsonl"))
    assert {str(p) for p in written} >= {"train/seed0/model.ckpt", "train/seed0/history.jsonl", "finetune/metrics.json",
                                         "full-model/report.jsonl", "head-only/metrics.json"}
    for out in outs[1:]:
        for rel in written:
            assert (outs[0] / rel).read_bytes() == (out / rel).read_bytes(), (out.name, rel)
