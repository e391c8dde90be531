import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from misinfo_mtl import cli, evaluation
from misinfo_mtl import encoder as enc
from misinfo_mtl.checkpoint import load_model
from misinfo_mtl.cli import main
from misinfo_mtl.data import SyntheticSuiteConfig, generate_synthetic_suite, save_dataset

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
    assert rc == 1
    assert "wat" in capsys.readouterr().err


def test_train_writes_run_directory(workdir):
    out = workdir / "run"
    rc = main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 0
    for name in ("manifest.json", "config.txt", "vocab.txt", "metrics.json"):
        assert (out / name).exists()
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


def test_train_rerun_is_byte_identical(workdir):
    out1, out2 = workdir / "r1", workdir / "r2"
    for out in (out1, out2):
        assert main(["train", "--config", str(workdir / "run.cfg"), "--seed", "1",
                     "--out", str(out), "--quiet"]) == 0
    assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
    assert (out1 / "seed1" / "model.ckpt").read_bytes() == (out2 / "seed1" / "model.ckpt").read_bytes()
    assert (out1 / "vocab.txt").read_bytes() == (out2 / "vocab.txt").read_bytes()


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
               "--out", str(out), "--quiet"])
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
               "--out", str(out), "--quiet"])
    assert rc == 0
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["stage1_tasks"] == ["alpha", "beta"]
    assert len(payload["per_seed"]["0"]["folds"]) == 3
    assert "average" in capsys.readouterr().out


def test_train_ablation_and_loocv_build_the_vocabulary_the_config_asks_for(tmp_path, monkeypatch):
    sizes = []
    for module in (cli, evaluation):
        monkeypatch.setattr(module, "build_model", lambda config, specs, vocab, _real=module.build_model: (
            sizes.append(vocab.size) or _real(config, specs, vocab=vocab)))
    events = tmp_path / "events"
    assert main(["gen-synthetic", "--tasks", "alpha,beta,rumorlike", "--examples", "60",
                 "--p-shared", "0.5", "--events", "3", "--out", str(events), "--seed", "7"]) == 0
    cfg = tmp_path / "small-vocab.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=events).replace("tasks = alpha,beta", "tasks = alpha,beta,rumorlike")
                   .replace("max_epochs = 2\npatience = 2", "max_epochs = 1\npatience = 1")
                   + f"dataset.rumorlike = {events}/rumorlike.jsonl\nlabels.rumorlike = negative,positive\n"
                   + "max_vocab = 12\n")
    common = ["--config", str(cfg), "--seed", "0", "--quiet"]
    assert main(["train", *common, "--out", str(tmp_path / "train")]) == 0
    assert main(["ablation", *common, "--task", "alpha", "--subset", "alpha,beta", "--out", str(tmp_path / "abl")]) == 0
    assert main(["loocv", *common, "--task", "rumorlike", "--out", str(tmp_path / "lo")]) == 0
    assert sizes == [12, 12, 12]  # train, the one ablation row, loocv's stage 1
    assert len((tmp_path / "train" / "vocab.txt").read_text().splitlines()) == 12


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


def test_bad_record_exits_1_with_one_line_and_writes_nothing(workdir, capsys):
    records = [json.loads(line) for line in (workdir / "data" / "alpha.jsonl").read_text().splitlines()]
    records[3]["text"] = 5
    (workdir / "data" / "alpha.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    out = workdir / "run"
    rc = main(["train", "--config", str(workdir / "run.cfg"), "--seed", "0", "--out", str(out), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 4" in err and "'text'" in err
    assert not out.exists()


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
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert str(data) in err
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
    "train": lambda r: ["train", "--config", str(r / "run.cfg")],
    "finetune": lambda r: ["finetune", "--config", str(r / "run.cfg"), "--task", "alpha",
                           "--checkpoint", str(r / "run" / "seed0" / "model.ckpt")],
    "fewshot": lambda r: ["fewshot", "--checkpoint", str(r / "run" / "seed0" / "model.ckpt"),
                          "--dataset", str(r / "data" / "gamma.jsonl"), "--task", "gamma",
                          "--labels", "negative,positive", "--k", "10", "--max-epochs", "1"],
    "loocv": lambda r: ["loocv", "--config", str(r / "loocv.cfg"), "--task", "rumorlike"],
    "ablation": lambda r: ["ablation", "--config", str(r / "run.cfg"), "--task", "alpha",
                           "--subset", "alpha", "--subset", "alpha,beta"],
}


@pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
def test_run_directory_is_complete_and_rerun_identical(stage1, tmp_path, command):
    first, second = tmp_path / "first", tmp_path / "second"
    for out in (first, second):
        assert main(RUN_COMMANDS[command](stage1) + ["--seed", "0", "--out", str(out), "--quiet"]) == 0
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


@pytest.mark.parametrize("command", ["finetune", "fewshot", "eval"])
@pytest.mark.parametrize("change", [500, -1])
def test_vocab_of_another_size_exits_2_before_writing(stage1, tmp_path, capsys, command, change):
    lines = (stage1 / "run" / "vocab.txt").read_text().splitlines()
    lines = lines + [f"extra{i}" for i in range(change)] if change > 0 else lines[:change]
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\n".join(lines) + "\n")
    argv = {
        "finetune": RUN_COMMANDS["finetune"](stage1) + ["--seed", "0", "--quiet"],
        "fewshot": RUN_COMMANDS["fewshot"](stage1) + ["--seed", "0", "--quiet"],
        "eval": ["eval", "--checkpoint", str(stage1 / "run" / "seed0" / "model.ckpt"),
                 "--dataset", str(stage1 / "data" / "alpha.jsonl"), "--task", "alpha", "--labels", "negative,positive"],
    }[command]
    out = tmp_path / "run"
    assert main(argv + ["--vocab", str(vocab), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert str(vocab) in err and str(stage1 / "run" / "seed0" / "model.ckpt") in err
    assert f"has {len(lines)} entries" in err
    assert not out.exists()


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
}


@pytest.mark.parametrize("case", sorted(BAD_ADAPTATIONS))
def test_bad_adaptation_exits_1_before_writing(stage1, tmp_path, capsys, case):
    argv, message = BAD_ADAPTATIONS[case]
    out = tmp_path / "run"
    assert main(argv(stage1) + ["--seed", "0", "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert not out.exists()


def test_fewshot_training_flags_get_their_own_run_directory(stage1, tmp_path, monkeypatch):
    # each run differs from the first in one training flag only
    monkeypatch.chdir(tmp_path)
    base = RUN_COMMANDS["fewshot"](stage1) + ["--max-epochs", "2", "--seed", "0", "--quiet"]
    for flags in ([], ["--learning-rate", "1e-3"], ["--patience", "1"], ["--max-epochs", "3"]):
        assert main(base + flags) == 0
    configs = sorted((run / "config.txt").read_text() for run in (tmp_path / "runs").iterdir())
    assert len(configs) == 4
    for line in ("learning_rate = 0.001\n", "patience = 1\n", "max_epochs = 3\n"):
        assert sum(line in c for c in configs) == 1, line


def test_train_writes_the_same_bytes_on_one_and_two_encoder_workers(tmp_path, monkeypatch):
    # texts of 90-124 words fill max_seq_len 128: train batches cut class 4 into runs of 16 rows
    suite = SyntheticSuiteConfig(examples_per_task=48, min_tokens=90, max_tokens=124, vocab_size=200)
    for name, dataset in generate_synthetic_suite(3, suite).items():
        save_dataset(dataset, tmp_path / f"{name}.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CFG_TEMPLATE.format(data=tmp_path).replace("max_seq_len = 16", "max_seq_len = 128")
                   .replace("max_epochs = 2\npatience = 2", "max_epochs = 1\npatience = 1"))
    run_rows = []
    real = enc._encode_rows
    monkeypatch.setattr(enc, "_encode_rows", lambda *a, **k: run_rows.append(a[3].size) or real(*a, **k))
    for workers in (1, 2):
        monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid, n=workers: set(range(n)), raising=False)
        monkeypatch.setattr(enc, "_pool", ThreadPoolExecutor(workers - 1) if workers > 1 else None)
        assert main(["train", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / f"w{workers}"),
                     "--quiet"]) == 0
        if workers > 1:
            enc._pool.shutdown()
    assert 16 in run_rows
    for rel in ("seed0/model.ckpt", "seed0/history.jsonl", "metrics.json"):
        assert (tmp_path / "w1" / rel).read_bytes() == (tmp_path / "w2" / rel).read_bytes(), rel
