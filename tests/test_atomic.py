import json
from dataclasses import replace

import numpy as np
import pytest

from misinfo_mtl import checkpoint as ckpt
from misinfo_mtl import cli
from misinfo_mtl.atomic import atomic_open, write_text_atomic
from misinfo_mtl.metrics import compute_report


class Boom(Exception):
    pass


def _leftovers(directory, keep):
    return sorted(p.name for p in directory.iterdir() if p.name not in keep)


def test_clean_write_replaces_the_file(tmp_path):
    path = tmp_path / "a.txt"
    write_text_atomic(path, "old\n")
    write_text_atomic(path, "new\n")
    with atomic_open(tmp_path / "b.bin", binary=True) as fh:
        fh.write(b"\x00\x01")
    assert path.read_text() == "new\n" and (tmp_path / "b.bin").read_bytes() == b"\x00\x01"
    assert _leftovers(tmp_path, {"a.txt", "b.bin"}) == []


def test_a_write_that_raises_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "report.jsonl"
    write_text_atomic(path, "old content\n")
    with pytest.raises(Boom):
        with atomic_open(path) as fh:
            fh.write("partial line\n")
            fh.flush()
            raise Boom
    assert path.read_bytes() == b"old content\n"
    assert _leftovers(tmp_path, {"report.jsonl"}) == []


def test_checkpoint_failing_midway_keeps_the_old_checkpoint(tmp_path, tiny_model, monkeypatch):
    path = tmp_path / "model.ckpt"
    ckpt.save_model(path, tiny_model)
    old = path.read_bytes()

    class FailingNumpy:
        """numpy, except that converting the third tensor for writing raises."""

        calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def ascontiguousarray(self, *args, **kwargs):
            FailingNumpy.calls += 1
            if FailingNumpy.calls == 3:
                raise Boom
            return np.ascontiguousarray(*args, **kwargs)

    tiny_model.heads["a_task"]["out_b"] = tiny_model.heads["a_task"]["out_b"] + 1.0
    monkeypatch.setattr(ckpt, "np", FailingNumpy())
    with pytest.raises(Boom):
        ckpt.save_model(path, tiny_model)
    assert path.read_bytes() == old
    assert _leftovers(tmp_path, {"model.ckpt"}) == []


def test_report_lines_failing_midway_keep_the_old_report(tmp_path):
    path = tmp_path / "report.jsonl"
    good = compute_report([0, 1], [0, 1], ("neg", "pos"))
    cli._write_report_lines(path, [("old", good)])
    old = path.read_bytes()

    broken = replace(good, accuracy=object())  # the second line cannot be written as JSON
    with pytest.raises(TypeError):
        cli._write_report_lines(path, [("a", good), ("b", broken)])
    assert path.read_bytes() == old
    assert _leftovers(tmp_path, {"report.jsonl"}) == []


def test_json_and_vocab_writes_go_through_the_helper(tmp_path, monkeypatch):
    written = []
    real = cli.write_text_atomic

    def spy(path, text):
        written.append(path.name)
        real(path, text)

    monkeypatch.setattr(cli, "write_text_atomic", spy)
    cli._write_json(tmp_path / "metrics.json", {"x": 1})
    assert json.loads((tmp_path / "metrics.json").read_text()) == {"x": 1} and written == ["metrics.json"]
    # a text write that cannot replace its target (a directory) leaves no temp file behind
    (tmp_path / "config.txt").mkdir()
    with pytest.raises(IsADirectoryError):
        write_text_atomic(tmp_path / "config.txt", "a = b\n")
    assert _leftovers(tmp_path, {"metrics.json", "config.txt"}) == []
