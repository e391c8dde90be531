"""Self-describing binary checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON header
(kind "multitask", encoder config, task registry, tensor names + shapes), then
the tensor payloads as row-major float64 little-endian bytes in header order.
Loading rejects wrong magic, truncated payloads and any shape that does not
match what the stored config and task registry imply.
"""

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .encoder import EncoderConfig, EncoderParams, param_shapes
from .multitask import MultiTaskModel, TaskSpec, head_shapes

MAGIC = b"MMCKPT01"


def save_model(path: str | Path, model: MultiTaskModel) -> None:
    """Full-model checkpoint: encoder tensors plus per-task head blocks."""
    tensors = {f"encoder.{k}": v for k, v in model.encoder.tensors.items()}
    for task in sorted(model.heads):
        for name, arr in model.heads[task].items():
            tensors[f"head.{task}.{name}"] = arr
    names = sorted(tensors)
    header = {
        "kind": "multitask",
        "encoder_config": asdict(model.config),
        "tasks": {
            name: {
                "labels": list(spec.labels),
                "granularity": spec.granularity,
                "positive_label": spec.positive_label,
            }
            for name, spec in sorted(model.tasks.items())
        },
        "tensors": [{"name": n, "shape": list(tensors[n].shape)} for n in names],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            arr = np.ascontiguousarray(tensors[n], dtype="<f8")
            fh.write(arr.tobytes())


def _read(path: Path):
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    (header_len,) = struct.unpack("<Q", raw[len(MAGIC) : len(MAGIC) + 8])
    start = len(MAGIC) + 8
    header = json.loads(raw[start : start + header_len].decode("utf-8"))
    offset = start + header_len
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise ValueError(f"{path}: truncated payload at tensor {entry['name']!r}")
        tensors[entry["name"]] = (
            np.frombuffer(raw[offset : offset + nbytes], dtype="<f8").astype(np.float64).reshape(shape)
        )
        offset += nbytes
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes after tensors")
    return header, tensors


def _check_shapes(path: Path, config: EncoderConfig, tasks: dict[str, TaskSpec], tensors) -> None:
    """Refuse a tensor set that differs from what ``config`` and ``tasks`` imply."""
    expected = {f"encoder.{name}": shape for name, shape in param_shapes(config).items()}
    for task in sorted(tasks):
        for name, shape in head_shapes(config.embed_dim, tasks[task].num_classes).items():
            expected[f"head.{task}.{name}"] = shape
    missing = sorted(set(expected) - set(tensors))
    extra = sorted(set(tensors) - set(expected))
    if missing or extra:
        raise ValueError(f"{path}: tensor set mismatch; missing={missing} extra={extra}")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise ValueError(
                f"{path}: shape mismatch for {name!r}: file has {tensors[name].shape}, config implies {shape}"
            )


def load_model(path: str | Path) -> MultiTaskModel:
    """Load a full-model checkpoint (the vocabulary is stored separately)."""
    path = Path(path)
    header, tensors = _read(path)
    if header["kind"] != "multitask":
        raise ValueError(f"{path}: expected a multitask checkpoint, found {header['kind']!r}")
    config = EncoderConfig(**header["encoder_config"])
    tasks = {
        name: TaskSpec(
            name=name,
            labels=tuple(info["labels"]),
            granularity=info["granularity"],
            positive_label=info["positive_label"],
        )
        for name, info in header["tasks"].items()
    }
    _check_shapes(path, config, tasks, tensors)
    encoder = EncoderParams(
        config=config,
        tensors={k.split(".", 1)[1]: v for k, v in tensors.items() if k.startswith("encoder.")},
    )
    heads: dict[str, dict[str, np.ndarray]] = {name: {} for name in tasks}
    for key, arr in tensors.items():
        if key.startswith("head."):
            task, name = key[len("head.") :].rsplit(".", 1)
            heads[task][name] = arr
    return MultiTaskModel(encoder=encoder, tasks=tasks, heads=heads)
