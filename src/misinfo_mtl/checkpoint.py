"""Self-describing binary checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON header
(kind "multitask", encoder config, task registry, tensor names + shapes, and
the vocabulary's tokens after the reserved ids), then the tensor payloads as
row-major float64 little-endian bytes in header order. Loading rejects wrong
magic, a malformed header, truncated payloads, non-finite values, any shape
that does not match what the stored config and task registry imply and a
vocabulary of another size than the config's, always with a ``ValueError``
naming the file. Saving refuses non-finite values.
"""

import json
import math
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .encoder import EncoderConfig, EncoderParams
from .multitask import MultiTaskModel, assign_params, flat_shapes, flatten_params
from .tasks import TaskSpec
from .tokenization import RESERVED_TOKENS, Vocabulary

MAGIC = b"MMCKPT01"


def save_model(path: str | Path, model: MultiTaskModel) -> None:
    """Full-model checkpoint: encoder tensors, per-task head blocks and the vocabulary (null if it has none)."""
    tensors = flatten_params(model)
    names = sorted(tensors)
    for n in names:
        if not np.isfinite(tensors[n]).all():
            raise ValueError(f"{path}: refusing to save non-finite values in tensor {n!r}")
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
        "vocab": None if model.vocab is None else model.vocab.id_to_token[len(RESERVED_TOKENS):],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for n in names:
            fh.write(np.ascontiguousarray(tensors[n], dtype="<f8"))  # the array's own buffer, not a bytes copy


def _malformed(path: Path, what: str) -> ValueError:
    return ValueError(f"{path}: malformed checkpoint header: {what}")


def _read_header(path: Path, raw: bytes) -> tuple[dict, int]:
    """The decoded JSON header and the offset of the first tensor byte."""
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic)")
    start = len(MAGIC) + 8
    if len(raw) < start:
        raise ValueError(f"{path}: truncated before the header length ({len(raw)} bytes)")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    if start + header_len > len(raw):
        raise ValueError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{path}: unreadable checkpoint header: {exc}") from None
    if not isinstance(header, dict) or sorted(header) != ["encoder_config", "kind", "tasks", "tensors", "vocab"]:
        raise _malformed(path, "expected an object with the keys encoder_config, kind, tasks, tensors, vocab")
    return header, start + header_len


_CONFIG_TYPES = {f.name: f.type for f in fields(EncoderConfig)}


def _encoder_config(path: Path, raw) -> EncoderConfig:
    if not isinstance(raw, dict) or set(raw) != set(_CONFIG_TYPES):
        raise _malformed(path, f"encoder_config must have exactly the keys {sorted(_CONFIG_TYPES)}")
    for name, kind in _CONFIG_TYPES.items():
        allowed = (int, float) if kind is float else kind
        if isinstance(raw[name], bool) or not isinstance(raw[name], allowed):
            raise _malformed(path, f"encoder_config {name!r} must be {kind.__name__}, found {raw[name]!r}")
    try:
        return EncoderConfig(**raw)
    except ValueError as exc:
        raise ValueError(f"{path}: bad encoder_config: {exc}") from None


def _task_specs(path: Path, raw) -> dict[str, TaskSpec]:
    if not isinstance(raw, dict):
        raise _malformed(path, "tasks must be an object")
    specs = {}
    for name, info in raw.items():
        if not (
            isinstance(info, dict)
            and sorted(info) == ["granularity", "labels", "positive_label"]
            and isinstance(info["labels"], list)
            and all(isinstance(label, str) for label in info["labels"])
            and isinstance(info["granularity"], str)
            and (info["positive_label"] is None or isinstance(info["positive_label"], str))
        ):
            raise _malformed(path, f"task {name!r} needs string labels and granularity and a string or null "
                                   "positive_label")
        try:
            specs[name] = TaskSpec(name, tuple(info["labels"]), info["granularity"], info["positive_label"])
        except ValueError as exc:
            raise ValueError(f"{path}: bad task {name!r}: {exc}") from None
    return specs


def _tensor_shapes(path: Path, entries) -> dict[str, tuple[int, ...]]:
    """Tensor name -> shape, in payload order."""
    if not isinstance(entries, list) or not all(
        isinstance(e, dict)
        and sorted(e) == ["name", "shape"]
        and isinstance(e["name"], str)
        and isinstance(e["shape"], list)
        and all(type(n) is int and n >= 0 for n in e["shape"])
        for e in entries
    ):
        raise _malformed(path, "tensors must be a list of {name, shape} with non-negative integer dims")
    shapes = {e["name"]: tuple(e["shape"]) for e in entries}
    if len(shapes) != len(entries):
        raise _malformed(path, "duplicate tensor names")
    return shapes


def _vocabulary(path: Path, tokens, config: EncoderConfig) -> Vocabulary | None:
    """The vocabulary of the header's tokens (None for null), which must fill the config's ``vocab_size``."""
    if tokens is None:
        return None
    if not isinstance(tokens, list) or not all(isinstance(tok, str) for tok in tokens):
        raise _malformed(path, "vocab must be a list of strings or null")
    if len(RESERVED_TOKENS) + len(tokens) != config.vocab_size:
        raise ValueError(f"{path}: vocab has {len(tokens)} tokens after the {len(RESERVED_TOKENS)} reserved ids "
                         f"but vocab_size is {config.vocab_size}")
    try:
        return Vocabulary.from_tokens(tokens)
    except ValueError as exc:
        raise ValueError(f"{path}: bad vocab: {exc}") from None


def _check_shapes(path: Path, config: EncoderConfig, tasks: dict[str, TaskSpec], shapes) -> None:
    """Refuse a tensor set that differs from what ``config`` and ``tasks`` imply."""
    if config.num_layers > len(shapes):  # every layer has tensors; also bounds the loop below
        raise ValueError(f"{path}: tensor set mismatch; {config.num_layers} layers but {len(shapes)} tensors")
    expected = flat_shapes(config, tasks)
    missing = sorted(set(expected) - set(shapes))
    extra = sorted(set(shapes) - set(expected))
    if missing or extra:
        raise ValueError(f"{path}: tensor set mismatch; missing={missing} extra={extra}")
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise ValueError(
                f"{path}: shape mismatch for {name!r}: file has {shapes[name]}, config implies {shape}"
            )


def _read_tensors(path: Path, raw: bytes, offset: int, shapes) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for name, shape in shapes.items():
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise ValueError(f"{path}: truncated payload at tensor {name!r}")
        # a view of the file bytes, then the one copy that makes the tensor a writable array of its own
        arr = np.frombuffer(raw, dtype="<f8", count=nbytes // 8, offset=offset).astype(np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: non-finite values in tensor {name!r}")
        tensors[name] = arr
        offset += nbytes
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes after tensors")
    return tensors


def load_model(path: str | Path) -> MultiTaskModel:
    """Load a full-model checkpoint with its vocabulary.

    Any malformed file raises a ``ValueError`` naming it.
    """
    path = Path(path)
    raw = path.read_bytes()
    header, offset = _read_header(path, raw)
    if header["kind"] != "multitask":
        raise ValueError(f"{path}: expected a multitask checkpoint, found {header['kind']!r}")
    config = _encoder_config(path, header["encoder_config"])
    tasks = _task_specs(path, header["tasks"])
    shapes = _tensor_shapes(path, header["tensors"])
    _check_shapes(path, config, tasks, shapes)
    model = MultiTaskModel(encoder=EncoderParams(config, {}), tasks=tasks, heads={name: {} for name in tasks},
                           vocab=_vocabulary(path, header["vocab"], config))
    assign_params(model, _read_tensors(path, raw, offset, shapes))
    return model
