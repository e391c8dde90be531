"""Self-describing binary checkpoint container.

Layout: an 8-byte magic, a little-endian uint64 header length, a JSON header
(kind "multitask", encoder config, task registry, tensor names + shapes in
name order, the vocabulary's tokens after the reserved ids), then the tensor
payloads as row-major float64 little-endian bytes in that order. Loading
rejects wrong magic, truncated payloads, non-finite values, a header that
fails its schema tables or the config, task and vocabulary constructors, a
tensor list other than the stored config and tasks imply and a vocabulary
of another size than the config's, each with a ``ValueError`` naming the
file. Saving refuses non-finite values.
"""
import json
import math
import reprlib
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


# What a JSON value must be -> the check it passes (JSON decodes to exact types: bool is not an int here)
_MUST_BE = {
    "an int": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "a string": lambda v: type(v) is str,
    "a string or null": lambda v: v is None or type(v) is str,
    "a list of strings": lambda v: type(v) is list and all(type(s) is str for s in v),
    "a list of strings or null": lambda v: v is None or _MUST_BE["a list of strings"](v),
    "a list of non-negative ints": lambda v: type(v) is list and all(type(n) is int and n >= 0 for n in v),
    "an object": lambda v: type(v) is dict,
    "a list": lambda v: type(v) is list,
}
# One table per header object: key -> what its value must be
_HEADER = {"encoder_config": "an object", "kind": "a string", "tasks": "an object", "tensors": "a list",
           "vocab": "a list of strings or null"}
_CONFIG = {f.name: "a number" if f.type is float else "an int" for f in fields(EncoderConfig)}
_TASK = {"granularity": "a string", "labels": "a list of strings", "positive_label": "a string or null"}
_TENSOR = {"name": "a string", "shape": "a list of non-negative ints"}


def _check(path: Path, what: str, raw, schema: dict[str, str]) -> dict:
    """``raw``, which must be an object with exactly ``schema``'s keys, each value what its key's entry says."""
    if type(raw) is not dict or raw.keys() != schema.keys():
        raise _malformed(path, f"{what} must be an object with exactly the keys {', '.join(sorted(schema))}")
    for key, must in schema.items():
        if not _MUST_BE[must](raw[key]):
            raise _malformed(path, f"{what} {key} must be {must}, found {reprlib.repr(raw[key])}")
    return raw


def _build(path: Path, what: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, whose ``ValueError`` becomes one naming the file and ``what``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: bad {what}: {exc}") from None


def _read_header(path: Path, raw: bytes) -> tuple[dict, int]:
    """The decoded JSON header, checked against ``_HEADER``, and the offset of the first tensor byte."""
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
    return _check(path, "header", header, _HEADER), start + header_len


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
    config = _build(path, "encoder_config", EncoderConfig,
                    **_check(path, "encoder_config", header["encoder_config"], _CONFIG))
    tasks = {}
    for name, info in header["tasks"].items():
        info = _check(path, f"task {name!r}", info, _TASK)
        tasks[name] = _build(path, f"task {name!r}", TaskSpec, name, tuple(info["labels"]), info["granularity"],
                             info["positive_label"])
    entries = [_check(path, f"tensors[{i}]", e, _TENSOR) for i, e in enumerate(header["tensors"])]
    if config.num_layers > len(entries):  # every layer has tensors; also bounds flat_shapes' loop
        raise ValueError(f"{path}: tensor set mismatch; {config.num_layers} layers but {len(entries)} tensors")
    expected = flat_shapes(config, tasks)
    shapes = {e["name"]: tuple(e["shape"]) for e in entries}
    missing, extra = sorted(expected.keys() - shapes.keys()), sorted(shapes.keys() - expected.keys())
    if missing or extra:
        raise ValueError(f"{path}: tensor set mismatch; missing={missing} extra={extra}")
    for name, shape in expected.items():
        if shapes[name] != shape:
            raise ValueError(f"{path}: shape mismatch for {name!r}: file has {shapes[name]}, config implies {shape}")
    if [e["name"] for e in entries] != sorted(expected):  # as save_model writes them
        raise _malformed(path, "tensors must list each tensor once, sorted by name")
    tokens = header["vocab"]
    if tokens is not None and len(RESERVED_TOKENS) + len(tokens) != config.vocab_size:
        raise ValueError(f"{path}: vocab has {len(tokens)} tokens after the {len(RESERVED_TOKENS)} reserved ids "
                         f"but vocab_size is {config.vocab_size}")
    model = MultiTaskModel(encoder=EncoderParams(config, {}), tasks=tasks, heads={name: {} for name in tasks},
                           vocab=None if tokens is None else _build(path, "vocab", Vocabulary.from_tokens, tokens))
    assign_params(model, _read_tensors(path, raw, offset, shapes))
    return model
