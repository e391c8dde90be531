"""Hard parameter sharing: one encoder, a registry of per-task MLP heads.

Each example is routed to exactly one head, so a training step on task A can
only ever touch the encoder and head A; every other head stays bit-identical.
Heads are one hidden tanh layer (width tied to the encoder dim) followed by a
linear softmax layer, with dropout 0.1 on the pooled input during training.
"""

import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import encoder as enc
from .tasks import TaskSpec
from .tokenization import Batch, Vocabulary, encode, pad_batch

HEAD_DROPOUT = 0.1


@dataclass
class MultiTaskModel:
    """Shared encoder parameters plus one MLP head per registered task."""

    encoder: enc.EncoderParams
    tasks: dict[str, TaskSpec] = field(default_factory=dict)
    heads: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    vocab: Vocabulary | None = None

    @property
    def config(self) -> enc.EncoderConfig:
        return self.encoder.config


def copy_dicts(model: MultiTaskModel) -> MultiTaskModel:
    """New dicts at every level, sharing every array, the vocabulary and the task specs with ``model``."""
    return MultiTaskModel(enc.EncoderParams(model.config, dict(model.encoder.tensors)), dict(model.tasks),
                          {task: dict(head) for task, head in model.heads.items()}, model.vocab)


def head_shapes(embed_dim: int, num_classes: int) -> dict[str, tuple[int, ...]]:
    # Hidden width is tied to the encoder dim.
    return {
        "hidden_w": (embed_dim, embed_dim),
        "hidden_b": (embed_dim,),
        "out_w": (embed_dim, num_classes),
        "out_b": (num_classes,),
    }


def head_seed(base_seed: int, task_name: str) -> int:
    """Stable per-task head seed derived from a base seed and the task name."""
    return (base_seed * 0x9E3779B1 + zlib.crc32(task_name.encode("utf-8"))) % 2**32


def register_task(model: MultiTaskModel, spec: TaskSpec, seed: int) -> MultiTaskModel:
    """Add a freshly initialized head for ``spec``; existing parameters untouched."""
    if spec.name in model.tasks:
        raise ValueError(f"task {spec.name!r} is already registered")
    rng = np.random.default_rng(seed)
    head = {}
    for name, shape in head_shapes(model.config.embed_dim, spec.num_classes).items():
        head[name] = enc.glorot_uniform(rng, shape) if name.endswith("_w") else np.zeros(shape)
    model.tasks[spec.name] = spec
    model.heads[spec.name] = head
    return model


def build_model(
    config: enc.EncoderConfig,
    specs: list[TaskSpec],
    vocab: Vocabulary | None = None,
) -> MultiTaskModel:
    """Init an encoder and register all tasks in sorted-name order with derived seeds.

    With a vocabulary, the embedding table has one row per token of it, whatever ``config.vocab_size`` says.
    """
    if vocab is not None:
        config = replace(config, vocab_size=vocab.size)
    model = MultiTaskModel(encoder=enc.init_encoder(config), vocab=vocab)
    for spec in sorted(specs, key=lambda s: s.name):
        register_task(model, spec, head_seed(config.seed, spec.name))
    return model


def require_task(model: MultiTaskModel, task: str) -> TaskSpec:
    """The spec of a registered task; ``KeyError`` naming the registered tasks otherwise."""
    if task not in model.tasks:
        raise KeyError(f"unknown task {task!r}; registered: {sorted(model.tasks)}")
    return model.tasks[task]


def encode_for_task(model: MultiTaskModel, task: str, examples) -> tuple[Batch, np.ndarray]:
    """``model``'s input for examples of ``task``: their texts tokenized with its vocabulary, cut at its
    ``max_seq_len``, and their label names mapped to the task's class indices."""
    spec = require_task(model, task)
    if model.vocab is None:
        raise ValueError("model has no vocabulary attached")
    batch = pad_batch([encode(ex.text, model.vocab, model.config.max_seq_len) for ex in examples])
    labels = np.array([spec.label_index(ex.label) for ex in examples], dtype=np.int64)
    return batch, labels


# --- head forward / loss / gradients ----------------------------------------


def _head_forward(head, pooled, train_mode, rng):
    drop = None
    x = pooled
    if train_mode:
        if rng is None:
            raise ValueError("train-mode head forward requires an rng")
        drop = enc.dropout_mask(rng, pooled.shape, HEAD_DROPOUT)
        x = enc.apply_dropout(pooled, drop, HEAD_DROPOUT)
    hidden = np.tanh(x @ head["hidden_w"] + head["hidden_b"])
    logits = hidden @ head["out_w"] + head["out_b"]
    return logits, {"x": x, "drop": drop, "hidden": hidden}


def _log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def predict(model: MultiTaskModel, task: str, batch: Batch) -> np.ndarray:
    """Class probabilities from the one head registered for ``task`` (eval mode)."""
    require_task(model, task)
    pooled = enc.encode_batch(model.encoder, batch, train_mode=False)
    logits, _ = _head_forward(model.heads[task], pooled, train_mode=False, rng=None)
    return np.exp(_log_softmax(logits))


def score(model: MultiTaskModel, task: str, batch: Batch, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean NLL and argmax predictions of the ``task`` head over encoded rows, in input order.

    One ``predict`` call takes every row, so the encoder's runs (rows of similar length, as ``split_runs``
    orders them) all stream through its threads at once; no backward cache is built.
    """
    probs = predict(model, task, batch)
    return float(-np.log(probs[np.arange(batch.size), labels]).sum() / batch.size), probs.argmax(axis=1)


def task_loss(
    model: MultiTaskModel,
    task: str,
    batch: Batch,
    labels: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
    return_cache: bool = True,
):
    """Mean cross-entropy of the task head over the batch, plus backward state.

    The state holds the encoder's backward cache only with ``return_cache``
    (otherwise None); the dropout draws are the same either way.
    """
    spec = require_task(model, task)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (batch.size,):
        raise ValueError(f"labels must have shape ({batch.size},)")
    if labels.min() < 0 or labels.max() >= spec.num_classes:
        raise ValueError(f"label index out of range [0, {spec.num_classes}) for task {task!r}")
    encoded = enc.encode_batch(model.encoder, batch, train_mode=train_mode, rng=rng, return_cache=return_cache)
    pooled, enc_cache = encoded if return_cache else (encoded, None)
    logits, head_cache = _head_forward(model.heads[task], pooled, train_mode, rng)
    logp = _log_softmax(logits)
    loss = -logp[np.arange(batch.size), labels].mean()
    state = {
        "enc_cache": enc_cache,
        "head_cache": head_cache,
        "probs": np.exp(logp),
        "labels": labels,
    }
    return float(loss), state


def task_step_gradients(
    model: MultiTaskModel,
    task: str,
    batch: Batch,
    labels: np.ndarray,
    train_mode: bool = True,
    rng: np.random.Generator | None = None,
    train_encoder: bool = True,
):
    """Loss and gradients for one task-homogeneous step.

    Returned keys cover the encoder ("encoder.*") and this task's head
    ("head.<task>.*") only; other heads get no entries at all. With
    ``train_encoder=False`` the encoder backward is skipped and only head keys
    are returned; every dropout draw happens in the forward pass, so the rng
    stream is the same either way.
    """
    loss, state = task_loss(model, task, batch, labels, train_mode=train_mode, rng=rng, return_cache=train_encoder)
    head = model.heads[task]
    hc = state["head_cache"]
    b = batch.size

    dlogits = state["probs"].copy()
    dlogits[np.arange(b), state["labels"]] -= 1.0
    dlogits /= b

    grads: dict[str, np.ndarray] = {}
    grads[f"head.{task}.out_w"] = hc["hidden"].T @ dlogits
    grads[f"head.{task}.out_b"] = dlogits.sum(axis=0)
    dhidden = dlogits @ head["out_w"].T
    dpre = dhidden * (1.0 - hc["hidden"] ** 2)
    grads[f"head.{task}.hidden_w"] = hc["x"].T @ dpre
    grads[f"head.{task}.hidden_b"] = dpre.sum(axis=0)
    if not train_encoder:
        return loss, grads
    dpooled = dpre @ head["hidden_w"].T
    if hc["drop"] is not None:
        dpooled = enc.apply_dropout(dpooled, hc["drop"], HEAD_DROPOUT, out=dpooled)

    for name, g in enc.backward(model.encoder, state["enc_cache"], dpooled).items():
        grads[f"encoder.{name}"] = g
    return loss, grads


# --- flat parameter view ------------------------------------------------------


def flatten_params(model: MultiTaskModel, tasks=None) -> dict[str, np.ndarray]:
    """Flat name->array view of the encoder plus the selected heads (default: all).

    The returned dict holds references, not copies; assigning back via
    ``assign_params`` swaps arrays without touching unselected heads.
    """
    flat = {f"encoder.{k}": v for k, v in model.encoder.tensors.items()}
    for task in sorted(model.heads if tasks is None else tasks):
        for k, v in model.heads[task].items():
            flat[f"head.{task}.{k}"] = v
    return flat


def flat_shapes(config: enc.EncoderConfig, tasks: dict[str, TaskSpec]) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor ``flatten_params`` names for a model of ``config`` with heads for ``tasks``."""
    shapes = {f"encoder.{k}": shape for k, shape in enc.param_shapes(config).items()}
    for task in sorted(tasks):
        for k, shape in head_shapes(config.embed_dim, tasks[task].num_classes).items():
            shapes[f"head.{task}.{k}"] = shape
    return shapes


def assign_params(model: MultiTaskModel, flat: dict[str, np.ndarray]) -> None:
    for key, arr in flat.items():
        scope, rest = key.split(".", 1)
        if scope == "encoder":
            model.encoder.tensors[rest] = arr
        elif scope == "head":
            task, name = rest.rsplit(".", 1)
            model.heads[task][name] = arr
        else:
            raise KeyError(f"unrecognized parameter key {key!r}")
