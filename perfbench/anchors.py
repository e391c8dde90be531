"""Micro-measurements behind the timing anchors quoted in perfbench/README.md.

    python3 perfbench/anchors.py

Prints, as medians over repeated calls with BLAS pinned to one thread: one
training step (forward, backward, Adam) of the README desk encoder at batch
32 for sequence lengths 128 and 16, and the dense Adam update alone at
vocabulary 30k against the forward and backward pass it follows.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from misinfo_mtl import encoder as enc  # noqa: E402
from misinfo_mtl import multitask as mt  # noqa: E402
from misinfo_mtl import training as tr  # noqa: E402
from misinfo_mtl.tokenization import Batch  # noqa: E402

REPEATS = 7


def step_parts_ms(vocab: int, length: int) -> tuple[float, float]:
    """Median (forward + backward, Adam update) time in ms of one training step."""
    cfg = enc.EncoderConfig(vocab_size=vocab)
    model = mt.build_model(cfg, [mt.TaskSpec("t", ("n", "p"), "sentence")])
    rng = np.random.default_rng(0)
    ids = rng.integers(3, vocab, size=(32, length))
    ids[:, 0] = 2
    batch = Batch(ids=ids, mask=np.ones((32, length), dtype=np.int64))
    labels = rng.integers(0, 2, 32)
    state = tr.AdamState()
    grad_ms, adam_ms = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _, grads = mt.task_step_gradients(model, "t", batch, labels, rng=rng)
        t1 = time.perf_counter()
        updated, state = tr.adam_step(mt.flatten_params(model), grads, state, 1e-3)
        mt.assign_params(model, updated)
        t2 = time.perf_counter()
        grad_ms.append(1e3 * (t1 - t0))
        adam_ms.append(1e3 * (t2 - t1))
    return float(np.median(grad_ms)), float(np.median(adam_ms))


def main() -> None:
    for vocab, length in ((63, 128), (63, 16), (30_000, 128), (30_000, 16)):
        grad, adam = step_parts_ms(vocab, length)
        print(f"vocab {vocab:>6}  L {length:>3}  fwd+bwd {grad:7.1f} ms  adam {adam:6.1f} ms  step {grad + adam:7.1f} ms")


if __name__ == "__main__":
    main()
