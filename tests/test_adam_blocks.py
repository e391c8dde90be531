"""Adam over row blocks on the run pool: the same bits as one whole-array update, on any number of threads."""

import sys

import numpy as np
import pytest

from misinfo_mtl import encoder as enc
from misinfo_mtl import training
from misinfo_mtl.encoder import RowSparseGrad
from misinfo_mtl.training import ADAM_BLOCK, AdamState, adam_step

from conftest import force_workers, reference_adam

D = 4
BLOCK = 6 * D  # blocks of six rows of a (n, D) table, and of 24 elements of a vector


@pytest.fixture
def small_block(monkeypatch):
    monkeypatch.setattr(training, "ADAM_BLOCK", BLOCK)


@pytest.fixture
def serial(monkeypatch):
    """One usable CPU: every block runs on the calling thread, in row order, so a spy sees them in that order."""
    monkeypatch.setattr(enc.os, "sched_getaffinity", lambda pid: {0}, raising=False)


def _spy(monkeypatch):
    """Record each ``_adam_rows`` call's parameter rows shape and gradient ids (None: dense), in call order."""
    calls = []
    real = training._adam_rows

    def spy(lr, t, param, g, ids, *rest):
        calls.append((param.shape, None if ids is None else ids.tolist()))
        return real(lr, t, param, g, ids, *rest)

    monkeypatch.setattr(training, "_adam_rows", spy)
    return calls


def _rows(rng, ids, width=D):
    """A row gradient over ``ids`` with entries spanning several orders of magnitude."""
    ids = np.asarray(ids)
    return RowSparseGrad(ids, rng.normal(0.0, 10.0 ** rng.integers(-6, 2), (ids.size, width)))


def _match_reference(params, steps):
    """Run ``adam_step`` over ``steps`` ([(grads, lr)]) beside the whole-array reference; every byte must agree.

    Parameters are read-only, so a write into one raises. Returns the last parameters and the state.
    """
    state = AdamState()
    ref = {k: (params[k], np.zeros_like(params[k]), np.zeros_like(params[k])) for k in steps[0][0]}
    for t, (grads, lr) in enumerate(steps, start=1):
        for p in params.values():
            p.flags.writeable = False
        new, state = adam_step(params, grads, state, lr)
        for key, g in grads.items():
            p, m, v = ref[key]
            dense = g.dense(p.shape[0]) if isinstance(g, RowSparseGrad) else g
            ref_p, ref_m, ref_v = reference_adam(p, dense, m, v, t, lr)
            if lr == 0.0:  # the parameter array itself is kept
                assert new[key] is params[key]
                ref_p = p
            assert new[key].tobytes() == ref_p.tobytes(), (t, key)
            assert state.m[key].tobytes() == ref_m.tobytes(), (t, key)
            assert state.v[key].tobytes() == ref_v.tobytes(), (t, key)
            ref[key] = (ref_p, ref_m, ref_v)
        params = new
    return params, state


def test_a_dense_gradient_over_many_blocks_matches_the_whole_array_update(small_block, serial, monkeypatch):
    rng = np.random.default_rng(1)
    params = {"emb": rng.standard_normal((40, D)), "bias": rng.standard_normal(50),
              "small": rng.standard_normal((3, D))}
    params["emb"][2] = -0.0
    steps = [({k: rng.normal(0.0, 10.0 ** rng.integers(-6, 2), p.shape) for k, p in params.items()}, lr)
             for lr in (1e-3, 5e-4, 2e-2, 1e-3)]
    calls = _spy(monkeypatch)
    _match_reference(params, steps)
    # per step, in key order: the vector in 24 + 24 + 2 elements, the table in 6 blocks of 6 rows and one of 4,
    # the 12-element parameter whole
    assert calls[:11] == [((24,), None), ((24,), None), ((2,), None)] + 6 * [((6, D), None)] + [
        ((4, D), None), ((3, D), None)]
    assert len(calls) == 4 * 11


def test_row_gradient_ids_are_cut_at_block_edges(small_block, serial, monkeypatch):
    rng = np.random.default_rng(2)
    params = {"emb": rng.standard_normal((40, D))}
    edges = [0, 5, 6, 11, 12, 17, 36, 39]  # first and last row, both sides of three edges; rows 18-35 untouched
    touched = [edges, [39], [0], [6, 7, 8, 30], list(range(40)), edges]
    steps = [({"emb": _rows(rng, ids)}, 10.0 ** -(1 + i % 3)) for i, ids in enumerate(touched)]
    calls = _spy(monkeypatch)
    _match_reference(params, steps)
    assert [ids for _, ids in calls[:7]] == [[0, 5], [0, 5], [0, 5], [], [], [], [0, 3]]
    assert [ids for _, ids in calls[7:14]] == 6 * [[]] + [[3]]
    assert [shape for shape, _ in calls[:7]] == 6 * [(6, D)] + [(4, D)]


@pytest.mark.parametrize("lrs", [(0.0, 0.0), (1e-2, 0.0, 1e-3), (0.0, 1e-2)])
def test_lr_zero_keeps_every_blocked_parameter_and_advances_its_moments(small_block, lrs):
    rng = np.random.default_rng(3)
    params = {"emb": rng.standard_normal((40, D)), "w": rng.standard_normal((30, D))}
    steps = [({"emb": _rows(rng, [1, 6, 39]), "w": rng.standard_normal((30, D))}, lr) for lr in lrs]
    _, state = _match_reference(params, steps)
    assert state.t == {"emb": len(lrs), "w": len(lrs)}


def test_one_block_stays_on_the_calling_thread_and_one_row_over_is_cut(small_block, monkeypatch):
    rng = np.random.default_rng(4)
    calls = _spy(monkeypatch)
    names = force_workers(monkeypatch, 2, training, ("_adam_rows",))
    _match_reference({"one": rng.standard_normal((6, D))}, [({"one": rng.standard_normal((6, D))}, 1e-2)])
    assert calls == [((6, D), None)] and names == ["MainThread"]
    del calls[:], names[:]
    _match_reference({"over": rng.standard_normal((7, D))}, [({"over": _rows(rng, [0, 6])}, 1e-2)])
    enc._pool.shutdown()
    assert sorted(calls) == [((1, D), [0]), ((6, D), [0])] and len(set(names)) == 2


def test_one_two_and_four_workers_give_the_same_bytes(small_block, monkeypatch):
    rng = np.random.default_rng(5)
    params = {"emb": rng.standard_normal((40, D)), "bias": rng.standard_normal(50), "w": rng.standard_normal((3, D))}
    steps = [({"emb": _rows(rng, ids), "bias": rng.standard_normal(50), "w": rng.standard_normal((3, D))}, lr)
             for ids, lr in (([0, 5, 6, 39], 1e-2), ([7, 20], 0.0), (list(range(0, 40, 3)), 1e-3))]
    seen = {}
    interval = sys.getswitchinterval()
    for workers in (1, 2, 4):  # 4: more threads than blocks in flight on two cores, switching often
        with monkeypatch.context() as patch:
            names = force_workers(patch, workers, training, ("_adam_rows",))
            sys.setswitchinterval(1e-6 if workers == 4 else interval)
            try:
                out, state = _match_reference(dict(params), steps)
            finally:
                sys.setswitchinterval(interval)
            if workers > 1:
                enc._pool.shutdown()
        assert "MainThread" in names and (len(set(names)) > 1) == (workers > 1), names
        seen[workers] = [a.tobytes() for k in sorted(out) for a in (out[k], state.m[k], state.v[k])]
    assert seen[1] == seen[2] == seen[4]


@pytest.mark.parametrize("bad, match", [
    (np.array([[1.0, np.nan, 0.0, 0.0]] * 40), "non-finite"),
    (RowSparseGrad(np.array([3, 30]), np.array([[0.0] * D, [np.inf] * D])), "non-finite"),
    (RowSparseGrad(np.array([30, 3]), np.ones((2, D))), "sorted, unique"),
    (RowSparseGrad(np.array([3, 40]), np.ones((2, D))), r"in \[0, 40\)"),
    (np.ones((39, D)), "does not fit"),
    (RowSparseGrad(np.array([3, 30]), np.ones((3, D))), "does not fit"),
])
def test_a_refused_gradient_runs_no_block_and_leaves_its_state(small_block, monkeypatch, bad, match):
    rng = np.random.default_rng(6)
    params = {"emb": rng.standard_normal((40, D))}
    state = adam_step(params, {"emb": _rows(rng, [2, 17])}, AdamState(), 1e-2)[1]
    before = (state.m["emb"].tobytes(), state.v["emb"].tobytes(), dict(state.t))
    calls = _spy(monkeypatch)
    with pytest.raises(ValueError, match=match):
        adam_step(params, {"emb": bad}, state, 1e-2)
    assert calls == []
    assert (state.m["emb"].tobytes(), state.v["emb"].tobytes(), state.t) == before


def test_the_desk_table_shape_with_the_shipped_block_matches_the_whole_array_update(monkeypatch):
    rows, width = 24112, 64
    assert rows * width > ADAM_BLOCK
    rng = np.random.default_rng(7)
    params = {"token_emb": rng.normal(0.0, 0.02, (rows, width))}
    steps = [({"token_emb": _rows(rng, np.unique(rng.integers(0, rows, 3300)), width)}, lr) for lr in (1e-3, 9e-4)]
    calls = _spy(monkeypatch)
    _match_reference(params, steps)
    block_rows = ADAM_BLOCK // width
    shapes = sorted((shape for shape, _ in calls[:len(calls) // 2]), reverse=True)  # blocks run on the pool
    assert shapes == (rows // block_rows) * [(block_rows, width)] + [(rows % block_rows, width)]
    assert sum(len(ids) for _, ids in calls[:len(shapes)]) == steps[0][0]["token_emb"].ids.size
