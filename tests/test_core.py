import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

from mdplab import core
from mdplab.core import (
    Path,
    ProcessModel,
    RngStream,
    SpeedSequence,
    map_chunks,
    map_replicas,
)


def test_rng_stream_reproducible():
    a = RngStream(123, 7).generator().random(16)
    b = RngStream(123, 7).generator().random(16)
    assert np.array_equal(a, b)


def test_rng_streams_disjoint():
    a = RngStream(123, 0).generator().random(16)
    b = RngStream(123, 1).generator().random(16)
    assert not np.array_equal(a, b)


def test_named_stream_stable_and_distinct():
    s = RngStream(5)
    x = s.named("experiment-a", 3).generator().random(8)
    y = s.named("experiment-a", 3).generator().random(8)
    z = s.named("experiment-b", 3).generator().random(8)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)


def test_stream_rule_pinned_indices():
    # a change to the derivation rule changes every table's bytes
    assert RngStream(5).named("experiment-a", 3).stream_index == 114865530399029639
    assert RngStream(5, 7).child(2).stream_index == 1313108235301683196
    assert RngStream(5).named("foo", 2) != RngStream(5).named("foo", 3)


def test_philox_keys_are_the_seed_sequence_keys():
    # the vectorised hash against numpy's SeedSequence: seeds of one to five
    # words, indices of one word, two words and the extremes
    indices = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]
    indices += [RngStream(5).named("keys", r).stream_index for r in range(20)]
    for seed in (0, 5, 2**32 + 1, 2**130 + 7):
        keys = core._philox_keys(seed, np.array(indices, dtype=np.uint64))
        want = [RngStream(seed, i).generator().bit_generator.state["state"]["key"]
                for i in indices]
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, want)
    with pytest.raises(ValueError):
        core._philox_keys(-1, np.zeros(1, dtype=np.uint64))


def test_named_stream_honours_its_parent():
    s = RngStream(5)
    x = s.named("a").named("x")
    assert x != s.named("b").named("x")
    assert x != s.named("x")


@pytest.mark.parametrize("index", [0, 3, 123456789])
def test_child_never_coincides_with_named_decimal(index):
    # child(i) and named(str(k), i) are separate domains of the one rule
    for i in range(4):
        assert RngStream(5, index).child(i) != RngStream(5, 0).named(str(index), i)


def test_path_is_write_protected():
    p = Path(values=np.array([1.0, -1.0]), origin_seed=0)
    with pytest.raises((ValueError, RuntimeError)):
        p.values[0] = 5.0


def test_speed_sequence_power_rule():
    sp = SpeedSequence(gamma=0.5)
    assert sp.a(4) == pytest.approx(0.5)
    assert sp.a(1) == pytest.approx(1.0)


def test_speed_sequence_gamma_range():
    with pytest.raises(ValueError):
        SpeedSequence(gamma=1.0)
    with pytest.raises(ValueError):
        SpeedSequence(gamma=0.0)


def test_model_bound_enforced():
    model = ProcessModel(name="bad", bound=0.5,
                         sampler=lambda n, rng: np.ones(n))
    with pytest.raises(RuntimeError):
        model.sample(4, RngStream(0))


def _coin_block(n, rng, reps=None):
    shape = (n,) if reps is None else (reps, n)
    return rng.integers(0, 2, shape) * 2.0 - 1.0


def test_sample_batch_shape_and_determinism():
    model = ProcessModel(name="coin", bound=1.0, sampler=_coin_block)
    a = model.sample_batch(32, 5, RngStream(9))
    b = model.sample_batch(32, 5, RngStream(9))
    assert a.shape == (5, 32)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("workers", [1, 3])
def test_sample_batch_is_the_serial_chunk_loop(chunk_workers, workers):
    # 2^16 // 5000 = 13 rows a chunk: 16 chunks, the last one short
    chunk_workers(workers)
    model = ProcessModel(name="coin", bound=1.0, sampler=_coin_block)
    n, replicas, chunk = 5000, 200, 13
    stream = RngStream(9).named("batch")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # chunks' in-place writes interleave often
    try:
        batch = model.sample_batch(n, replicas, stream)
    finally:
        sys.setswitchinterval(interval)
    ref = np.concatenate([
        model.sample_block(n, min(chunk, replicas - start), stream.child(ci).generator())
        for ci, start in enumerate(range(0, replicas, chunk))])
    assert np.array_equal(batch, ref)


def test_sample_batch_reraises_late_bound_violation(chunk_workers):
    chunk_workers(3)
    stream = RngStream(9).named("late")
    bad_key = stream.child(6).generator().bit_generator.state["state"]["key"]

    def sampler(n, rng, reps=None):
        out = _coin_block(n, rng, reps)
        if np.array_equal(rng.bit_generator.state["state"]["key"], bad_key):
            out[-1, -1] = 2.0  # one value out of bounds, in chunk 6 of 8
        return out

    model = ProcessModel(name="coin", bound=1.0, sampler=sampler)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        model.sample_batch(2**14, 32, stream)  # 4 rows a chunk


@pytest.mark.parametrize("workers", [1, 3])
def test_map_replicas_chunks(chunk_workers, workers):
    chunk_workers(workers)
    stream = RngStream(2).named("seam")
    out = map_replicas(10, 4, stream, lambda rows, rng: (rows, rng.random()))
    assert [rows for rows, _ in out] == [range(0, 4), range(4, 8), range(8, 10)]
    assert [u for _, u in out] == [stream.child(ci).generator().random() for ci in range(3)]
    assert map_replicas(0, 4, stream, lambda rows, rng: rows) == []
    with pytest.raises(ValueError):
        map_replicas(10, 0, stream, lambda rows, rng: rows)


def test_sample_block_shape_and_bound_check():
    model = ProcessModel(name="coin", bound=1.0, sampler=_coin_block)
    block = model.sample_block(16, 5, RngStream(4).generator())
    assert block.shape == (5, 16)
    assert set(np.unique(block)) <= {-1.0, 1.0}
    too_big = ProcessModel(name="bad", bound=0.5, sampler=_coin_block)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        too_big.sample_block(16, 5, RngStream(4).generator())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_fail_the_bound_check(bad):
    def sampler(n, rng, reps=None):
        out = np.zeros((n,) if reps is None else (reps, n))
        out[..., -1] = bad
        return out

    model = ProcessModel(name="non-finite", bound=1.0, sampler=sampler)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        model.sample(8, RngStream(0))
    with pytest.raises(RuntimeError, match="exceeds bound"):
        model.sample_block(8, 3, RngStream(0).generator())


def test_sample_block_rejects_wrong_shape():
    model = ProcessModel(name="flat", bound=1.0,
                         sampler=lambda n, rng, reps=None: np.zeros(n))
    with pytest.raises(RuntimeError, match="shape"):
        model.sample_block(8, 3, RngStream(0).generator())
    with pytest.raises(RuntimeError, match="shape"):
        model.sample_rows(8, [RngStream(0)])


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_sample_rows_checks_every_row_in_one_block_check(bad):
    streams = [RngStream(5).named("rows", r) for r in range(5)]
    bad_key = streams[3].generator().bit_generator.state["state"]["key"]

    def sampler(n, rng, reps=None):
        out = _coin_block(n, rng, reps)
        if np.array_equal(rng.bit_generator.state["state"]["key"], bad_key):
            out[..., n // 2] = bad  # one value of row 3 of 5
        return out

    model = ProcessModel(name="coin", bound=1.0, sampler=sampler)
    rows = model.sample_rows(16, streams[:3])
    assert rows.shape == (3, 16)
    for row, stream in zip(rows, streams):
        assert np.array_equal(row, model.sample(16, stream).values)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        model.sample_rows(16, streams)
    assert model.sample_rows(16, []).shape == (0, 16)
    with pytest.raises(ValueError, match="one master seed"):
        model.sample_rows(16, [RngStream(5), RngStream(6)])


def test_chunk_workers_rule():
    assert 1 <= core.chunk_workers() <= core.MAX_CHUNK_WORKERS == 4
    assert core.chunk_workers() == min(4, len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("workers", [1, 3])
def test_map_chunks_returns_chunk_order(chunk_workers, workers):
    chunk_workers(workers)

    def late_first(ci):
        time.sleep(0.002 * (8 - ci))  # chunk 0 finishes last
        return ci * ci

    assert map_chunks(late_first, 8) == [ci * ci for ci in range(8)]
    assert map_chunks(late_first, 0) == []


@pytest.mark.parametrize("workers", [1, 3])
def test_map_chunks_reraises_first_failing_chunk(chunk_workers, workers):
    chunk_workers(workers)

    def fail_from_3(ci):
        if ci >= 3:
            raise RuntimeError(f"chunk {ci}")
        return ci

    with pytest.raises(RuntimeError, match="chunk 3"):
        map_chunks(fail_from_3, 8)


def test_map_chunks_nested_call_runs_inline(chunk_workers):
    chunk_workers(2)
    result = []

    def outer(ci):
        # every worker blocks here; a nested submit to the pool would deadlock
        return map_chunks(lambda cj: (ci, cj, threading.current_thread().name), 3)

    caller = threading.Thread(target=lambda: result.append(map_chunks(outer, 4)),
                              daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    rows = result[0]
    assert [[(ci, cj) for ci, cj, _ in row] for row in rows] == \
        [[(ci, cj) for cj in range(3)] for ci in range(4)]
    # each nested call stayed on the worker thread that made it
    assert all(len({name for *_, name in row}) == 1 for row in rows)
    assert all(name.startswith("mdplab-chunk") for row in rows for *_, name in row)


def test_map_chunks_concurrent_callers_share_one_pool(chunk_workers):
    chunk_workers(3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = {}
        callers = [threading.Thread(target=lambda i=i: out.__setitem__(
            i, map_chunks(lambda ci: (i, ci, threading.get_ident()), 16)))
            for i in range(6)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(switch)
    assert {i: [row[:2] for row in out[i]] for i in out} == \
        {i: [(i, ci) for ci in range(16)] for i in range(6)}
    # one pool for all callers: a second, racing pool would add threads
    assert len({row[2] for rows in out.values() for row in rows}) <= 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_map_chunks_in_forked_child(chunk_workers):
    chunk_workers(2)
    assert map_chunks(lambda ci: ci, 4) == [0, 1, 2, 3]  # the parent's pool exists
    ctx = multiprocessing.get_context("fork")
    ok = ctx.Value("b", 0)

    def child():
        # the inherited pool has no threads here; a fresh one must take over
        ok.value = map_chunks(lambda ci: ci * 2, 4) == [0, 2, 4, 6]

    proc = ctx.Process(target=child)
    proc.start()
    proc.join(timeout=60)
    alive = proc.is_alive()
    if alive:
        proc.kill()
    assert not alive and proc.exitcode == 0 and ok.value
