import numpy as np
import pytest

from mdplab.core import (
    Path,
    ProcessModel,
    RngStream,
    SpeedSequence,
    max_abs_partial_sum,
    normalized_process,
    partial_sums,
    stream_index_for,
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


def test_stream_index_for_is_deterministic():
    assert stream_index_for("foo", 2) == stream_index_for("foo", 2)
    assert stream_index_for("foo", 2) != stream_index_for("foo", 3)


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


def test_partial_sum_helpers():
    p = Path(values=np.array([1.0, -2.0, 3.0]), origin_seed=0)
    assert np.allclose(partial_sums(p), [1.0, -1.0, 2.0])
    assert max_abs_partial_sum(p) == pytest.approx(2.0)
    assert normalized_process(p, 0.0) == 0.0
    # t=0.5 picks S_[3*0.5] = S_1, scaled by n^(-1/2)
    assert normalized_process(p, 0.5) == pytest.approx(1.0 / np.sqrt(3.0))
    assert normalized_process(p, 1.0) == pytest.approx(2.0 / np.sqrt(3.0))


def test_model_bound_enforced():
    model = ProcessModel(name="bad", bound=0.5,
                         sampler=lambda n, rng: np.ones(n))
    with pytest.raises(RuntimeError):
        model.sample(4, RngStream(0))


def test_sample_batch_shape_and_determinism():
    model = ProcessModel(name="coin", bound=1.0,
                         sampler=lambda n, rng: rng.integers(0, 2, n) * 2.0 - 1.0)
    a = model.sample_batch(32, 5, RngStream(9))
    b = model.sample_batch(32, 5, RngStream(9))
    assert a.shape == (5, 32)
    assert np.array_equal(a, b)


def _coin_block(n, rng, reps=None):
    shape = (n,) if reps is None else (reps, n)
    return rng.integers(0, 2, shape) * 2.0 - 1.0


def test_sample_block_shape_and_bound_check():
    model = ProcessModel(name="coin", bound=1.0, sampler=_coin_block)
    block = model.sample_block(16, 5, RngStream(4).generator())
    assert block.shape == (5, 16)
    assert set(np.unique(block)) <= {-1.0, 1.0}
    too_big = ProcessModel(name="bad", bound=0.5, sampler=_coin_block)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        too_big.sample_block(16, 5, RngStream(4).generator())


def test_sample_block_rejects_wrong_shape():
    model = ProcessModel(name="flat", bound=1.0,
                         sampler=lambda n, rng, reps=None: np.zeros(n))
    with pytest.raises(RuntimeError, match="shape"):
        model.sample_block(8, 3, RngStream(0).generator())

