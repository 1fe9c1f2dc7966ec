import warnings

import numpy as np
import pytest

from mdplab import variance
from mdplab.core import RngStream
from mdplab.processes import GOLDEN, CircleWalkSpec, IIDSpec, make_circle_walk, make_iid
from mdplab.variance import (
    sigma2_circle_fourier,
    sigma2_covariance_series,
    sigma2_dyadic,
    sigma2_var_sn,
)

STREAM = RngStream(424242)


@pytest.fixture(scope="module")
def iid_paths():
    return make_iid(IIDSpec()).sample_batch(4000, 50, STREAM.named("var-iid"))


def test_covariance_series_iid(iid_paths):
    est = sigma2_covariance_series(iid_paths, k_max=10)
    assert est.value == pytest.approx(1.0, abs=4 * est.se)
    assert est.se < 0.02


def test_covariance_series_single_path_segments():
    path = make_iid(IIDSpec()).sample(50_000, STREAM.named("var-single")).values
    est = sigma2_covariance_series(path, k_max=10)
    assert est.value == pytest.approx(1.0, abs=5 * est.se)


def test_covariance_series_sample_size_guard():
    with pytest.raises(ValueError):
        sigma2_covariance_series(np.ones((2, 100)), k_max=50)


def test_dyadic_iid(iid_paths):
    est = sigma2_dyadic(iid_paths, j_max=5)
    assert est.value == pytest.approx(1.0, abs=4 * est.se)
    # level 0 is E X^2 = 1; correlation levels are near zero for iid
    levels = est.meta["level_terms"]
    assert levels[0] == pytest.approx(1.0, abs=0.05)
    assert np.max(np.abs(levels[1:])) < 0.05


def test_dyadic_length_guard():
    with pytest.raises(ValueError):
        sigma2_dyadic(np.ones((4, 32)), j_max=8)


def test_var_sn_extrapolation():
    model = make_iid(IIDSpec(law="uniform", c=1.0))
    sums = {n: model.sample_batch(n, 300, STREAM.named(f"var-sn-{n}"))
            for n in (64, 128, 256)}
    est = sigma2_var_sn(sums)
    assert est.value == pytest.approx(1.0 / 3.0, abs=4 * est.se)


def test_var_sn_replica_guard():
    with pytest.raises(ValueError):
        sigma2_var_sn({64: np.zeros((100, 64)), 128: np.zeros((100, 128))})


def test_circle_fourier_closed_form_golden():
    est = sigma2_circle_fourier({1: 0.5, -1: 0.5}, GOLDEN)
    # brute series oracle: 0.25*2 + 2 sum_k 0.25*2*m^k with m = cos(2 pi a)
    m = np.cos(2 * np.pi * GOLDEN)
    brute = 0.5 + 2 * sum(0.5 * m**k for k in range(1, 400))
    assert est.se == 0.0
    assert est.value == pytest.approx(brute, abs=1e-12)
    assert est.value == pytest.approx(0.07558, abs=5e-5)


def test_circle_fourier_rejects_rational_step():
    with pytest.raises(ValueError):
        sigma2_circle_fourier({2: 0.5, -2: 0.5}, 0.5)


def test_circle_monte_carlo_matches_closed_form():
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    paths = model.sample_batch(4000, 100, STREAM.named("var-circle"))
    mc = sigma2_covariance_series(paths, k_max=40)
    exact = sigma2_circle_fourier({1: 0.5, -1: 0.5}, GOLDEN)
    assert mc.value == pytest.approx(exact.value, abs=4 * float(np.hypot(mc.se, exact.se)))


def test_negative_estimate_clamps_with_warning():
    # strongly alternating sequence: truncated series goes negative
    x = np.tile([1.0, -1.0], (8, 2000))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        est = sigma2_covariance_series(x, k_max=1)
    assert est.clamped
    assert est.value == 0.0
    assert any("clamped" in str(wi.message) for wi in w)


def _covariance_series_loop(x, k_max):
    """(value, jackknife SE) from the whole-array formula, one temporary per lag."""
    x = x - np.mean(x)
    n = x.shape[1]
    per_row = np.sum(x * x, axis=1) / n
    for k in range(1, k_max + 1):
        per_row = per_row + 2.0 * np.sum(x[:, :-k] * x[:, k:], axis=1) / n
    r = x.shape[0]
    loo = (np.sum(per_row) - per_row) / (r - 1)
    return float(np.mean(per_row)), float(np.sqrt((r - 1) / r * np.sum((loo - np.mean(loo)) ** 2)))


@pytest.mark.parametrize("shape,k_max", [((150, 700), 20), ((64, 400), 3),
                                         ((1, 20_000), 10), ((300, 8), 7)])
def test_covariance_series_blocks_match_whole_array_loop(shape, k_max):
    # the window sums add each row's lag products in another order than the
    # loop, so the two agree at rounding, not bit for bit
    rows = np.random.default_rng(7).standard_normal(shape) + 0.25
    est = sigma2_covariance_series(rows, k_max)
    value, se = _covariance_series_loop(rows if shape[0] > 1 else rows[0].reshape(16, -1), k_max)
    assert est.value == pytest.approx(value, rel=1e-14, abs=0)
    assert est.se == pytest.approx(se, rel=1e-12, abs=0)


def test_covariance_series_single_path_equals_its_segments_as_rows(monkeypatch):
    path = np.random.default_rng(5).standard_normal(1 << 17) + 0.1
    single = sigma2_covariance_series(path, 40)
    rows = sigma2_covariance_series(path.reshape(16, -1), 40)
    assert (single.value, single.se) == (rows.value, rows.se)
    # eight segments a block by default, one here: rows do not see the height
    monkeypatch.setattr(variance, "COV_BLOCK_VALUES", 1 << 13)
    one_row = sigma2_covariance_series(path, 40)
    assert (one_row.value, one_row.se) == (single.value, single.se)


def test_covariance_series_refuses_out_of_range_k_max():
    # lags >= n contribute nothing, so k_max would be recorded but never run
    rows = np.where(np.random.default_rng(3).random((1000, 30)) < 0.5, -1.0, 1.0)
    assert sigma2_covariance_series(rows, 29).meta["k_max"] == 29
    with pytest.raises(ValueError, match="k_max=30"):
        sigma2_covariance_series(rows, 30)
    with pytest.raises(ValueError, match="k_max=60"):
        sigma2_covariance_series(rows, 60)
    with pytest.raises(ValueError, match="k_max must be >= 0"):
        sigma2_covariance_series(rows, -1)


@pytest.mark.parametrize("workers", [1, 3])
def test_covariance_series_row_blocks_on_the_pool_are_bit_identical(chunk_workers, workers):
    rows = np.random.default_rng(11).standard_normal((300, 400)) - 0.5  # two row blocks
    k_max = 12
    chunk_workers(1)
    inline = sigma2_covariance_series(rows, k_max)
    chunk_workers(workers)
    est = sigma2_covariance_series(rows, k_max)
    assert (est.value, est.se) == (inline.value, inline.se)
    value, se = _covariance_series_loop(rows, k_max)
    assert est.value == pytest.approx(value, rel=1e-14, abs=0)
    assert est.se == pytest.approx(se, rel=1e-12, abs=0)


@pytest.mark.parametrize("shape,j_max", [((7, 1000), 5), ((1, (1 << 16) + 3), 12)])
def test_dyadic_pyramid_matches_per_row_loop(shape, j_max):
    # row lengths that are not multiples of 2^(j_max + 1): each level drops
    # the row's incomplete last block
    rows = np.random.default_rng(13).standard_normal(shape) + 0.3
    est = sigma2_dyadic(rows if shape[0] > 1 else rows[0], j_max)
    flat_sq = rows.ravel() ** 2
    levels = [float(np.mean(flat_sq))]
    se2 = float(np.var(flat_sq) / flat_sq.size)
    for j in range(j_max + 1):
        L = 2 ** (j + 1)
        prods = []
        for row in rows:
            blocks = row[: (row.size // L) * L].reshape(-1, L)
            prods.append(blocks[:, : L // 2].sum(axis=1) * blocks[:, L // 2:].sum(axis=1))
        prods = np.concatenate(prods)
        levels.append(2.0 ** (-j) * float(np.mean(prods)))
        se2 += (2.0 ** (-j) * float(np.sqrt(np.var(prods) / prods.size))) ** 2
    assert est.value == pytest.approx(float(np.sum(levels)), rel=1e-14, abs=0)
    assert est.se == pytest.approx(float(np.sqrt(se2)), rel=1e-12, abs=0)
    assert est.meta["level_terms"] == pytest.approx(levels, rel=1e-14, abs=0)
