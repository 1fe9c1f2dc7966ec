import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats

from mdplab.core import RngStream, map_chunks
from mdplab.processes import (
    GOLDEN,
    CircleWalkSpec,
    CounterexampleChainSpec,
    ExpandingMapSpec,
    IIDSpec,
    IteratedFunctionSpec,
    LinearProcessSpec,
    _digit_shift_orbit,
    age_chain_matrix,
    make_alternating_plus_iid,
    make_circle_walk,
    make_counterexample_chain,
    make_expanding_map,
    make_iid,
    make_iterated_function,
    make_linear_process,
    model_from_config,
    stationary_age_law,
)

STREAM = RngStream(20260826)

BUILDS = {
    "iid": lambda: make_iid(IIDSpec()),
    "iid_uniform": lambda: make_iid(IIDSpec(law="uniform", c=0.7)),
    "iid_two_point": lambda: make_iid(IIDSpec(law="two_point", p=0.8, a=-0.25, b=1.0)),
    "alternating": lambda: make_alternating_plus_iid(IIDSpec(law="uniform", c=0.5)),
    "linear": lambda: make_linear_process(LinearProcessSpec(
        coeff_kind="geometric", C=0.25, rho=0.5)),
    "linear_f": lambda: make_linear_process(LinearProcessSpec(
        coeff_kind="power", power=3.0, f=np.sin, f_bound=1.0, truncation_tol=1e-4)),
    "iterated": lambda: make_iterated_function(IteratedFunctionSpec(rho=0.5)),
    "doubling": lambda: make_expanding_map(ExpandingMapSpec(map="doubling", mean=0.0)),
    "beta3": lambda: make_expanding_map(ExpandingMapSpec(map="beta", beta=3, mean=0.0)),
    "gauss": lambda: make_expanding_map(ExpandingMapSpec(map="gauss")),
    "circle": lambda: make_circle_walk(CircleWalkSpec(a=GOLDEN)),
    "counterexample": lambda: make_counterexample_chain(CounterexampleChainSpec()),
}


def test_iid_laws_mean_zero_and_bounded():
    for spec in (IIDSpec(), IIDSpec(law="uniform", c=0.7),
                 IIDSpec(law="two_point", p=0.8, a=-0.25, b=1.0)):
        model = make_iid(spec)
        x = model.sample_batch(2000, 20, STREAM.named(f"iid-{spec.law}"))
        assert np.max(np.abs(x)) <= spec.bound + 1e-12
        assert abs(np.mean(x)) < 5.0 * np.sqrt(spec.variance / x.size)
        assert np.var(x) == pytest.approx(spec.variance, rel=0.05)


def test_two_point_rejects_nonzero_mean():
    with pytest.raises(ValueError):
        IIDSpec(law="two_point", p=0.5, a=-1.0, b=2.0)


def test_alternating_model_signs():
    model = make_alternating_plus_iid(IIDSpec(law="uniform", c=0.5))
    path = model.sample(64, STREAM.named("alt"))
    signs = path.states
    # deterministic alternation of the latent sign
    assert np.all(signs[1:] == -signs[:-1])
    assert np.max(np.abs(path.values - signs)) <= 0.5 + 1e-12


def test_linear_process_matches_direct_convolution():
    spec = LinearProcessSpec(coeff_kind="geometric", C=1.0, rho=0.5,
                             truncation_tol=1e-10)
    model = make_linear_process(spec)
    rng = RngStream(7).generator()
    out = model.sampler(16, rng)
    values = out[0] if isinstance(out, tuple) else out
    assert values.shape == (16,)
    assert np.max(np.abs(values)) <= model.bound + 1e-12


def test_doubling_orbit_matches_float_iteration_initially():
    model = make_expanding_map(ExpandingMapSpec(map="doubling", mean=0.0))
    path = model.sample(64, STREAM.named("doubling"))
    x = path.states[0] if path.states.ndim else float(path.states)
    orbit = np.asarray(path.states, dtype=float)
    # float iteration of t -> 2t mod 1 agrees for ~40 steps before bit exhaustion
    t = float(orbit[0])
    for k in range(1, 40):
        t = (2.0 * t) % 1.0
        # float iteration loses one bit per step: budget 2^k ulps
        assert abs(t - orbit[k]) < 2.0**k * 1e-15


def test_doubling_orbit_is_uniform():
    model = make_expanding_map(ExpandingMapSpec(map="doubling", mean=0.0))
    rows = [model.sample(512, STREAM.named("doubling-ks", r)).states[:512]
            for r in range(8)]
    u = np.concatenate(rows)
    assert stats.kstest(u, "uniform").pvalue > 1e-4


def test_gauss_orbit_cap():
    model = make_expanding_map(ExpandingMapSpec(map="gauss", mean=None))
    with pytest.raises(ValueError):
        model.sample(20_000, STREAM.named("gauss-cap"))


def test_gauss_orbit_respects_map():
    model = make_expanding_map(ExpandingMapSpec(map="gauss", mean=None))
    path = model.sample(50, STREAM.named("gauss"))
    x = np.asarray(path.states, dtype=float)
    for k in range(30):
        nxt = (1.0 / x[k]) % 1.0
        assert abs(nxt - x[k + 1]) < 1e-9


def test_circle_walk_values_and_states():
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    path = model.sample(128, STREAM.named("circle"))
    st = np.asarray(path.states)
    assert st.size == 129  # initial point plus one state per observation
    steps = (st[1:] - st[:-1]) % 1.0
    steps = np.minimum(steps, 1.0 - steps)
    assert np.allclose(steps, min(GOLDEN, 1 - GOLDEN), atol=1e-12)
    # values are cos(2 pi xi_k) for the default two-mode observable
    assert np.allclose(path.values, np.cos(2 * np.pi * st[1:]), atol=1e-12)


def test_circle_walk_rejects_rational_step():
    with pytest.raises(ValueError):
        CircleWalkSpec(a=0.5, a_is_rational=True)


def test_iterated_function_contracts():
    model = make_iterated_function(IteratedFunctionSpec(rho=0.5))
    path = model.sample(256, STREAM.named("ifs"))
    assert np.asarray(path.states).size == 257
    assert np.max(np.abs(path.values)) <= model.bound + 1e-12


def test_iterated_function_bound_covers_smooth_nonmonotone_observable():
    # sin(2 pi y) peaks at 1/4 and 3/4, between Chebyshev nodes: the bound
    # must come from the uniform grid, where the peaks lie
    model = make_iterated_function(IteratedFunctionSpec(
        rho=0.5, observable=lambda y: np.sin(2 * np.pi * y)))
    abs_mean = abs(model.meta["observable"](0.25) - 1.0)  # obs(1/4) = 1 - mean
    assert model.bound >= 1.0 + abs_mean
    path = model.sample(4096, STREAM.named("ifs-sin"))
    assert np.max(np.abs(path.values)) <= model.bound


@pytest.mark.parametrize("build", [
    lambda f: make_iterated_function(IteratedFunctionSpec(rho=0.5, observable=f)),
    lambda f: make_expanding_map(ExpandingMapSpec(map="doubling", observable=f)),
    lambda f: make_expanding_map(ExpandingMapSpec(map="gauss", observable=f)),
])
def test_spectral_builders_refuse_non_smooth_observables(build):
    with pytest.raises(ValueError, match="not resolved"):
        build(lambda x: (np.asarray(x) < 0.3).astype(float))


def test_age_chain_stationarity():
    spec = CounterexampleChainSpec()
    pmf = spec.tau_pmf()
    pi = stationary_age_law(pmf)
    P = age_chain_matrix(pmf)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(P.T @ pi - pi)) < 1e-12


def test_counterexample_chain_samples():
    model = make_counterexample_chain(CounterexampleChainSpec())
    x = model.sample_batch(1000, 10, STREAM.named("cex"))
    assert np.max(np.abs(x)) <= model.bound + 1e-12


def test_model_from_config_round_trip():
    m1 = model_from_config({"kind": "iid", "law": "rademacher"})
    m2 = model_from_config({"kind": "circle", "a": "golden"})
    m3 = model_from_config({"kind": "expanding", "map": "doubling", "mean": 0.0})
    for m in (m1, m2, m3):
        m.sample(32, STREAM.named("cfg"))
    with pytest.raises(ValueError):
        model_from_config({"kind": "nope"})


def _values(out):
    return out[0] if isinstance(out, tuple) else out


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_single_path_is_the_one_row_block(key):
    # reps=None and a one-row block consume the generator in the same order
    model = BUILDS[key]()
    n = 40
    path = model.sample(n, STREAM.named("one-row", n))
    block = model.sample_block(n, 1, STREAM.named("one-row", n).generator())
    assert block.shape == (1, n)
    assert np.array_equal(block[0], path.values)


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_block_rows_are_bounded_paths(key):
    model = BUILDS[key]()
    out = model.sampler(24, STREAM.named("rows").generator(), 5)
    values = _values(out)
    assert values.shape == (5, 24)
    if isinstance(out, tuple):
        assert np.asarray(out[1]).shape[0] == 5
    assert np.max(np.abs(values)) <= model.bound
    # rows are distinct paths, not copies of one
    assert not np.array_equal(values[0], values[1])


@pytest.mark.parametrize("key", ["iid", "iid_uniform", "iid_two_point", "linear",
                                 "linear_f", "doubling", "beta3"])
def test_block_equals_sequential_draws(key):
    # models without a per-path scalar draw give the stacked sequential paths
    model = BUILDS[key]()
    n, reps = 64, 6
    block = model.sample_block(n, reps, STREAM.named("seq").generator())
    rng = STREAM.named("seq").generator()
    rows = np.array([_values(model.sampler(n, rng)) for _ in range(reps)])
    assert np.array_equal(block, rows)


CIRCLE_STEPS = {
    "golden": GOLDEN,
    "negative": -GOLDEN,
    "above_one": 1.0 + math.sqrt(2.0),
    "uint64_edge": GOLDEN / 2**11,      # 64 fractional bits
    "below_2^-12": GOLDEN / 2**13,      # beyond 64 bits: Python integers
}
MULTI_MODE = {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: -0.15j, -2: 0.15j, 3: 0.1, -3: 0.1}


@pytest.mark.parametrize("reps", [None, 7])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("step", sorted(CIRCLE_STEPS))
def test_circle_states_are_the_correctly_rounded_exact_positions(step, n, reps):
    a = CIRCLE_STEPS[step]
    model = make_circle_walk(CircleWalkSpec(a=a, coeffs=MULTI_MODE))
    stream = STREAM.named(f"circle-exact-{step}", n)
    values, states = model.sampler(n, stream.generator(), reps)
    # reference: the same draws, in the same order, walked in exact rationals
    rng = stream.generator()
    rows = 1 if reps is None else reps
    xi0 = rng.random(rows)
    walk = np.cumsum(rng.integers(0, 2, (rows, n)) * 2 - 1, axis=1)
    want = np.array([[float(x)] + [float((Fraction(x) + Fraction(a) * int(m)) % 1) for m in row]
                     for x, row in zip(xi0, walk)])
    assert np.array_equal(np.atleast_2d(states), want)
    # the values are the observable at those states, to rounding
    tol = 16 * np.finfo(float).eps * sum(abs(c) for c in MULTI_MODE.values())
    direct = model.kernel.eval_coeffs(model.meta["coeffs"], np.atleast_2d(states)[:, 1:])
    assert np.max(np.abs(np.atleast_2d(values) - direct)) <= tol
    if reps is None:
        block = model.sample_block(n, 1, stream.generator())
        assert np.array_equal(block[0], values)


def _float_window_orbit(n, beta, rng, reps=None):
    # reference: the depth-tap float dot product over a strided window view
    depth = max(2, int(math.ceil(53 / math.log2(beta))))
    shape = (n + depth,) if reps is None else (reps, n + depth)
    digits = rng.integers(0, beta, shape).astype(float)
    windows = sliding_window_view(digits, depth, axis=-1)[..., :n, :]
    return windows @ (beta ** (-np.arange(1, depth + 1, dtype=float)))


@pytest.mark.parametrize("n,reps", [(1, None), (300, None), (2**20, None),
                                    (5, 3), (256, 1024)])
def test_doubling_digit_windows_equal_the_float_window(n, reps):
    # beta = 2: every partial sum is a multiple of 2^-53 below 1, so exact
    stream = STREAM.named("digits-2", n)
    got = _digit_shift_orbit(n, 2, stream.generator(), reps)
    assert np.array_equal(got, _float_window_orbit(n, 2, stream.generator(), reps))


@pytest.mark.parametrize("beta", [3, 5, 7, 10, 1000, 1448])
def test_beta_digit_windows_within_two_ulp_of_the_exact_rational(beta):
    n, reps = 200, 3
    stream = STREAM.named("digits-beta", beta)
    got = _digit_shift_orbit(n, beta, stream.generator(), reps)
    depth = max(2, int(math.ceil(53 / math.log2(beta))))
    digits = stream.generator().integers(0, beta, (reps, n + depth)).tolist()
    for r in range(reps):
        for k in range(n):
            exact = Fraction(sum(d * beta ** (depth - 1 - j)
                                 for j, d in enumerate(digits[r][k:k + depth])), beta**depth)
            assert abs(Fraction(got[r, k]) - exact) <= 2 * Fraction(math.ulp(float(exact)))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_digit_windows_transient_at_most_the_float_window():
    n = 2**20
    rng = lambda: STREAM.named("digits-peak").generator()
    assert _traced_peak(lambda: _digit_shift_orbit(n, 2, rng())) <= \
        _traced_peak(lambda: _float_window_orbit(n, 2, rng()))
    # a checked 2^20-value path holds its values and its orbit, and at most
    # 1 MiB besides (the float window took three path-sized arrays)
    model = make_expanding_map(ExpandingMapSpec(map="doubling", mean=0.0))
    model.sample(256, STREAM.named("digits-peak"))  # warm
    assert _traced_peak(lambda: model.sample(n, STREAM.named("digits-peak"))) <= 2 * 8 * n + 2**20


def test_beta_whose_digit_window_overflows_int64_is_refused():
    # 1449^6 >= 2^63 while 1449^-5 > 2^-53
    with pytest.raises(ValueError, match="63 bits"):
        make_expanding_map(ExpandingMapSpec(map="beta", beta=1449, mean=0.0))


@pytest.mark.parametrize("workers", [1, 4])
def test_gauss_blocks_deterministic_under_the_chunk_pool(chunk_workers, workers):
    chunk_workers(workers)  # 4 threads on any host, more than CI's cores
    model = BUILDS["gauss"]()
    stream = STREAM.named("gauss-pool")
    n, take, chunks = 32, 24, 8

    def block(ci):
        return model.sample_block(n, take, stream.child(ci).generator())

    serial = [block(ci) for ci in range(chunks)]
    prec = mpmath.mp.prec
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the chunks as finely as possible
    try:
        pooled = map_chunks(block, chunks)
    finally:
        sys.setswitchinterval(switch)
    assert mpmath.mp.prec == prec
    assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))


@pytest.mark.parametrize("n", [1, 7, 2**16])
def test_iterated_path_equals_the_numpy_scalar_recurrence(n):
    # the single path runs the recurrence on Python floats; it must give the
    # bits of the row-vector formula on numpy scalars, from the same draws
    model = BUILDS["iterated"]()
    rho, burn, obs = model.meta["rho"], model.meta["burn_in"], model.meta["observable"]
    path = model.sample(n, STREAM.named("iterated-1d", n))
    rng = STREAM.named("iterated-1d", n).generator()
    eps = rng.random(n + burn)
    y0 = rng.random()
    drive = (1.0 - rho) * eps[1:]
    y = np.array(list(accumulate(drive, lambda prev, d: rho * prev + d, initial=y0)))
    assert np.array_equal(path.values, obs(y[burn:]))
    assert np.array_equal(path.states, y[burn - 1:])
