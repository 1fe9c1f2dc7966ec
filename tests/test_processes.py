import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

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
    _gauss_orbit,
    _RAW64,
    _fair_bits,
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
    "linear_two_point": lambda: make_linear_process(LinearProcessSpec(
        coeff_kind="power", innovation=IIDSpec(law="two_point", p=0.8, a=-0.25, b=1.0),
        truncation_tol=1e-4)),
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
    # deterministic alternation of the latent sign, q0 first: n + 1 states
    assert signs.shape == (65,)
    assert np.all(signs[1:] == -signs[:-1])
    assert np.max(np.abs(path.values - signs[1:])) <= 0.5 + 1e-12


def test_linear_process_matches_direct_convolution():
    # c_i = 2^-i and signs: every partial sum is a dyadic rational of fewer
    # than 53 bits, so each float output equals its exact sum
    spec = LinearProcessSpec(coeff_kind="geometric", C=1.0, rho=0.5,
                             truncation_tol=1e-10)
    model = make_linear_process(spec)
    n, M = 16, model.meta["truncation_radius"]
    coeffs = [Fraction(spec.coefficient(i)) for i in range(M + 1)]
    for reps in (1, 5):
        values = model.sampler(n, RngStream(7).generator(), reps)
        eps = spec.innovation.draw((reps, n + M), RngStream(7).generator())
        assert values.shape == (reps, n)
        for row, e in zip(values, eps):
            # Y_t = sum_i c_i eps_(t-i), with eps_t at e[t + M]
            exact = [sum(c * Fraction(e[t + M - i]) for i, c in enumerate(coeffs))
                     for t in range(n)]
            assert [Fraction(v) for v in row] == exact
        assert np.max(np.abs(values)) <= model.bound + 1e-12


@pytest.mark.parametrize("rho", [-0.5, -0.9])
def test_geometric_tail_sums_absolute_coefficients(rho):
    # c_i = C rho^i alternates in sign for rho < 0; the tail bounds sum |c_i|
    spec = LinearProcessSpec(coeff_kind="geometric", C=-3.0, rho=rho)
    for m in (0, 1, 7, 40):
        want = math.fsum(abs(spec.coefficient(i)) for i in range(m, m + 2000))
        assert spec.tail_abs_sum(m) == pytest.approx(want, rel=1e-12)


def _scanned_radius(spec):
    # m = 1, 2, ... until the closed-form tail is below the tolerance
    width = spec.innovation.b - spec.innovation.a if spec.innovation.law == "two_point" \
        else 2 * spec.innovation.bound
    m = 1
    while width * spec.tail_abs_sum(m) >= spec.truncation_tol:
        m += 1
    return m


INNOVATIONS = [IIDSpec(), IIDSpec(law="uniform", c=0.7),
               IIDSpec(law="two_point", p=0.8, a=-0.25, b=1.0)]


@pytest.mark.parametrize("innovation", INNOVATIONS, ids=["rademacher", "uniform", "two_point"])
def test_truncation_radius_equals_the_linear_scan(innovation):
    coeffs = ([dict(coeff_kind="geometric", C=C, rho=rho)
               for C in (1.0, 0.25, -3.0) for rho in (-0.5, 0.1, 0.5, 0.9, 0.99)]
              + [dict(coeff_kind="power", C=C, power=p)
                 for C in (1.0, -3.0) for p in (2.5, 3.0, 4.0, 7.5)]
              + [dict(coeff_kind="delta", C=C) for C in (1.0, 1e-12)])
    for kw in coeffs:
        for tol in (0.5, 1e-4, 1e-8):
            if kw["coeff_kind"] == "power" and kw["power"] < 3.0 and tol < 1e-4:
                continue  # a scan of about 10^5 steps
            spec = LinearProcessSpec(innovation=innovation, truncation_tol=tol, **kw)
            assert spec.truncation_radius() == _scanned_radius(spec), (kw, tol)


def test_truncation_radius_refuses_a_slow_tail_at_once(monkeypatch):
    # sum (1 + i)^-2 from m on is about 1/m: 2/m >= 1e-8 up to m = 10^7
    calls = []
    tail = LinearProcessSpec.tail_abs_sum
    monkeypatch.setattr(LinearProcessSpec, "tail_abs_sum",
                        lambda self, m: calls.append(m) or tail(self, m))
    with pytest.raises(ValueError, match="decays too slowly"):
        LinearProcessSpec(coeff_kind="power", power=2.0).truncation_radius()
    assert len(calls) <= 2
    # just inside the cap it answers, with a radius near 10^7
    calls.clear()
    m = LinearProcessSpec(coeff_kind="power", power=2.0, truncation_tol=3e-7).truncation_radius()
    assert 10**6 < m <= 10**7 and len(calls) <= 60


def test_linear_block_equals_the_convolution():
    # the acceptance model: c_i = 2^-(i+2) for i <= 27 and signs, so every
    # partial sum is exact in any order and the table sums equal np.convolve
    spec = LinearProcessSpec(coeff_kind="geometric", C=0.25, rho=0.5)
    model = make_linear_process(spec)
    M = model.meta["truncation_radius"]
    coeffs = np.array([spec.coefficient(i) for i in range(M + 1)])
    block = model.sample_block(256, 1024, STREAM.named("lin-conv").generator())
    eps = spec.innovation.draw((1024, 256 + M), STREAM.named("lin-conv").generator())
    assert np.array_equal(block, [np.convolve(row, coeffs, mode="valid") for row in eps])


def test_two_point_power_outputs_follow_the_table_order():
    # power coefficients: the partial sums round, so the values are those of
    # the documented order (ascending i within each group of 8, then the
    # groups in order) and lie within the rounding bound of the exact sum
    spec = LinearProcessSpec(coeff_kind="power",
                             innovation=IIDSpec(law="two_point", p=0.8, a=-0.25, b=1.0),
                             truncation_tol=1e-4)
    model = make_linear_process(spec)
    n, reps, M = 48, 3, model.meta["truncation_radius"]
    coeffs = [spec.coefficient(i) for i in range(M + 1)]
    values = model.sampler(n, STREAM.named("lin-2pt").generator(), reps)
    eps = spec.innovation.draw((reps, n + M), STREAM.named("lin-2pt").generator())
    # M + 1 rounded products, each added once: the error is at most
    # gamma_(M+1) sum_i |c_i eps_(k-i)| <= (M + 2) 2^-53 sum_i |c_i| max|eps|
    tol = (M + 2) * 2.0**-53 * sum(abs(c) for c in coeffs) * spec.innovation.bound
    for row, e in zip(values, eps.tolist()):
        for t, v in enumerate(row.tolist()):
            window = [e[t + M - i] for i in range(M + 1)]
            total = 0.0
            for s in range(0, M + 1, 8):
                part = 0.0
                for i in range(s, min(s + 8, M + 1)):
                    part += coeffs[i] * window[i]
                total = part if s == 0 else total + part
            assert v == total
            exact = sum(Fraction(c) * Fraction(x) for c, x in zip(coeffs, window))
            assert abs(Fraction(v) - exact) <= tol
    # the rounding is real: some outputs are not the exact sum
    assert any(Fraction(v) != sum(Fraction(c) * Fraction(e[t + M - i])
                                  for i, c in enumerate(coeffs))
               for row, e in zip(values, eps.tolist()) for t, v in enumerate(row.tolist()))


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


def test_gauss_orbit_shift_residual_is_rounding():
    # x_k is rounded once from an exact orbit, so frac(1/x_k) misses x_(k+1)
    # by a few ulps of x_k scaled by the map's slope 1/x_k^2
    x = _gauss_orbit(256, STREAM.named("gauss-residual").generator(), 200)
    residual = np.abs((1.0 / x[:, :-1]) % 1.0 - x[:, 1:]) * x[:, :-1] ** 2
    assert np.max(residual) <= 4e-16


def test_gauss_orbit_ends_in_the_gauss_law():
    x = _gauss_orbit(50, STREAM.named("gauss-ks").generator(), 2000)[:, -1]
    assert stats.kstest(x, lambda t: np.log2(1.0 + t)).pvalue > 1e-3


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
    # no builder takes a grid kernel, so the refusal points to no other route
    with pytest.raises(ValueError, match=r"not resolved .* \(interpolation error "
                                         r"\d\.\de-\d\d\); non-smooth observables "
                                         r"are not supported$"):
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
    # a path is row 0 of the one-row block
    model = BUILDS[key]()
    n = 40
    path = model.sample(n, STREAM.named("one-row", n))
    block = model.sample_block(n, 1, STREAM.named("one-row", n).generator())
    assert block.shape == (1, n)
    assert np.array_equal(block[0], path.values)
    # sample_rows resets one generator per row; the second row sees no trace
    # of the first row's draws
    other = STREAM.named("one-row-b", n)
    rows = model.sample_rows(n, [STREAM.named("one-row", n), other])
    assert np.array_equal(rows, [path.values, model.sample(n, other).values])


@pytest.mark.parametrize("key", sorted(BUILDS))
def test_block_rows_are_bounded_paths(key):
    model = BUILDS[key]()
    out = model.sampler(24, STREAM.named("rows").generator(), 5)
    values = _values(out)
    assert values.shape == (5, 24)
    if isinstance(out, tuple):
        assert np.asarray(out[1]).shape[0] == 5
    assert np.max(np.abs(values)) <= model.bound
    # the five rows are not all one path; two rows alone may coincide (two
    # 24-step counterexample rows do with probability about 0.02)
    assert any(not np.array_equal(values[0], row) for row in values[1:])


@pytest.mark.parametrize("key", ["iid", "iid_uniform", "iid_two_point", "linear",
                                 "linear_f", "linear_two_point", "doubling", "beta3",
                                 "gauss"])
def test_block_equals_sequential_draws(key):
    # models without a per-path scalar draw give the stacked sequential paths
    model = BUILDS[key]()
    n, reps = 64, 6
    block = model.sample_block(n, reps, STREAM.named("seq").generator())
    rng = STREAM.named("seq").generator()
    rows = np.concatenate([_values(model.sampler(n, rng, 1)) for _ in range(reps)])
    assert np.array_equal(block, rows)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_fair_bit_rows_equal_sequential_draws(n):
    block = _fair_bits(STREAM.named("bits-seq", n).generator(), (5, n))
    rng = STREAM.named("bits-seq", n).generator()
    rows = np.array([_fair_bits(rng, n) for _ in range(5)])
    assert block.dtype == np.uint8 and block.shape == (5, n)
    assert np.array_equal(block, rows)
    assert set(np.unique(block)) <= {0, 1}


def test_fair_bits_unpack_the_first_word_low_bit_first():
    word = 0xAAF90D6304F1EF7B  # the first 64-bit word of this stream
    stream = STREAM.named("fair-bits")
    assert int(stream.generator().integers(0, 2**64, dtype=np.uint64)) == word
    want = [(word >> j) & 1 for j in range(64)]
    assert _fair_bits(stream.generator(), 64).tolist() == want
    # Rademacher sign j is bit j
    signs = IIDSpec().draw(64, stream.generator())
    assert signs.tolist() == [2.0 * b - 1.0 for b in want]


@pytest.mark.parametrize("bit_generator", _RAW64)
def test_raw_words_are_the_full_range_integers(bit_generator):
    # after a 32-bit draw, which leaves half a word buffered, and a double:
    # neither path reads that buffered half
    raw, ref = (np.random.Generator(bit_generator(2026)) for _ in range(2))
    for rng in (raw, ref):
        rng.integers(0, 2**32, dtype=np.uint32)
        rng.random()
    words = raw.bit_generator.random_raw((3, 5))
    assert words.dtype == np.uint64
    assert np.array_equal(words, ref.integers(0, 2**64, (3, 5), dtype=np.uint64))


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
def test_fair_bit_frequencies(bit_generator):
    # 2^22 bits; every bit position of a word is half ones, within 6 SE
    bits = _fair_bits(np.random.Generator(bit_generator(2026)), (2**16, 64))
    assert abs(bits.mean() - 0.5) <= 6 * 0.5 / math.sqrt(bits.size)
    per_position = bits.mean(axis=0)
    assert np.max(np.abs(per_position - 0.5)) <= 6 * 0.5 / math.sqrt(bits.shape[0])


CIRCLE_STEPS = {
    "golden": GOLDEN,
    "negative": -GOLDEN,
    "above_one": 1.0 + math.sqrt(2.0),
    "uint64_edge": GOLDEN / 2**11,      # 64 fractional bits
    "below_2^-12": GOLDEN / 2**13,      # beyond 64 bits: Python integers
}
MULTI_MODE = {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: -0.15j, -2: 0.15j, 3: 0.1, -3: 0.1}


# reps None: the path `sample` draws, the one-row block with its states
@pytest.mark.parametrize("reps", [None, 7])
@pytest.mark.parametrize("n", [1, 7, 300])
@pytest.mark.parametrize("step", sorted(CIRCLE_STEPS))
def test_circle_states_are_the_correctly_rounded_exact_positions(step, n, reps):
    a = CIRCLE_STEPS[step]
    model = make_circle_walk(CircleWalkSpec(a=a, coeffs=MULTI_MODE))
    stream = STREAM.named(f"circle-exact-{step}", n)
    rows = 1 if reps is None else reps
    out = model.sampler(n, stream.generator(), rows)
    # reference: the same draws, in the same order, walked in exact rationals
    rng = stream.generator()
    xi0 = rng.random(rows)
    walk = np.cumsum(_fair_bits(rng, (rows, n)).astype(int) * 2 - 1, axis=1)
    want = np.array([[float(x)] + [float((Fraction(x) + Fraction(a) * int(m)) % 1) for m in row]
                     for x, row in zip(xi0, walk)])
    if reps is None:
        values, states = out
        assert np.array_equal(states, want)
        path = model.sample(n, stream)
        assert np.array_equal(path.states, want[0])
    else:
        values = out  # a larger block omits its states
    # the values are the observable at the exact states, to rounding
    tol = 16 * np.finfo(float).eps * sum(abs(c) for c in MULTI_MODE.values())
    direct = model.kernel.eval_coeffs(model.meta["coeffs"], want[:, 1:])
    assert np.max(np.abs(values - direct)) <= tol
    if reps is None:
        assert np.array_equal(path.values, values[0])


def _float_window_orbit(n, beta, rng, reps):
    # reference: the depth-tap float dot product over a strided window view
    depth = max(2, int(math.ceil(53 / math.log2(beta))))
    shape = (reps, n + depth)
    digits = _fair_bits(rng, shape) if beta == 2 else rng.integers(0, beta, shape)
    digits = digits.astype(float)
    windows = sliding_window_view(digits, depth, axis=-1)[..., :n, :]
    return windows @ (beta ** (-np.arange(1, depth + 1, dtype=float)))


# reps None: the orbit a doubling-map path carries as its states
@pytest.mark.parametrize("n,reps", [(1, None), (300, None), (2**20, None),
                                    (5, 3), (256, 1024)])
def test_doubling_digit_windows_equal_the_float_window(n, reps):
    # beta = 2: every partial sum is a multiple of 2^-53 below 1, so exact
    stream = STREAM.named("digits-2", n)
    want = _float_window_orbit(n, 2, stream.generator(), 1 if reps is None else reps)
    if reps is None:
        got = BUILDS["doubling"]().sample(n, stream).states[None]
    else:
        got = _digit_shift_orbit(n, 2, stream.generator(), reps)
    assert np.array_equal(got, want)


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
    assert _traced_peak(lambda: _digit_shift_orbit(n, 2, rng(), 1)) <= \
        _traced_peak(lambda: _float_window_orbit(n, 2, rng(), 1))
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
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the chunks as finely as possible
    try:
        pooled = map_chunks(block, chunks)
    finally:
        sys.setswitchinterval(switch)
    assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))


@pytest.mark.parametrize("n", [1, 7, 2**16])
def test_iterated_path_equals_the_numpy_scalar_recurrence(n):
    # a path runs the recurrence on Python floats; it must give the
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


@pytest.mark.parametrize("n,reps", [(1, 3), (7, 1), (300, 64)])
def test_iterated_block_equals_the_accumulate_recurrence(n, reps):
    # a block of more rows runs the recurrence in place, one time step for
    # every row at once, a one-row block on Python floats; both must give the
    # bits of the accumulated row-vector formula
    model = BUILDS["iterated"]()
    rho, burn, obs = model.meta["rho"], model.meta["burn_in"], model.meta["observable"]
    values, states = model.sampler(n, STREAM.named("iterated-2d", n).generator(), reps)
    rng = STREAM.named("iterated-2d", n).generator()
    eps = rng.random((reps, n + burn))
    y0 = rng.random(reps)
    drive = (1.0 - rho) * eps.T[1:]
    y = np.array(list(accumulate(drive, lambda prev, d: rho * prev + d, initial=y0))).T
    assert np.array_equal(values, obs(y[:, burn:]))
    assert np.array_equal(states, y[:, burn - 1:])
