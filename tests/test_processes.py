import numpy as np
import pytest
from scipy import stats

from mdplab.core import RngStream
from mdplab.processes import (
    GOLDEN,
    CircleWalkSpec,
    CounterexampleChainSpec,
    ExpandingMapSpec,
    IIDSpec,
    IteratedFunctionSpec,
    LinearProcessSpec,
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

