import csv
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mdplab.core import REPLICA_CHUNK, RngStream, SpeedSequence
from mdplab.mdp import (
    TILTED_CHUNK,
    DeviationScanReport,
    PiecewiseLinearPath,
    _cgf,
    _circle_block_means,
    _cond_block_means,
    _draw_tilted,
    _solve_tilt,
    _tilted_two_point,
    block_martingale_decompose,
    empirical_mdp_point,
    endpoint_rate,
    exact_binomial_tail_log,
    mdp_scan,
    rate_I,
    rate_J_weighted,
    tilted_is_estimator,
)
from mdplab.processes import (
    GOLDEN,
    CircleWalkSpec,
    IIDSpec,
    IteratedFunctionSpec,
    make_alternating_plus_iid,
    make_circle_walk,
    make_iid,
    make_iterated_function,
    model_from_config,
)

STREAM = RngStream(31415)


# ---------------------------------------------------------------------------
# rate functionals


def line_to(x):
    return PiecewiseLinearPath(breakpoints=np.array([0.0, 1.0]),
                               values=np.array([0.0, x]))


def test_rate_of_straight_line():
    # I(h) = x^2 / (2 sigma^2) for the straight line to x
    assert rate_I(line_to(2.0), 1.0) == pytest.approx(2.0)
    assert rate_I(line_to(2.0), 4.0) == pytest.approx(0.5)
    assert endpoint_rate(2.0, 4.0) == pytest.approx(0.5)


def test_straight_line_minimizes_rate():
    bent = PiecewiseLinearPath(breakpoints=np.array([0.0, 0.5, 1.0]),
                               values=np.array([0.0, 1.5, 2.0]))
    assert rate_I(bent, 1.0) > rate_I(line_to(2.0), 1.0)


def test_rate_zero_sigma_convention():
    h = line_to(1.0)
    assert rate_I(h, 0.0) == math.inf
    flat = PiecewiseLinearPath(breakpoints=np.array([0.0, 1.0]),
                               values=np.array([0.0, 0.0]))
    assert rate_I(flat, 0.0) == endpoint_rate(0.0, 0.0) == 0.0
    # with g = 1 the weighted rate is rate_I, point mass included
    one = lambda t: np.ones_like(t)
    assert rate_J_weighted(flat, one, 0.0) == rate_I(flat, 0.0) == 0.0
    assert rate_J_weighted(h, one, 0.0) == math.inf


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.1, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_rate_quadratic_homogeneity(x, alpha):
    h = PiecewiseLinearPath(breakpoints=np.array([0.0, 0.3, 1.0]),
                            values=np.array([0.0, x / 2.0, x]))
    base = rate_I(h, 1.0)
    assert rate_I(h.scaled(alpha), 1.0) == pytest.approx(alpha**2 * base,
                                                         rel=1e-9, abs=1e-12)


@given(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1,
                max_size=5, unique=True))
@settings(max_examples=40, deadline=None)
def test_rate_invariant_under_refinement(extra):
    h = PiecewiseLinearPath(breakpoints=np.array([0.0, 0.4, 1.0]),
                            values=np.array([0.0, -1.0, 0.5]))
    assert rate_I(h.refined(extra), 2.0) == pytest.approx(rate_I(h, 2.0),
                                                          rel=1e-12)


def test_weighted_rate_reduces_to_plain():
    h = PiecewiseLinearPath(breakpoints=np.array([0.0, 0.25, 1.0]),
                            values=np.array([0.0, 0.5, 1.0]))
    plain = rate_I(h, 1.0)
    weighted = rate_J_weighted(h, lambda t: np.ones_like(t), 1.0)
    assert weighted == pytest.approx(plain, rel=1e-9)


def test_path_validation():
    with pytest.raises(ValueError):
        PiecewiseLinearPath(breakpoints=np.array([0.0, 0.5]),
                            values=np.array([1.0, 2.0]))  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseLinearPath(breakpoints=np.array([0.0, 0.5, 0.5, 1.0]),
                            values=np.array([0.0, 1.0, 1.0, 2.0]))


# ---------------------------------------------------------------------------
# tail estimators, cross-checked against independent oracles


def test_exact_binomial_against_scipy():
    n, t = 30, 10.0
    # S_n = 2 B - n with B ~ Bin(n, 1/2): P(S_n >= t) = P(B >= ceil((n+t)/2))
    k_min = math.ceil((n + t) / 2.0)
    ref = float(stats.binom.sf(k_min - 1, n, 0.5))
    assert exact_binomial_tail_log(n, t) == pytest.approx(math.log(ref), abs=1e-10)


def _binomial_tail_log_50_digits(n, t):
    # sum of C(n, k) 2^-n over k >= k0, every term at 50 digits
    k0 = math.ceil((n + t) / 2.0)
    with mpmath.workdps(50):
        lead = (mpmath.loggamma(n + 1) - mpmath.loggamma(k0 + 1)
                - mpmath.loggamma(n - k0 + 1) - n * mpmath.log(2))
        term, total, k = mpmath.mpf(1), mpmath.mpf(0), k0
        while k <= n and term >= mpmath.mpf(10) ** -25 * total:
            total += term
            term = term * (n - k) / (k + 1)
            k += 1
        return float(lead + mpmath.log(total))


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5, 10**6, 10**7])
def test_exact_binomial_within_the_benchmark_bound_of_a_50_digit_sum(n):
    # log C(n, k) from float log-gamma cancels terms of size n log n
    tol = 1e-12 + 16.0 * np.finfo(float).eps * n * math.log(n)
    for x in (0.3, 1.7, 5.0):
        t = x * math.sqrt(n)
        assert abs(exact_binomial_tail_log(n, t) - _binomial_tail_log_50_digits(n, t)) <= tol


def test_exact_binomial_large_n_runs():
    lp = exact_binomial_tail_log(10**6, 10**4)
    assert lp < 0.0
    assert math.isfinite(lp)


def test_tilted_estimator_matches_exact_within_3se():
    n = 200
    t = 3.0 * math.sqrt(n)
    exact = exact_binomial_tail_log(n, t)
    est, se = tilted_is_estimator(IIDSpec(), n, t, 4000, STREAM.named("tilt"))
    assert abs(est - exact) < 3.0 * se


def test_tilted_estimator_uniform_law():
    spec = IIDSpec(law="uniform", c=1.0)
    n = 400
    t = 2.5 * math.sqrt(n / 3.0)
    est, se = tilted_is_estimator(spec, n, t, 4000, STREAM.named("tilt-u"))
    # Gaussian reference with the exact variance 1/3; agree loosely at this n
    ref = math.log(float(stats.norm.sf(t / math.sqrt(n / 3.0))))
    assert est == pytest.approx(ref, abs=0.5)


def test_empirical_point_exact_method():
    model = make_iid(IIDSpec())
    pt = empirical_mdp_point(model, 10_000, 10_000 ** (-1 / 3), 1.0,
                             method="exact_binomial")
    assert pt.estimate == pytest.approx(-0.6179, abs=0.02)
    # the scan row's gap is the estimate minus the target -x^2 / (2 sigma2)
    rep = DeviationScanReport()
    rep.add(model.name, pt, 1.0)
    assert rep.rows[0]["gap"] == pytest.approx(pt.estimate + 0.5, abs=1e-12)


def test_naive_method_refuses_hopeless_threshold():
    model = make_iid(IIDSpec())
    with pytest.raises(ValueError, match="refused"):
        empirical_mdp_point(model, 4096, 4096 ** (-1 / 3), 2.0, method="naive",
                            replicas=2000, stream=STREAM.named("naive"),
                            sigma2=1.0)


def test_naive_preflight_normal_tail_equals_scipy_stats():
    # the refusal names ceil(20 / P(Z >= z)); with one replica that is the
    # pre-flight's normal tail itself, which must be scipy.stats' to the bit
    model = make_iid(IIDSpec())
    for x in np.linspace(0.05, 3.0, 60):
        n, s2 = 512, 1.3
        z = x * math.sqrt(n) / math.sqrt(s2 * n)  # a_n = 1
        want = math.ceil(20 / float(stats.norm.sf(z)))
        with pytest.raises(ValueError, match=rf"raise replicas to ~{want} "):
            empirical_mdp_point(model, n, 1.0, float(x), method="naive", replicas=1,
                                stream=STREAM.named("preflight"), sigma2=s2)
    z = np.linspace(-10.0, 40.0, 100_001)
    assert np.array_equal(special.ndtr(-z), stats.norm.sf(z))


def test_naive_method_on_reachable_threshold():
    model = make_iid(IIDSpec())
    pt = empirical_mdp_point(model, 256, 0.9, 0.5, method="naive",
                             replicas=4000, stream=STREAM.named("naive-ok"),
                             sigma2=1.0)
    ref = 0.9 * math.log(float(stats.norm.sf(pt.threshold / math.sqrt(256.0))))
    assert pt.estimate == pytest.approx(ref, abs=3.0 * pt.se + 0.05)


def test_scan_report_columns_and_trend(tmp_path):
    model = make_iid(IIDSpec())
    rep = mdp_scan(model, SpeedSequence(gamma=1.0 / 3.0),
                   [10**3, 10**4, 10**5], [1.0], sigma2=1.0,
                   method="exact_binomial")
    path = tmp_path / "scan.csv"
    rep.to_csv(str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "n", "a_n", "x", "method",
                       "estimate", "target", "gap", "se"]
    assert [int(r[1]) for r in rows[1:]] == [10**3, 10**4, 10**5]
    assert [float(r[5]) for r in rows[1:]] == [r["estimate"] for r in rep.rows]
    # one x and one method: |gap| at the largest n below |gap| at the smallest
    gaps = [abs(r["gap"]) for r in rep.rows]
    assert gaps[-1] < gaps[0]


# ---------------------------------------------------------------------------
# block-martingale decomposition


def test_decompose_iid_conditional_means_vanish():
    # n states, one per value: an iid kernel's rows are equal, so the state
    # a block is conditioned on does not matter and every mean is 0 exactly
    model = make_iid(IIDSpec())
    path = model.sample(512, STREAM.named("dec-iid"))
    assert path.states.size == 512
    dec = block_martingale_decompose(model, path, m=8)
    assert np.all(dec.cond_means == 0.0)
    s_n = float(np.sum(path.values))
    assert dec.reconstruct() == pytest.approx(s_n, abs=1e-10)
    for spec in (IIDSpec(law="uniform", c=0.5), IIDSpec(law="two_point", p=0.8, a=-0.25, b=1.0)):
        model = make_iid(spec)
        dec = block_martingale_decompose(model, model.sample(515, STREAM.named("dec-iid")), m=8)
        assert np.all(dec.cond_means == 0.0), spec.law


def test_decompose_refuses_an_expanding_map_path():
    # the orbit x_1..x_n records no state before x_1, and the transfer
    # operator is the kernel of the time-reversed chain
    for cfg in ({"kind": "expanding", "map": "doubling"}, {"kind": "expanding", "map": "gauss"}):
        model = model_from_config(cfg)
        path = model.sample(256, STREAM.named("dec-expanding"))
        with pytest.raises(ValueError, match="n \\+ 1 states"):
            block_martingale_decompose(model, path, m=8)


@pytest.mark.parametrize("m", [1, 3, 7, 8])
def test_alternating_block_means_are_exact(m):
    # X_k = s_k + Y_k with s_k = (-1)^k q0 and the states s_0..s_n: given
    # s_(im), the block's mean is sum_(j<=m) (-1)^j s_(im), that is
    # -s_(im) for odd m and 0 for even m, block 0 included
    model = make_alternating_plus_iid(IIDSpec(law="uniform", c=0.5))
    n = 9 * m
    path = model.sample(n, STREAM.named("dec-alternating", m))
    assert path.states.size == n + 1
    dec = block_martingale_decompose(model, path, m=m)
    starts = path.states[0:n:m]
    assert np.array_equal(dec.cond_means, -starts if m % 2 else np.zeros(9))


@pytest.mark.parametrize("name", ["circle", "iterated"])
def test_decompose_is_the_block_start_formula(name):
    # block i is conditioned on states[i m]: the sum of the first m rows of
    # the centered observable's orbit, read at the block start, to the bit
    model = (make_circle_walk(CircleWalkSpec(a=GOLDEN)) if name == "circle"
             else make_iterated_function(IteratedFunctionSpec(rho=0.5)))
    n, m = 1003, 8
    path = model.sample(n, STREAM.named("dec-formula", name))
    dec = block_martingale_decompose(model, path, m=m)
    sums = path.values[:n // m * m].reshape(-1, m).sum(axis=1)
    cond = _cond_block_means(model.kernel, model.centered_observable(),
                             np.asarray(path.states, dtype=float)[0:n // m * m:m], m)
    assert np.array_equal(dec.block_sums, sums)
    assert np.array_equal(dec.cond_means, cond)
    assert np.array_equal(dec.increments, sums - cond)
    assert dec.boundary == float(np.sum(path.values[n // m * m:]))


def test_decompose_circle_against_enumeration():
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    path = model.sample(128, STREAM.named("dec-circle"))
    dec = block_martingale_decompose(model, path, m=4, check_blocks=8)
    # check_blocks cross-validates cond means against the occupation-weight oracle
    assert dec.cond_mean_check < 1e-10
    assert dec.reconstruct() == pytest.approx(float(np.sum(path.values)),
                                              abs=1e-10)
    # no cap on m: a 20-step block is checked too
    long = block_martingale_decompose(model, path, m=20, check_blocks=8)
    assert long.cond_mean_checked and long.cond_mean_check < 1e-10


def test_iterated_cond_block_means_match_closed_form():
    # E(Y_s - 1/2 | Y_0 = y) = rho^s (y - 1/2) for Y' = rho Y + (1 - rho) U
    rho, m = 0.5, 16
    kernel = make_iterated_function(IteratedFunctionSpec(rho=rho)).kernel
    y = np.random.default_rng(5).random(1000)
    got = _cond_block_means(kernel, kernel.nodes - 0.5, y, m)
    gain = sum(rho**s for s in range(1, m + 1))
    assert np.max(np.abs(got - gain * (y - 0.5))) <= 1e-12


def test_decompose_reports_unchecked_cond_means_honestly():
    model = make_iterated_function(IteratedFunctionSpec(rho=0.5))
    path = model.sample(512, STREAM.named("dec-iterated"))
    dec = block_martingale_decompose(model, path, m=8)
    assert not dec.cond_mean_checked and math.isnan(dec.cond_mean_check)
    assert dec.reconstruct() == pytest.approx(float(np.sum(path.values)), abs=1e-10)
    circle = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    cpath = circle.sample(128, STREAM.named("dec-circle"))
    assert block_martingale_decompose(circle, cpath, m=4).cond_mean_checked


def test_decompose_martingale_increments_are_centered():
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    rows = []
    for r in range(200):
        path = model.sample(64, STREAM.named("dec-mean", r))
        dec = block_martingale_decompose(model, path, m=8)
        rows.append(dec.increments)
    means = np.mean(np.array(rows), axis=0)
    ses = np.std(np.array(rows), axis=0) / math.sqrt(200)
    assert np.all(np.abs(means) < 4.0 * ses + 1e-3)


def test_occupation_oracle_equals_coin_enumeration():
    kernel = make_circle_walk(CircleWalkSpec(
        a=GOLDEN, coeffs={1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1})).kernel
    centered = kernel.centered_coeffs()
    x0 = np.array([0.1234, 0.77, 0.5])
    for m in range(1, 13):
        # reference: walk every coin sequence, position by position
        coins = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        x = x0[:, None, None] + kernel.a * np.cumsum(2 * coins - 1, axis=1)
        want = [math.fsum(row.ravel()) / (1 << m) for row in kernel.eval_coeffs(centered, x)]
        got = _circle_block_means(kernel, x0, m)
        assert np.max(np.abs(got - want)) <= 1e-14, m


def test_naive_estimator_matches_per_replica_loop():
    model = make_iid(IIDSpec())
    n, replicas, x = 64, 2500, 1.0
    stream = STREAM.named("naive-loop")
    point = empirical_mdp_point(model, n, 1.0, x, "naive", replicas=replicas,
                                stream=stream, sigma2=1.0)
    # reference: one sampler call per replica, 1024-replica chunk ci from child ci
    t = x * math.sqrt(n)
    sub = stream.named("naive", n)
    hits = 0
    for ci, start in enumerate(range(0, replicas, 1024)):
        rng = sub.child(ci).generator()
        for _ in range(min(1024, replicas - start)):
            values, _ = model.sampler(n, rng, 1)
            hits += float(np.sum(values)) >= t
    assert point.estimate == math.log(hits / replicas)



@pytest.mark.parametrize("workers", [1, 3])
def test_naive_point_matches_serial_chunk_loop(chunk_workers, workers):
    chunk_workers(workers)
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    n, replicas, x = 64, 5000, 0.25  # 5 chunks of 1024, the last one short
    stream = STREAM.named("naive-pool")
    point = empirical_mdp_point(model, n, 1.0, x, "naive", replicas=replicas,
                                stream=stream, sigma2=0.08)  # sigma^2 = 0.0757
    sub = stream.named("naive", n)
    hits = 0
    for ci, start in enumerate(range(0, replicas, REPLICA_CHUNK)):
        block = model.sample_block(n, min(REPLICA_CHUNK, replicas - start),
                                   sub.child(ci).generator())
        hits += int(np.sum(np.sum(block, axis=1) >= point.threshold))
    p_hat = hits / replicas
    assert point.estimate == math.log(p_hat)
    assert point.se == math.sqrt((1 - p_hat) / (p_hat * replicas))


@pytest.mark.parametrize("workers", [1, 3])
def test_tilted_estimator_matches_serial_chunk_loop(chunk_workers, workers):
    chunk_workers(workers)
    spec = IIDSpec(law="uniform", c=1.0)
    n, replicas, chunk = 100, 2100, TILTED_CHUNK  # 9 chunks, the last one short
    t = 0.4 * n
    stream = STREAM.named("tilt-pool")
    est, se = tilted_is_estimator(spec, n, t, replicas, stream)
    # reference: chunk sums added in ascending ci, as the serial loop adds them
    theta = _solve_tilt(spec, t / n)
    nk = float(n * _cgf(spec)[0](theta))
    w_sum = w2_sum = 0.0
    for ci, start in enumerate(range(0, replicas, chunk)):
        x = _draw_tilted(spec, theta, (min(chunk, replicas - start), n),
                         stream.child(ci).generator())
        s = x.sum(axis=1)
        w = np.where(s >= t, np.exp(-theta * s + nk), 0.0)
        w_sum += float(np.sum(w))
        w2_sum += float(np.sum(w * w))
    mean_w = w_sum / replicas
    assert est == math.log(mean_w)
    assert se == math.sqrt(max(w2_sum / replicas - mean_w**2, 0.0) / replicas) / mean_w


SKEWED = IIDSpec(law="two_point", p=0.25, a=3.0, b=-1.0)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("spec", [IIDSpec(), SKEWED], ids=["rademacher", "skewed"])
def test_tilted_two_point_is_the_serial_binomial_loop(chunk_workers, spec, workers):
    chunk_workers(workers)
    n, replicas, chunk = 100, 2100, TILTED_CHUNK  # 9 chunks, the last one short
    t = 0.4 * n
    stream = STREAM.named("tilt-binomial")
    est, se = tilted_is_estimator(spec, n, t, replicas, stream)
    # reference: one binomial count per replica, chunk sums added in ascending ci
    theta = _solve_tilt(spec, t / n)
    nk = float(n * _cgf(spec)[0](theta))
    q_a, a, b = _tilted_two_point(spec, theta)
    w_sum = w2_sum = 0.0
    for ci, start in enumerate(range(0, replicas, chunk)):
        k = stream.child(ci).generator().binomial(n, q_a, min(chunk, replicas - start))
        s = a * k + b * (n - k)
        w = np.where(s >= t, np.exp(-theta * s + nk), 0.0)
        w_sum += float(np.sum(w))
        w2_sum += float(np.sum(w * w))
    mean_w = w_sum / replicas
    assert est == math.log(mean_w)
    assert se == math.sqrt(max(w2_sum / replicas - mean_w**2, 0.0) / replicas) / mean_w


def test_tilted_two_point_probability():
    # the tilted law puts mass proportional to p e^(theta a) on a
    for spec, theta in [(IIDSpec(), 0.7), (SKEWED, 0.3), (SKEWED, -1.2)]:
        q_a, a, b = _tilted_two_point(spec, theta)
        p = 0.5 if spec.law == "rademacher" else spec.p
        wa, wb = p * math.exp(theta * a), (1 - p) * math.exp(theta * b)
        assert q_a == pytest.approx(wa / (wa + wb), rel=1e-14)
        assert math.isclose(_cgf(spec)[1](theta), q_a * a + (1 - q_a) * b, rel_tol=1e-12)
    # no overflow where e^(theta a) is not a float
    assert _tilted_two_point(SKEWED, 1000.0)[0] == 1.0
    assert _tilted_two_point(SKEWED, -1000.0)[0] == 0.0


def test_tilted_skewed_two_point_within_6se_of_the_exact_tail():
    n, p = 200, SKEWED.p
    t = 3.0 * math.sqrt(SKEWED.variance * n)
    # S_n = 4 K - n with K ~ Binomial(n, 1/4): sum the log-space binomial tail
    k = np.arange(math.ceil((t + n) / 4), n + 1)
    exact = float(special.logsumexp(special.gammaln(n + 1) - special.gammaln(k + 1)
                                    - special.gammaln(n - k + 1)
                                    + k * math.log(p) + (n - k) * math.log1p(-p)))
    est, se = tilted_is_estimator(SKEWED, n, t, 4000, STREAM.named("tilt-skewed"))
    assert 0.0 < se < 0.1
    assert abs(est - exact) < 6.0 * se
