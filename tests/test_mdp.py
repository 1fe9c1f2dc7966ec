import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mdplab.core import RngStream, SpeedSequence
from mdplab.mdp import (
    PiecewiseLinearPath,
    _cgf,
    _cond_block_means,
    _draw_tilted,
    _enum_circle_block_mean,
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
    make_circle_walk,
    make_iid,
    make_iterated_function,
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
    assert pt.gap(1.0) == pytest.approx(pt.estimate + 0.5, abs=1e-12)


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
    assert rep.gap_trend_ok()


# ---------------------------------------------------------------------------
# block-martingale decomposition


def test_decompose_iid_conditional_means_vanish():
    model = make_iid(IIDSpec())
    path = model.sample(512, STREAM.named("dec-iid"))
    dec = block_martingale_decompose(model, path, m=8)
    assert np.max(np.abs(dec.cond_means)) < 1e-12
    s_n = float(np.sum(path.values))
    assert dec.reconstruct() == pytest.approx(s_n, abs=1e-10)


def test_decompose_circle_against_enumeration():
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    path = model.sample(128, STREAM.named("dec-circle"))
    dec = block_martingale_decompose(model, path, m=4, check_blocks=8)
    # check_blocks cross-validates cond means against exhaustive 2^m coins
    assert dec.cond_mean_check < 1e-10
    assert dec.reconstruct() == pytest.approx(float(np.sum(path.values)),
                                              abs=1e-10)


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
    # beyond m = 12 enumeration is not run, so nothing was checked
    long = block_martingale_decompose(circle, cpath, m=16)
    assert not long.cond_mean_checked and math.isnan(long.cond_mean_check)


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


def test_enumeration_oracle_matches_scalar_loop():
    kernel = make_circle_walk(CircleWalkSpec(
        a=GOLDEN, coeffs={1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1})).kernel
    centered = kernel.centered_coeffs()
    for x0, m in ((0.1234, 1), (0.77, 5), (0.5, 8)):
        # reference: walk every coin sequence step by step, summing as it goes
        total = 0.0
        for bits in range(1 << m):
            x = x0
            for s in range(m):
                x = x + (kernel.a if (bits >> s) & 1 else -kernel.a)
                total += float(kernel.eval_coeffs(centered, np.array([x]))[0])
        assert _enum_circle_block_mean(kernel, x0, m) == total / (1 << m)


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
            values, _ = model.sampler(n, rng)
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
    for ci, start in enumerate(range(0, replicas, 1024)):
        block = model.sample_block(n, min(1024, replicas - start),
                                   sub.child(ci).generator())
        hits += int(np.sum(np.sum(block, axis=1) >= point.threshold))
    p_hat = hits / replicas
    assert point.estimate == math.log(p_hat)
    assert point.se == math.sqrt((1 - p_hat) / (p_hat * replicas))


@pytest.mark.parametrize("workers", [1, 3])
def test_tilted_estimator_matches_serial_chunk_loop(chunk_workers, workers):
    chunk_workers(workers)
    spec = IIDSpec(law="uniform", c=1.0)
    n, replicas, chunk = 100, 2100, 256  # 9 chunks, the last one short
    t = 0.4 * n
    stream = STREAM.named("tilt-pool")
    est, se = tilted_is_estimator(spec, n, t, replicas, stream, chunk=chunk)
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
    n, replicas, chunk = 100, 2100, 256  # 9 chunks, the last one short
    t = 0.4 * n
    stream = STREAM.named("tilt-binomial")
    est, se = tilted_is_estimator(spec, n, t, replicas, stream, chunk=chunk)
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
