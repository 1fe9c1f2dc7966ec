import math

import numpy as np
import pytest
from scipy import stats

from mdplab.core import ProcessModel, RngStream
from mdplab.inequalities import (
    azuma_bound,
    blocking_bound_first_term,
    clopper_pearson_upper,
    grade_domination,
    projection_bound,
    puw_bound,
    rademacher_max_tail,
    sample_maxima,
    verify_domination,
)
from mdplab.processes import (
    GOLDEN,
    CircleWalkSpec,
    IIDSpec,
    LinearProcessSpec,
    make_circle_walk,
    make_iid,
    make_linear_process,
)

STREAM = RngStream(777)


def test_azuma_hand_value():
    # 2 exp(-t^2 / (2 n c^2)) at n=100, c=1, t=20: 2 e^-2
    assert azuma_bound(100, 1.0, 20.0) == pytest.approx(2.0 * math.exp(-2.0),
                                                        abs=1e-14)


def test_azuma_monotone_in_t():
    ts = np.linspace(0.0, 50.0, 20)
    vals = [azuma_bound(100, 1.0, t) for t in ts]
    assert np.all(np.diff(vals) <= 0)


def test_puw_reduces_to_scaled_azuma_without_memory():
    # with zero conditional norms the exponent matches azuma up to the 4 sqrt(e)
    n, t, x_inf = 64, 10.0, 1.0
    got = puw_bound(n, t, x_inf, np.zeros(n))
    expect = 4.0 * math.sqrt(math.e) * math.exp(-(t**2) / (2.0 * n * x_inf**2))
    assert got == pytest.approx(expect, rel=1e-12)


def test_puw_memory_widens_the_bound():
    n, t = 64, 10.0
    quiet = puw_bound(n, t, 1.0, np.zeros(n))
    loud = puw_bound(n, t, 1.0, 0.5 ** np.arange(1, n + 1))
    assert loud > quiet


def test_projection_bound_shapes():
    moment, tail = projection_bound(16, 2.0, np.ones(16), [1.0])
    # tail = 8 exp(-x^2 / (2 G^2 D^2)) with D = 1, G^2 = 16
    assert tail == pytest.approx(8.0 * math.exp(-4.0 / (2.0 * 16.0)), rel=1e-12)
    # moment bound at t: 4 exp(G^2 D^2 t^2 / 2)
    assert moment(0.5) == pytest.approx(4.0 * math.exp(0.5 * 16.0 * 0.25), rel=1e-12)


def test_blocking_guard():
    with pytest.raises(ValueError):
        # c*B/n far above delta/2
        blocking_bound_first_term(n=100, B=50.0, c=10, delta=0.1)
    v = blocking_bound_first_term(n=10_000, B=1.0, c=4, delta=0.5)
    assert 0.0 < v < 2.0


def test_clopper_pearson_matches_beta_quantile():
    k, n = 7, 100
    expect = stats.beta.ppf(0.95, k + 1, n - k)
    assert clopper_pearson_upper(k, n) == pytest.approx(expect, abs=1e-14)
    assert clopper_pearson_upper(0, 50) > 0.0
    assert clopper_pearson_upper(50, 50) == 1.0


def test_clopper_pearson_equals_scipy_stats_on_a_grid():
    # the library reads the quantile off scipy.special; it must equal the
    # scipy.stats distribution's ppf to the bit
    for n in list(range(1, 60)) + [1000, 4096, 100_000, 10**6]:
        ks = range(n) if n < 60 else sorted({*range(40), *range(0, n, n // 97), n - 1})
        for confidence in (0.5, 0.95, 0.99):
            for k in ks:
                want = float(stats.beta.ppf(confidence, k + 1, n - k))
                assert clopper_pearson_upper(k, n, confidence) == want, (k, n, confidence)


def test_verify_domination_iid_azuma():
    model = make_iid(IIDSpec())
    n = 64
    # thresholds where 2000 replicas resolve the bound (the acceptance pass
    # pushes to 4 sigma sqrt(n) with 10^5 replicas)
    thresholds = [2.5 * math.sqrt(n), 3.0 * math.sqrt(n)]
    reports = verify_domination(model, {"kind": "azuma", "c": 1.0},
                                thresholds, replicas=2000, n=n,
                                stream=STREAM.named("dom"))
    assert all(r.verdict == "dominated" for r in reports)
    assert all(r.ci_upper <= r.bound for r in reports)


def test_verify_domination_deterministic():
    model = make_iid(IIDSpec())
    kw = dict(thresholds=[20.0], replicas=1000, n=64)
    a = verify_domination(model, {"kind": "azuma"}, stream=STREAM.named("det"), **kw)
    b = verify_domination(model, {"kind": "azuma"}, stream=STREAM.named("det"), **kw)
    assert a[0].p_hat == b[0].p_hat
    assert a[0].ci_upper == b[0].ci_upper


def test_verify_domination_rejects_inconsistent_spec():
    model = make_iid(IIDSpec())  # bound 1
    with pytest.raises(ValueError):
        verify_domination(model, {"kind": "azuma", "c": 0.5}, [10.0],
                          replicas=1000, n=32, stream=STREAM.named("bad"))


def test_verify_domination_replica_floor():
    model = make_iid(IIDSpec())
    with pytest.raises(ValueError):
        verify_domination(model, {"kind": "azuma"}, [10.0],
                          replicas=10, n=32, stream=STREAM.named("few"))


def test_verify_domination_matches_per_replica_loop():
    model = make_iid(IIDSpec())
    n, replicas, chunk = 64, 2500, 1024
    thresholds = [24.0, 32.0, 40.0]
    stream = STREAM.named("dom-loop")
    reports = verify_domination(model, {"kind": "azuma", "c": 1.0}, thresholds,
                                replicas, n, stream, chunk=chunk)
    # reference: one sampler call per replica, chunk ci from stream.child(ci)
    maxima = []
    for ci, start in enumerate(range(0, replicas, chunk)):
        rng = stream.child(ci).generator()
        for _ in range(min(chunk, replicas - start)):
            values, _ = model.sampler(n, rng)
            maxima.append(np.max(np.abs(np.cumsum(values))))
    maxima = np.array(maxima)
    for rep, t in zip(reports, thresholds):
        assert rep.p_hat == np.sum(maxima >= t) / replicas



POOL_MODELS = {
    "iid": lambda: make_iid(IIDSpec()),
    "circle": lambda: make_circle_walk(CircleWalkSpec(a=GOLDEN)),
    "linear": lambda: make_linear_process(LinearProcessSpec(
        coeff_kind="geometric", C=0.25, rho=0.5)),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("key", sorted(POOL_MODELS))
def test_verify_domination_matches_serial_chunk_loop(chunk_workers, key, workers):
    chunk_workers(workers)
    model = POOL_MODELS[key]()
    n, replicas, chunk = 48, 2300, 256  # 9 chunks, the last one short
    stream = STREAM.named(f"dom-pool-{key}")
    # reference: the chunks one after another, out-of-place arithmetic
    maxima = []
    for ci, start in enumerate(range(0, replicas, chunk)):
        block = model.sample_block(n, min(chunk, replicas - start),
                                   stream.child(ci).generator())
        maxima.append(np.max(np.abs(np.cumsum(block, axis=1)), axis=1))
    maxima = np.concatenate(maxima)
    # every observed maximum is a threshold, so each replica's value is pinned
    thresholds = np.unique(maxima)
    reports = verify_domination(model, {"kind": "azuma"}, thresholds, replicas, n,
                                stream, chunk=chunk)
    assert [r.p_hat for r in reports] == \
        [np.sum(maxima >= t) / replicas for t in thresholds]


@pytest.mark.parametrize("workers", [1, 3])
def test_verify_domination_reraises_chunk_3_bound_error(chunk_workers, workers):
    chunk_workers(workers)
    stream = STREAM.named("dom-bad-chunk")
    bad_key = stream.child(3).generator().bit_generator.state["state"]["key"]

    def sampler(n, rng, reps=None):
        values = rng.integers(0, 2, (reps, n)) * 2.0 - 1.0
        if np.array_equal(rng.bit_generator.state["state"]["key"], bad_key):
            values[-1, -1] = 1.5  # only chunk 3 breaks the bound
        return values

    model = ProcessModel(name="chunk3", bound=1.0, sampler=sampler)
    with pytest.raises(RuntimeError, match="exceeds bound"):
        verify_domination(model, {"kind": "azuma"}, [10.0], replicas=2000, n=16,
                          stream=stream, chunk=256)


def test_verify_domination_is_sample_then_grade():
    model = make_iid(IIDSpec())
    n, replicas, thresholds = 64, 2100, [16.0, 24.0, 20.0]
    stream = STREAM.named("split")
    whole = verify_domination(model, {"kind": "puw", "x_inf": 1.0}, thresholds,
                              replicas, n, stream, chunk=512)
    maxima = sample_maxima(model, replicas, n, stream, chunk=512)
    split = grade_domination(model, {"kind": "puw", "x_inf": 1.0}, thresholds, maxima, n)
    assert whole == split
    assert [r.threshold for r in split] == sorted(thresholds)


@pytest.mark.parametrize("t,p", [(32, 0.0914235), (40, 0.0248812), (48, 0.00536446),
                                 (56, 0.000909468), (64, 0.000120416)])
def test_rademacher_max_tail_at_n_256(t, p):
    assert rademacher_max_tail(256, t) == pytest.approx(p, rel=1e-5)


@pytest.mark.parametrize("n", [1, 2, 5, 11, 16])
def test_rademacher_max_tail_equals_enumeration(n):
    # every one of the 2^n sign paths, max_k |S_k| counted exactly
    signs = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1) * 2 - 1
    maxima = np.max(np.abs(np.cumsum(signs, axis=1)), axis=1)
    for t in [0, 0.5, 1, 1.5, 2, 3, n / 2, n, n + 1]:
        assert rademacher_max_tail(n, t) == int(np.sum(maxima >= t)) / 2**n, t
