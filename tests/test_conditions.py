import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mdplab.conditions import (
    CLASS_L_BLOCKS,
    CLASS_L_POINTS,
    _spearman_rho,
    check_bis,
    check_class_L,
    check_kac,
    check_mw,
    check_s2inf,
    diagnose_series,
    phi_coefficients,
)
from mdplab.processes import (
    GOLDEN,
    CircleWalkSpec,
    ExpandingMapSpec,
    IIDSpec,
    make_circle_walk,
    make_expanding_map,
    make_iid,
)
from mdplab.transfer import SUP_GRID, dust_floor, stationary_distribution


# ---------------------------------------------------------------------------
# series diagnosis on known series


def test_geometric_series_converges():
    d = diagnose_series(0.9 ** np.arange(1, 200))
    assert d.verdict == "converging"
    assert d.fit_kind == "geometric"
    assert d.fit_param == pytest.approx(0.9, abs=0.01)


def test_harmonic_series_diverges():
    d = diagnose_series(1.0 / np.arange(1, 400))
    assert d.verdict == "diverging"


def test_p_series_converges():
    d = diagnose_series(np.arange(1, 400, dtype=float) ** -2.0)
    assert d.verdict == "converging"


def test_borderline_power_diverges():
    d = diagnose_series(np.arange(1, 400, dtype=float) ** -0.5)
    assert d.verdict == "diverging"


def test_growing_terms_diverge():
    d = diagnose_series(1.01 ** np.arange(1, 200))
    assert d.verdict == "diverging"


def test_floor_zeroes_dust():
    terms = 0.5 ** np.arange(1, 100)
    noisy = terms + 1e-14
    d = diagnose_series(noisy, floor=1e-12)
    assert d.verdict == "converging"


def test_all_zero_series_converges():
    d = diagnose_series(np.zeros(64))
    assert d.verdict == "converging"


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_geometric_family_always_converging(q, scale):
    d = diagnose_series(scale * q ** np.arange(1, 150))
    assert d.verdict == "converging"


@given(st.floats(min_value=0.1, max_value=0.95))
@settings(max_examples=25, deadline=None)
def test_slow_power_family_always_diverging(p):
    d = diagnose_series(np.arange(1, 300, dtype=float) ** -p)
    assert d.verdict == "diverging"


def test_partial_sums_monotone():
    d = diagnose_series(0.8 ** np.arange(1, 50))
    ps = d.partial_sums
    assert np.all(np.diff(ps) >= 0)


# ---------------------------------------------------------------------------
# projective checks on models with exact kernels


def test_iid_satisfies_both_projective_conditions():
    model = make_iid(IIDSpec())
    assert check_bis(model, n_max=256).verdict == "converging"
    assert check_mw(model, n_max=256).verdict == "converging"


def test_doubling_map_projective_conditions():
    model = make_expanding_map(ExpandingMapSpec(map="doubling", mean=0.0))
    assert check_bis(model, n_max=256).verdict == "converging"
    assert check_mw(model, n_max=256).verdict == "converging"


def test_circle_walk_projective_conditions_exact_route():
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    b = check_bis(model, n_max=256)
    m = check_mw(model, n_max=256)
    assert b.verdict == "converging"
    assert m.verdict == "converging"
    # exact mode arithmetic: term n is n^(-1/2) |cos 2 pi a|^n
    alpha = abs(np.cos(2 * np.pi * GOLDEN))
    n = np.arange(1, 257, dtype=float)
    assert np.allclose(b.terms, n ** -0.5 * alpha**n, atol=1e-12)


@pytest.mark.parametrize("coeffs", [
    {1: 0.5, -1: 0.5},
    {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1, 5: -0.05j, -5: 0.05j},
])
def test_circle_bis_and_mw_norms_equal_the_mode_closed_forms(coeffs):
    # K multiplies mode k by m_k = cos 2 pi k a, so K^n f and sum_{s<=n} K^s f
    # have closed-form coefficients; their sup is read where the kernel
    # reads it, on its nodes and on the uniform grid j/SUP_GRID
    model = make_circle_walk(CircleWalkSpec(a=GOLDEN, coeffs=coeffs))
    kernel, n_max = model.kernel, 256
    x = np.concatenate([kernel.nodes, np.linspace(0.0, 1.0, SUP_GRID + 1)])
    ks = np.array(sorted(coeffs))
    c = np.array([coeffs[k] for k in ks])
    m = np.cos(2 * np.pi * ks * GOLDEN)
    n = np.arange(1, n_max + 1)[:, None]
    waves = np.exp(2j * np.pi * np.outer(ks, x))

    def sup(mode_coeffs):
        return np.max(np.abs((mode_coeffs @ waves).real), axis=1)

    powers = sup(c * m**n)
    sums = sup(c * m * (1 - m**n) / (1 - m))
    bis = check_bis(model, n_max=n_max)
    # check_bis zeroes terms at or below its dust floor, so that is the
    # absolute tolerance of the comparison
    floor = dust_floor(model.centered_observable())
    assert np.allclose(bis.terms, n[:, 0] ** -0.5 * powers, rtol=1e-13, atol=floor)
    assert bis.terms[0] > 1e3 * floor
    mw = check_mw(model, n_max=n_max)
    assert np.allclose(mw.extra["cond_sum_norms"], sums, rtol=1e-13, atol=0.0)
    assert np.allclose(kernel.cond_sum_sup_norms(n_max), sums, rtol=1e-13, atol=0.0)


def test_s2inf_decreases_for_iid():
    model = make_iid(IIDSpec())
    devs, ok = check_s2inf(model, 1.0, [16, 64, 256])
    assert ok


def test_spearman_rho_matches_scipy_stats_with_ties():
    rng = np.random.default_rng(3)
    for trial in range(400):
        n = int(rng.integers(3, 30))
        x = rng.random(n) if trial % 2 else rng.integers(0, 5, n).astype(float)
        y = rng.random(n) if trial % 3 else rng.integers(0, 3, n).astype(float)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        want = stats.spearmanr(x, y)[0]
        got = _spearman_rho(x, y)
        assert got == pytest.approx(want, abs=1e-14)
        if abs(want) > 1e-12:
            assert np.sign(got) == np.sign(want)


def test_spearman_rho_exact_cases():
    assert _spearman_rho([1, 2, 3, 4], [8.0, 6.0, 6.0, 1.0]) < 0
    assert _spearman_rho([1, 2, 3], [1.0, 2.0, 3.0]) == 1.0
    # tied ranks that cancel give an exact zero, not rounding dust of either sign
    assert _spearman_rho([1, 2, 3], [1.0, 0.0, 1.0]) == 0.0
    # a constant input has no rank correlation, as in scipy.stats.spearmanr
    assert np.isnan(_spearman_rho([1, 2, 3], [2.0, 2.0, 2.0]))


# ---------------------------------------------------------------------------
# modulus class membership


def test_class_L_gamma_threshold():
    # c(t) = |log t|^(-gamma): integrable against 1/(t sqrt|log t|) iff gamma > 1/2
    verdicts = {}
    for gamma in (0.3, 0.75):
        c = lambda t, g=gamma: abs(np.log(t)) ** (-g) if t > 0 else 0.0
        verdicts[gamma] = check_class_L(c)[0]
    assert verdicts[0.3] == "diverging"
    assert verdicts[0.75] == "converging"


def test_class_L_power_modulus_converges():
    # c(t) = sqrt(t) integrates easily
    verdict, estimate, blocks = check_class_L(lambda t: np.sqrt(t))
    assert verdict == "converging"
    # oracle: int_0^(1/2) t^(-1/2) / sqrt(|log t|) dt ~= 0.906 (quadrature)
    from scipy.integrate import quad
    ref, _ = quad(lambda t: np.sqrt(t) / (t * np.sqrt(abs(np.log(t)))), 0, 0.5)
    assert estimate == pytest.approx(ref, rel=0.02)


def _class_L_blocks_per_block(c):
    # the per-block loop check_class_L replaced, kept as its reference
    blocks = np.empty(CLASS_L_BLOCKS)
    for j in range(1, CLASS_L_BLOCKS + 1):
        t = np.linspace(2.0 ** (-j - 1), 2.0 ** (-j), CLASS_L_POINTS)
        g = np.array([c(ti) / (ti * np.sqrt(abs(np.log(ti)))) for ti in t])
        blocks[j - 1] = np.trapezoid(g, t)
    return blocks


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.6, 0.75, 1.0, None])
def test_class_L_blocks_equal_the_per_block_loop(gamma):
    # criterion 6's five moduli |log t|^(-gamma), and sqrt(t)
    c = np.sqrt if gamma is None else (lambda t: abs(math.log(t)) ** (-gamma))
    assert np.array_equal(check_class_L(c)[2], _class_L_blocks_per_block(c))


def test_kac_criterion_reports_integral():
    d = check_kac(lambda h: np.sqrt(h), lambda n: 0.5**n, width=1.0, n_max=500)
    assert d.verdict == "converging"
    assert "integral_estimate" in d.extra


# ---------------------------------------------------------------------------
# mixing coefficients


def test_phi_coefficients_two_state_oracle():
    P = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi = stationary_distribution(P)
    phis = phi_coefficients(P, pi, 8)
    # second eigenvalue lambda = 0.6; P^n - pi decays like lambda^n and the
    # maximal positive-part deviation is pi-weighted: hand-check n = 1, 2
    for n in (1, 2):
        Pn = np.linalg.matrix_power(P, n)
        expect = max(np.sum(np.clip(Pn[x] - pi, 0, None)) for x in range(2))
        assert phis[n - 1] == pytest.approx(expect, abs=1e-14)
    ratios = phis[1:] / phis[:-1]
    assert np.allclose(ratios, 0.6, atol=1e-10)


def test_phi_coefficients_reject_bad_inputs():
    P = np.array([[0.9, 0.1], [0.3, 0.7]])
    with pytest.raises(ValueError):
        phi_coefficients(P, np.array([0.5, 0.5]), 4)
