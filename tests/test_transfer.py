import numpy as np
import pytest

from mdplab.transfer import (
    CircleFourierKernel,
    FiniteStateKernel,
    GaussPFKernel,
    GridFunction,
    IntegerBetaPFKernel,
    IteratedFunctionKernel,
    apply_kernel_circle,
    apply_pf_integer_beta,
    check_bv_contraction,
    conditional_sum_norm,
    conditional_sum_norm_profile,
    modulus_bound_check,
    pf_duality_gap,
    stationary_distribution,
    sup_norm_decay,
    total_variation_norm,
    witness_un,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# grid functions and raw operator applications


def test_grid_function_integral_and_eval():
    g = GridFunction.from_callable(lambda x: x, n_points=4097)
    assert g.integral() == pytest.approx(0.5, abs=1e-10)
    assert g.eval(0.25) == pytest.approx(0.25, abs=1e-10)
    assert g.eval_periodic(1.25) == pytest.approx(0.25, abs=1e-10)


def test_pf_preserves_lebesgue_constant():
    g = GridFunction.from_callable(lambda x: np.ones_like(x), n_points=257)
    out = apply_pf_integer_beta(g, 3)
    assert np.allclose(out.values, 1.0, atol=1e-14)


def test_pf_preserves_integral():
    g = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x) ** 2 + x,
                                   n_points=4097)
    out = apply_pf_integer_beta(g, 2)
    assert out.integral() == pytest.approx(g.integral(), abs=1e-8)


def test_pf_kills_odd_harmonic_exactly():
    # f(t + 1/2) = -f(t) makes the doubling-map averages cancel node by node
    g = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), n_points=1024)
    out = apply_pf_integer_beta(g, 2)
    assert np.max(np.abs(out.values)) < 1e-13


def test_rotation_operator_shifts():
    g = GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), n_points=2048)
    out = apply_kernel_circle(g, 0.25)
    # (K f)(x) = (f(x+a) + f(x-a))/2 = cos(2 pi a) cos(2 pi x)
    expect = np.cos(2 * np.pi * 0.25) * g.values
    assert np.max(np.abs(out.values - expect)) < 1e-10


def test_total_variation_hand_values():
    g = GridFunction(values=np.array([0.0, 1.0, 0.0, 1.0, 0.0]))
    assert total_variation_norm(g) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# kernels


def test_doubling_kernel_mu_and_apply():
    k = IntegerBetaPFKernel(2, n_points=1024)
    f = np.cos(2 * np.pi * k.nodes)
    assert abs(k.mu(f)) < 1e-12
    assert np.max(np.abs(k.apply(f))) < 1e-13


def test_gauss_kernel_weights_telescope():
    k = GaussPFKernel(n_points=512)
    # total branch weight at every node is exactly 1 (telescoping sum)
    ones = np.ones(k.n_points)
    assert np.max(np.abs(k.apply(ones) - 1.0)) < 1e-10


def test_gauss_kernel_invariant_measure():
    k = GaussPFKernel(n_points=2048)
    f = np.sin(2 * np.pi * k.nodes)
    # mu(K f) = mu(f) under the invariant density 1/((1+x) log 2)
    assert k.mu(k.apply(f)) == pytest.approx(k.mu(f), abs=1e-6)


def test_circle_kernel_multiplier_and_powers():
    k = CircleFourierKernel(GOLDEN, {1: 0.5, -1: 0.5})
    m = np.cos(2 * np.pi * GOLDEN)
    assert k.multiplier(1) == pytest.approx(m, abs=1e-14)
    # K^n f has sup norm 2 * 0.5 * |m|^n for the single-mode pair
    sup = k.sup_norm_powers(16)
    assert np.allclose(sup, np.abs(m) ** np.arange(1, 17), atol=1e-12)


def test_circle_kernel_cond_sum_matches_geometric_series():
    k = CircleFourierKernel(GOLDEN, {1: 0.5, -1: 0.5})
    m = np.cos(2 * np.pi * GOLDEN)
    x = 0.1234
    n = 12
    direct = sum(m**j * np.cos(2 * np.pi * (x)) for j in range(1, n + 1))
    got = k.cond_sum_eval(n, np.array([x]))[0]
    assert got == pytest.approx(m * (1 - m**n) / (1 - m) * np.cos(2 * np.pi * x),
                                abs=1e-12)
    assert got == pytest.approx(direct, abs=1e-12)


def test_finite_state_kernel_against_eigen_oracle():
    P = np.array([[0.9, 0.1], [0.4, 0.6]])
    pi = stationary_distribution(P)
    w, v = np.linalg.eig(P.T)
    i = np.argmin(np.abs(w - 1.0))
    pi_eig = np.real(v[:, i])
    pi_eig /= pi_eig.sum()
    assert np.allclose(pi, pi_eig, atol=1e-12)
    k = FiniteStateKernel(P, states=np.array([-1.0, 1.0]))
    f = np.array([2.0, -3.0])
    assert np.allclose(k.apply(f), P @ f, atol=1e-14)
    assert k.mu(f) == pytest.approx(float(pi @ f), abs=1e-12)


def test_iterated_function_kernel_contraction_report():
    k = IteratedFunctionKernel(rho=0.5, n_points=512)
    f = np.sin(2 * np.pi * k.nodes)
    rep = sup_norm_decay(k, f - k.mu(f), 32)
    assert not rep.diverged
    assert rep.rho < 0.75


# ---------------------------------------------------------------------------
# decay reports and derived norms


def test_sup_norm_decay_rate_doubling():
    k = IntegerBetaPFKernel(2, n_points=2048)
    f = k.nodes - 0.5
    rep = sup_norm_decay(k, f, 24)
    assert not rep.diverged
    assert rep.rho == pytest.approx(0.5, abs=0.01)


def test_sup_norm_decay_flags_non_decay():
    P = np.array([[0.0, 1.0], [1.0, 0.0]])  # period-2 chain: no mixing
    k = FiniteStateKernel(P, states=np.array([-1.0, 1.0]))
    f = np.array([1.0, -1.0])
    rep = sup_norm_decay(k, f, 16)
    assert rep.diverged or rep.rho > 0.99


def test_witness_un_monotone_envelope():
    k = IntegerBetaPFKernel(2, n_points=1024)
    u = witness_un(k, 16)
    assert u.shape == (16,)
    assert np.all(u >= -1e-15)


def test_conditional_sum_norm_profile_consistency():
    k = FiniteStateKernel(np.array([[0.7, 0.3], [0.2, 0.8]]),
                          states=np.array([0.0, 1.0]))
    f = k.nodes - k.mu(k.nodes)
    prof = conditional_sum_norm_profile(k, f, 8)
    assert prof.shape == (8,)
    for n in (1, 4, 8):
        assert prof[n - 1] == pytest.approx(conditional_sum_norm(k, f, n), abs=1e-14)


def test_bv_contraction_check():
    k = IntegerBetaPFKernel(2, n_points=1024)
    tests = [GridFunction.from_callable(lambda x: np.cos(2 * np.pi * x), 1024),
             GridFunction.from_callable(lambda x: (x - 0.5) ** 2, 1024),
             GridFunction.from_callable(lambda x: np.abs(x - 0.3), 1024)]
    kappa, rho, resid, contracting = check_bv_contraction(k, tests, n_max=12)
    assert contracting and rho < 1.0


def test_modulus_bound_check_linear_observable():
    k = IntegerBetaPFKernel(2, n_points=1024)
    f = k.nodes - 0.5
    margins, violations = modulus_bound_check(k, f, lambda h: h, n_max=8)
    assert len(margins) == 8
    assert violations == []


def test_pf_duality_gap_small():
    h = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x) + x, 4097)
    f = GridFunction.from_callable(lambda x: x * (1 - x), 4097)
    assert pf_duality_gap(2, h, f) < 1e-6


def test_circle_eval_coeffs_matches_complex_sum():
    x = np.linspace(-0.3, 1.7, 1001)
    for coeffs in ({1: 0.5, -1: 0.5},
                   {0: 0.25, 1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 3: -0.1j, -3: 0.1j},
                   {2: 1.0 + 1.0j}):
        ref = sum(c * np.exp(2j * np.pi * k * x) for k, c in coeffs.items()).real
        got = CircleFourierKernel.eval_coeffs(coeffs, x)
        tol = 8 * np.finfo(float).eps * sum(abs(c) for c in coeffs.values())
        assert np.max(np.abs(got - ref)) <= tol

