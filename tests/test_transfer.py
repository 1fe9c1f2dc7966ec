import numpy as np
import pytest

from mdplab.transfer import (
    ChebyshevKernel,
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
    orbit,
    pf_duality_gap,
    stationary_distribution,
    sup_norm_decay,
    total_variation_norm,
    witness_un,
    _geometric_fit,
)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
WIRSING = 0.3036630028987326  # |lambda_2| of the Gauss map's transfer operator

SPECTRAL = {
    "beta2": (lambda: ChebyshevKernel.integer_beta(2), 0.5),
    "beta3": (lambda: ChebyshevKernel.integer_beta(3), 1.0 / 3.0),
    "iterated": (lambda: ChebyshevKernel.iterated(0.5), 0.5),
    "gauss": (lambda: ChebyshevKernel.gauss(), WIRSING),
}


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



def test_circle_sup_norms_bit_identical_to_per_n_evaluation():
    # the mode basis is computed once per mode; each n must still give the
    # bits of a fresh eval_coeffs call on that n's coefficients
    x = np.linspace(0.0, 1.0, 8192, endpoint=False)
    for coeffs in ({1: 0.5, -1: 0.5},
                   {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1, 5: -0.05j, -5: 0.05j}):
        k = CircleFourierKernel(GOLDEN, coeffs)
        centered = k.centered_coeffs()
        powers = [np.max(np.abs(k.eval_coeffs(k.power_coeffs(n, centered), x)))
                  for n in range(1, 65)]
        sums = [np.max(np.abs(k.cond_sum_eval(n, x))) for n in range(1, 65)]
        assert list(k.sup_norm_powers(64)) == powers
        assert list(k.cond_sum_sup_norms(64)) == sums


# ---------------------------------------------------------------------------
# spectral (Chebyshev) kernels


def _in_chebyshev_basis(kernel):
    """The kernel's matrix acting on Chebyshev coefficients instead of node values."""
    V = np.polynomial.chebyshev.chebvander(2.0 * kernel.nodes - 1.0, kernel.nodes.size - 1)
    return np.linalg.solve(V, kernel.matrix @ V)


@pytest.mark.parametrize("name,rate", [("beta2", 0.5), ("beta3", 1.0 / 3.0),
                                       ("iterated", 0.5)])
def test_spectral_polynomial_kernels_have_eigenvalues_rate_powers(name, rate):
    # K maps degree-d polynomials to degree-d polynomials with leading factor
    # rate^d, so in the Chebyshev basis the matrix is upper triangular with
    # diagonal rate^d: the eigenvalue of each invariant subspace P_d. A dense
    # eigensolver on node values resolves beta^-2 and beta^-3 only to ~1e-13
    # and ~4e-12, their condition numbers being ~1e3 and ~1e5.
    C = _in_chebyshev_basis(SPECTRAL[name][0]())
    assert np.max(np.abs(np.tril(C, -1))) <= 1e-13
    k = np.arange(4)
    assert np.max(np.abs(np.diag(C)[:4] - rate**k)) <= 1e-13
    ev = np.sort(np.abs(np.linalg.eigvals(C[:4, :4])))[::-1]
    assert np.max(np.abs(ev - rate**k)) <= 1e-13
    top = np.sort(np.abs(np.linalg.eigvals(SPECTRAL[name][0]().matrix)))[::-1]
    assert np.max(np.abs(top[:2] - rate**k[:2])) <= 1e-13


def test_spectral_gauss_second_eigenvalue_is_wirsing():
    k = ChebyshevKernel.gauss()
    ev = np.sort(np.abs(np.linalg.eigvals(k.matrix)))[::-1]
    assert abs(ev[0] - 1.0) <= 1e-13
    assert abs(ev[1] - WIRSING) <= 1e-10


@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_spectral_rows_sum_to_one_and_mu_is_invariant(name):
    k = SPECTRAL[name][0]()
    assert np.max(np.abs(k.matrix.sum(axis=1) - 1.0)) <= 1e-13
    assert abs(k.mu(np.ones_like(k.nodes)) - 1.0) <= 1e-14
    f = np.exp(k.nodes) * np.sin(3.0 * k.nodes)
    assert abs(k.mu(k.apply(f)) - k.mu(f)) <= 1e-14


@pytest.mark.parametrize("beta", [2, 3])
def test_spectral_beta_kills_cos_on_the_sup_grid(beta):
    k = ChebyshevKernel.integer_beta(beta)
    assert k.sup(k.apply(np.cos(2 * np.pi * k.nodes))) <= 1e-14


@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_spectral_sup_covers_the_nodes_and_the_grid(name):
    k = SPECTRAL[name][0]()
    rng = np.random.default_rng(7)
    block = rng.standard_normal((100, k.nodes.size))
    sups = k.sup(block)
    assert np.all(sups >= np.max(np.abs(block), axis=1))
    # one row alone goes through a different BLAS kernel: equal to rounding
    assert sups[3] == pytest.approx(k.sup(block[3]), rel=1e-14)
    # the sup grid sees what the nodes miss: no node sits at the peak x = 1/2
    bump = 4.0 * k.nodes * (1.0 - k.nodes)
    assert np.max(bump) < 0.999
    assert k.sup(bump) == pytest.approx(1.0, abs=1e-14)


def test_spectral_eval_interpolates_smooth_functions():
    k = ChebyshevKernel.integer_beta(2)
    y = np.linspace(0.0, 1.0, 333)
    f = lambda x: np.exp(np.sin(2.0 * x)) / (1.5 + x)
    assert np.max(np.abs(k.eval(f(k.nodes), y) - f(y))) <= 1e-14
    assert k.eval(f(k.nodes), k.nodes[5:6])[0] == f(k.nodes)[5]


@pytest.mark.parametrize("name,grid", [
    ("beta2", lambda: IntegerBetaPFKernel(2)),
    ("beta3", lambda: IntegerBetaPFKernel(3)),
    ("iterated", lambda: IteratedFunctionKernel(0.5)),
    ("gauss", lambda: GaussPFKernel()),
])
def test_spectral_agrees_with_grid_reference_on_smooth_f(name, grid):
    # the 4097-node grid is second-order accurate on smooth f: ~1e-7 here
    spec, ref = SPECTRAL[name][0](), grid()
    f = lambda x: np.sin(2 * np.pi * x) + x * x
    v_spec, v_grid = f(spec.nodes), f(ref.nodes)
    for _ in range(3):
        v_spec, v_grid = spec.apply(v_spec), ref.apply(v_grid)
        assert np.max(np.abs(spec.eval(v_spec, ref.nodes) - v_grid)) <= 1e-6
        assert np.max(np.abs(ref.eval(v_grid, spec.nodes) - v_spec)) <= 1e-6
    assert spec.mu(f(spec.nodes)) == pytest.approx(ref.mu(f(ref.nodes)), abs=1e-6)


@pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_spectral_decay_fit_recovers_the_rate(name, scale):
    build, rate = SPECTRAL[name]
    k = build()
    f = scale * (k.nodes - k.mu(k.nodes))
    rep = sup_norm_decay(k, f, 64)
    assert not rep.diverged
    assert abs(rep.rho / rate - 1.0) <= 1e-3


@pytest.mark.parametrize("beta", [2, 3])
def test_decay_fit_ignores_rounding_dust(beta):
    # u_n = beta^-n / 2 ends on a ~1e-15 rounding plateau; fitted through,
    # the plateau pulls the rate towards 1
    k = ChebyshevKernel.integer_beta(beta)
    rep = sup_norm_decay(k, k.nodes - k.mu(k.nodes), 64)
    assert abs(rep.rho * beta - 1.0) <= 1e-3
    assert _geometric_fit(rep.u)[1] * beta > 1.1


def test_orbit_rows_are_kernel_powers():
    k = FiniteStateKernel(np.array([[0.7, 0.3], [0.2, 0.8]]), states=np.array([0.0, 1.0]))
    f = np.array([1.0, -2.0])
    rows = orbit(k, f, 5)
    assert rows.shape == (5, 2)
    for n in range(1, 6):
        assert np.allclose(rows[n - 1], np.linalg.matrix_power(k.P, n) @ f, atol=1e-15)


def test_sup_norm_decay_with_no_steps_returns_empty():
    k = ChebyshevKernel.integer_beta(2)
    r = sup_norm_decay(k, np.cos(2 * np.pi * k.nodes), 0)
    assert r.u.shape == (0,) and r.rho is None
    assert k.sup(np.zeros((0, k.nodes.size))).shape == (0,)
