import numpy as np
import pytest
from scipy.special import digamma

from mdplab.conditions import check_bis, check_mw
from mdplab.processes import IIDSpec, make_alternating_plus_iid
from mdplab.transfer import (
    ChebyshevKernel,
    CircleFourierKernel,
    FiniteStateKernel,
    GaussPFKernel,
    GridFunction,
    IntegerBetaPFKernel,
    IteratedFunctionKernel,
    SUP_GRID,
    apply_pf_integer_beta,
    conditional_square_norm,
    conditional_sum_norm_profile,
    dust_floor,
    orbit,
    pf_duality_gap,
    stationary_distribution,
    sup_norm_decay,
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


def test_circle_kernel_cond_sum_matches_geometric_series():
    k = CircleFourierKernel(GOLDEN, {1: 0.5, -1: 0.5})
    m = np.cos(2 * np.pi * GOLDEN)
    x = 0.1234
    n = 12
    direct = sum(m**j * np.cos(2 * np.pi * (x)) for j in range(1, n + 1))
    f = np.cos(2 * np.pi * k.nodes)
    got = k.eval(np.sum(orbit(k, f, n), axis=0), np.array([x]))[0]
    assert got == pytest.approx(m * (1 - m**n) / (1 - m) * np.cos(2 * np.pi * x),
                                abs=1e-12)
    assert got == pytest.approx(direct, abs=1e-12)


MULTI_MODE = {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1, 5: -0.05j, -5: 0.05j}


@pytest.mark.parametrize("coeffs", [{1: 0.5, -1: 0.5}, MULTI_MODE, {0: 0.25, 3: 1j, -3: -1j}])
def test_circle_kernel_nodes_mu_and_eval_are_exact(coeffs):
    k = CircleFourierKernel(GOLDEN, coeffs)
    top = max(abs(q) for q in coeffs)
    assert k.nodes.size == 4 * top + 1
    assert np.array_equal(k.nodes, np.arange(k.nodes.size) / k.nodes.size)
    f = CircleFourierKernel.eval_coeffs(coeffs, k.nodes)
    assert k.mu(f) == pytest.approx(complex(coeffs.get(0, 0.0)).real, abs=1e-16)
    tol = 8 * np.finfo(float).eps * sum(abs(c) for c in coeffs.values())
    y = np.random.default_rng(11).uniform(-0.5, 1.5, 500)
    assert np.max(np.abs(k.eval(f, y) - CircleFourierKernel.eval_coeffs(coeffs, y))) <= tol
    # one step multiplies mode k by cos 2 pi k a, on the nodes and between them
    stepped = {q: c * np.cos(2 * np.pi * q * GOLDEN) for q, c in coeffs.items()}
    assert np.max(np.abs(k.apply(f) - CircleFourierKernel.eval_coeffs(stepped, k.nodes))) <= tol
    assert np.max(np.abs(k.eval(k.apply(f), y)
                         - CircleFourierKernel.eval_coeffs(stepped, y))) <= tol


@pytest.mark.parametrize("coeffs", [{1: 0.5, -1: 0.5}, MULTI_MODE])
def test_circle_conditional_square_norm_equals_coin_enumeration(coeffs):
    # E_x S_n^2 over all 2^n coin sequences. Path p visits x + a m_s, m_s its
    # integer position after s steps, so S_p(x) = sum_k c_k e(kx) Z_pk with
    # Z_pk = sum_s e(k a m_s), and E_x S_n^2 = sum_{k,l} c_k c_l e((k+l)x) E Z_k Z_l
    n = 10
    k = CircleFourierKernel(GOLDEN, coeffs)
    coins = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    walk = np.cumsum(2 * coins - 1, axis=1)
    ks = np.array(sorted(coeffs))
    c = np.array([coeffs[q] for q in ks])
    Z = np.exp(2j * np.pi * GOLDEN * walk[:, :, None] * ks).sum(axis=1)
    moments = Z.T @ Z / (1 << n)
    x = np.concatenate([k.nodes, np.linspace(0.0, 1.0, SUP_GRID + 1)])
    waves = np.exp(2j * np.pi * np.outer(x, ks))
    ex_sn2 = np.einsum("xk,xl,kl->x", waves * c, waves * c, moments).real
    sigma2 = 0.07
    want = np.max(np.abs(ex_sn2 / n - sigma2))
    f = CircleFourierKernel.eval_coeffs(coeffs, k.nodes)
    assert conditional_square_norm(k, f, n, sigma2) == pytest.approx(want, rel=0, abs=1e-12)


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


def test_finite_state_kernel_is_a_matrix_kernel():
    # apply and mu are the products with the transition matrix and its
    # stationary law, to the bit, through the one base every model kernel shares
    rng = np.random.default_rng(8)
    for size in (2, 5, 64):
        P = rng.random((size, size))
        P /= P.sum(axis=1, keepdims=True)
        pi = stationary_distribution(P)
        k = FiniteStateKernel(P, states=np.arange(size, dtype=float))
        assert np.array_equal(k.matrix, P) and np.array_equal(k.weights, pi)
        assert not hasattr(k, "P") and not hasattr(k, "pi")
        for v in rng.standard_normal((5, size)):
            assert np.array_equal(k.apply(v), P @ v)
            assert k.mu(v) == float(pi @ v)
    for cls in (ChebyshevKernel, CircleFourierKernel):
        assert cls.apply is FiniteStateKernel.apply and cls.mu is FiniteStateKernel.mu


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


def test_conditional_sum_norm_profile_consistency():
    k = FiniteStateKernel(np.array([[0.7, 0.3], [0.2, 0.8]]),
                          states=np.array([0.0, 1.0]))
    f = k.nodes - k.mu(k.nodes)
    prof = conditional_sum_norm_profile(k, f, 8)
    assert prof.shape == (8,)
    for n in (1, 4, 8):
        partial = sum(np.linalg.matrix_power(k.matrix, j) @ f for j in range(1, n + 1))
        assert prof[n - 1] == pytest.approx(np.max(np.abs(partial)), abs=1e-14)


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



def _eval_coeffs_with_temporaries(coeffs, x):
    # the expression eval_coeffs evaluated before it used scratch buffers
    out = np.zeros_like(x)
    if 0 in coeffs:
        out += complex(coeffs[0]).real
    for k in sorted({abs(int(k)) for k in coeffs} - {0}):
        cp, cm = complex(coeffs.get(k, 0.0)), complex(coeffs.get(-k, 0.0))
        re, im = cp.real + cm.real, cp.imag - cm.imag
        if re != 0.0:
            out += re * np.cos(2.0 * np.pi * k * x)
        if im != 0.0:
            out -= im * np.sin(2.0 * np.pi * k * x)
    return out


@pytest.mark.parametrize("shape", [(1001,), (7, 300)])
def test_circle_eval_coeffs_scratch_buffer_is_bit_identical(shape):
    x = np.random.default_rng(5).uniform(-0.5, 1.5, shape)
    coeffs = {0: 0.25, 1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1 + 0.4j,
              3: -0.1j, -3: 0.1j, 7: 0.05 - 0.01j}
    assert np.array_equal(CircleFourierKernel.eval_coeffs(coeffs, x),
                          _eval_coeffs_with_temporaries(coeffs, x))


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


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_spectral_gauss_on_shifted_reciprocals_is_the_digamma_closed_form(c):
    # branch k sends 1/(y+c) to (1+x)/((k+x+1)(1+c(k+x))); summed over k >= 1
    # that telescopes into digammas: (1+x)/(c-1) (psi(x+2) - psi(x+1+1/c))
    k = ChebyshevKernel.gauss()
    x = k.nodes
    exact = (1.0 + x) / (c - 1.0) * (digamma(x + 2.0) - digamma(x + 1.0 + 1.0 / c))
    assert np.max(np.abs(k.apply(1.0 / (x + c)) - exact)) <= 1e-13


@pytest.mark.parametrize("rho", [0.3, 0.5])
@pytest.mark.parametrize("d", range(8))
def test_spectral_iterated_on_monomials_is_the_closed_form(rho, d):
    # int_0^1 (rho y + (1-rho) u)^d du
    k = ChebyshevKernel.iterated(rho)
    y = k.nodes
    exact = (((rho * y + 1.0 - rho) ** (d + 1) - (rho * y) ** (d + 1))
             / ((d + 1) * (1.0 - rho)))
    assert np.max(np.abs(k.apply(y**d) - exact)) <= 1e-14


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
    # u_n = beta^-n / 2 decays with no rounding plateau into exact zeros,
    # so even a fit with no floor recovers the rate
    k = ChebyshevKernel.integer_beta(beta)
    rep = sup_norm_decay(k, k.nodes - k.mu(k.nodes), 64)
    assert abs(rep.rho * beta - 1.0) <= 1e-3
    assert rep.u[-1] == 0.0
    assert abs(_geometric_fit(rep.u, 0.0)[1] * beta - 1.0) <= 1e-12


def _plain_orbit(kernel, f, n_max):
    # K^k f - mu(f) by repeated application, with no re-centring and no cut
    rows, v = [], np.asarray(f, dtype=float)
    for _ in range(n_max):
        v = kernel.apply(v)
        rows.append(v - kernel.mu(f))
    return np.array(rows).reshape((n_max,) + v.shape)


def _recentred_orbit(kernel, f, n_max):
    # v <- Kv - mu(Kv) from v = f - mu(f), with no cut
    rows, v = [], np.asarray(f, dtype=float) - kernel.mu(f)
    for _ in range(n_max):
        v = kernel.apply(v)
        v = v - kernel.mu(v)
        rows.append(v)
    return np.array(rows).reshape((n_max,) + v.shape)


ORBIT_KERNELS = {
    **{name: build for name, (build, _) in SPECTRAL.items()},
    "circle": lambda: CircleFourierKernel(GOLDEN, MULTI_MODE),
    "mixing_chain": lambda: FiniteStateKernel(np.array([[0.7, 0.3], [0.2, 0.8]]),
                                              states=np.array([0.0, 1.0])),
}


def _orbit_start(kernel):
    if isinstance(kernel, CircleFourierKernel):
        return CircleFourierKernel.eval_coeffs(kernel.coeffs, kernel.nodes)
    return 3.0 * np.exp(kernel.nodes) + 0.25  # not centred


@pytest.mark.parametrize("name", sorted(ORBIT_KERNELS))
def test_recentred_orbit_agrees_with_plain_powers_above_the_dust(name):
    k = ORBIT_KERNELS[name]()
    f = _orbit_start(k)
    rows, plain = orbit(k, f, 256), _plain_orbit(k, f, 256)
    above = np.max(np.abs(plain), axis=1) > dust_floor(f)
    assert above[:8].all()
    assert np.max(np.abs(rows - plain)[above]) <= 1e-13 * np.max(np.abs(f))


@pytest.mark.parametrize("name", sorted(ORBIT_KERNELS))
def test_orbit_is_cut_into_exact_zeros_at_its_first_certified_dust_row(name):
    k = ORBIT_KERNELS[name]()
    f = _orbit_start(k)
    rows, full = orbit(k, f, 256), _recentred_orbit(k, f, 256)
    bound = k.lebesgue * np.max(np.abs(full), axis=1)
    cut = int(np.argmax(bound <= 0.5 * np.spacing(np.max(np.abs(f)))))
    assert 0 < cut < 256
    assert np.array_equal(rows[:cut], full[:cut])
    assert not np.any(rows[cut:])
    # the certified bound holds where the rows were cut
    assert np.all(k.sup(full[cut:]) <= bound[cut:] * (1.0 + 1e-12))


def test_lebesgue_constants():
    assert FiniteStateKernel(np.eye(2), states=np.array([0.0, 1.0])).lebesgue == 1.0
    assert IntegerBetaPFKernel(2, n_points=64).lebesgue == 1.0
    for name in SPECTRAL:
        k = SPECTRAL[name][0]()
        assert k.lebesgue == np.max(np.sum(np.abs(k.grid), axis=0))
        assert 1.0 <= k.lebesgue < 4.0
    # between its five nodes the trigonometric interpolant can exceed them
    assert 1.0 < CircleFourierKernel(GOLDEN, {1: 0.5, -1: 0.5}).lebesgue < 2.0


@pytest.mark.parametrize("check", ["bis", "mw"])
def test_alternating_chain_is_never_cut_and_keeps_its_terms(check):
    model = make_alternating_plus_iid(IIDSpec(law="uniform"))
    k, f, n_max = model.kernel, model.centered_observable(), 512
    rows = orbit(k, f, n_max)
    assert np.all(np.max(np.abs(rows), axis=1) > 0.0)
    plain = _plain_orbit(k, f, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    if check == "bis":
        diag = check_bis(model, n_max=n_max)
        want = n ** -0.5 * np.max(np.abs(plain), axis=1)
    else:
        diag = check_mw(model, n_max=n_max)
        want = n ** -1.5 * np.max(np.abs(np.cumsum(plain, axis=0)), axis=1)
    assert np.array_equal(diag.terms, want)


def test_periodic_orbit_is_stepped_for_one_block_and_tiled(monkeypatch):
    # the alternating chain's kernel is a permutation: its orbit has period 2,
    # so the first 64-row block finds it and the rest is tiled, to the bit
    model = make_alternating_plus_iid(IIDSpec(law="uniform"))
    k, f, n_max = model.kernel, model.centered_observable(), 4096
    applies = []
    apply = k.apply
    monkeypatch.setattr(k, "apply", lambda v: applies.append(1) or apply(v))
    rows = orbit(k, f, n_max)
    assert len(applies) <= 64
    monkeypatch.undo()
    full = _recentred_orbit(k, f, n_max)
    assert np.array_equal(rows.view(np.uint64), full.view(np.uint64))
    assert check_bis(model, n_max=n_max).verdict == "diverging"


@pytest.mark.parametrize("name", ["circle", "beta3", "gauss"])
def test_deduplicated_sup_equals_the_per_row_sup(name):
    k = ORBIT_KERNELS[name]()
    rows = orbit(k, _orbit_start(k), 300)
    for block in (rows, np.cumsum(rows, axis=0)):
        # every row through the grid product, 64 rows a product; one row
        # alone would go through another BLAS kernel, a few ulp off
        want = np.max(np.abs(block), axis=1)
        for s in range(0, block.shape[0], 64):
            on_grid = np.max(np.abs(block[s:s + 64] @ k.grid), axis=1)
            want[s:s + 64] = np.maximum(want[s:s + 64], on_grid)
        got = k.sup(block)
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
        assert np.array_equal(block[-1], block[-2])


@pytest.mark.parametrize("name", sorted(SPECTRAL))
def test_decay_fit_is_exact_at_the_benchmark_scales(name):
    # the 40 observable scales c = 2^U(-1, 1) of seeds 1..40: the fitted rate
    # is the kernel's second eigenvalue to 1e-10 at every one
    build, rate = SPECTRAL[name]
    k = build()
    centred = k.nodes - k.mu(k.nodes)
    worst = 0.0
    for seed in range(1, 41):
        c = float(2.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0))
        rep = sup_norm_decay(k, c * centred, 64)
        worst = max(worst, abs(rep.rho / rate - 1.0))
    assert worst <= 1e-10


def test_orbit_rows_are_kernel_powers():
    k = FiniteStateKernel(np.array([[0.7, 0.3], [0.2, 0.8]]), states=np.array([0.0, 1.0]))
    f = np.array([1.0, -2.0])
    rows = orbit(k, f, 5)
    assert rows.shape == (5, 2)
    for n in range(1, 6):
        assert np.allclose(rows[n - 1], np.linalg.matrix_power(k.matrix, n) @ f - k.mu(f),
                           atol=1e-15)


def test_sup_norm_decay_with_no_steps_returns_empty():
    k = ChebyshevKernel.integer_beta(2)
    r = sup_norm_decay(k, np.cos(2 * np.pi * k.nodes), 0)
    assert r.u.shape == (0,) and r.rho is None
    assert k.sup(np.zeros((0, k.nodes.size))).shape == (0,)
