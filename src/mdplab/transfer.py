"""Markov kernels and Perron-Frobenius operators on [0,1], spectral and grid.

Kernels carry functions by their values at `nodes` and expose `apply` (one
operator step), `mu` (integral against the invariant measure), `eval`
(the carried function at arbitrary points) and `sup` (its sup norm).

Every kernel a model carries, `FiniteStateKernel` and the collocation
kernels, is a `_MatrixKernel`: `apply` is one product with its `matrix`
and `mu` one with its invariant `weights`. The expanding-map and iterated
models use `ChebyshevKernel`: values at second-kind Chebyshev points.
For the integer-beta maps,
the Gauss map and the iterated chain the operator maps analytic functions to
analytic functions, so collocation converges exponentially in the number of
points (Bandtlow & Slipantschuk 2020; Wormell, Numer. Math. 2019). Sup norms
are read on a fixed uniform grid through one shared evaluation matrix.

The uniform-grid classes (piecewise-linear interpolation, trapezoid
quadrature) stay for criterion 4's duality check and the benchmark probe.
Non-smooth observables converge only at O(1/N) on Chebyshev points; the
model builders refuse them.

The circle-walk kernel is a collocation kernel too: for an observable with
Fourier modes |k| <= K it carries functions by their values at the n = 4K + 1
nodes j/n, where rotation averaging is exact to rounding on the observable,
its powers and the products of band 2K that conditional second moments need.

Every power K^k f goes through `orbit`, and every sup norm through
`Kernel.sup`. An orbit steps v <- Kv - mu(Kv) from v = f - mu(f), so its
rows decay geometrically instead of settling on a rounding offset along the
constants, and it ends in exact zeros once a row's certified sup bound is
below half an ulp of max|f|. A collocation kernel's `sup` runs its grid
product once per distinct row, so a zero tail or a frozen cumulative sum
costs one product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

DEFAULT_GRID = 4096  # resolves every acceptance target in milliseconds
CHEB_POINTS = 48  # Chebyshev nodes of the spectral kernels
GAUSS_BRANCHES = 2048  # Gauss-map branches summed one by one; the rest in closed form
SUP_GRID = 4096  # spectral sup norms are read on the uniform grid j/SUP_GRID
CIRCLE_MAX_MODE = 256  # 4K + 1 <= 1025 circle nodes: an 8 MB matrix, a 34 MB sup grid
SQUARE_NORM_CAP = 65536  # most steps of `conditional_square_norm`, two applies each

__all__ = [
    "GridFunction",
    "DecayReport",
    "Kernel",
    "IntegerBetaPFKernel",
    "GaussPFKernel",
    "CircleFourierKernel",
    "IteratedFunctionKernel",
    "FiniteStateKernel",
    "ChebyshevKernel",
    "orbit",
    "dust_floor",
    "apply_pf_integer_beta",
    "sup_norm_decay",
    "conditional_square_norm",
    "pf_duality_gap",
]


@dataclass(frozen=True)
class GridFunction:
    """Values on the uniform grid j/N, j = 0..N, with linear interpolation."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("grid function needs at least 2 nodes")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def from_callable(cls, f: Callable[[np.ndarray], np.ndarray], n_points: int = DEFAULT_GRID):
        x = np.linspace(0.0, 1.0, n_points + 1)
        return cls(np.asarray(f(x), dtype=float))

    @property
    def n_intervals(self) -> int:
        return self.values.size - 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    def eval(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.interp(x, self.nodes, self.values)

    def eval_periodic(self, x) -> np.ndarray:
        return np.interp(np.mod(x, 1.0), self.nodes, self.values)

    def integral(self) -> float:
        """Trapezoid integral against Lebesgue on [0,1]."""
        return float(np.trapezoid(self.values, dx=1.0 / self.n_intervals))


def apply_pf_integer_beta(f: GridFunction, beta: int) -> GridFunction:
    """Perron-Frobenius step for T(x) = beta*x mod 1: (Kf)(x) = (1/beta) sum_i f((x+i)/beta)."""
    if int(beta) != beta or beta < 2:
        raise ValueError("only integer beta >= 2 is supported")
    beta = int(beta)
    x = f.nodes
    acc = np.zeros_like(x)
    for i in range(beta):
        acc += f.eval((x + i) / beta)
    return GridFunction(acc / beta)


class Kernel:
    """Minimal kernel interface: node values in, node values out."""

    nodes: np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mu(self, values: np.ndarray) -> float:
        raise NotImplementedError

    def eval(self, values: np.ndarray, y) -> np.ndarray:
        """The function carried by `values`, evaluated at the points y."""
        raise NotImplementedError

    def sup(self, values: np.ndarray):
        """Sup norm of the carried function; the node axis is the last axis.

        Grid and finite-state kernels take the max over their nodes;
        collocation kernels also read the sup grid, once per distinct row.
        """
        return np.max(np.abs(values), axis=-1)

    # sup norm <= lebesgue * max over the nodes; 1 where `sup` is that max
    lebesgue: float = 1.0

    # additive independent observation noise (variance), used by the
    # alternating model where X = f(state) + iid noise
    noise_var: float = 0.0


class _UniformGridKernel(Kernel):
    """Base for kernels on the [0,1] grid with Lebesgue-invariant measure."""

    def __init__(self, n_points: int):
        self.n_points = n_points
        self.nodes = np.linspace(0.0, 1.0, n_points + 1)

    def mu(self, values: np.ndarray) -> float:
        return float(np.trapezoid(values, dx=1.0 / self.n_points))

    def eval(self, values: np.ndarray, y) -> np.ndarray:
        return np.interp(np.asarray(y, dtype=float), self.nodes, values)


class IntegerBetaPFKernel(_UniformGridKernel):
    """PF operator of the beta-transformation, integer beta (Lebesgue invariant)."""

    def __init__(self, beta: int, n_points: int = DEFAULT_GRID):
        super().__init__(n_points)
        if int(beta) != beta or beta < 2:
            raise ValueError("only integer beta >= 2 is supported")
        self.beta = int(beta)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return apply_pf_integer_beta(GridFunction(values), self.beta).values


class GaussPFKernel(_UniformGridKernel):
    """PF operator of the Gauss map wrt its invariant measure 1/((1+x) ln 2).

    The branch weight h(1/(k+x)) / (h(x)(k+x)^2) simplifies to the telescoping
    form (1+x)/((k+x)(k+x+1)), summing to 1 exactly; the tail mass (1+x)/(501+x)
    of the branches k > 500 is lumped at its mass-weighted mean branch point,
    which keeps the operator stochastic to rounding.
    """

    def __init__(self, n_points: int = DEFAULT_GRID):
        super().__init__(n_points)
        k_max, tail_terms = 500, 4000
        x = self.nodes
        ks = np.arange(1, k_max + 1, dtype=float)[:, None]
        w = (1.0 + x) / ((ks + x) * (ks + x + 1.0))
        t_mass = (1.0 + x) / (k_max + 1.0 + x)
        # mass-weighted mean of the tail branch points 1/(k+x), k > k_max
        kt = np.arange(k_max + 1, k_max + tail_terms + 1, dtype=float)[:, None]
        num = ((1.0 + x) / ((kt + x) ** 2 * (kt + x + 1.0))).sum(axis=0)
        num += (1.0 + x) / (2.0 * (k_max + tail_terms + x) ** 2)  # integral remainder
        y_tail = num / t_mass
        self._branch_points = np.vstack([1.0 / (ks + x), y_tail[None, :]])
        self._branch_weights = np.vstack([w, t_mass[None, :]])

    def apply(self, values: np.ndarray) -> np.ndarray:
        f = GridFunction(values)
        return np.einsum("kx,kx->x", self._branch_weights, f.eval(self._branch_points))

    def mu(self, values: np.ndarray) -> float:
        dens = 1.0 / ((1.0 + self.nodes) * np.log(2.0))
        return float(np.trapezoid(values * dens, dx=1.0 / self.n_points))


class IteratedFunctionKernel(_UniformGridKernel):
    """Kernel of Y' = rho*Y + (1-rho)*eps, eps ~ uniform[0,1].

    One transition integrates f over [rho*y, rho*y + 1 - rho]; the invariant
    density is obtained by at most 200 power iterations of the adjoint and cached.
    """

    def __init__(self, rho: float, n_points: int = DEFAULT_GRID):
        super().__init__(n_points)
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0,1)")
        self.rho = rho
        self._inv_density = self._stationary_density()

    def apply(self, values: np.ndarray) -> np.ndarray:
        f = GridFunction(values)
        h = 1.0 / self.n_points
        cum = np.concatenate([[0.0], np.cumsum((values[:-1] + values[1:]) * 0.5 * h)])
        F = GridFunction(cum)  # antiderivative on the grid
        lo = self.rho * self.nodes
        hi = lo + (1.0 - self.rho)
        return (F.eval(hi) - F.eval(lo)) / (1.0 - self.rho)

    def _stationary_density(self) -> np.ndarray:
        # adjoint step: p'(y) = (1/(1-rho)) * integral of p over {x : rho*x <= y <= rho*x+1-rho}
        p = np.ones_like(self.nodes)
        h = 1.0 / self.n_points
        for _ in range(200):
            cum = np.concatenate([[0.0], np.cumsum((p[:-1] + p[1:]) * 0.5 * h)])
            P = GridFunction(cum)
            lo = np.clip((self.nodes - (1.0 - self.rho)) / self.rho, 0.0, 1.0)
            hi = np.clip(self.nodes / self.rho, 0.0, 1.0)
            p_new = (P.eval(hi) - P.eval(lo)) / (1.0 - self.rho)
            Z = np.trapezoid(p_new, dx=h)
            p_new /= Z
            if np.max(np.abs(p_new - p)) < 1e-13:
                p = p_new
                break
            p = p_new
        return p

    def mu(self, values: np.ndarray) -> float:
        return float(np.trapezoid(values * self._inv_density, dx=1.0 / self.n_points))


class _MatrixKernel(Kernel):
    """`apply` is one product with `matrix` and `mu` one with its left
    Perron vector `weights`."""

    def __init__(self, matrix: np.ndarray, weights: np.ndarray, nodes: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=float)
        self.weights = weights
        self.nodes = nodes

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self.matrix @ np.asarray(values, dtype=float)

    def mu(self, values: np.ndarray) -> float:
        return float(self.weights @ np.asarray(values, dtype=float))


class FiniteStateKernel(_MatrixKernel):
    """Finite-state chain on the values `states`: `matrix` is P, `weights` pi."""

    def __init__(self, P: np.ndarray, states: np.ndarray, noise_var: float = 0.0):
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("P must be square")
        if np.any(P < -1e-15) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
            raise ValueError("P must be row-stochastic")
        pi = stationary_distribution(P)
        if np.max(np.abs(P.T @ pi - pi)) > 1e-12:
            raise ValueError("pi is not stationary for P")
        super().__init__(P, pi, np.asarray(states, dtype=float))
        self.noise_var = noise_var

    def eval(self, values: np.ndarray, y) -> np.ndarray:
        """Value at the state nearest to each y (recorded states are node values)."""
        order = np.argsort(self.nodes, kind="stable")
        s = self.nodes[order]
        y = np.asarray(y, dtype=float)
        hi = np.clip(np.searchsorted(s, y), 0, s.size - 1)
        lo = np.clip(hi - 1, 0, None)
        pick = np.where(np.abs(y - s[lo]) <= np.abs(s[hi] - y), lo, hi)
        return np.asarray(values, dtype=float)[order[pick]]


def chebyshev_nodes(n: int) -> np.ndarray:
    """Second-kind Chebyshev points on [0,1], increasing, both ends included."""
    return np.sin(0.5 * np.pi * np.arange(n) / (n - 1)) ** 2


def _lagrange_rows(nodes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(len(y), len(nodes)) values of the Lagrange basis at y, barycentric form."""
    y = np.asarray(y, dtype=float).ravel()
    rows = y[:, None] - nodes[None, :]
    hit = rows == 0.0
    rows[hit] = 1.0
    weights = (-1.0) ** np.arange(nodes.size)
    weights[[0, -1]] *= 0.5
    np.divide(weights, rows, out=rows)  # in place: one (len(y), n) array
    rows /= rows.sum(axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    rows[on_node] = hit[on_node]
    return rows


@lru_cache(maxsize=None)
def _sup_matrix(n: int) -> np.ndarray:
    """(n, SUP_GRID + 1) evaluation matrix from n Chebyshev values to the
    uniform grid j/SUP_GRID; one per n, shared by every kernel."""
    m = np.ascontiguousarray(
        _lagrange_rows(chebyshev_nodes(n), np.linspace(0.0, 1.0, SUP_GRID + 1)).T)
    m.setflags(write=False)
    return m


class _CollocationKernel(_MatrixKernel):
    """A matrix kernel whose `sup` reads the max on the nodes and, through
    the C-contiguous (nodes, SUP_GRID + 1) evaluation matrix `grid`, on the
    uniform grid j/SUP_GRID."""

    def __init__(self, matrix: np.ndarray, weights: np.ndarray, nodes: np.ndarray,
                 grid: np.ndarray):
        super().__init__(matrix, weights, nodes)
        self.grid = grid

    @cached_property
    def lebesgue(self) -> float:
        """Lebesgue constant of the nodes on the sup grid, max_y sum_j |grid[j, y]|."""
        return float(np.abs(self.grid).sum(axis=0).max())

    def sup(self, values: np.ndarray):
        """Max on the nodes and on the sup grid. Only a row that differs from
        the row before it goes through the grid product; a repeated row, such
        as the zero tail of an `orbit` or its frozen cumulative sum, takes
        the value of the row before it."""
        v = np.asarray(values, dtype=float)
        rows = np.atleast_2d(v)
        fresh = np.ones(rows.shape[0], dtype=bool)
        np.any(rows[1:] != rows[:-1], axis=-1, out=fresh[1:])
        new = np.flatnonzero(fresh)
        out = np.abs(rows).max(axis=-1)[new]
        # 64 rows at a time: the grid values of a whole orbit would take
        # rows x 4097 floats (134 MB for a 4096-step orbit)
        for s in range(0, new.size, 64):
            on_grid = rows[new[s:s + 64]] @ self.grid
            top = np.abs(on_grid, out=on_grid).max(axis=-1)
            np.maximum(out[s:s + 64], top, out=out[s:s + 64])
        out = out[np.cumsum(fresh) - 1]
        return out[0] if v.ndim == 1 else out


class CircleFourierKernel(_CollocationKernel):
    """Kf(x) = (f(x+a) + f(x-a))/2 on the circle, by trigonometric collocation.

    The observable Re sum_k c_k e(kx) comes as {k: c_k}. With K = max |k|,
    functions are carried by their degree-2K trigonometric interpolant at the
    n = 4K + 1 nodes j/n (n odd: real, no Nyquist mode). Mode k is multiplied
    by cos(2 pi k a), so `apply` is the matrix
        (1 + 2 sum_{k=1}^{2K} cos(2 pi k a) cos(2 pi k (x_i - x_j))) / n,
    exact on degree <= 2K, as `mu` (the node mean) is; `eval` goes by FFT.
    """

    def __init__(self, a: float, coeffs: dict):
        self.a = float(a)
        self.coeffs = {int(k): complex(c) for k, c in coeffs.items()}
        for k, c in list(self.coeffs.items()):
            conj = self.coeffs.get(-k)
            if conj is None or abs(np.conj(c) - conj) > 1e-12 * (1 + abs(c)):
                raise ValueError("coefficients must be Hermitian (real-valued f)")
        top = max(map(abs, self.coeffs), default=0)
        if top > CIRCLE_MAX_MODE:
            raise ValueError(f"Fourier mode {top} exceeds {CIRCLE_MAX_MODE}: the kernel "
                             f"would need {4 * top + 1} nodes")
        n = 4 * top + 1
        k = np.arange(1, (n + 1) // 2)[:, None]  # modes 1..2K

        def waves(period, points):
            # cos and sin of 2 pi k j / period for j < points, the phase k j mod period exact
            angle = 2.0 * np.pi * (k * np.arange(points) % period) / period
            return np.cos(angle), np.sin(angle)

        (cx, sx), (cy, sy) = waves(n, n), waves(SUP_GRID, SUP_GRID + 1)
        m = np.cos(2.0 * np.pi * k * self.a)
        # cos 2 pi k (x - y) = cos 2 pi k x cos 2 pi k y + sin 2 pi k x sin 2 pi k y
        matrix = (1.0 + 2.0 * (cx.T @ (m * cx) + sx.T @ (m * sx))) / n
        grid = (1.0 + 2.0 * (cx.T @ cy + sx.T @ sy)) / n
        # the matrix is symmetric with unit row sums, so its Perron vector is uniform
        super().__init__(matrix, np.full(n, 1.0 / n), np.arange(n) / n, grid)

    @staticmethod
    def eval_coeffs(coeffs: dict, x) -> np.ndarray:
        """Re sum_k c_k e(kx), in real arithmetic: each +/-k pair gives
        (Re c_k + Re c_-k) cos 2 pi k x - (Im c_k - Im c_-k) sin 2 pi k x."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        c0 = coeffs.get(0)
        if c0 is not None:
            out += complex(c0).real
        # every mode's angle and term are computed in these two buffers
        angle, term = np.empty_like(x), np.empty_like(x)
        for k in sorted({abs(int(k)) for k in coeffs} - {0}):
            cp, cm = complex(coeffs.get(k, 0.0)), complex(coeffs.get(-k, 0.0))
            re, im = cp.real + cm.real, cp.imag - cm.imag
            np.multiply(2.0 * np.pi * k, x, out=angle)
            if re != 0.0:
                out += np.multiply(re, np.cos(angle, out=term), out=term)
            if im != 0.0:
                out -= np.multiply(im, np.sin(angle, out=term), out=term)
        return out

    def centered_coeffs(self) -> dict:
        return {k: c for k, c in self.coeffs.items() if k != 0}

    def eval(self, values: np.ndarray, y) -> np.ndarray:
        c = np.fft.rfft(np.asarray(values, dtype=float)) / self.nodes.size
        # one-sided: mode k > 0 carries c_k + conj(c_-k) = 2 c_k
        return self.eval_coeffs({0: c[0], **{k: 2.0 * c[k] for k in range(1, c.size)}}, y)

    def cond_sum_sup_norms(self, n_max: int) -> np.ndarray:
        """||sum_{s<=n} K^s f_c||_inf for n = 1..n_max, f_c the centered observable."""
        return conditional_sum_norm_profile(
            self, self.eval_coeffs(self.centered_coeffs(), self.nodes), n_max)


class ChebyshevKernel(_CollocationKernel):
    """Collocation matrix of a Markov operator on N Chebyshev points of [0,1].

    Row i holds the weights of (Kf)(x_i) on the node values of f, with f
    interpolated by its degree N-1 polynomial. `mu` is the matrix's left
    Perron vector, so mu(K f) = mu(f) to rounding, and `eval` is barycentric
    interpolation. Build with `integer_beta`, `gauss` or `iterated`.
    """

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        super().__init__(matrix, stationary_distribution(matrix), chebyshev_nodes(n),
                         _sup_matrix(n))

    @classmethod
    def integer_beta(cls, beta: int) -> "ChebyshevKernel":
        """(Kf)(x) = (1/beta) sum_i f((x+i)/beta); exact on polynomials of degree < N."""
        if int(beta) != beta or beta < 2:
            raise ValueError("only integer beta >= 2 is supported")
        beta, n = int(beta), CHEB_POINTS
        x = chebyshev_nodes(n)
        pts = (x[:, None] + np.arange(beta)[None, :]) / beta
        rows = _lagrange_rows(x, pts).reshape(n, beta, n)
        return cls(rows.sum(axis=1) / beta)

    @classmethod
    def gauss(cls) -> "ChebyshevKernel":
        """Gauss-map operator wrt its invariant measure; branches k <= K exact.

        Branch k has weight (1+x)/((k+x)(k+x+1)) at the point y = 1/(k+x);
        the weights telescope, so the branches beyond K = GAUSS_BRANCHES carry
        the mass (1+x)/(K+1+x) exactly. That tail is the Euler-Maclaurin
        midpoint integral over t > K + 1/2, which in y = 1/(t+x) reads
        (1+x) int_0^{1/(K+1/2+x)} f(y)/(1+y) dy (Gauss-Legendre), rescaled to
        the exact tail mass. Branches are summed `chunk` at a time, which
        bounds the build's memory.
        """
        n, top_k, chunk = CHEB_POINTS, GAUSS_BRANCHES, 128
        x = chebyshev_nodes(n)
        matrix = np.zeros((n, n))
        for k0 in range(1, top_k + 1, chunk):
            ks = np.arange(k0, min(k0 + chunk, top_k + 1), dtype=float)[:, None]
            w = (1.0 + x) / ((ks + x) * (ks + x + 1.0))  # (branch, node)
            rows = _lagrange_rows(x, 1.0 / (ks + x)).reshape(ks.size, n, n)
            matrix += np.einsum("bi,bij->ij", w, rows)
        g, gw = np.polynomial.legendre.leggauss(n)
        top = 1.0 / (top_k + 0.5 + x)  # (node,)
        y = 0.5 * top[:, None] * (g + 1.0)  # (node, quad)
        qw = 0.5 * top[:, None] * gw * (1.0 + x)[:, None] / (1.0 + y)
        tail = np.einsum("iq,iqj->ij", qw, _lagrange_rows(x, y).reshape(n, n, n))
        tail *= ((1.0 + x) / (top_k + 1.0 + x) / tail.sum(axis=1))[:, None]
        return cls(matrix + tail)

    @classmethod
    def iterated(cls, rho: float) -> "ChebyshevKernel":
        """(Kf)(y) = int_0^1 f(rho y + (1-rho) u) du by N-point Gauss-Legendre,
        exact on polynomials of degree < N."""
        if not 0.0 < rho < 1.0:
            raise ValueError("rho must be in (0,1)")
        n = CHEB_POINTS
        x = chebyshev_nodes(n)
        g, gw = np.polynomial.legendre.leggauss(n)
        pts = rho * x[:, None] + (1.0 - rho) * 0.5 * (g + 1.0)[None, :]
        rows = _lagrange_rows(x, pts).reshape(n, n, n)
        return cls(np.einsum("q,iqj->ij", 0.5 * gw, rows))

    def resolved_values(self, f: Callable) -> np.ndarray:
        """f on the uniform grid j/SUP_GRID, after checking that the
        interpolant of f's node values reproduces it there to 1e-10 max|f|.

        A non-smooth observable (an indicator, a hat) converges only at
        O(1/N) on Chebyshev points: its mean and every exact check would be
        off by far more than rounding, so it is refused with a ValueError.
        """
        fx = np.asarray(f(np.linspace(0.0, 1.0, SUP_GRID + 1)), dtype=float)
        on_grid = np.asarray(f(self.nodes), dtype=float) @ self.grid
        err = float(np.max(np.abs(on_grid - fx)))
        if err > 1e-10 * float(np.max(np.abs(fx))):
            raise ValueError(f"observable is not resolved by the {self.nodes.size}-point "
                             f"spectral kernel (interpolation error {err:.1e}); non-smooth "
                             "observables are not supported")
        return fx

    def eval(self, values: np.ndarray, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        return (_lagrange_rows(self.nodes, y) @ np.asarray(values, dtype=float)).reshape(y.shape)


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    return pi


@dataclass
class DecayReport:
    """u_n = sup-norm distance of K^n f from mu(f), with geometric tail fit."""

    u: np.ndarray
    kappa: Optional[float]
    rho: Optional[float]
    residual: Optional[float]
    diverged: bool = False

    def to_csv_rows(self):
        """Data rows (n, u_n), without a header."""
        return [(i + 1, float(ui)) for i, ui in enumerate(self.u)]


def orbit(kernel: Kernel, f: np.ndarray, n_max: int) -> np.ndarray:
    """Rows K^1 f - mu(f), ..., K^{n_max} f - mu(f) as one (n_max, len(f)) array.

    Every power K^k f of a kernel is taken here; callers reduce the rows
    with `Kernel.sup`, a cumulative sum or a sum. The orbit starts from
    v = f - mu(f) and steps v <- Kv - mu(Kv): in exact arithmetic these are
    the same rows, but in floats the rounding along the constants is
    removed at every step instead of settling into an offset of ~1e-16
    max|f|, so the rows keep decaying geometrically.

    Once per 64 rows the orbit is cut at the first row whose certified sup
    bound `kernel.lebesgue` * max|v| is at most half an ulp of max|f|: that
    row and every later one are exact zeros, since a Markov operator never
    increases a sup norm. Each step is a fixed map of v, so if instead the
    block's last row equals an earlier row of the block bit for bit, the
    orbit is periodic from there on (a chain that never decays, such as a
    permutation): that period is tiled over the remaining rows. The array
    holds n_max * len(f) floats (134 MB for n_max = 4096 on a 4097-node grid
    kernel); rows past a cut are never stepped.
    """
    v = np.asarray(f, dtype=float)
    out = np.zeros((n_max,) + v.shape)
    cut = 0.5 * np.spacing(float(np.max(np.abs(v))))
    v = v - kernel.mu(v)
    for s in range(0, n_max, 64):
        block = out[s:s + 64]
        for row in block:
            v = kernel.apply(v)
            np.subtract(v, kernel.mu(v), out=row)
            v = row
        small = np.flatnonzero(kernel.lebesgue * np.abs(block).max(axis=-1) <= cut)
        if small.size:
            block[small[0]:] = 0.0
            break
        bits = block.view(np.uint64)
        repeats = np.flatnonzero((bits[:-1] == bits[-1]).all(axis=-1))
        if repeats.size:  # row `last` repeats row `first`, with period last - first
            first, last = s + int(repeats[-1]), s + len(block) - 1
            rest = np.arange(last + 1, n_max)
            out[rest] = out[first + (rest - first) % (last - first)]
            break
    return out


def dust_floor(f_values: np.ndarray) -> float:
    """Rounding-dust level of kernel arithmetic on f: norms of K^k f at or
    below 1e-13 max|f| carry no signal, and fits and series verdicts ignore
    them. `orbit` rows decay through it with no rounding plateau and end in
    exact zeros."""
    return 1e-13 * float(np.max(np.abs(f_values)))


def _geometric_fit(u: np.ndarray, floor: float):
    """Least squares log-linear fit u_n ~ kappa * rho^n on the tail above `floor`."""
    n = np.arange(1, u.size + 1)
    mask = u > max(floor, 1e-300)
    if mask.sum() < 2:
        return None, None, None
    tail = mask & (n >= max(1, u.size // 3))
    if tail.sum() < 2:
        tail = mask
    x, y = n[tail], np.log(u[tail])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return float(np.exp(intercept)), float(np.exp(slope)), resid


def sup_norm_decay(kernel: Kernel, f_values: np.ndarray, n_max: int) -> DecayReport:
    """u_k = ||K^k f - mu(f)||_inf (`Kernel.sup`) for k <= n_max, with a geometric fit.

    The u_k come from `orbit`, so they decay with no rounding plateau and
    end in exact zeros once the orbit is cut. Refuses the fit if u_k
    increases for 5 consecutive k beyond k = 3. The fit ignores u_k at or
    below `dust_floor`, 1e-13 max|f|, and so every zero.
    """
    mu_f = kernel.mu(f_values)
    # invariance sanity: one kernel step must preserve the integral
    if abs(kernel.mu(kernel.apply(f_values)) - mu_f) > 1e-6 * (1.0 + abs(mu_f)):
        raise ValueError("kernel does not preserve its declared invariant measure")
    u = kernel.sup(orbit(kernel, f_values, n_max))
    increasing = 0
    diverged = False
    for k in range(3, n_max - 1):
        increasing = increasing + 1 if u[k + 1] > u[k] else 0
        if increasing >= 5:
            diverged = True
            break
    if diverged:
        return DecayReport(u=u, kappa=None, rho=None, residual=None, diverged=True)
    kappa, rho, resid = _geometric_fit(u, dust_floor(f_values))
    return DecayReport(u=u, kappa=kappa, rho=rho, residual=resid)


def conditional_sum_norm_profile(kernel: Kernel, f_values: np.ndarray, n_max: int) -> np.ndarray:
    """Exact ||E(S_n | F_0)||_inf = max_x |sum_{k<=n} (K^k f - mu f)(x)| for a
    kernel model, for every n = 1..n_max in one sweep."""
    rows = orbit(kernel, f_values, n_max)
    return kernel.sup(np.cumsum(rows, axis=0, out=rows))


def conditional_square_norm(kernel: Kernel, f_values: np.ndarray, n: int,
                            sigma2_ref: float) -> float:
    """max_x |n^{-1} E_x(S_n^2) - sigma2_ref| by backward dynamic programming.

    With u_i = E(sum_{k>=i} X_k | state_{i-1}) and w_i the conditional second
    moment, u_i = K(f + u_{i+1}) and w_i = K(f^2 + 2 f u_{i+1} + w_{i+1});
    E_x(S_n^2) = w_1(x). Independent additive observation noise contributes
    n * noise_var.
    """
    if n > SQUARE_NORM_CAP:
        raise ValueError(f"n = {n} exceeds the cost cap {SQUARE_NORM_CAP} "
                         f"(about {n} kernel applications needed)")
    f = np.asarray(f_values, dtype=float)
    u = np.zeros_like(f)
    w = np.zeros_like(f)
    for _ in range(n):
        w = kernel.apply(f * f + 2.0 * f * u + w)
        u = kernel.apply(f + u)
    ex_sn2 = w + n * kernel.noise_var
    return float(kernel.sup(ex_sn2 / n - sigma2_ref))


def pf_duality_gap(beta: int, h: GridFunction, f: GridFunction) -> float:
    """|integral (Kh) f dmu - integral h (f o T) dmu| for the beta-map (mu = Lebesgue)."""
    Kh = apply_pf_integer_beta(h, beta)
    lhs = GridFunction(Kh.values * f.values).integral()
    x = h.nodes
    fT = f.eval_periodic(np.mod(beta * x, 1.0))
    rhs = GridFunction(h.values * fT).integral()
    return abs(lhs - rhs)
