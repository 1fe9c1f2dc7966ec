"""Every example process of the moderate-deviation theory as a ProcessModel.

Integer-beta map orbits are sampled by digit shift (exact: float iteration of
x -> beta*x mod 1 collapses after ~53 steps), Gauss-map orbits by Euclid's
algorithm, and the circle walk carries an exact trigonometric collocation kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

from .transfer import ChebyshevKernel, CircleFourierKernel, FiniteStateKernel
from .core import ProcessModel, RngStream

__all__ = [
    "GOLDEN",
    "IIDSpec",
    "LinearProcessSpec",
    "IteratedFunctionSpec",
    "ExpandingMapSpec",
    "CircleWalkSpec",
    "CounterexampleChainSpec",
    "make_iid",
    "make_alternating_plus_iid",
    "make_linear_process",
    "make_iterated_function",
    "make_expanding_map",
    "make_circle_walk",
    "make_counterexample_chain",
    "stationary_age_law",
    "model_from_config",
]

GAUSS_ORBIT_CAP = 10_000  # Euclid on 4n-bit integers costs O(n^2)
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)  # the largest |x| whose x * x is finite


# ---------------------------------------------------------------------------
# specs


@dataclass(frozen=True)
class IIDSpec:
    """Mean-zero iid law: rademacher, uniform[-c,c], or two-point (p,a,b)."""

    law: str = "rademacher"
    c: float = 1.0
    p: float = 0.5
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.law not in ("rademacher", "uniform", "two_point"):
            raise ValueError(f"unknown iid law {self.law!r}")
        for name in ("c", "a", "b"):
            # the variance squares c, a and b, and uniform draws span 2c
            if not abs(getattr(self, name)) <= _SQUARE_LIMIT:  # false for nan
                raise ValueError(f"iid law needs |{name}| <= {_SQUARE_LIMIT:.4g}, so that "
                                 f"its square is finite; got {getattr(self, name)!r}")
        if self.law == "uniform" and not self.c > 0:
            raise ValueError("uniform law needs c > 0")
        if self.law == "two_point":
            if not 0 < self.p < 1:
                raise ValueError("two-point law needs 0 < p < 1")
            mean = self.p * self.a + (1 - self.p) * self.b
            if abs(mean) > 1e-12:
                raise ValueError("two-point law must have mean zero")

    @property
    def bound(self) -> float:
        if self.law == "rademacher":
            return 1.0
        if self.law == "uniform":
            return self.c
        return max(abs(self.a), abs(self.b))

    @property
    def variance(self) -> float:
        if self.law == "rademacher":
            return 1.0
        if self.law == "uniform":
            return self.c**2 / 3.0
        return self.p * self.a**2 + (1 - self.p) * self.b**2

    def draw(self, size, rng: np.random.Generator) -> np.ndarray:
        """Values of the given shape, filled in C order from one stream.

        Rademacher signs are `_fair_bits`, 64 signs per generator word, so a
        row of a block equals a sequential draw of one row; the other laws
        take one generator value per entry.
        """
        if self.law == "rademacher":
            return _fair_bits(rng, size) * 2.0 - 1.0
        if self.law == "uniform":
            return rng.uniform(-self.c, self.c, size)
        return np.where(rng.random(size) < self.p, self.a, self.b)


@dataclass(frozen=True)
class LinearProcessSpec:
    """X_k = f(Y_k) - E f(Y_k) with Y_k = sum_i c_i eps_{k-i}.

    Coefficients come as a closed form (geometric c_i = C rho^i for i >= 0, or
    power C (1+i)^-p) so the truncation tail is available analytically.
    """

    coeff_kind: str = "geometric"  # geometric | power | delta
    C: float = 1.0
    rho: float = 0.5
    power: float = 3.0
    innovation: IIDSpec = field(default_factory=IIDSpec)
    f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    modulus: Optional[Callable[[float], float]] = None  # w(h) of f, declared
    f_bound: Optional[float] = None
    truncation_tol: float = 1e-8

    def __post_init__(self):
        if self.coeff_kind not in ("geometric", "power", "delta"):
            raise ValueError(f"unknown coefficient kind {self.coeff_kind!r}")
        if not abs(self.rho) < 1:
            raise ValueError("geometric ratio rho must satisfy |rho| < 1")

    def coefficient(self, i: int) -> float:
        if i < 0:
            return 0.0
        if self.coeff_kind == "delta":
            return self.C if i == 0 else 0.0
        if self.coeff_kind == "geometric":
            return self.C * self.rho**i
        return self.C * (1.0 + i) ** (-self.power)

    def tail_abs_sum(self, m: int) -> float:
        """sum_{i >= m} |c_i| in closed form."""
        if self.coeff_kind == "delta":
            return 0.0 if m > 0 else abs(self.C)
        if self.coeff_kind == "geometric":
            r = abs(self.rho)
            return abs(self.C) * r**m / (1.0 - r)
        p = self.power
        if p <= 1.0:
            return math.inf
        # integral bound sum_{i>=m} (1+i)^-p <= m^{1-p}/(p-1) + (1+m)^-p
        return abs(self.C) * ((1.0 + m) ** (1.0 - p) / (p - 1.0) + (1.0 + m) ** (-p))

    def truncation_radius(self) -> int:
        """The least m in [1, 10^7] with width * tail_abs_sum(m) below the
        tolerance, by bisection: the closed-form tail decreases in m."""
        width = self.innovation.b - self.innovation.a if self.innovation.law == "two_point" \
            else 2 * self.innovation.bound
        if not math.isfinite(self.tail_abs_sum(1)):
            raise ValueError("coefficient sequence is not absolutely summable")

        def wide(m):
            return width * self.tail_abs_sum(m) >= self.truncation_tol

        lo, hi = 0, 10_000_000  # lo = 0 or wide(lo), and never wide(hi)
        if wide(hi):
            raise ValueError("coefficient tail decays too slowly to truncate")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if wide(mid) else (lo, mid)
        return hi


@dataclass(frozen=True)
class IteratedFunctionSpec:
    """Y' = F(Y, eps) with the default one-step contraction F = rho*y + (1-rho)*eps."""

    rho: float = 0.5
    observable: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError("contraction rho must lie in (0,1)")


@dataclass(frozen=True)
class ExpandingMapSpec:
    """Doubling / integer-beta / piecewise-linear-Markov / Gauss map + observable."""

    map: str = "doubling"  # doubling | beta | gauss
    beta: int = 2
    observable: Callable[[np.ndarray], np.ndarray] = None
    mean: Optional[float] = None  # mu(f) if known in closed form

    def __post_init__(self):
        if self.map not in ("doubling", "beta", "gauss"):
            raise ValueError(f"unsupported map {self.map!r}")
        if self.map == "beta" and (int(self.beta) != self.beta or self.beta < 2):
            raise ValueError("non-integer beta is not supported in v1 (use gauss)")


@dataclass(frozen=True)
class CircleWalkSpec:
    """xi_k = xi_{k-1} +/- a mod 1; X_k = f(xi_k) - fhat(0), f given by Fourier coefficients."""

    a: float
    coeffs: dict = field(default_factory=lambda: {1: 0.5, -1: 0.5})


@dataclass(frozen=True)
class CounterexampleChainSpec:
    """Renewal-age chain with return time tau, P(tau=j) ~ j^-4 truncated at j_max."""

    tail_power: float = 4.0
    j_max: int = 200

    def __post_init__(self):
        if type(self.j_max) is not int or self.j_max < 1:
            raise ValueError(f"j_max must be an integer >= 1, got {self.j_max!r}")

    def tau_pmf(self) -> np.ndarray:
        j = np.arange(1, self.j_max + 1, dtype=float)
        w = j ** (-self.tail_power)
        return w / w.sum()


# ---------------------------------------------------------------------------
# builders
#
# Every sampler draws a (reps, n) block. Per-path scalars (initial states)
# are drawn as one vector before the path arrays, so a block's rows equal
# sequential one-row blocks only for models without such a scalar. Two
# choices read the block size: a one-row iterated chain runs its recurrence
# on Python floats, and only a one-row circle walk returns its exact states.


# bit generators whose raw output is one uniform 64-bit word: for them
# `random_raw` gives the words of integers(0, 2**64, dtype=uint64) without
# that call's fixed cost (MT19937's raw output is 32 bits wide)
_RAW64 = (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _fair_bytes(rng: np.random.Generator, shape) -> np.ndarray:
    """iid fair bits for `shape`, packed: ceil(n / 64) generator words per row
    of the last axis (length n), as uint8 little-endian bytes.

    Bit j of a row is bit j % 8 of its byte j // 8, that is bit j of word
    j // 64 whatever the host's byte order. Each row reads its own words, so
    the rows of a block equal sequential one-row draws.
    """
    shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    size = shape[:-1] + (-(-int(shape[-1]) // 64),)
    bitgen = rng.bit_generator
    words = bitgen.random_raw(size) if isinstance(bitgen, _RAW64) \
        else rng.integers(0, 2**64, size, dtype=np.uint64)
    return words.astype("<u8", copy=False).view(np.uint8)


def _fair_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """uint8 array of iid fair 0/1 bits: `_fair_bytes` unpacked, bit j of a
    row being entry j."""
    n = shape if isinstance(shape, (int, np.integer)) else shape[-1]
    return np.unpackbits(_fair_bytes(rng, shape), axis=-1, count=int(n),
                         bitorder="little")


def make_iid(spec: IIDSpec) -> ProcessModel:
    if spec.law == "rademacher":
        kernel = FiniteStateKernel(np.full((2, 2), 0.5), states=np.array([-1.0, 1.0]))
    elif spec.law == "two_point":
        P = np.tile([spec.p, 1 - spec.p], (2, 1))
        kernel = FiniteStateKernel(P, states=np.array([spec.a, spec.b]))
    else:
        # trivial kernel on a value grid: one step forgets the state entirely
        m = 64
        states = np.linspace(-spec.c, spec.c, m)
        kernel = FiniteStateKernel(np.full((m, m), 1.0 / m), states=states)

    def sampler(n, rng, reps):
        v = spec.draw((reps, n), rng)
        return v, v

    return ProcessModel(name=f"iid_{spec.law}", bound=spec.bound, sampler=sampler,
                        kernel=kernel, meta={"sigma2": spec.variance, "spec": spec})


def make_alternating_plus_iid(iid: IIDSpec) -> ProcessModel:
    """X_k = (-1)^k Q_0 + Y_k: deterministic sign flip plus centered iid noise."""
    kernel = FiniteStateKernel(np.array([[0.0, 1.0], [1.0, 0.0]]),
                               states=np.array([-1.0, 1.0]),
                               noise_var=iid.variance)

    def sampler(n, rng, reps):
        q0 = np.where(rng.random(reps) < 0.5, 1.0, -1.0)
        # n+1 states (-1)^k q0, k = 0..n: q0 first
        signs = q0[:, None] * np.where(np.arange(n + 1) % 2 == 0, 1.0, -1.0)
        y = iid.draw((reps, n), rng)
        return signs[:, 1:] + y, signs

    return ProcessModel(name="alternating_plus_iid", bound=1.0 + iid.bound,
                        sampler=sampler, kernel=kernel,
                        meta={"sigma2": iid.variance, "noise_spec": iid})


LINEAR_GROUP = 8  # innovations per sign window, one 2^8-entry table each; a
# window is read from two bytes, so it has at most 9 bits
LINEAR_SLAB = 1 << 15  # window positions per table pass (115 rows of 256 + 27),
# so that the int arrays of a pass stay in L2


def _sign_window_tables(coeffs: np.ndarray, values) -> list:
    """(offset, table) for each group of LINEAR_GROUP coefficients.

    Output k reads group c_s .. c_(s+7) as the 8-bit window of its row's
    bits at k + offset (a row's bit M + k is eps_k, with M = len(coeffs) - 1),
    whose bit t is eps_(k - (s + 7 - t)): the newest innovation highest.
    Entry w of the table is sum_i c_i values[bit of eps_(k-i) in w], added in
    ascending i. A last group of h < 8 coefficients keeps its window in the
    row: it starts at offset 0, and the 8 - h bits it shares with the group
    before weigh 0 (0.0 plus a signed zero is 0.0, so the entries are the
    h-term sums).
    """
    M = len(coeffs) - 1
    groups = []
    for s in range(0, M + 1, LINEAR_GROUP):
        group = coeffs[s:s + LINEAR_GROUP]
        table = np.zeros(1)
        for c in np.concatenate([np.zeros(LINEAR_GROUP - len(group)), group]):
            # the coefficient added last takes the lowest bit
            table = np.add.outer(table, c * values).ravel()
        groups.append((max(M - s - (LINEAR_GROUP - 1), 0), table))
    return groups


def _table_sums(packed: np.ndarray, n: int, groups: list) -> np.ndarray:
    """Y for every row of packed innovation bits (little-endian, n + M per
    row): each output is its groups' table entries summed in group order."""
    rows = packed.shape[0]
    # a pass reads bits up to w past its last output, and for each window
    # the byte after its first: one zero byte pads the row end
    w = groups[0][0] + LINEAR_GROUP - 1
    packed = np.concatenate([packed, np.zeros((rows, 1), np.uint8)], axis=1)
    mask = (1 << LINEAR_GROUP) - 1
    out = np.empty((rows, n))
    width = min(n, LINEAR_SLAB)  # a multiple of 8 when a row is cut
    height = max(1, LINEAR_SLAB // (width + w))
    shifts = np.tile(np.arange(8), -(-(width + w) // 8))
    for r in range(0, rows, height):
        for s in range(0, n, width):
            e = min(s + width, n)
            b = packed[r:r + height, s // 8:(e + w) // 8 + 1]
            # the window at bit p of the pass: the 16 bits from byte p // 8
            # on, shifted right by p % 8, low 8 bits
            u = b[:, :-1].astype(np.intp)
            u |= b[:, 1:].astype(np.intp) << 8
            v = np.repeat(u, 8, axis=1)
            v >>= shifts[:v.shape[1]]
            v &= mask
            o = out[r:r + height, s:e]
            part = np.empty(o.shape)
            for g, (offset, table) in enumerate(groups):
                table.take(v[:, offset:offset + e - s], out=o if g == 0 else part,
                           mode="clip")
                if g:
                    o += part
    return out


def make_linear_process(spec: LinearProcessSpec) -> ProcessModel:
    """Y_k = sum_(i <= M) c_i eps_(k-i), with M the truncation radius.

    Two-valued innovations (rademacher, two_point) are drawn as bits, from
    the draws `IIDSpec.draw` makes, and Y is summed from `_sign_window_tables`: one table entry per group of
    LINEAR_GROUP coefficients (the group's sum, in ascending i), then the
    groups in order. The order is fixed by this code, so every value is a
    function of its own row's bits alone; where all partial sums are exact
    (dyadic coefficients over few bits) Y equals the exact sum. A continuous
    law has no finite table, so uniform innovations keep `np.convolve`.
    """
    M = spec.truncation_radius()
    coeffs = np.array([spec.coefficient(i) for i in range(M + 1)])
    inn = spec.innovation
    width = inn.b - inn.a if inn.law == "two_point" else 2 * inn.bound
    y_bound = float(np.sum(np.abs(coeffs)) + spec.tail_abs_sum(M + 1)) * inn.bound
    if inn.law == "uniform":
        def linear_values(n, rng, reps):
            eps = inn.draw((reps, n + M), rng)
            # one convolution over the rows laid end to end; each row's n
            # outputs are the windows inside it, the M straddling ones dropped
            y = np.convolve(eps.ravel(), coeffs, mode="valid")
            return np.concatenate([y, np.empty(M)]).reshape(eps.shape)[..., :n]
    else:
        # bit 1 is a sign +1 (rademacher) or the draw u < p, value a (two_point)
        values = np.array([-1.0, 1.0] if inn.law == "rademacher" else [inn.b, inn.a])
        groups = _sign_window_tables(coeffs, values)

        def linear_values(n, rng, reps):
            shape = (reps, n + M)
            packed = _fair_bytes(rng, shape) if inn.law == "rademacher" else \
                np.packbits(rng.random(shape) < inn.p, axis=-1, bitorder="little")
            return _table_sums(packed, n, groups)

    f = spec.f if spec.f is not None else (lambda y: y)
    if spec.f is None:
        bound = y_bound
        center = 0.0
    else:
        if spec.f_bound is None:
            raise ValueError("a custom observable must declare f_bound")
        # center empirically once, with a pinned named stream
        rng = RngStream(0xC0FFEE).named("linear-center").generator()
        center = float(np.mean(f(linear_values((1 << 20) - M, rng, 1)[0])))
        bound = 2 * spec.f_bound

    def sampler(n, rng, reps):
        y = linear_values(n, rng, reps)
        return f(y) - center if spec.f is not None else y

    # C(A) increment bound Delta_i <= w(width * |c_i|)-style metadata
    delta = None
    if spec.modulus is not None:
        delta = np.array([spec.modulus(2.0 * width * abs(c)) for c in coeffs])
    return ProcessModel(
        name="linear_process", bound=bound, sampler=sampler, kernel=None,
        meta={"truncation_radius": M,
              "truncation_error": width * spec.tail_abs_sum(M + 1),
              "delta_bounds": delta, "spec": spec})


_AR1_CHUNK = 1 << 16  # drive values per Python-float chunk of a single path


def _ar1_path(y0: float, drive: np.ndarray, rho: float) -> np.ndarray:
    """y_0 = y0, y_t = rho * y_(t-1) + drive[t-1]: one path, on Python floats.

    The same two IEEE operations per step as the row-vector recurrence, so
    the values are identical, without boxing every step as a numpy scalar.
    """
    y = np.empty(drive.size + 1)
    y[0] = prev = y0
    for start in range(0, drive.size, _AR1_CHUNK):
        steps = []
        for d in drive[start:start + _AR1_CHUNK].tolist():
            prev = rho * prev + d
            steps.append(prev)
        y[start + 1:start + 1 + len(steps)] = steps
    return y


def make_iterated_function(spec: IteratedFunctionSpec) -> ProcessModel:
    rho = spec.rho
    burn = int(math.ceil(math.log(1e-12) / math.log(rho)))  # rho^burn <= 1e-12
    kernel = ChebyshevKernel.iterated(rho)
    nodes = kernel.nodes
    f = spec.observable if spec.observable is not None else (lambda y: y)
    fx = kernel.resolved_values(f)  # refuses non-smooth f
    mean = kernel.mu(np.asarray(f(nodes), dtype=float))  # stationary mean of f
    obs = lambda y: f(y) - mean

    def sampler(n, rng, reps):
        eps = rng.random((reps, n + burn))
        y0 = rng.random(reps)
        drive = (1.0 - rho) * eps.T[1:]
        if reps == 1:
            y = _ar1_path(float(y0[0]), drive.ravel(), rho)[None]
        else:
            # the recurrence runs over time; each step updates every row at
            # once, in place: rho * y, then + d, as in `_ar1_path`
            y = np.empty((len(drive) + 1, reps))
            y[0] = y0
            for t, d in enumerate(drive):
                np.multiply(y[t], rho, out=y[t + 1])
                y[t + 1] += d
            y = y.T
        # n+1 states: y[:, burn-1] is the pre-observation state
        return obs(y[:, burn:]), y[:, burn - 1:]

    bound = float(np.max(np.abs(fx - mean)))
    return ProcessModel(name="iterated_function", bound=bound * (1 + 1e-9),
                        sampler=sampler, kernel=kernel,
                        meta={"rho": rho, "burn_in": burn, "observable": obs})


def _digit_depth(beta: int) -> int:
    """Digits per window: beta^-depth <= 2^-53, with beta^depth < 2^63 so
    that a window is one int64."""
    depth = max(2, int(math.ceil(53 / math.log2(beta))))
    if beta**depth >= 1 << 63:
        raise ValueError(f"beta = {beta}: a window of {depth} base-beta digits "
                         "does not fit in 63 bits")
    return depth


def _digit_windows(digits: np.ndarray, beta: int, depth: int) -> np.ndarray:
    """X_k = sum_{j<depth} d_(k+j) beta^(depth-1-j) for every full window of
    the last axis, in int64, by doubling the window width: O(log depth) passes."""
    window, width = digits, 1
    for bit in bin(depth)[3:]:
        # width w -> 2w: X_2w(k) = X_w(k) beta^w + X_w(k + w)
        window = window[..., :-width] * np.int64(beta**width) + window[..., width:]
        width *= 2
        if bit == "1":
            # width w -> w + 1: one more digit on the right
            window = window[..., :-1] * beta + digits[..., width:]
            width += 1
    return window


_DIGIT_CHUNK = 1 << 16  # about this many orbit values per pass of _digit_shift_orbit


def _digit_shift_orbit(n: int, beta: int, rng: np.random.Generator,
                       reps: int) -> np.ndarray:
    """Orbits of x -> beta*x mod 1 under the invariant (Lebesgue) measure, exact.

    x_k is read off a window of `depth` iid base-beta digits, so the shift
    relation holds to the last retained digit instead of collapsing to 0:
    x_k = X_k beta^-depth with X_k the window as an integer. That is exact for
    beta = 2 and within about one ulp of the rational otherwise.
    """
    depth = _digit_depth(beta)
    shape = (reps, n + depth)
    digits = _fair_bits(rng, shape).astype(np.int64) if beta == 2 \
        else rng.integers(0, beta, shape)
    # beta^-depth = hi + lo, lo the rounding error of hi; X = high + low with
    # low its last 11 bits, so high and low are exact as floats: one rounding
    # in high * hi, one in the final sum
    hi = 1.0 / beta**depth
    lo = float(Fraction(1, beta**depth) - Fraction(hi))
    # x_k overwrites d_k in place: a pass reads only digits at or right of
    # its own first column, and passes run left to right
    x = digits.view(np.float64)[:, :n]
    height = max(1, _DIGIT_CHUNK // n)
    for r in range(0, reps, height):
        for s in range(0, n, _DIGIT_CHUNK):
            e = min(s + _DIGIT_CHUNK, n)
            window = _digit_windows(digits[r:r + height, s:e + depth - 1], beta, depth)
            out = x[r:r + height, s:e]
            np.multiply(window & 2047, hi, out=out)
            out += window * lo
            window &= ~2047
            out += window * hi
    return x


def _gauss_orbit(n: int, rng: np.random.Generator, reps: int) -> np.ndarray:
    """Orbits of the Gauss map x -> frac(1/x) under the Gauss measure, exact.

    A row starts at x_0 = X 2^-B, X a B-bit uniform accepted when a second one
    V has V (2^B + X) < 2^2B, with probability 1/(1 + x_0): the Gauss law on
    the grid. Euclid's (p, q) -> (q mod p, p) from (X, 2^B) runs the map
    exactly; x_k = p / q is rounded once. The map stretches the grid about
    3.42 bits a step (Lyapunov exponent pi^2 / (6 ln 2) nats), so B >= 4n + 256
    keeps each value's cell far below 2^-53. Rows are drawn one after another,
    so a block's rows equal sequential one-row draws.
    """
    if n > GAUSS_ORBIT_CAP:
        raise ValueError(f"Gauss-map orbit length capped at {GAUSS_ORBIT_CAP}")
    words = -(-(4 * n + 256) // 64)
    one = 1 << 64 * words
    out = np.empty((reps, n))
    for row in out:
        while True:
            x, v = (int.from_bytes(w.tobytes(), "little")
                    for w in _fair_bytes(rng, (2, 64 * words)))
            if v * (one + x) < one * one:
                break
        p, q, values = x, one, []
        for _ in range(n):
            values.append(p / q)
            p, q = q % p, p
        row[:] = values
    return out


def _cos_2pi(x):
    """cos(2 pi x), evaluated in the buffer that holds 2 pi x."""
    y = np.asarray(2 * np.pi * x)
    return np.cos(y, out=y)


def make_expanding_map(spec: ExpandingMapSpec) -> ProcessModel:
    f = spec.observable if spec.observable is not None else _cos_2pi
    if spec.map in ("doubling", "beta"):
        beta = 2 if spec.map == "doubling" else int(spec.beta)
        _digit_depth(beta)  # refuses a beta whose digit windows overflow int64
        kernel = ChebyshevKernel.integer_beta(beta)
        draw_orbit = lambda n, rng, reps: _digit_shift_orbit(n, beta, rng, reps)
        name = f"expanding_beta{beta}"
    else:
        kernel = ChebyshevKernel.gauss()
        draw_orbit = _gauss_orbit
        name = "expanding_gauss"
    fx = kernel.resolved_values(f)  # refuses non-smooth f
    if spec.mean is not None:
        mean = spec.mean
    else:
        mean = kernel.mu(np.asarray(f(kernel.nodes), dtype=float))

    def sampler(n, rng, reps):
        x = draw_orbit(n, rng, reps)
        return f(x) - mean, x

    bound = float(np.max(np.abs(fx - mean)))
    return ProcessModel(name=name, bound=bound * (1 + 1e-9), sampler=sampler,
                        kernel=kernel, meta={"mean": mean, "observable": f})


def _exact_rotation(a: float):
    """Exact integer arithmetic mod 1 in units of 2^-D for a walk of step a.

    The float a is M 2^-E with M an integer, so frac(a j) = (M j mod 2^E) 2^-E;
    D = max(E, 53) also holds a uniform draw xi0 = X 2^-53 exactly. Returns
    (D, j -> frac(a j) 2^D, xi0 -> xi0 2^D). The integers are wrapping uint64
    when D <= 64, Python integers in object arrays otherwise (|a| below 2^-12
    with a full mantissa).
    """
    num, den = float(a).as_integer_ratio()
    d = max(den.bit_length() - 1, 53)
    a_d = num * ((1 << d) // den)  # a 2^D, an integer
    mask = (1 << d) - 1
    if d <= 64:
        # two's complement: j mod 2^64, so the product wraps to a j 2^D mod 2^64
        return (d, lambda j: (j.view(np.uint64) * np.uint64(a_d & mask)) & mask,
                lambda xi0: (xi0 * 2.0**d).astype(np.uint64))
    return (d, lambda j: (j.astype(object) * a_d) & mask,
            lambda xi0: np.array([int(x) for x in xi0 * 2.0**d], dtype=object))


def make_circle_walk(spec: CircleWalkSpec) -> ProcessModel:
    kernel = CircleFourierKernel(spec.a, spec.coeffs)
    f0 = kernel.coeffs.get(0, 0.0).real if 0 in kernel.coeffs else 0.0
    centered = kernel.centered_coeffs()
    bound = float(sum(abs(c) for c in centered.values()))
    # Re sum_k c_k e(k x) as sum_{k > 0} Re((c_k + conj c_-k) e(k x))
    modes = [(2j * np.pi * k, complex(centered.get(k, 0.0))
              + complex(centered.get(-k, 0.0)).conjugate())
             for k in sorted({abs(k) for k in centered})]
    d, fractions, scaled = _exact_rotation(spec.a)
    mask = (1 << d) - 1

    def sampler(n, rng, reps):
        xi0 = rng.random(reps)
        # the walk's integer position m_k = sum of k signs, exact
        walk = _fair_bits(rng, (reps, n)).astype(np.int64)
        walk *= 2
        walk -= 1
        walk.cumsum(axis=1, out=walk)
        lo = int(walk.min())
        walk -= lo  # index into the visited range lo..max
        frac = fractions(np.arange(lo, lo + int(walk.max()) + 1))
        if reps == 1:
            # a one-row block keeps its states (a larger block omits them):
            # xi_k = frac(xi0 + a m_k) in exact integers mod 2^D, rounded once;
            # n+1 states: xi0 first, so conditioning on the pre-walk position works
            states = np.empty((1, n + 1))
            states[:, 0] = xi0
            pos = frac.take(walk)
            pos += scaled(xi0)[0]
            pos &= mask
            states[:, 1:] = pos
            del pos
            states[:, 1:] *= 2.0**-d
        # values: f at frac(xi0 + a j) for every row and visited j, as
        # Re sum_k c_k e(k xi0) e(k frac(a j)), then one gather per value:
        # no cos and no mod per value
        t = np.multiply(frac, 2.0**-d, dtype=float, casting="unsafe")
        table = np.zeros((reps, t.size))
        for w, c in modes:
            z, turn = c * np.exp(w * xi0), np.exp(w * t)
            table += np.multiply.outer(z.real, turn.real)
            table -= np.multiply.outer(z.imag, turn.imag)
        walk += np.arange(0, table.size, t.size)[:, None]  # row r reads table[r]
        # each value overwrites its own index (take reads index i before it
        # writes item i; mode="clip" takes no defensive copy)
        values = table.ravel().take(walk, out=walk.view(np.float64), mode="clip")
        return (values, states) if reps == 1 else values

    return ProcessModel(name="circle_walk", bound=bound * (1 + 1e-9), sampler=sampler,
                        kernel=kernel, meta={"a": spec.a, "coeffs": dict(centered),
                                             "mean": f0,
                                             "observable": partial(kernel.eval_coeffs, centered)})


def stationary_age_law(tau_pmf: np.ndarray) -> np.ndarray:
    """pi(j) = P(tau > j) / E(tau) on {0, .., j_max - 1}."""
    mean = float(np.sum(np.arange(1, tau_pmf.size + 1) * tau_pmf))
    tail = 1.0 - np.cumsum(tau_pmf)
    surv = np.concatenate([[1.0], tail[:-1]])  # P(tau > j), j = 0..j_max-1
    return surv / mean


def age_chain_matrix(tau_pmf: np.ndarray) -> np.ndarray:
    """Transition matrix of the age chain on {0..j_max-1}: j -> j-1; 0 -> tau - 1.

    One renewal step is folded into the jump from 0 so that the stationary law
    is exactly the age law pi(j) = P(tau > j)/E(tau).
    """
    m = tau_pmf.size
    P = np.zeros((m, m))
    for j in range(1, m):
        P[j, j - 1] = 1.0
    P[0, : m] = tau_pmf  # from 0, land on tau - 1 in {0..m-1}
    return P


def make_counterexample_chain(spec: CounterexampleChainSpec) -> ProcessModel:
    tau = spec.tau_pmf()
    mean_tau = float(np.sum(np.arange(1, tau.size + 1) * tau))
    if not math.isfinite(mean_tau):
        raise ValueError("return time must have finite mean")
    pi = stationary_age_law(tau)
    P = age_chain_matrix(tau)
    # independent oracle: pi must solve the truncated balance equations
    bal = np.max(np.abs(P.T @ pi - pi))
    if bal > 1e-12:
        raise RuntimeError(f"stationary age law fails balance equations ({bal:.2e})")

    def sampler(n, rng, reps):
        y = np.empty((reps, n + 1), dtype=np.int64)
        y[:, 0] = rng.choice(tau.size, p=pi, size=reps)
        for k in range(1, n + 1):
            y[:, k] = y[:, k - 1] - 1
            renew = y[:, k - 1] == 0
            if np.any(renew):
                # tau - 1, folded renewal
                y[renew, k] = rng.choice(tau.size, p=tau, size=int(np.sum(renew)))
        xi = _fair_bits(rng, (reps, n)) * 2.0 - 1.0
        # n+1 states: the age y_0 drawn from the age law first
        return xi * (y[:, 1:] != 0), y

    return ProcessModel(name="counterexample_chain", bound=1.0, sampler=sampler,
                        kernel=None,
                        meta={"tau_pmf": tau, "age_law": pi, "age_matrix": P,
                              "mean_tau": mean_tau})


# ---------------------------------------------------------------------------
# config-format (de)serialization for the CLI

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def model_from_config(cfg: dict) -> ProcessModel:
    cfg = dict(cfg)
    kind = cfg.pop("kind", None)
    if kind == "iid":
        return make_iid(IIDSpec(**cfg))
    if kind == "alternating":
        return make_alternating_plus_iid(IIDSpec(**cfg))
    if kind == "linear":
        inn = IIDSpec(**cfg.pop("innovation", {}))
        return make_linear_process(LinearProcessSpec(innovation=inn, **cfg))
    if kind == "iterated":
        return make_iterated_function(IteratedFunctionSpec(**cfg))
    if kind == "expanding":
        return make_expanding_map(ExpandingMapSpec(**cfg))
    if kind == "circle":
        a_val = cfg.pop("a", "golden")
        cfg["a"] = GOLDEN if a_val in (None, "golden") else float(a_val)
        coeffs = cfg.pop("coeffs", None)
        if coeffs is not None:
            cfg["coeffs"] = {int(k): complex(v) for k, v in coeffs.items()}
        return make_circle_walk(CircleWalkSpec(**cfg))
    if kind == "counterexample":
        return make_counterexample_chain(CounterexampleChainSpec(**cfg))
    raise ValueError(f"unknown model kind {kind!r}")
