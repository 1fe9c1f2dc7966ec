"""Rate functions, block-martingale decomposition, and deviation scanning.

Rare-event probabilities come from three interchangeable estimators: exact
binomial summation (random signs only), exponential-tilting importance
sampling (any iid law with a computable CGF), and naive Monte Carlo (any
model, with a pre-flight refusal when the expected exceedance count is too
small to mean anything).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import REPLICA_CHUNK, ProcessModel, RngStream, SpeedSequence, map_replicas, write_csv
from .processes import IIDSpec
from .transfer import CircleFourierKernel, orbit

__all__ = [
    "PiecewiseLinearPath",
    "DeviationScanReport",
    "MdpPointEstimate",
    "BlockDecomposition",
    "rate_I",
    "rate_J_weighted",
    "endpoint_rate",
    "block_martingale_decompose",
    "exact_binomial_tail_log",
    "tilted_is_estimator",
    "method_refusal",
    "empirical_mdp_point",
    "mdp_scan",
]

J_GRID = 2048  # intervals of the uniform grid that refines a path for rate_J_weighted
TILTED_CHUNK = 256  # replicas per chunk of the tilted estimator


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """h on [0,1] given by breakpoints 0 = t_0 < ... < t_m = 1 and h(t_i); h(0) = 0."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.breakpoints, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.size != v.size or t.size < 2:
            raise ValueError("breakpoints and values must have equal length >= 2")
        if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0):
            raise ValueError("breakpoints must strictly increase from 0 to 1")
        if v[0] != 0.0:
            raise ValueError("paths must start at h(0) = 0")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "breakpoints", t)
        object.__setattr__(self, "values", v)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.breakpoints)

    def eval(self, t) -> np.ndarray:
        return np.interp(np.asarray(t, dtype=float), self.breakpoints, self.values)

    def refined(self, extra_points: Sequence[float]) -> "PiecewiseLinearPath":
        """Same path, extra (collinear) breakpoints inserted."""
        t = np.unique(np.concatenate([self.breakpoints, np.asarray(extra_points)]))
        t = t[(t >= 0.0) & (t <= 1.0)]
        return PiecewiseLinearPath(t, self.eval(t))

    def scaled(self, alpha: float) -> "PiecewiseLinearPath":
        return PiecewiseLinearPath(self.breakpoints, alpha * self.values)


def rate_I(h: PiecewiseLinearPath, sigma2: float) -> float:
    """(1 / 2 sigma^2) * integral of (h')^2.

    At sigma^2 = 0 the law is the point mass at the zero path, as in
    `endpoint_rate`: I(0) = 0 and I(h != 0) = +inf.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if sigma2 == 0.0:
        return 0.0 if np.all(h.values == 0.0) else math.inf
    return float(np.sum(h.slopes**2 * np.diff(h.breakpoints))) / (2.0 * sigma2)


def rate_J_weighted(h: PiecewiseLinearPath, g: Callable[[np.ndarray], np.ndarray],
                    sigma2: float) -> float:
    """(1 / 2 sigma^2) * integral of (h'/g)^2 for a positive Lipschitz weight g;
    at sigma^2 = 0, as in `rate_I`, J(0) = 0 and J(h != 0) = +inf."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    fine = np.linspace(0.0, 1.0, J_GRID + 1)
    gv = np.asarray(g(fine), dtype=float)
    if np.min(gv) <= 0.0:
        raise ValueError("weight g must be bounded away from 0 on [0,1]")
    if sigma2 == 0.0:
        return 0.0 if np.all(h.values == 0.0) else math.inf
    # mesh = path breakpoints refined by the evaluation grid
    mesh = np.unique(np.concatenate([h.breakpoints, fine]))
    slopes = h.slopes
    seg = np.clip(np.searchsorted(h.breakpoints, mesh[:-1], side="right") - 1,
                  0, slopes.size - 1)
    gm = np.asarray(g(mesh), dtype=float)
    integrand = (slopes[seg, None] / np.column_stack([gm[:-1], gm[1:]])) ** 2
    acc = float(np.sum(0.5 * integrand.sum(axis=1) * np.diff(mesh)))
    return acc / (2.0 * sigma2)


def endpoint_rate(x: float, sigma2: float) -> float:
    """x^2 / (2 sigma^2): the infimum of the path rate over {h(1) >= x}."""
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if sigma2 == 0.0:
        return 0.0 if x == 0.0 else math.inf
    return x * x / (2.0 * sigma2)


# ---------------------------------------------------------------------------
# block-martingale decomposition


@dataclass
class BlockDecomposition:
    m: int
    block_sums: np.ndarray       # X_{i,m}
    cond_means: np.ndarray       # E(X_{i,m} | F_{(i-1)m})
    increments: np.ndarray       # D_{i,m} = block sum - conditional mean
    boundary: float              # the trailing n mod m fragment of S_n
    cond_mean_check: float       # max discrepancy of the conditional means; nan if unchecked
    cond_mean_checked: bool      # whether an exact oracle checked them

    def reconstruct(self) -> float:
        return float(np.sum(self.increments) + np.sum(self.cond_means) + self.boundary)


def _cond_block_means(kernel, f_values: np.ndarray, start_states: np.ndarray,
                      m: int) -> np.ndarray:
    """E(sum of next m observables | start state) per block start."""
    cum = np.sum(orbit(kernel, f_values, m), axis=0)
    return kernel.eval(cum, np.asarray(start_states, dtype=float))


def _occupation_weights(m: int) -> np.ndarray:
    """w(d) = sum over s = 1..m of P(a fair +-1 walk from 0 is at d after s
    steps), for d = -m..m: one binomial recursion. Every w(d) * 2^m is an
    integer below m * 2^m, so the floats are exact dyadics while m <= 47."""
    p = np.zeros(2 * m + 3)  # one zero pad on each side of d = -m..m
    p[m + 1] = 1.0
    w = np.zeros(2 * m + 1)
    for _ in range(m):
        p[1:-1] = 0.5 * (p[:-2] + p[2:])
        w += p[1:-1]
    return w


def _circle_block_means(kernel, x0: np.ndarray, m: int) -> np.ndarray:
    """Oracle for E(sum of the next m observables | x0) on the circle walk:
    sum_d w(d) f(x0 + a d) with the walk's occupation weights, no kernel orbit."""
    d = np.arange(-m, m + 1)
    values = kernel.eval_coeffs(kernel.centered_coeffs(), x0[:, None] + kernel.a * d)
    return values @ _occupation_weights(m)


def block_martingale_decompose(model: ProcessModel, path, m: int,
                               check_blocks: int = 4) -> BlockDecomposition:
    """Split S_n into m-block martingale increments plus predictable means.

    Block i, X_(im+1)..X_(im+m), is conditioned on states[i m], the state
    before it, so the path needs the n + 1 states of a chain with memory
    (see `ProcessModel`). n states serve only a kernel with equal rows, the
    iid chains, where every conditional mean is 0; any other path is
    refused with a ValueError. That refuses the expanding maps: their
    states are the forward orbit, and their kernel, the transfer operator,
    steps the time-reversed chain.

    On circle-walk kernels the conditional means of up to `check_blocks`
    blocks are checked against the walk's occupation weights (exact oracle,
    O(m^2) work). No other kernel has such a check: there
    `cond_mean_check` is nan and `cond_mean_checked` is False.
    """
    kernel, f_nodes = model.kernel, model.centered_observable()
    if path.states is None:
        raise ValueError("path must record the underlying states")
    values = path.values
    n = values.size
    n_blocks = n // m
    if n_blocks < 1:
        raise ValueError("path shorter than one block")
    st = np.asarray(path.states, dtype=float)
    if st.size != n + 1 and not (st.size == n and np.all(kernel.matrix == kernel.matrix[0])):
        raise ValueError(f"model {model.name} records {st.size} states for {n} values; "
                         "block i is conditioned on the state before it, so decompose "
                         "needs n + 1 states, or n states of a kernel with equal rows")

    block_sums = values[: n_blocks * m].reshape(n_blocks, m).sum(axis=1)
    starts = st[0 : n_blocks * m : m]
    cond = _cond_block_means(kernel, f_nodes, starts, m)
    increments = block_sums - cond
    boundary = float(np.sum(values[n_blocks * m :]))

    check = math.nan
    checked = min(check_blocks, n_blocks)
    if isinstance(kernel, CircleFourierKernel) and checked:
        check = float(np.max(np.abs(_circle_block_means(kernel, starts[:checked], m)
                                    - cond[:checked])))
    return BlockDecomposition(m=m, block_sums=block_sums, cond_means=cond,
                              increments=increments, boundary=boundary,
                              cond_mean_check=check,
                              cond_mean_checked=not math.isnan(check))


# ---------------------------------------------------------------------------
# tail-probability oracles


def exact_binomial_tail_log(n: int, t: float) -> float:
    """log P(S_n >= t) for S_n a sum of n independent fair signs.

    The log binomial term at k_min comes from `math.lgamma`; each later term
    adds log((n - k) / (k + 1)) to it, one cumulative sum per chunk, and each
    chunk is summed in log space with a max shift. The sum runs from k_min
    up and stops at relative tail 1e-15; exact up to rounding.
    """
    if n < 1 or n > 10**7:
        raise ValueError("n must be in [1, 10^7]")
    k_min = math.ceil((n + t) / 2.0)
    if k_min > n:
        return -math.inf
    if k_min <= 0:
        return 0.0
    anchor = (math.lgamma(n + 1) - math.lgamma(k_min + 1) - math.lgamma(n - k_min + 1)
              + n * math.log(0.5))
    total = -math.inf
    k = k_min
    chunk = 65536
    while True:
        stop = min(k + chunk, n + 1)
        ks = np.arange(k, stop - 1, dtype=float)
        logs = np.empty(stop - k)  # log pmf(k), ..., log pmf(stop - 1)
        logs[0] = 0.0
        np.cumsum(np.log((n - ks) / (ks + 1.0)), out=logs[1:])
        logs += anchor
        top = float(logs.max())
        part = top + math.log(float(np.sum(np.exp(logs - top))))
        total = float(np.logaddexp(total, part))
        if stop > n or total - part > 34.5:  # past n, or the chunk adds < 1e-15
            return min(total, 0.0)
        anchor = float(logs[-1]) + math.log((n - stop + 1) / stop)  # log pmf(stop)
        k = stop


def _cgf(spec: IIDSpec):
    """Cumulant generating function and its derivative for the supported iid laws."""
    if spec.law == "rademacher":
        K = lambda th: np.logaddexp(th, -th) - math.log(2.0)
        Kp = np.tanh
    elif spec.law == "uniform":
        c = spec.c

        def K(th):
            th = np.asarray(th, dtype=float)
            small = np.abs(th) < 1e-8
            x = np.where(small, 1.0, th * c)
            out = np.log(np.sinh(x) / x)
            return np.where(small, th**2 * c**2 / 6.0, out)

        def Kp(th):
            th = np.asarray(th, dtype=float)
            small = np.abs(th) < 1e-8
            x = np.where(small, 1.0, th * c)
            out = c * (1.0 / np.tanh(x)) - 1.0 / np.where(small, 1.0, th)
            return np.where(small, th * c**2 / 3.0, out)
    else:
        p, a, b = spec.p, spec.a, spec.b

        def K(th):
            return np.logaddexp(th * a + math.log(p), th * b + math.log(1 - p))

        def Kp(th):
            wa = p * np.exp(th * a - K(th))
            return wa * a + (1 - wa) * b
    return K, Kp


def _solve_tilt(spec: IIDSpec, mean_target: float) -> float:
    """theta with tilted mean = mean_target, by monotone bisection."""
    if not 0.0 <= mean_target < spec.bound:
        raise ValueError(f"target mean {mean_target} outside [0, {spec.bound})")
    if mean_target == 0.0:
        return 0.0
    _, Kp = _cgf(spec)
    hi = 1.0
    while float(Kp(hi)) < mean_target:
        hi *= 2.0
        if hi > 1e8:
            raise ValueError("tilt solve failed: target too close to the support edge")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(Kp(mid)) < mean_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _draw_tilted(spec: IIDSpec, theta: float, size, rng: np.random.Generator):
    """Values of the uniform law tilted by theta, by inverse CDF."""
    if theta == 0.0:
        return spec.draw(size, rng)
    c = spec.c
    u = rng.random(size)
    lo, hi = math.exp(-theta * c), math.exp(theta * c)
    return np.log(lo + u * (hi - lo)) / theta


def _tilted_two_point(spec: IIDSpec, theta: float):
    """(q_a, a, b): under the tilt theta a value of a two-point law is a with
    probability q_a = p e^(theta a) / (p e^(theta a) + (1 - p) e^(theta b)),
    else b. In logistic form, so that no exp overflows at large theta: q_a is
    1 / (1 + e^-x), which equals scipy's expit(x) to the bit, and 0.0 where
    e^-x is past the largest float."""
    p, a, b = (0.5, 1.0, -1.0) if spec.law == "rademacher" else (spec.p, spec.a, spec.b)
    x = theta * (a - b) + math.log(p) - math.log1p(-p)
    return (1.0 / (1.0 + math.exp(-x)) if x > -709.78 else 0.0), a, b


def tilted_is_estimator(spec: IIDSpec, n: int, t: float, replicas: int,
                        stream: RngStream):
    """(log P(S_n >= t) estimate, SE of the log) by exponential tilting.

    The tilt theta* centers the sampling law at t/n, so the indicator fires
    about half the time; weights exp(-theta S + n K(theta)) make the
    estimate unbiased for the original law. For the two-point laws
    (rademacher, two_point) the weight depends on S alone, and under the tilt
    S = a K + b (n - K) with K ~ Binomial(n, q_a(theta)), so a replica is one
    binomial draw; the uniform law draws its n values.
    """
    theta = _solve_tilt(spec, t / n)
    K, _ = _cgf(spec)
    nk = float(n * K(theta))
    if spec.law == "uniform":
        def draw_sums(size, rng):
            return _draw_tilted(spec, theta, (size, n), rng).sum(axis=1)
    else:
        q_a, a, b = _tilted_two_point(spec, theta)

        def draw_sums(size, rng):
            k = rng.binomial(n, q_a, size)
            return a * k + b * (n - k)

    def chunk_weights(rows, rng):
        s = draw_sums(len(rows), rng)
        w = np.where(s >= t, np.exp(-theta * s + nk), 0.0)
        return float(np.sum(w)), float(np.sum(w * w))

    w_sum = 0.0
    w2_sum = 0.0
    for w1, w2 in map_replicas(replicas, TILTED_CHUNK, stream, chunk_weights):  # ascending ci
        w_sum += w1
        w2_sum += w2
    mean_w = w_sum / replicas
    if mean_w == 0.0:
        return -math.inf, math.inf
    var_w = max(w2_sum / replicas - mean_w**2, 0.0)
    se_log = math.sqrt(var_w / replicas) / mean_w
    return math.log(mean_w), se_log


# ---------------------------------------------------------------------------
# empirical MDP points and scans


@dataclass
class MdpPointEstimate:
    n: int
    a_n: float
    x: float
    method: str
    threshold: float
    estimate: Optional[float]  # a_n * log P, None when no exceedance observed
    se: float = 0.0


def method_refusal(method: str, model: ProcessModel) -> Optional[str]:
    """Why `method` cannot serve `model`, or None when it can: the exact
    binomial oracle serves iid fair signs only, tilted sampling iid models."""
    spec = model.meta.get("spec")
    if method == "exact_binomial" and not (isinstance(spec, IIDSpec)
                                           and spec.law == "rademacher"):
        return "exact binomial oracle applies to the fair-sign model only"
    if method == "tilted" and not isinstance(spec, IIDSpec):
        return "tilted importance sampling applies to iid models only"
    return None


def empirical_mdp_point(model: ProcessModel, n: int, a_n: float, x: float,
                        method: str, replicas: int = 0,
                        stream: Optional[RngStream] = None,
                        sigma2: Optional[float] = None) -> MdpPointEstimate:
    """a_n * log P(S_n >= x sqrt(n / a_n)) by the requested estimator."""
    if not 0.0 < a_n <= 1.0:
        raise ValueError("speed a_n must lie in (0, 1]")
    t = x * math.sqrt(n / a_n)
    refusal = method_refusal(method, model)
    if refusal is not None:
        raise ValueError(refusal)
    spec = model.meta.get("spec")
    if method == "exact_binomial":
        lp = exact_binomial_tail_log(n, t)
        return MdpPointEstimate(n=n, a_n=a_n, x=x, method=method, threshold=t,
                                estimate=a_n * lp)
    if method == "tilted":
        if stream is None or replicas < 1:
            raise ValueError("tilted method needs replicas and a stream")
        lp, se = tilted_is_estimator(spec, n, t, replicas, stream.named("tilted", n))
        return MdpPointEstimate(n=n, a_n=a_n, x=x, method=method, threshold=t,
                                estimate=a_n * lp, se=a_n * se)
    if method == "naive":
        if stream is None or replicas < 1:
            raise ValueError("naive method needs replicas and a stream")
        s2 = sigma2 if sigma2 is not None else model.meta.get("sigma2")
        if s2 is None:
            raise ValueError("naive pre-flight needs a sigma2 estimate")
        from scipy.special import ndtr  # scipy.stats' normal tail to the bit; only here
        expected = replicas * float(ndtr(-t / math.sqrt(s2 * n)))  # normal tail
        if expected < 20.0:
            raise ValueError(
                f"naive MC refused: expected exceedances {expected:.2f} < 20 at this "
                f"threshold; raise replicas to ~{math.ceil(20 / max(expected / replicas, 1e-300))} "
                "or use the tilted estimator")

        def chunk_hits(rows, rng):
            block = model.sample_block(n, len(rows), rng)
            return int(np.sum(np.sum(block, axis=1) >= t))

        hits = sum(map_replicas(replicas, REPLICA_CHUNK, stream.named("naive", n), chunk_hits))
        if hits == 0:
            return MdpPointEstimate(n=n, a_n=a_n, x=x, method=method, threshold=t,
                                    estimate=None)
        p_hat = hits / replicas
        se_log = math.sqrt((1 - p_hat) / (p_hat * replicas))
        return MdpPointEstimate(n=n, a_n=a_n, x=x, method=method, threshold=t,
                                estimate=a_n * math.log(p_hat), se=a_n * se_log)
    raise ValueError(f"unknown method {method!r}")


SCAN_COLUMNS = ("model", "n", "a_n", "x", "method", "estimate", "target", "gap", "se")


@dataclass
class DeviationScanReport:
    rows: list = field(default_factory=list)

    def add(self, model_name, point: MdpPointEstimate, sigma2: float):
        target = -(point.x**2) / (2.0 * sigma2)
        est = point.estimate
        self.rows.append({
            "model": model_name, "n": point.n, "a_n": point.a_n, "x": point.x,
            "method": point.method,
            "estimate": est if est is not None else "no_exceedance",
            "target": target,
            "gap": (est - target) if est is not None else "",
            "se": point.se,
        })

    def to_csv(self, path: str):
        write_csv(path, SCAN_COLUMNS, ([r[c] for c in SCAN_COLUMNS] for r in self.rows))

    def to_json(self) -> str:
        return json.dumps({"columns": list(SCAN_COLUMNS), "rows": self.rows},
                          indent=2, sort_keys=True)


def mdp_scan(model: ProcessModel, speed: SpeedSequence, n_grid: Sequence[int],
             x_grid: Sequence[float], sigma2: float, method: str,
             replicas: int = 0, stream: Optional[RngStream] = None) -> DeviationScanReport:
    if not n_grid or not len(x_grid):
        raise ValueError("n and x grids must be nonempty")
    report = DeviationScanReport()
    for n in sorted(n_grid):
        a_n = speed.a(n)
        for x in sorted(x_grid):
            point = empirical_mdp_point(model, n, a_n, x, method,
                                        replicas=replicas, stream=stream,
                                        sigma2=sigma2)
            report.add(model.name, point, sigma2)
    return report
