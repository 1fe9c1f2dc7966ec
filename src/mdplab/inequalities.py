"""Closed-form exponential tail bounds and Monte-Carlo domination checks.

The constants (2, 4*sqrt(e), 80, 8, 64) are taken verbatim; nothing here
tries to be tight. Domination verdicts compare the analytic bound against
the exact binomial (Clopper-Pearson) upper confidence limit of the
empirical exceedance frequency, so a "violated" verdict is statistically
meaningful, not sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import betaincinv

from .core import ProcessModel, RngStream, map_chunks

__all__ = [
    "BOUND_KINDS",
    "TailBoundReport",
    "azuma_bound",
    "puw_bound",
    "projection_bound",
    "blocking_bound_first_term",
    "clopper_pearson_upper",
    "sample_maxima",
    "grade_domination",
    "verify_domination",
    "rademacher_max_tail",
]


def azuma_bound(n: int, c: float, t: float) -> float:
    """Two-sided martingale bound 2 exp(-t^2 / (2 n c^2))."""
    if n < 1 or c <= 0 or t < 0:
        raise ValueError("require n >= 1, c > 0, t >= 0")
    return 2.0 * math.exp(-(t * t) / (2.0 * n * c * c))


def puw_bound(n: int, t: float, x_inf: float, cond_norms: Sequence[float],
              extended: bool = False) -> float:
    """4 sqrt(e) exp(-t^2 / (2 n [x_inf + 80 sum_j j^{-3/2} cond_norms_j]^2)).

    cond_norms[j-1] = ||E(S_j | F_0)||_inf. By default the sum runs over
    j <= n exactly as in the finite-n statement; extended=True uses the whole
    supplied sequence (the infinite-sum variant).
    """
    if n < 1 or t < 0 or x_inf < 0:
        raise ValueError("require n >= 1, t >= 0, x_inf >= 0")
    cn = np.asarray(cond_norms, dtype=float)
    if np.any(cn < 0):
        raise ValueError("conditional norms must be nonnegative")
    if not extended:
        cn = cn[:n]
    j = np.arange(1, cn.size + 1, dtype=float)
    bracket = x_inf + 80.0 * float(np.sum(j ** (-1.5) * cn))
    return 4.0 * math.sqrt(math.e) * math.exp(-(t * t) / (2.0 * n * bracket * bracket))


def projection_bound(n: int, x: float, g_weights: Sequence[float],
                     p_seq: Sequence[float]):
    """Maximal-inequality pair from summable projection norms.

    With D = sum_j p_j and G^2 = sum_{i<=n} g_i^2, returns
    (moment_bound, tail_value): moment_bound(t) = 4 exp(G^2 D^2 t^2 / 2) and
    tail_value = 8 exp(-x^2 / (2 G^2 D^2)).
    """
    g = np.asarray(g_weights, dtype=float)[:n]
    p = np.asarray(p_seq, dtype=float)
    if x < 0 or np.any(p < 0):
        raise ValueError("require x >= 0 and nonnegative projection norms")
    D = float(np.sum(p))
    G2 = float(np.sum(g * g))
    if D == 0.0 or G2 == 0.0:
        raise ValueError("degenerate weights: D and G must be positive")

    def moment_bound(t: float) -> float:
        return 4.0 * math.exp(0.5 * G2 * D * D * t * t)

    tail_value = 8.0 * math.exp(-(x * x) / (2.0 * G2 * D * D))
    return moment_bound, tail_value


def blocking_bound_first_term(n: int, B: float, c: int, delta: float) -> float:
    """First blocking term 2 exp(-delta^2 n / (64 B^2 c)), guarded by cB/n <= delta/2."""
    if n < 1 or B <= 0 or c < 1 or delta <= 0:
        raise ValueError("require n >= 1, B > 0, c >= 1, delta > 0")
    if c * B / n > delta / 2.0 + 1e-12:
        raise ValueError(f"block constraint violated: cB/n = {c * B / n:.4g} "
                         f"> delta/2 = {delta / 2.0:.4g}")
    return 2.0 * math.exp(-(delta * delta) * n / (64.0 * B * B * c))


def clopper_pearson_upper(k: int, n: int, confidence: float = 0.95) -> float:
    """Exact binomial upper confidence limit for k successes in n trials:
    the `confidence` quantile of Beta(k + 1, n - k), read off the inverse
    regularized incomplete beta function. It equals `scipy.stats.beta.ppf`,
    whose import the CLI does not pay for."""
    if not 0 <= k <= n or n < 1:
        raise ValueError("need 0 <= k <= n, n >= 1")
    if k == n:
        return 1.0
    return float(betaincinv(k + 1, n - k, confidence))


@dataclass
class TailBoundReport:
    threshold: float
    bound: float
    p_hat: float
    replicas: int
    ci_upper: float
    verdict: str  # dominated | violated

    def to_csv_row(self):
        return (self.threshold, self.bound, self.p_hat, self.ci_upper, self.verdict)


BOUND_KINDS = ("azuma", "puw", "projection")


def _bound_evaluator(model: ProcessModel, bound_spec: dict, n: int) -> Callable[[float], float]:
    spec = dict(bound_spec)
    kind = spec.pop("kind")
    if kind == "azuma":
        c = spec.get("c", model.bound)
        if c < model.bound * (1 - 1e-9):
            raise ValueError(f"azuma increment c={c} below model bound {model.bound}")
        return lambda t: azuma_bound(n, c, t)
    if kind == "puw":
        x_inf = spec.get("x_inf", model.bound)
        if x_inf < model.bound * (1 - 1e-9):
            raise ValueError(f"puw x_inf={x_inf} below model bound {model.bound}")
        cond_norms = np.asarray(spec.get("cond_norms", np.zeros(n)), dtype=float)
        return lambda t: puw_bound(n, t, x_inf, cond_norms)
    if kind == "projection":
        p_seq = np.asarray(spec["p_seq"], dtype=float)
        if float(np.sum(p_seq)) < model.bound * (1 - 1e-9):
            raise ValueError("projection norms sum below the model bound; "
                             "the spec cannot dominate ||X||_inf")
        g = spec.get("g_weights", np.ones(n))
        return lambda x: projection_bound(n, x, g, p_seq)[1]
    raise ValueError(f"unknown bound kind {kind!r}")


def sample_maxima(model: ProcessModel, replicas: int, n: int, stream: RngStream,
                  chunk: int = 1024) -> np.ndarray:
    """max_{k<=n} |S_k| of `replicas` independent paths of the model.

    Chunked sampling: chunk ci is one (chunk, n) block drawn from the derived
    generator stream.child(ci), so the run is deterministic in (master seed,
    chunk size) whatever the number of chunks in flight (`map_chunks`), and
    memory stays bounded by one block per worker.
    """
    if replicas < 1000:
        raise ValueError("need at least 10^3 replicas for a meaningful verdict")

    def chunk_maxima(ci):
        take = min(chunk, replicas - ci * chunk)
        block = model.sample_block(n, take, stream.child(ci).generator())
        np.cumsum(block, axis=1, out=block)
        np.abs(block, out=block)
        return np.max(block, axis=1)

    return np.concatenate(map_chunks(chunk_maxima, -(-replicas // chunk)))


def grade_domination(model: ProcessModel, bound_spec: dict,
                     thresholds: Sequence[float], maxima: np.ndarray, n: int):
    """Empirical P(max_k |S_k| >= t) of sampled maxima vs the analytic bound,
    one Clopper-Pearson verdict per threshold, in ascending threshold order."""
    evaluator = _bound_evaluator(model, bound_spec, n)
    replicas = int(maxima.size)
    reports = []
    for t in sorted(float(t) for t in thresholds):
        k = int(np.sum(maxima >= t))
        upper = clopper_pearson_upper(k, replicas)
        b = evaluator(t)
        reports.append(TailBoundReport(threshold=t, bound=b, p_hat=k / replicas,
                                       replicas=replicas, ci_upper=upper,
                                       verdict="dominated" if upper <= b else "violated"))
    return reports


def verify_domination(model: ProcessModel, bound_spec: dict,
                      thresholds: Sequence[float], replicas: int, n: int,
                      stream: RngStream, chunk: int = 1024):
    """Empirical P(max_k |S_k| >= t) vs analytic bound, per threshold:
    `sample_maxima`, then `grade_domination`. A spec the model cannot
    satisfy is refused before any sampling."""
    _bound_evaluator(model, bound_spec, n)
    maxima = sample_maxima(model, replicas, n, stream, chunk)
    return grade_domination(model, bound_spec, thresholds, maxima, n)


def rademacher_max_tail(n: int, t: float) -> float:
    """P(max_{k<=n} |S_k| >= t) for S_k a sum of k fair signs, exactly.

    Absorbing-band recursion on exact integer path counts: the walk lives on
    |s| < ceil(t) and a path is absorbed when it first reaches +-ceil(t). The
    count of surviving paths over 2^n is rounded once to a float.
    """
    if n < 1 or t < 0:
        raise ValueError("require n >= 1, t >= 0")
    band = math.ceil(t)
    if band == 0:
        return 1.0
    # counts[s + band - 1] = number of unabsorbed paths at position s
    counts = np.zeros(2 * band - 1, dtype=object)
    counts[band - 1] = 1
    for _ in range(n):
        step = np.zeros_like(counts)
        step[1:] += counts[:-1]
        step[:-1] += counts[1:]
        counts = step
    return ((1 << n) - int(counts.sum())) / (1 << n)
