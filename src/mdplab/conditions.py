"""Numeric checkers for the projective, mixing and modulus hypotheses.

Infinite-series hypotheses cannot be decided numerically; each checker
returns a SeriesDiagnostic combining finite partial sums with a closed-form
tail fit, and "inconclusive" is an honest verdict. The rule: converging iff
the fitted tail is geometric with ratio < 1 or a power with exponent < -1,
with fit R^2 > 0.999 and decreasing Cauchy increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ProcessModel
from .transfer import (conditional_square_norm, conditional_sum_norm_profile, dust_floor,
                       orbit)

__all__ = [
    "SeriesDiagnostic",
    "diagnose_series",
    "check_mw",
    "check_bis",
    "check_s2inf",
    "check_kac",
    "check_class_L",
    "class_L_integral",
    "phi_coefficients",
]

# fitted power exponents sit slightly below their asymptotic value at finite
# range; the split of the |log t|^-gamma family at gamma = 1/2 maps to fitted
# exponents -1.1 vs -1.0, so the cut sits between them
POWER_CUT = -1.05


@dataclass
class SeriesDiagnostic:
    terms: np.ndarray
    verdict: str  # converging | diverging | inconclusive
    fit_kind: Optional[str] = None  # geometric | power
    fit_param: Optional[float] = None  # ratio or exponent
    fit_r2: Optional[float] = None
    extra: dict = field(default_factory=dict)

    @property
    def partial_sums(self) -> np.ndarray:
        return np.cumsum(self.terms)

    def to_csv_rows(self):
        """Data rows (n, term, partial_sum), without a header."""
        return [(i + 1, float(t), float(s))
                for i, (t, s) in enumerate(zip(self.terms, self.partial_sums))]


def _r2(y: np.ndarray, yhat: np.ndarray) -> float:
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - ss_res / ss_tot


def diagnose_series(terms: np.ndarray, floor: float = 0.0) -> SeriesDiagnostic:
    """Verdict for sum of nonnegative terms from partial sums + tail fit.

    `floor` is the caller's numerical resolution (e.g. kernel discretization
    error): terms at or below it are treated as converged dust and excluded
    from the fit, since their measured values carry no signal.
    """
    terms = np.asarray(terms, dtype=float)
    if np.any(terms < -1e-15):
        raise ValueError("series terms must be nonnegative")
    terms = np.clip(terms, 0.0, None)
    if floor > 0.0:
        terms = np.where(terms <= floor, 0.0, terms)
    n = np.arange(1, terms.size + 1, dtype=float)
    if float(np.max(terms)) == 0.0:
        return SeriesDiagnostic(terms=terms, verdict="converging", fit_kind="zero",
                                fit_param=0.0, fit_r2=1.0)
    # tail window: last half of the surviving range, positive terms only
    alive = np.nonzero(terms > 1e-300)[0]
    lo = alive[alive.size // 2] if alive.size else 0
    mask = terms > 1e-300
    mask[:lo] = False
    if mask.sum() < 5:
        # nearly all terms vanished: Cauchy increments are zero
        return SeriesDiagnostic(terms=terms, verdict="converging", fit_kind="vanishing",
                                fit_param=0.0, fit_r2=1.0)
    x, y = n[mask], np.log(terms[mask])

    sg, ig = np.polyfit(x, y, 1)
    r2_geo = _r2(y, sg * x + ig)
    sp, ip = np.polyfit(np.log(x), y, 1)
    r2_pow = _r2(y, sp * np.log(x) + ip)

    if r2_geo >= r2_pow:
        kind, param, r2 = "geometric", float(np.exp(sg)), r2_geo
        summable = param < 1.0
        divergent = param >= 1.0
    else:
        kind, param, r2 = "power", float(sp), r2_pow
        summable = param < POWER_CUT
        divergent = param >= POWER_CUT

    # Cauchy increments over dyadic windows (2^{r-1}, 2^r] must decrease for a
    # converging call; exact powers of two keep the window geometry uniform
    ps = np.cumsum(terms)
    r_max = int(np.floor(np.log2(terms.size)))
    incs = [ps[2**r - 1] - ps[2 ** (r - 1) - 1] for r in range(2, r_max + 1)]
    # increments may rise while window-doubling outpaces the decay (slow
    # geometrics peak around n ~ 1/(1-q)), so require decrease only from the
    # peak window onward, with 2% slack for window-to-window wiggle; a
    # non-decaying tail keeps its increments at the peak level and fails the
    # final-drop requirement
    if len(incs) >= 2:
        top = int(np.argmax(incs))
        tail_incs = incs[top:]
        cauchy_dec = all(later <= earlier * 1.02 + 1e-15
                         for earlier, later in zip(tail_incs, tail_incs[1:]))
        cauchy_dec = cauchy_dec and (incs[-1] <= 0.98 * max(incs) + 1e-15)
    else:
        cauchy_dec = True

    if r2 > 0.999 and summable and cauchy_dec:
        verdict = "converging"
    elif r2 > 0.999 and divergent:
        verdict = "diverging"
    elif not cauchy_dec and not summable:
        verdict = "diverging"
    else:
        verdict = "inconclusive"
    return SeriesDiagnostic(terms=terms, verdict=verdict, fit_kind=kind,
                            fit_param=param, fit_r2=r2)


def check_mw(model: ProcessModel, n_max: int = 512,
             floor: float = 0.0) -> SeriesDiagnostic:
    """Sum over n of n^{-3/2} ||E(S_n | F_0)||_inf, exact for kernel models."""
    kernel, f = model.kernel, model.centered_observable()
    norms = conditional_sum_norm_profile(kernel, f, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    terms = n ** (-1.5) * norms
    diag = diagnose_series(terms, floor=max(floor, dust_floor(f)))
    diag.extra["cond_sum_norms"] = norms
    return diag


def check_bis(model: ProcessModel, n_max: int = 512,
              floor: float = 0.0) -> SeriesDiagnostic:
    """Sum over n of n^{-1/2} ||E(X_n | F_0)||_inf."""
    kernel, f = model.kernel, model.centered_observable()
    norms = kernel.sup(orbit(kernel, f, n_max, center=True))
    n = np.arange(1, n_max + 1, dtype=float)
    return diagnose_series(n ** (-0.5) * norms, floor=max(floor, dust_floor(f)))


def _average_ranks(v) -> np.ndarray:
    """Ranks 1..n of v, ties sharing the mean of the ranks they span."""
    v = np.asarray(v, dtype=float)
    order = np.argsort(v, kind="stable")
    first = np.flatnonzero(np.r_[True, v[order][1:] != v[order][:-1]])
    span_end = np.r_[first[1:], v.size]
    ranks = np.empty(v.size)
    ranks[order] = np.repeat((first + span_end + 1) / 2.0, span_end - first)
    return ranks


def _spearman_rho(x, y) -> float:
    """Spearman's rank correlation with average ranks for ties (nan if either
    input is constant), as `scipy.stats.spearmanr` defines it. The ranks are
    centred on their exact mean (n+1)/2, so for moderate n the numerator is
    summed exactly and its sign is exact."""
    rx, ry = _average_ranks(x), _average_ranks(y)
    rx -= (rx.size + 1) / 2.0
    ry -= (ry.size + 1) / 2.0
    den = np.sqrt(np.dot(rx, rx) * np.dot(ry, ry))
    return float(np.dot(rx, ry) / den) if den > 0 else float("nan")


def check_s2inf(model: ProcessModel, sigma2_ref: float,
                n_list: Sequence[int]):
    """Deviation ||n^{-1} E(S_n^2|F_0) - sigma2||_inf per n; pass iff the trend decreases."""
    kernel, f = model.kernel, model.centered_observable()
    devs = np.array([conditional_square_norm(kernel, f, n, sigma2_ref) for n in n_list])
    if len(n_list) >= 3 and np.max(devs) > 0:
        passed = bool(_spearman_rho(n_list, devs) < 0)
    else:
        passed = bool(devs[-1] <= devs[0] + 1e-15)
    return devs, passed


def check_kac(w: Callable[[float], float], tail: Callable[[int], float],
              width: float, n_max: int = 2000) -> SeriesDiagnostic:
    """Series sum_n n^{-1/2} w(2*width*t_n) with t_n = sum_{k>=n} |c_k|;
    also evaluates the modulus integral criterion."""
    terms = np.empty(n_max)
    for n in range(1, n_max + 1):
        h = 2.0 * width * tail(n)
        terms[n - 1] = n ** (-0.5) * (w(h) if h > 0 else 0.0)
    diag = diagnose_series(terms)
    integral, int_verdict, _ = class_L_integral(w)
    diag.extra["integral_estimate"] = integral
    diag.extra["integral_verdict"] = int_verdict
    return diag


def class_L_integral(c: Callable[[float], float], j_max: int = 200,
                     points_per_block: int = 64):
    """Dyadic evaluation of the integral of c(t)/(t sqrt(|log t|)) on (0, 1/2].

    Blocks [2^-(j+1), 2^-j]; verdict from a power fit of block subtotals in j.
    """
    blocks = np.empty(j_max)
    for j in range(1, j_max + 1):
        hi, lo = 2.0 ** (-j), 2.0 ** (-j - 1)
        t = np.linspace(lo, hi, points_per_block + 1)
        g = np.array([c(ti) / (ti * np.sqrt(abs(np.log(ti)))) for ti in t])
        blocks[j - 1] = np.trapezoid(g, t)
    estimate = float(np.sum(blocks))
    diag = diagnose_series(blocks)
    return estimate, diag.verdict, blocks


def check_class_L(c: Callable[[float], float], j_max: int = 200):
    """Verdict + integral estimate for membership of the concave-modulus class.

    Only the integral near 0 is probed; concavity is not checked, so moduli
    concave only near 0, e.g. |log t|^(-gamma), are admitted.
    """
    estimate, verdict, blocks = class_L_integral(c, j_max=j_max)
    return verdict, estimate, blocks


def phi_coefficients(P: np.ndarray, pi: np.ndarray, n_max: int) -> np.ndarray:
    """phi(n) = max_x sum_j (P^n(x,j) - pi(j))_+ : the exact maximal-set form."""
    P = np.asarray(P, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if np.any(P < -1e-15) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise ValueError("P must be row-stochastic")
    if np.max(np.abs(P.T @ pi - pi)) > 1e-12:
        raise ValueError("pi is not stationary for P")
    out = np.empty(n_max)
    Pn = np.eye(P.shape[0])
    for n in range(n_max):
        Pn = Pn @ P
        out[n] = float(np.max(np.sum(np.clip(Pn - pi[None, :], 0.0, None), axis=1)))
    return out
