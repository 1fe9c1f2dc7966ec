"""Exact reference values the benchmark grades mdplab's outputs against.

Each oracle is computed independently of the function it checks: exact
integer or rational arithmetic where that is affordable, closed forms, or
50-digit mpmath where it is not.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Gauss-Kuzmin-Wirsing constant: |lambda_2| of the Gauss map's PF operator
WIRSING = 0.3036630028987326

# Fibonacci indices k <= 3125 = 5^5 are exactly the k with d(k g, Z) < k^-1.1
# for the golden ratio g (d(F_j g, Z) ~ 1/(sqrt(5) F_j) and F_j^0.1 < sqrt 5)
FIB_HITS = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584]


def fibonacci(count: int) -> list:
    out = [0, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


def binomial_tail_log(n: int, t: float) -> float:
    """log P(S_n >= t), S_n a sum of n fair signs.

    The leading term C(n, k0) 2^-n comes from 50-digit log-gamma; the tail
    ratio sum uses the exact ratios (n-k)/(k+1), whose float product loses
    under 1e-10 relative over the 10^5 terms needed at n = 10^7.
    """
    k0 = math.ceil((n + Fraction(t)) / 2)  # smallest k with 2k - n >= t
    if k0 > n:
        return -math.inf
    if k0 <= 0:
        return 0.0
    with mpmath.workdps(50):
        lead = float(mpmath.loggamma(n + 1) - mpmath.loggamma(k0 + 1)
                     - mpmath.loggamma(n - k0 + 1) - n * mpmath.log(2))
    total, scale, k = 0.0, 1.0, k0
    while k < n:
        ks = np.arange(k, min(k + 65536, n), dtype=float)
        terms = scale * np.cumprod((n - ks) / (ks + 1.0))
        total += float(np.sum(terms))
        scale = float(terms[-1])
        k += ks.size
        if scale < 1e-20 * (1.0 + total):
            break
    return lead + math.log1p(total)


def circle_sigma2(coeffs: dict, a: float) -> float:
    """sigma^2 = sum_{k != 0} |c_k|^2 (1 + cos 2 pi k a) / (1 - cos 2 pi k a)."""
    acc = 0.0
    for k, c in coeffs.items():
        if k != 0:
            m = math.cos(2.0 * math.pi * k * a)
            acc += abs(c) ** 2 * (1.0 + m) / (1.0 - m)
    return acc


def dist_golden_exact(k: int) -> float:
    """d(k g, Z) for g = (sqrt 5 - 1)/2, from an exact 80-digit integer root."""
    scale = 10**80
    root = math.isqrt(5 * k * k * scale * scale)  # floor(k sqrt 5 * 10^80)
    x = Fraction(root - k * scale, 2 * scale)   # k g to within 10^-80
    frac = x - math.floor(x)
    return float(min(frac, 1 - frac))


def sqrt_cf_errors(D: int, quotients: list, convs: list) -> list:
    """Exact identities for the continued fraction of sqrt(D), D non-square.

    a_0 = isqrt(D); after the leading term the quotients are periodic, and
    each period (all quotients < 2 a_0 but its last) is a palindrome before
    that 2 a_0, checked when a whole period was expanded; every convergent
    satisfies p^2 - D q^2 = (-1)^(k+1) Q_(k+1) with 0 < Q_(k+1) < 2 sqrt(D).
    Returns a list of violated identities (empty when all hold).
    """
    errors = []
    a0 = math.isqrt(D)
    if quotients[0] != a0:
        errors.append(f"a_0={quotients[0]} != isqrt(D)={a0}")
    body = quotients[1:]
    if 2 * a0 in body:  # the period may be longer than the expansion
        r = body.index(2 * a0) + 1
        period = body[:r]
        if period[:-1] != period[:-1][::-1]:
            errors.append("period is not palindromic")
        for i, q in enumerate(body):
            if q != period[i % r]:
                errors.append(f"quotient {i + 1} breaks the period {r}")
                break
    for c in convs:
        v = c.p * c.p - D * c.q * c.q
        if v == 0 or (v > 0) != (c.k % 2 == 1) or v * v >= 4 * D:
            errors.append(f"convergent {c.k}: p^2 - D q^2 = {v}")
            break
    return errors
