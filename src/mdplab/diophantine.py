"""Exact continued fractions and the Fourier-side approximation criteria.

Two number representations: quadratic surds (P + sqrt(D))/Q run on exact
integer arithmetic forever; decimal literals carry an explicit error radius
and every derived quantity is computed by interval arithmetic, failing
loudly ("depth limited" / "insufficient precision") instead of degrading.

The Diophantine arrays d(k a, Z), k = 1..K, behind the approximation audit
and the Paroux sums come from one exact integer kernel
(`dist_to_integers_array`) on the binary fixed point A = floor(a * 2^128):
k*A mod 2^128 in two uint64 words, rounded to float once, so every entry
equals float(min(m, 2^128 - m)) / 2^128 for m = k*A mod 2^128, to the bit,
with no per-k Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "PrecisionError",
    "IrrationalSpec",
    "Convergent",
    "golden_spec",
    "sqrt2m1_spec",
    "liouville_literal",
    "cf_expand",
    "convergents",
    "dist_to_integers",
    "dist_to_integers_array",
    "badly_approximable_audit",
    "paroux_sum",
]

_SCALE = 10**40  # quadratic specs' intervals are 10^-40 wide


class PrecisionError(ValueError):
    """Requested depth/accuracy exceeds what the representation supports."""


@dataclass(frozen=True)
class IrrationalSpec:
    """kind='quadratic': value (P + sqrt(D))/Q, exact; kind='literal': decimal
    string with an explicit error radius."""

    kind: str
    P: int = 0
    D: int = 0
    Q: int = 1
    literal: str = ""
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == "quadratic":
            if not all(type(v) is int for v in (self.P, self.D, self.Q)):
                raise TypeError("P, D and Q must be integers")
            if self.Q == 0:
                raise ValueError("Q must be nonzero")
            r = math.isqrt(self.D)
            if self.D < 0 or r * r == self.D:
                raise ValueError("D must be a positive non-square integer")
        elif self.kind == "literal":
            if not self.literal:
                raise ValueError("literal spec needs a decimal string")
            Fraction(self.literal)  # a malformed decimal raises ValueError here
            if self.radius <= 0.0:
                raise ValueError("literal spec needs an explicit positive error radius")
        else:
            raise ValueError(f"unknown irrational kind {self.kind!r}")

    def interval(self) -> tuple:
        """Enclosing rational interval (lo, hi), as Fractions."""
        if self.kind == "quadratic":
            # floor(sqrt(D) * 10^s) brackets sqrt(D) within 10^-s
            s = math.isqrt(self.D * _SCALE * _SCALE)
            lo = Fraction(self.P * _SCALE + s, self.Q * _SCALE)
            hi = Fraction(self.P * _SCALE + s + 1, self.Q * _SCALE)
            return (lo, hi) if self.Q > 0 else (hi, lo)
        v = Fraction(self.literal)
        r = Fraction(self.radius)
        return v - r, v + r

    @property
    def uncertainty(self) -> float:
        lo, hi = self.interval()
        return float(hi - lo)

    def scaled_int(self) -> int:
        """floor(midpoint * 2^128), the binary fixed point of `dist_to_integers_array`.

        The caller owns the error budget: |a - scaled_int/2^128| is at most
        uncertainty/2 + 2^-128.
        """
        lo, hi = self.interval()
        mid = (lo + hi) / 2
        return (mid.numerator << 128) // mid.denominator


def golden_spec() -> IrrationalSpec:
    return IrrationalSpec(kind="quadratic", P=-1, D=5, Q=2)  # (sqrt(5)-1)/2


def sqrt2m1_spec() -> IrrationalSpec:
    return IrrationalSpec(kind="quadratic", P=-1, D=2, Q=1)  # sqrt(2)-1


def liouville_literal() -> IrrationalSpec:
    """Sum of 10^(-j!) for j <= 5: a literal violating every power-law lower bound."""
    terms = 5
    digits = max(math.factorial(j) for j in range(1, terms + 1)) + 2
    v = Fraction(0)
    for j in range(1, terms + 1):
        v += Fraction(1, 10 ** math.factorial(j))
    s = f"{v.numerator * 10**digits // v.denominator:0{digits}d}"
    return IrrationalSpec(kind="literal", literal="0." + s, radius=10.0 ** (-digits + 1))


@dataclass(frozen=True)
class Convergent:
    k: int
    p: int
    q: int

    def __post_init__(self):
        if math.gcd(self.p, self.q) not in (0, 1):
            raise ValueError("convergent must be in lowest terms")


def cf_expand(a: IrrationalSpec, K: int):
    """Partial quotients a_0 .. a_K; exact for quadratic kinds, validated
    interval arithmetic for literals (PrecisionError when depth runs out)."""
    if K < 0:
        raise ValueError("K must be >= 0")
    if a.kind == "quadratic":
        # track x = (P + sqrt(D)) / Q with Q | (D - P^2), exact forever
        P, D, Q = a.P, a.D, a.Q
        if (D - P * P) % Q != 0:
            P, Q, D = P * abs(Q), Q * abs(Q), D * Q * Q
        out = []
        sqrtD_floor = math.isqrt(D)
        for _ in range(K + 1):
            q_k = (P + sqrtD_floor) // Q if Q > 0 else (P + sqrtD_floor + 1) // Q
            out.append(int(q_k))
            P = q_k * Q - P
            Q = (D - P * P) // Q
        return out
    lo, hi = a.interval()
    out = []
    for depth in range(K + 1):
        f_lo = lo.numerator // lo.denominator
        f_hi = hi.numerator // hi.denominator
        if f_lo != f_hi:
            raise PrecisionError(
                f"literal precision exhausted at depth {depth} (achieved K={depth - 1})")
        out.append(int(f_lo))
        lo, hi = lo - f_lo, hi - f_lo
        if lo == 0 or hi == 0:
            if depth < K:
                raise PrecisionError(
                    f"expansion terminated at depth {depth}: the literal is rational "
                    "within its error radius")
            break
        lo, hi = 1 / hi, 1 / lo
    return out


def convergents(quotients: Sequence[int], spec: Optional[IrrationalSpec] = None):
    """Exact p_k/q_k by the integer recurrence; optionally verifies
    |q_k a - p_k| < 1/q_{k+1} against the spec's enclosing interval, with a
    PrecisionError where that interval is too wide to decide it."""
    p_prev, p = 1, quotients[0]
    q_prev, q = 0, 1
    out = [Convergent(k=0, p=int(p), q=1)]
    for k, ak in enumerate(quotients[1:], start=1):
        p, p_prev = ak * p + p_prev, p
        q, q_prev = ak * q + q_prev, q
        out.append(Convergent(k=k, p=int(p), q=int(q)))
    for c0, c1 in zip(out, out[1:]):
        det = c1.p * c0.q - c0.p * c1.q
        if det not in (1, -1):
            raise AssertionError(f"determinant identity broken at k={c1.k}: {det}")
    if spec is not None:
        lo, hi = spec.interval()
        for c, c_next in zip(out, out[1:]):
            err_hi = max(abs(c.q * lo - c.p), abs(c.q * hi - c.p))
            if err_hi >= Fraction(1, c_next.q):  # the interval is too wide to tell
                raise PrecisionError(f"|q_k a - p_k| < 1/q_(k+1) unverifiable at k={c.k}")
    return out


def dist_to_integers(k: int, a: IrrationalSpec):
    """(d(k a, Z), error bound). PrecisionError when the bound swamps the value."""
    if k == 0:
        raise ValueError("k must be nonzero")
    lo, hi = a.interval()
    mid = (lo + hi) / 2
    x = k * mid
    fr = x - (x.numerator // x.denominator)
    d = min(fr, 1 - fr)
    err = abs(k) * (hi - lo) / 2
    if d == 0:
        # exact integer hit (rational test input): value 0, error honest
        return 0.0, float(err)
    if err >= d:
        raise PrecisionError(f"d({k}a, Z): error bound {float(err):.2e} exceeds "
                             f"the value {float(d):.2e}")
    return float(d), float(err)


_KERNEL_CHUNK = 1 << 13  # values of k per kernel pass; bounds the transient arrays
_AUDIT_CHUNK = 1 << 16  # values of k per audit comparison


def _unit_float(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """x / 2^128 for x = hi*2^64 + lo, correctly rounded like float(x) / 2**128.

    The top of x is cut into a window of 62 or 63 bits (a positive int64 that
    holds one ulp of a double plus a round and a sticky bit); the cut-off bits
    are OR-ed into the window's last bit. The int64 -> float64 cast rounds the
    window once, half to even, and `ldexp` scales it back exactly.
    """
    # magnitude estimate: the exponent e of its float is bit_length(x) or one more
    approx = hi * 2.0**64 + lo
    shift = np.maximum(np.frexp(approx)[1] - 63, 0).astype(np.uint64)
    # uint64 shift counts wrap below 0 and numpy shifts by 64 or more give 0,
    # so hi reaches the window by exactly one of the two shifts
    window = (hi << (64 - shift)) | (hi >> (shift - 64)) | (lo >> shift)
    hi_cut = np.maximum(shift, 64) - 64
    sticky = (lo & ((1 << shift) - 1)) | (hi & ((1 << hi_cut) - 1))
    window |= sticky != 0
    return np.ldexp(window.view(np.int64).astype(np.float64), shift.astype(np.int64) - 128)


def dist_to_integers_array(a: IrrationalSpec, K: int) -> np.ndarray:
    """d(k a, Z) for k = 1..K on the binary fixed point A = a.scaled_int().

    Entry k equals float(min(m, 2^128 - m)) / 2^128 with m = k*A mod 2^128,
    to the bit. Its error against the true d(k a, Z) is at most
    k*(a.uncertainty/2 + 2^-128), far under float resolution for K < 2^32.

    m is held as two uint64 words, whose wrap-around is the reduction mod
    2^128. For k < 2^32 it comes from three exact 64-bit products k*A_0,
    k*A_1 (the two 32-bit halves of the low word) and k*A_hi, and
    min(m, 2^128 - m) is a two-word negate where bit 127 of m is set.
    """
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if K >= 1 << 32:
        raise ValueError(f"K must be below 2^32 for the two-word kernel, got {K}")
    out = np.empty(K)
    A = a.scaled_int() % (1 << 128)
    a0, a1, a_hi = (np.uint64(w) for w in (A & 0xFFFFFFFF, A >> 32 & 0xFFFFFFFF, A >> 64))
    for k0 in range(0, K, _KERNEL_CHUNK):
        k = np.arange(k0 + 1, min(k0 + _KERNEL_CHUNK, K) + 1, dtype=np.uint64)
        mid = k * a1
        lo_add = mid << 32
        lo = k * a0 + lo_add
        hi = k * a_hi + (mid >> 32) + (lo < lo_add)  # the last term is the carry
        # min(m, 2^128 - m): negate both words where bit 127 is set
        neg = hi >> 63 != 0
        hi = np.where(neg, ~hi + (lo == 0), hi)
        lo = np.where(neg, -lo, lo)
        out[k0:k0 + k.size] = _unit_float(hi, lo)
    return out


def badly_approximable_audit(a: IrrationalSpec, eps: float, K: int):
    """All k <= K with d(k a, Z) < k^(-1-eps); a finite-range check, not a proof.

    The distances come from `dist_to_integers_array`'s exact kernel.
    """
    if K < 1:
        raise ValueError(f"audit range K must be >= 1, got {K}")
    if eps <= 0.0:
        raise ValueError("eps must be positive (eps = 0 hits every convergent)")
    # the smallest threshold in play is K^(-1-eps); distances must resolve it,
    # against both the spec's interval and the kernel's 2^-128 fixed point
    if K * (a.uncertainty / 2 + 2.0**-128) > 0.01 * K ** (-1.0 - eps):
        raise PrecisionError("irrational spec too coarse to audit up to this K")
    d = dist_to_integers_array(a, K)
    hits = []
    # thresholds a chunk at a time, so only the distance array spans all of K
    for s in range(0, K, _AUDIT_CHUNK):
        e = min(s + _AUDIT_CHUNK, K)
        k = np.arange(s + 1, e + 1, dtype=float)
        hits.extend((np.nonzero(d[s:e] < k ** (-1.0 - eps))[0] + s + 1).tolist())
    return hits


def _fhat_values(fhat, K: int) -> np.ndarray:
    """|fhat(k)| for k = 1..K; a dict's integer keys in that range are
    scattered into zeros, so the cost does not grow with K per key."""
    if isinstance(fhat, dict):
        out = np.zeros(K)
        for k, c in fhat.items():
            if k == int(k) and 1 <= k <= K:
                out[int(k) - 1] = abs(complex(c))
        return out
    return np.array([abs(fhat(k)) for k in range(1, K + 1)])


def paroux_sum(fhat, a: IrrationalSpec, K: int):
    """Partial sums of sum over 0<|k|<=K of |fhat(k)|^2 / d(ka,Z)^2,
    with dyadic-block subtotals (blocks 2^N <= k < 2^(N+1)); the distances
    come from `dist_to_integers_array`'s exact kernel."""
    d = dist_to_integers_array(a, K)
    c = _fhat_values(fhat, K)
    terms = 2.0 * c**2 / d**2  # +k and -k contribute equally
    partial = np.cumsum(terms)
    n_blocks = int(math.floor(math.log2(K))) if K >= 1 else 0
    blocks = np.array([terms[2**N - 1 : min(2 ** (N + 1) - 1, K)].sum()
                       for N in range(n_blocks + 1)])
    return partial, blocks
