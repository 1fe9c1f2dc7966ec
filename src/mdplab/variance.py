"""Long-run variance by four routes, built to disagree loudly.

Every estimator returns a SigmaEstimate carrying its standard error, so
cross-method comparisons can be made in units of combined SE instead of ad
hoc tolerances. Slightly negative truncated estimates clamp to 0 with a
warning (oscillating covariances can undershoot).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "SigmaEstimate",
    "sigma2_covariance_series",
    "sigma2_dyadic",
    "sigma2_var_sn",
    "sigma2_circle_fourier",
]

COV_BLOCK_ROWS = 64  # rows per pass of sigma2_covariance_series


@dataclass
class SigmaEstimate:
    value: float
    method: str
    se: float = 0.0
    clamped: bool = False
    meta: dict = field(default_factory=dict)

    def combined_se(self, other: "SigmaEstimate") -> float:
        return float(np.hypot(self.se, other.se))


def _clamp(value: float, method: str) -> tuple:
    if value < 0.0:
        warnings.warn(f"{method}: truncated estimate {value:.3e} clamped to 0")
        return 0.0, True
    return float(value), False


def _as_rows(paths) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(paths, dtype=float))
    if rows.ndim != 2:
        raise ValueError("paths must be a 1-d path or a (replicas, n) array")
    return rows


def sigma2_covariance_series(paths, k_max: int) -> SigmaEstimate:
    """gamma_0 + 2 sum_{k<=k_max} gamma_k from empirical autocovariances.

    Jackknife SE: leave-one-out over replicas when several paths are given,
    over contiguous segments of a single path otherwise.
    """
    rows = _as_rows(paths)
    total = rows.size
    if total < 100 * k_max:
        raise ValueError(f"need total sample length >= {100 * k_max} for k_max={k_max}, "
                         f"got {total}")
    if rows.shape[0] == 1:
        # segment a single path for the jackknife
        n_seg = 16
        seg = rows[0][: (rows.shape[1] // n_seg) * n_seg].reshape(n_seg, -1)
        if seg.shape[1] <= k_max:
            raise ValueError("path too short to segment for jackknife at this k_max")
        rows = seg

    # per-row statistics (grand-mean centered) make the leave-one-out
    # estimates linear, so the jackknife costs O(replicas) after one sweep
    mean = np.mean(rows)
    r, n = rows.shape
    per_row = np.empty(r)
    # a cache-sized block of rows at a time; every lag product goes into one
    # reused buffer, each row still summed over its own n - k products
    buf = np.empty((min(r, COV_BLOCK_ROWS), n))
    for lo in range(0, r, COV_BLOCK_ROWS):
        x = rows[lo:lo + COV_BLOCK_ROWS] - mean
        b = x.shape[0]
        acc = np.sum(np.multiply(x, x, out=buf[:b]), axis=1) / n
        for k in range(1, k_max + 1):
            lag = np.multiply(x[:, :-k], x[:, k:], out=buf[:b, k:])
            acc = acc + 2.0 * np.sum(lag, axis=1) / n
        per_row[lo:lo + b] = acc
    full = float(np.mean(per_row))
    loo = (np.sum(per_row) - per_row) / (r - 1)
    se = float(np.sqrt((r - 1) / r * np.sum((loo - np.mean(loo)) ** 2)))
    value, clamped = _clamp(full, "covariance_series")
    return SigmaEstimate(value=value, method="covariance_series", se=se,
                         clamped=clamped, meta={"k_max": k_max, "total_samples": total})


def sigma2_dyadic(paths, j_max: int) -> SigmaEstimate:
    """E(X^2) + sum_j 2^-j E(S_{2^j} * (S_{2^{j+1}} - S_{2^j})), truncated at j_max.

    Level j uses non-overlapping blocks of length 2^(j+1): first-half sum
    times second-half sum, averaged; per-level standard errors combine in
    quadrature.
    """
    rows = _as_rows(paths)
    if rows.shape[1] < 2 ** (j_max + 1):
        raise ValueError(f"paths of length >= {2 ** (j_max + 1)} required for j_max={j_max}")
    flat_sq = rows.ravel() ** 2
    level0 = float(np.mean(flat_sq))
    se2 = float(np.var(flat_sq) / flat_sq.size)
    levels = [level0]
    level_se = [np.sqrt(np.var(flat_sq) / flat_sq.size)]
    for j in range(j_max + 1):
        L = 2 ** (j + 1)
        prods = []
        for row in rows:
            m = (row.size // L) * L
            blocks = row[:m].reshape(-1, L)
            half = L // 2
            a = blocks[:, :half].sum(axis=1)
            b = blocks[:, half:].sum(axis=1)
            prods.append(a * b)
        prods = np.concatenate(prods)
        term = 2.0 ** (-j) * float(np.mean(prods))
        t_se = 2.0 ** (-j) * float(np.sqrt(np.var(prods) / prods.size))
        levels.append(term)
        level_se.append(t_se)
        se2 += t_se**2
    value, clamped = _clamp(float(np.sum(levels)), "dyadic")
    return SigmaEstimate(value=value, method="dyadic", se=float(np.sqrt(se2)),
                         clamped=clamped,
                         meta={"j_max": j_max, "level_terms": np.array(levels),
                               "level_se": np.array(level_se)})


def sigma2_var_sn(sums_by_n: dict) -> SigmaEstimate:
    """Extrapolated limit of Var(S_n)/n over a dyadic n grid.

    `sums_by_n[n]` holds either S_n replicas (1-d) or raw paths (2-d, summed
    here); >= 200 replicas per n. The limit comes from the weighted fit
    Var(S_n)/n = sigma^2 + c/n.
    """
    ns = np.array(sorted(sums_by_n), dtype=float)
    if ns.size < 2:
        raise ValueError("need at least two n values to extrapolate")
    v, v_se = [], []
    for n in sorted(sums_by_n):
        arr = np.asarray(sums_by_n[n], dtype=float)
        s = arr.sum(axis=1) if arr.ndim == 2 else arr
        if s.size < 200:
            raise ValueError(f"need >= 200 replicas at n={n}, got {s.size}")
        r = s.size
        vn = float(np.var(s, ddof=1)) / n
        v.append(vn)
        v_se.append(vn * np.sqrt(2.0 / (r - 1)))  # chi-square variance of a variance
    v = np.array(v)
    v_se = np.array(v_se)
    A = np.column_stack([np.ones_like(ns), 1.0 / ns])
    W = 1.0 / v_se
    coef, *_ = np.linalg.lstsq(A * W[:, None], v * W, rcond=None)
    cov = np.linalg.inv((A * W[:, None]).T @ (A * W[:, None]))
    value, clamped = _clamp(float(coef[0]), "var_sn")
    return SigmaEstimate(value=value, method="var_sn", se=float(np.sqrt(cov[0, 0])),
                         clamped=clamped,
                         meta={"n_grid": ns.astype(int), "var_sn_over_n": v,
                               "per_n_se": v_se, "slope_c": float(coef[1])})


def sigma2_circle_fourier(coeffs: dict, a: float, k_max: Optional[int] = None) -> SigmaEstimate:
    """Exact closed form for the two-point circle walk:

    sigma^2 = sum_{0<|k|<=K} |fhat(k)|^2 (1 + cos 2 pi k a) / (1 - cos 2 pi k a).

    Exact (zero SE) for finitely supported coefficients.
    """
    terms = {}
    for k, c in coeffs.items():
        k = int(k)
        if k == 0:
            continue
        if k_max is not None and abs(k) > k_max:
            continue
        m = np.cos(2.0 * np.pi * k * a)
        if abs(1.0 - m) < 1e-14:
            raise ValueError(f"multiplier at k={k} equals 1: step a is (numerically) "
                             "rational, closed form undefined")
        terms[k] = abs(complex(c)) ** 2 * (1.0 + m) / (1.0 - m)
    value, clamped = _clamp(float(sum(terms.values())), "fourier_closed_form")
    return SigmaEstimate(value=value, method="fourier_closed_form", se=0.0,
                         clamped=clamped, meta={"a": float(a), "mode_terms": terms})
