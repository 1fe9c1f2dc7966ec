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

from .core import map_chunks

__all__ = [
    "SigmaEstimate",
    "sigma2_covariance_series",
    "sigma2_dyadic",
    "sigma2_var_sn",
    "sigma2_circle_fourier",
]

COV_BLOCK_VALUES = 1 << 16  # values per row block of sigma2_covariance_series
VAR_SN_MIN_REPLICAS = 200  # S_n replicas per n that sigma2_var_sn needs


@dataclass
class SigmaEstimate:
    value: float
    method: str
    se: float = 0.0
    clamped: bool = False
    meta: dict = field(default_factory=dict)


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
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if total < 100 * k_max:
        raise ValueError(f"need total sample length >= {100 * k_max} for k_max={k_max}, "
                         f"got {total}")
    if rows.shape[0] == 1:
        # segment a single path for the jackknife
        n_seg = 16
        rows = rows[0][: (rows.shape[1] // n_seg) * n_seg].reshape(n_seg, -1)
    if rows.shape[1] <= k_max:
        # lags of n or more would be recorded in meta but never run
        raise ValueError(f"rows (a single path's 16 segments) of length > k_max={k_max} "
                         f"required, got {rows.shape[1]}")

    # per-row statistics (grand-mean centered) make the leave-one-out
    # estimates linear, so the jackknife costs O(replicas) after one sweep
    mean = np.mean(rows)
    r, n = rows.shape
    per_row = np.empty(r)
    # cache-sized row blocks, so a segmented 2^20-value path holds no
    # path-sized temporary: each of its blocks is one segment
    height = max(1, COV_BLOCK_VALUES // n)

    def block(bi):
        # a row's sum_t x_t^2 + 2 sum_k sum_t x_t x_(t+k) is sum_t x_t (x_t + 2 W_t)
        # with W_t = x_(t+1) + .. + x_(t+k_max), x zero past the row's end. W
        # adds the window sums of width 1, 2, 4, .. that the binary digits of
        # k_max select, each window doubled from the last: a sum tree of depth
        # <= log2(k_max) + 1 per value, whatever n is
        lo = bi * height
        block_rows = rows[lo:lo + height]
        window = np.empty((block_rows.shape[0], n + k_max))
        window[:, n:] = 0.0
        x = np.subtract(block_rows, mean, out=window[:, :n])
        w = np.zeros_like(x)
        start, width = 1, 1
        while True:
            if k_max & width:
                w += window[:, start:start + n]
                start += width
            if 2 * width > k_max:
                break
            window = window[:, :-width] + window[:, width:]
            width *= 2
        w *= 2.0
        w += x
        w *= x
        per_row[lo:lo + len(w)] = np.sum(w, axis=1) / n

    map_chunks(block, -(-r // height))
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
    se2 = float(np.var(flat_sq) / flat_sq.size)
    levels = [float(np.mean(flat_sq))]
    level_se = [np.sqrt(se2)]
    # h holds each row's sums over consecutive blocks of 2^j values, whole
    # blocks only; level j pairs its even and odd columns, and their sums
    # are level j + 1's h: about 2 n adds for all levels together
    h = rows
    for j in range(j_max + 1):
        m = h.shape[1] // 2
        a, b = h[:, 0:2 * m:2], h[:, 1:2 * m:2]
        prods = (a * b).ravel()
        term = 2.0 ** (-j) * float(np.mean(prods))
        t_se = 2.0 ** (-j) * float(np.sqrt(np.var(prods) / prods.size))
        levels.append(term)
        level_se.append(t_se)
        se2 += t_se**2
        h = a + b
    value, clamped = _clamp(float(np.sum(levels)), "dyadic")
    return SigmaEstimate(value=value, method="dyadic", se=float(np.sqrt(se2)),
                         clamped=clamped,
                         meta={"j_max": j_max, "level_terms": np.array(levels),
                               "level_se": np.array(level_se)})


def sigma2_var_sn(paths_by_n: dict) -> SigmaEstimate:
    """Extrapolated limit of Var(S_n)/n over a dyadic n grid.

    `paths_by_n[n]` holds paths of length n, one replica per row;
    >= VAR_SN_MIN_REPLICAS replicas per n. The limit comes from the weighted
    fit Var(S_n)/n = sigma^2 + c/n.
    """
    ns = np.array(sorted(paths_by_n), dtype=float)
    if ns.size < 2:
        raise ValueError("need at least two n values to extrapolate")
    v, v_se = [], []
    for n in sorted(paths_by_n):
        s = np.asarray(paths_by_n[n], dtype=float).sum(axis=1)
        if s.size < VAR_SN_MIN_REPLICAS:
            raise ValueError(f"need >= {VAR_SN_MIN_REPLICAS} replicas at n={n}, got {s.size}")
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
