"""Pinned end-to-end verification suite.

One data pass computes everything with a fixed master seed and writes the
data CSVs; the nine checks then judge the results. The reproducibility check
runs the whole data pass a second time and compares the output files byte
for byte, so any hidden nondeterminism fails loudly.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import RngStream, SpeedSequence, write_csv
from .processes import (
    GOLDEN,
    CircleWalkSpec,
    ExpandingMapSpec,
    IIDSpec,
    IteratedFunctionSpec,
    LinearProcessSpec,
    make_alternating_plus_iid,
    make_circle_walk,
    make_expanding_map,
    make_iid,
    make_iterated_function,
    make_linear_process,
)
from .transfer import (GridFunction, IntegerBetaPFKernel, conditional_sum_norm_profile,
                       pf_duality_gap, sup_norm_decay)
from .conditions import check_bis, check_class_L, check_mw
from .variance import (
    sigma2_circle_fourier,
    sigma2_covariance_series,
    sigma2_dyadic,
)
from .inequalities import (
    grade_domination,
    rademacher_max_tail,
    sample_maxima,
    verify_domination,
)
from .mdp import (
    DeviationScanReport,
    PiecewiseLinearPath,
    block_martingale_decompose,
    empirical_mdp_point,
    endpoint_rate,
    rate_I,
)
from .diophantine import badly_approximable_audit, cf_expand, convergents, golden_spec

DEFAULT_SEED = 20260826

__all__ = ["CriterionResult", "run_suite", "run_data_pass", "format_results",
           "DEFAULT_SEED"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.index}. {self.name}: {self.detail} ({self.seconds:.1f}s)"


def format_results(results) -> str:
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"{'ALL PASS' if ok else 'FAILURES PRESENT'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# data pass


def run_data_pass(master_seed: int, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    stream = RngStream(master_seed)
    data = {}
    t0 = time.perf_counter()

    # 1. endpoint deviation rate, exact oracle -------------------------------
    rad = make_iid(IIDSpec(law="rademacher"))
    speed = SpeedSequence(gamma=1.0 / 3.0)
    scan = DeviationScanReport()
    gaps = {}
    for n in (10**4, 10**6):
        a_n = speed.a(n)
        pt = empirical_mdp_point(rad, n, a_n, 1.0, "exact_binomial")
        scan.add(rad.name, pt, sigma2=1.0)
        gaps[n] = pt.estimate - (-0.5)
    scan.to_csv(os.path.join(out_dir, "c1_endpoint.csv"))
    data["c1"] = {"gaps": gaps, "seconds": time.perf_counter() - t0}

    # 2. long-run variance, four routes --------------------------------------
    t0 = time.perf_counter()
    doubling = make_expanding_map(ExpandingMapSpec(map="doubling", mean=0.0))
    dpaths = doubling.sample_batch(10_000, 100, stream.named("c2-doubling"))
    cov_d = sigma2_covariance_series(dpaths, k_max=20)
    dy_d = sigma2_dyadic(dpaths, j_max=6)
    circle = make_circle_walk(CircleWalkSpec(a=GOLDEN))
    cpaths = circle.sample_batch(10_000, 200, stream.named("c2-circle"))
    cov_c = sigma2_covariance_series(cpaths, k_max=40)
    exact_c = sigma2_circle_fourier({1: 0.5, -1: 0.5}, GOLDEN)
    # brute-force covariance oracle: gamma_k = sum_j |fhat_j|^2 cos(2 pi j a)^k
    m = math.cos(2.0 * math.pi * GOLDEN)
    brute = 0.25 * 2 + 2 * sum(0.25 * 2 * m**k for k in range(1, 201))
    rows = [("doubling", "covariance_series", cov_d.value, cov_d.se),
            ("doubling", "dyadic", dy_d.value, dy_d.se),
            ("circle", "covariance_series", cov_c.value, cov_c.se),
            ("circle", "fourier_closed_form", exact_c.value, 0.0),
            ("circle", "brute_200_lags", brute, 0.0)]
    write_csv(os.path.join(out_dir, "c2_sigma2.csv"),
              ("model", "method", "value", "se"), rows)
    data["c2"] = {"cov_d": cov_d, "dy_d": dy_d, "cov_c": cov_c,
                  "exact_c": exact_c, "brute": brute,
                  "seconds": time.perf_counter() - t0}

    # 3. bound domination -----------------------------------------------------
    t0 = time.perf_counter()
    n, reps = 256, 100_000
    root = math.sqrt(n)
    mults = (2.0, 2.5, 3.0, 3.5, 4.0)
    iid = make_iid(IIDSpec(law="rademacher"))
    circle_norms = conditional_sum_norm_profile(circle.kernel, circle.centered_observable(), n)
    linear = make_linear_process(LinearProcessSpec(
        coeff_kind="geometric", C=0.25, rho=0.5, modulus=lambda h: h))
    sigma_c = math.sqrt(exact_c.value)
    sigma_l = 0.5  # sum of coefficients times innovation sd
    iid_ts = [u * root for u in mults]
    # the three iid bounds are graded on one draw of the iid maxima, whose
    # law is known exactly
    iid_maxima = sample_maxima(iid, reps, n, stream.named("c3-iid/azuma"))
    iid_exact = {t: rademacher_max_tail(n, t) for t in iid_ts}
    combos = [
        ("iid/azuma", iid, {"kind": "azuma", "c": 1.0}, iid_ts),
        ("iid/puw", iid, {"kind": "puw", "x_inf": 1.0}, iid_ts),
        ("circle/puw", circle,
         {"kind": "puw", "x_inf": circle.bound, "cond_norms": circle_norms},
         [u * sigma_c * root for u in mults]),
        ("iid/projection", iid, {"kind": "projection", "p_seq": [1.0]}, iid_ts),
        ("linear/projection", linear,
         {"kind": "projection", "p_seq": linear.meta["delta_bounds"]},
         [u * sigma_l * root for u in mults]),
    ]
    dom_rows = []
    violated = []
    exact_misses = []
    iid_z = 0.0
    for label, model, spec, ts in combos:
        if model is iid:
            reports = grade_domination(iid, spec, ts, iid_maxima, n)
        else:
            reports = verify_domination(model, spec, ts, reps, n,
                                        stream.named(f"c3-{label}"))
        for r in reports:
            dom_rows.append((label, r.threshold, r.bound, r.p_hat, r.ci_upper,
                             r.verdict))
            if r.verdict != "dominated":
                violated.append((label, r.threshold))
            if model is iid:
                # the bound must hold for the exact law, and the sampler must
                # reproduce it within 6 binomial standard errors
                p = iid_exact[r.threshold]
                z = abs(r.p_hat - p) / math.sqrt(p * (1 - p) / reps)
                iid_z = max(iid_z, z)
                if r.bound < p or z > 6.0:
                    exact_misses.append((label, r.threshold))
    write_csv(os.path.join(out_dir, "c3_domination.csv"),
              ("combo", "threshold", "bound", "p_hat", "ci_upper", "verdict"),
              dom_rows)
    data["c3"] = {"violated": violated, "exact_misses": exact_misses, "iid_z": iid_z,
                  "rows": len(dom_rows), "seconds": time.perf_counter() - t0}

    # 4. transfer-operator exactness -----------------------------------------
    t0 = time.perf_counter()
    pf = IntegerBetaPFKernel(2)
    cosvals = np.cos(2.0 * np.pi * pf.nodes)
    pf_residual = float(np.max(np.abs(pf.apply(cosvals))))
    decay = sup_norm_decay(pf, pf.nodes - 0.5, 64)
    h = GridFunction.from_callable(lambda x: np.sin(2 * np.pi * x) + x)
    fq = GridFunction.from_callable(lambda x: x * (1 - x))
    dual_gap = pf_duality_gap(2, h, fq)
    write_csv(os.path.join(out_dir, "c4_transfer.csv"),
              ("check", "value"),
              [("pf_cos_residual", pf_residual),
               ("fitted_rho", float(decay.rho)),
               ("duality_gap", dual_gap)])
    data["c4"] = {"pf_residual": pf_residual, "rho": decay.rho,
                  "dual_gap": dual_gap, "seconds": time.perf_counter() - t0}

    # 5. continued fractions and the approximation audit ---------------------
    t0 = time.perf_counter()
    g = golden_spec()
    convs = convergents(cf_expand(g, 31), spec=g)[:31]
    fib = [0, 1]
    while len(fib) < 35:
        fib.append(fib[-1] + fib[-2])
    fib_ok = all(c.p == fib[c.k] and c.q == fib[c.k + 1] for c in convs)
    audit = badly_approximable_audit(g, eps=0.1, K=10**5)
    write_csv(os.path.join(out_dir, "c5_diophantine.csv"),
              ("k", "p", "q"), [(c.k, c.p, c.q) for c in convs])
    data["c5"] = {"fib_ok": fib_ok, "audit": audit,
                  "seconds": time.perf_counter() - t0}

    # 6. condition-checker coherence -----------------------------------------
    t0 = time.perf_counter()
    kernel_models = [
        ("iid_rademacher", make_iid(IIDSpec(law="rademacher")), 0.0),
        ("iid_uniform", make_iid(IIDSpec(law="uniform")), 0.0),
        ("alternating", make_alternating_plus_iid(IIDSpec(law="uniform")), 0.0),
        ("doubling_cos", doubling, 1e-12),
        ("beta3_cos", make_expanding_map(ExpandingMapSpec(map="beta", beta=3,
                                                          mean=0.0)), 1e-12),
        ("gauss", make_expanding_map(ExpandingMapSpec(map="gauss")), 1e-12),
        ("iterated_rho05", make_iterated_function(IteratedFunctionSpec(rho=0.5)),
         1e-12),
        ("circle_golden", circle, 0.0),
    ]
    cond_rows = []
    implication_ok = True
    for label, model, floor in kernel_models:
        bis = check_bis(model, n_max=128, floor=floor)
        mw = check_mw(model, n_max=128, floor=floor)
        cond_rows.append((label, bis.verdict, mw.verdict))
        if bis.verdict == "converging" and mw.verdict != "converging":
            implication_ok = False
    gamma_verdicts = {}
    for gamma in (0.3, 0.5, 0.6, 0.75, 1.0):
        c = lambda t, gg=gamma: abs(math.log(t)) ** (-gg)
        verdict, estimate, _ = check_class_L(c)
        gamma_verdicts[gamma] = verdict
        cond_rows.append((f"modulus_gamma_{gamma}", "integral", verdict))
    write_csv(os.path.join(out_dir, "c6_conditions.csv"),
              ("model", "bis_or_kind", "mw_or_verdict"), cond_rows)
    data["c6"] = {"rows": cond_rows, "implication_ok": implication_ok,
                  "gamma": gamma_verdicts, "seconds": time.perf_counter() - t0}

    # 7. rate-function algebra ------------------------------------------------
    t0 = time.perf_counter()
    rng = stream.named("c7-rates").generator()
    worst = {"homogeneity": 0.0, "refinement": 0.0, "endpoint": 0.0}
    for _ in range(50):
        k = int(rng.integers(2, 9))
        t = np.concatenate([[0.0], np.sort(rng.random(k - 1)), [1.0]])
        t = np.unique(t)
        v = rng.normal(size=t.size)
        v[0] = 0.0
        h = PiecewiseLinearPath(t, v)
        s2 = float(rng.uniform(0.2, 3.0))
        base = rate_I(h, s2)
        alpha = float(rng.uniform(-2.0, 2.0))
        scale = max(1.0, abs(base))
        worst["homogeneity"] = max(
            worst["homogeneity"],
            abs(rate_I(h.scaled(alpha), s2) - alpha * alpha * base) / scale)
        refined = h.refined(rng.random(10))
        worst["refinement"] = max(worst["refinement"],
                                  abs(rate_I(refined, s2) - base) / scale)
        x = float(rng.uniform(-3.0, 3.0))
        lin = PiecewiseLinearPath(np.array([0.0, 1.0]), np.array([0.0, x]))
        worst["endpoint"] = max(
            worst["endpoint"],
            abs(endpoint_rate(x, s2) - rate_I(lin, s2)) / max(1.0, abs(x * x / s2)))
    write_csv(os.path.join(out_dir, "c7_rates.csv"),
              ("check", "worst_rel_error"), sorted(worst.items()))
    data["c7"] = {"worst": worst, "seconds": time.perf_counter() - t0}

    # 8. block-martingale decomposition --------------------------------------
    t0 = time.perf_counter()
    path = circle.sample(4096, stream.named("c8-decompose"))
    dec = block_martingale_decompose(circle, path, m=8, check_blocks=16)
    s_n = float(np.sum(path.values))
    rec_err = abs(dec.reconstruct() - s_n)
    write_csv(os.path.join(out_dir, "c8_decompose.csv"),
              ("check", "value"),
              [("cond_mean_check", dec.cond_mean_check),
               ("reconstruction_error", rec_err)])
    data["c8"] = {"cond_mean_check": dec.cond_mean_check, "rec_err": rec_err,
                  "seconds": time.perf_counter() - t0}
    return data


# ---------------------------------------------------------------------------
# judgments


def evaluate(data: dict):
    results = []
    g4, g6 = data["c1"]["gaps"][10**4], data["c1"]["gaps"][10**6]
    results.append(CriterionResult(
        1, "endpoint deviation rate (exact oracle)",
        abs(g6) <= 0.06 and abs(g6) < abs(g4) and data["c1"]["seconds"] < 120,
        f"gap(1e6)={g6:+.4f} (<=0.06), gap(1e4)={g4:+.4f}",
        data["c1"]["seconds"]))

    c2 = data["c2"]
    ok2 = (0.49 <= c2["cov_d"].value <= 0.51 and 0.49 <= c2["dy_d"].value <= 0.51
           and abs(c2["cov_c"].value - c2["exact_c"].value) <= 0.1 * c2["exact_c"].value
           and abs(c2["brute"] - c2["exact_c"].value) <= 1e-10
           and c2["seconds"] < 300)
    results.append(CriterionResult(
        2, "long-run variance cross-method",
        ok2,
        f"doubling cov={c2['cov_d'].value:.4f} dyadic={c2['dy_d'].value:.4f}; "
        f"circle mc={c2['cov_c'].value:.4f} exact={c2['exact_c'].value:.4f}",
        c2["seconds"]))

    c3 = data["c3"]
    results.append(CriterionResult(
        3, "exponential-bound domination",
        not c3["violated"] and not c3["exact_misses"] and c3["seconds"] < 600,
        f"{c3['rows']} threshold checks, {len(c3['violated'])} violations; "
        f"iid vs exact law: max |z|={c3['iid_z']:.2f} (<=6), "
        f"{len(c3['exact_misses'])} misses",
        c3["seconds"]))

    c4 = data["c4"]
    results.append(CriterionResult(
        4, "transfer-operator exactness",
        c4["pf_residual"] < 1e-12 and c4["rho"] <= 0.51 and c4["dual_gap"] < 1e-6,
        f"pf_residual={c4['pf_residual']:.2e} rho={c4['rho']:.4f} "
        f"duality={c4['dual_gap']:.2e}",
        c4["seconds"]))

    c5 = data["c5"]
    beyond = [k for k in c5["audit"] if k > 1]
    results.append(CriterionResult(
        5, "continued-fraction exactness and approximation audit",
        c5["fib_ok"] and not beyond,
        f"fibonacci/determinant ok={c5['fib_ok']}; audit hits beyond k=1: "
        f"{beyond[:6]}{'...' if len(beyond) > 6 else ''} "
        f"({len(beyond)} total)",
        c5["seconds"]))

    c6 = data["c6"]
    want = {0.3: "diverging", 0.5: "diverging", 0.6: "converging",
            0.75: "converging", 1.0: "converging"}
    gamma_ok = all(c6["gamma"][g] == w for g, w in want.items())
    results.append(CriterionResult(
        6, "condition-checker coherence",
        c6["implication_ok"] and gamma_ok,
        f"bis=>mw ok={c6['implication_ok']}; gamma split ok={gamma_ok} "
        f"({ {g: v for g, v in sorted(c6['gamma'].items())} })",
        c6["seconds"]))

    c7 = data["c7"]
    w = c7["worst"]
    results.append(CriterionResult(
        7, "rate-function algebra",
        max(w.values()) <= 1e-12,
        "worst rel errors: " + ", ".join(f"{k}={v:.1e}" for k, v in sorted(w.items())),
        c7["seconds"]))

    c8 = data["c8"]
    results.append(CriterionResult(
        8, "block-martingale decomposition",
        c8["cond_mean_check"] < 1e-10 and c8["rec_err"] <= 1e-12,
        f"cond_mean_check={c8['cond_mean_check']:.2e} "
        f"reconstruction={c8['rec_err']:.2e}",
        c8["seconds"]))
    return results


def run_suite(master_seed: int, out_dir: Optional[str]):
    """All nine checks; returns a list of CriterionResult. The data files go to
    `out_dir`, or to a new temporary directory if it is None."""
    if out_dir is None:
        out_dir = tempfile.mkdtemp(prefix="mdplab-acceptance-")
    data = run_data_pass(master_seed, out_dir)
    results = evaluate(data)
    t9 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mdplab-rerun-") as second:
        run_data_pass(master_seed, second)
        mismatched = []
        for name in sorted(os.listdir(out_dir)):
            if not name.endswith(".csv"):
                continue
            with open(os.path.join(out_dir, name), "rb") as fa, \
                    open(os.path.join(second, name), "rb") as fb:
                if fa.read() != fb.read():
                    mismatched.append(name)
    results.append(CriterionResult(
        9, "byte-identical reproducibility",
        not mismatched,
        f"second pass with seed {master_seed}: "
        + ("all data files identical" if not mismatched
           else f"mismatch in {mismatched}"),
        time.perf_counter() - t9))
    return results
