"""Run one workload inside this fresh interpreter; print one JSON line.

run.py starts this script; it is not meant to be called by hand:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

--setup-only imports mdplab, builds the workload's models and kernels and
exits (run.py times whole runs of it as setup_s). Otherwise the workload
repeats until its measured time would pass --seconds, at least MIN_REPS times.
--trace 0 reports wall times with nothing wrapped. --trace 1 repeats the
workload plain for half the budget, then once more with every public call
and the sampler/apply boundaries traced, and reports the per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

KERNELS = ("beta2", "beta3", "gauss", "iterated", "circle", "finite")
SAMPLERS = ("iid", "circle", "linear", "doubling", "iterated")
CHECKED_MODELS = ("doubling", "beta3", "gauss", "iterated", "circle", "alternating", "iid")
MAX_MEASURED_S = 120.0  # a run must end within 180 s, even on a slow machine
# with three reps or more, one rep slowed by a burst on the shared host
# cannot move the median (acceptance reps take 8 s, two in a short run)
MIN_REPS = 3


class OpError:
    """An operation's exception, kept as text: the exception object would keep
    its traceback's frames, and the arrays they hold, alive until grading."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __str__(self):
        return self.text


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rep(workload, rep):
    """One timed pass over the workload's operations; returns (wall, results, op_seconds)."""
    ops = workload.ops(rep)
    res, op_s = {}, {}
    t_start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            res[op.name] = op.run(res)
        except Exception as exc:  # an exception is a failed operation, not a crash
            res[op.name] = OpError(exc)
        op_s[op.name] = time.perf_counter() - t0
    return time.perf_counter() - t_start, ops, res, op_s


def grade(workload, ops, res, known):
    """[(check, status, detail)] for every check the operations declare."""
    out = []
    for op in ops:
        value = res.get(op.name)
        if isinstance(value, OpError):
            graded = {c: (False, f"raised {value}") for c in op.checks}
        else:
            try:
                graded = {(op.checks[0] if k is None else k): v
                          for k, v in op.grade(value, res).items()}
            except Exception as exc:
                graded = {c: (False, f"grading raised {type(exc).__name__}: {exc}")
                          for c in op.checks}
        for check in op.checks:
            ok, detail = graded.get(check, (False, "not graded"))
            if ok:
                status = "ok"
            elif (check in known and not isinstance(value, OpError)
                  and _known_applies(workload, check, res)):
                status = "known_wrong"
            else:
                status = "failed"
            out.append((check, status, detail))
    return out


def _known_applies(workload, check, res):
    applies = getattr(workload, "known_wrong_applies", None)
    if applies is None:
        return True
    try:
        return bool(applies(check, res))
    except Exception:
        return False


def measure(workload, budget_s, known, extra_checks=None):
    """Repeat reps until the next would pass budget_s, but at least MIN_REPS
    times while MAX_MEASURED_S allows; returns per-rep records."""
    reps = []
    measured = 0.0
    while True:
        wall, ops, res, op_s = run_rep(workload, len(reps))
        checks = grade(workload, ops, res, known)
        if extra_checks is not None:
            checks += extra_checks(len(reps), res)
        # keep only what layer_metrics reads; paths from earlier reps would
        # otherwise inflate peak RSS
        kept = {k: v for k, v in res.items() if k == "data_pass"}
        reps.append({"wall": wall, "checks": checks, "op_s": op_s, "res": kept})
        del res
        measured += wall
        typical = statistics.median(r["wall"] for r in reps)
        if measured + typical > MAX_MEASURED_S:
            return reps
        if len(reps) >= MIN_REPS and measured + typical > budget_s:
            return reps


def build_probe():
    """Seconds and transient memory of building the two costly grid kernels."""
    from mdplab.transfer import GaussPFKernel, IteratedFunctionKernel

    rss0 = peak_rss_mib()
    t0 = time.perf_counter()
    GaussPFKernel()
    gauss_s = time.perf_counter() - t0
    gauss_mb = peak_rss_mib() - rss0
    t0 = time.perf_counter()
    IteratedFunctionKernel(0.5)
    return {"gauss_s": gauss_s, "gauss_mb": gauss_mb,
            "iterated_s": time.perf_counter() - t0}


def layer_metrics(tr, plain_reps, traced_wall, probe):
    from spans import LAYERS

    b = tr.boundaries
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value if isinstance(value, int) else float(value), "unit": unit}

    samplers = {k: v for k, v in b.items() if k.startswith("processes.sampler.")}
    put("processes.sampler_calls", sum(v["calls"] for v in samplers.values()), "count")
    put("processes.values_drawn", sum(v["values"] for v in samplers.values()), "count")
    put("processes.sampler_s", sum(v["total_s"] for v in samplers.values()), "s")
    for kind in SAMPLERS:
        st = samplers.get(f"processes.sampler.{kind}")
        put(f"processes.values_per_s.{kind}",
            st["values"] / st["total_s"] if st and st["total_s"] > 0 else 0.0, "1/s")
    put("core.sample_calls", b["core.sample"]["calls"] if "core.sample" in b else 0, "count")
    put("core.sample_batch_s", tr.total("core.sample_batch"), "s")
    for k in KERNELS:
        st = b.get(f"transfer.apply.{k}")
        calls = st["calls"] if st else 0
        put(f"transfer.apply_calls.{k}", calls, "count")
        put(f"transfer.apply_us.{k}", st["total_s"] / calls * 1e6 if calls else 0.0, "us")
    put("transfer.build_s.gauss", probe["gauss_s"], "s")
    put("transfer.build_s.iterated", probe["iterated_s"], "s")
    put("transfer.build_rss_mb.gauss", probe["gauss_mb"], "MiB")

    checks = [r for r in tr.spans if r["name"] in ("conditions.check_bis", "conditions.check_mw")]
    for model in CHECKED_MODELS:
        put(f"conditions.check_s.{model}",
            sum(r["end"] - r["start"] for r in checks if r["model"] == model), "s")
    put("conditions.checks", len(checks), "count")
    put("conditions.applies_per_check",
        sum(r["applies"] for r in checks) / len(checks) if checks else 0.0, "count")

    for short, fn in (("cov_series", "sigma2_covariance_series"), ("dyadic", "sigma2_dyadic"),
                      ("var_sn", "sigma2_var_sn"), ("fourier", "sigma2_circle_fourier")):
        put(f"variance.{short}_s", tr.total(f"variance.{fn}"), "s")

    self_s = tr.layer_self_seconds()
    verify_s = tr.total("inequalities.verify_domination")
    replicas = tr.total("inequalities.verify_domination", field="replicas")
    put("inequalities.verify_s", verify_s, "s")
    put("inequalities.replicas_per_s", replicas / verify_s if verify_s > 0 else 0.0, "1/s")

    def point(method):
        return lambda r: r.get("method") == method

    put("mdp.exact_binomial_s", tr.total("mdp.exact_binomial_tail_log")
        + tr.total("mdp.empirical_mdp_point", point("exact_binomial")), "s")
    put("mdp.tilted_s", tr.total("mdp.tilted_is_estimator")
        + tr.total("mdp.empirical_mdp_point", point("tilted")), "s")
    put("mdp.naive_s", tr.total("mdp.empirical_mdp_point", point("naive")), "s")
    put("mdp.decompose_s", tr.total("mdp.block_martingale_decompose"), "s")
    put("mdp.naive_refusals", tr.count(
        "mdp.empirical_mdp_point",
        lambda r: r.get("method") == "naive" and "refused" in r.get("error", "")), "count")

    put("diophantine.dist_array_s", tr.total("diophantine.dist_to_integers_array"), "s")
    put("diophantine.audit_s", tr.total("diophantine.badly_approximable_audit"), "s")
    put("diophantine.cf_s", tr.total("diophantine.cf_expand")
        + tr.total("diophantine.convergents"), "s")

    # criterion seconds as run_data_pass itself reports them, median over plain reps
    passes = [r["res"].get("data_pass") for r in plain_reps]
    passes = [p for p in passes if isinstance(p, dict)]
    for i in range(1, 9):
        put(f"acceptance.c{i}_s", statistics.median(p[f"c{i}"]["seconds"] for p in passes)
            if passes else 0.0, "s")
    evals = [r["op_s"]["evaluate"] for r in plain_reps if "evaluate" in r["op_s"]]
    put("acceptance.evaluate_s", statistics.median(evals) if evals else 0.0, "s")

    put("cli.run_s.simulate", tr.total("cli.main", lambda r: r.get("task") == "simulate"), "s")
    for layer in LAYERS:
        put(f"{layer}.self_s", self_s[layer], "s")

    plain = statistics.median(r["wall"] for r in plain_reps)
    put("trace.wall_s", traced_wall, "s")
    put("trace.plain_wall_s", plain, "s")
    put("trace.overhead_frac", (traced_wall - plain) / plain, "ratio")
    put("trace.spans", len(tr.spans), "count")
    put("trace.boundary_calls", sum(v["calls"] for v in b.values()), "count")
    return m


def environment(seed):
    import mpmath
    import numpy
    import scipy

    def read(path):
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return ""

    cpu = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind = read(f"{base}/{entry}/level"), read(f"{base}/{entry}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/{entry}/size")
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import mdplab

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(mdplab.__file__).startswith(src + os.sep):
        sys.exit(f"mdplab was imported from {mdplab.__file__}, not from {src}")

    from spans import Tracer
    from workloads import KNOWN_WRONG, WORKLOADS, Lab

    workload = WORKLOADS[args.workload]()
    known = KNOWN_WRONG.get(args.workload, {})
    if args.setup_only:
        workload.setup(Lab(), args.seed, args.out)
        return

    probe = build_probe() if args.trace else None
    workload.setup(Lab(), args.seed, args.out)
    budget = args.seconds / 2 if args.trace else args.seconds
    extra = getattr(workload, "extra_checks", None)
    reps = measure(workload, budget, known, extra)
    result = {"env": environment(args.seed), "reps": len(reps),
              "walls": [r["wall"] for r in reps],
              "wall_s": statistics.median(r["wall"] for r in reps),
              "peak_rss_mb": peak_rss_mib()}
    checks = [c for r in reps for c in r["checks"]]
    if args.trace:
        tracer = Tracer()
        workload.setup(Lab(tracer), args.seed, args.out)
        tracer.reset()
        wall, ops, res, _ = run_rep(workload, len(reps))
        traced = grade(workload, ops, res, known)
        if extra is not None:
            traced += extra(len(reps), res)
        checks += traced
        result["metrics"] = layer_metrics(tracer, reps, wall, probe)
        tracer.dump(os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "wall_s": wall})
    result["checks"] = checks
    if hasattr(workload, "hashes"):
        result["csv_sha256"] = workload.hashes
    print(json.dumps(result))


if __name__ == "__main__":
    main()
