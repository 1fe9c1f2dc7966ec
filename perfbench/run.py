"""mdplab benchmark: one workload, end-to-end or per-layer metrics, graded outputs.

Run from the root of an mdplab checkout (nothing needs installing; the
library is imported from ./src):

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 24 --trace 0

Workloads: acceptance, replicas, orbits, long-paths (see RATIONALE.md).
--trace 0 prints wall_s, setup_s and peak_rss_mb; --trace 1 prints the
per-layer metrics of a traced rep. Both print fail_frac and an environment
record, and end with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Working files, result records and traces go to ./.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("acceptance", "replicas", "orbits", "long-paths")
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0


def child_env(root: str, out: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # one BLAS thread: a single-client closed loop, steadier on a shared 2-core box
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # bytecode is cached under the output directory, so every run after the
    # first starts the same way whatever the caller's settings
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(out, "pycache")
    return env


def run_child(cmd, env, deadline):
    """Run a worker to completion (killed and reaped at the deadline)."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return stdout


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mdplab", "__init__.py")):
        print("perfbench: run from the root of an mdplab checkout (no src/mdplab here)",
              file=sys.stderr)
        return 2
    out = os.path.join(root, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    env = child_env(root, out)
    worker = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--out", out]

    setup = []
    if not args.trace:
        # interpreter start + import mdplab + the workload's models and kernels,
        # each in a fresh process, timed from outside
        for _ in range(SETUP_RUNS):
            t0 = time.perf_counter()
            run_child(worker + ["--seconds", "0", "--setup-only"], env, deadline)
            setup.append(time.perf_counter() - t0)

    stdout = run_child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                       env, deadline)
    result = json.loads(stdout.strip().splitlines()[-1])

    checks = result.pop("checks")
    counts = {s: sum(1 for c in checks if c[1] == s) for s in ("ok", "known_wrong", "failed")}
    attempted = len(checks)
    fail_frac = (counts["known_wrong"] + counts["failed"]) / attempted
    if args.trace:
        metrics = result.pop("metrics")
    else:
        metrics = {"wall_s": {"value": result["wall_s"], "unit": "s"},
                   "setup_s": {"value": statistics.median(setup), "unit": "s"},
                   "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"}}
        result["setup_runs_s"] = setup

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={result['reps']} walls={[round(w, 4) for w in result['walls']]}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':34s} {fail_frac:.6g} ratio  ({counts['known_wrong']} known-wrong"
          f" + {counts['failed']} failed of {attempted} checks)")
    seen = set()
    for name, status, detail in checks:
        if status != "ok" and (name, status) not in seen:
            seen.add((name, status))
            print(f"  {status}: {name}: {detail}")
    for name, digest in sorted(result.get("csv_sha256", {}).items()):
        print(f"  sha256 {name} {digest}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")

    record = dict(result, workload=args.workload, trace=args.trace, metrics=metrics,
                  fail_frac=fail_frac, check_counts=counts,
                  not_ok=sorted({(n, s, d) for n, s, d in checks if s != "ok"}))
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": counts["failed"] == 0, "attempted": attempted,
                      "failed": counts["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
