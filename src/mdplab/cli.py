"""Command-line experiment runner: JSON config in, CSV tables out.

Exit codes: 0 success, 1 task-level failure (e.g. a violated bound or a
failed acceptance criterion), 2 config error, 3 precision/capacity refusal.
Data files are pure functions of (config, seed); wall-clock timestamps live
in a separate timing file so reruns stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import scipy

from . import __version__
from .core import (BATCH_CHUNK_VALUES, REPLICA_CHUNK, RngStream, SpeedSequence,
                   map_replicas, write_csv)
from .processes import model_from_config
from .transfer import CircleFourierKernel, sup_norm_decay
from .conditions import check_bis, check_mw
from .variance import (
    VAR_SN_MIN_REPLICAS,
    sigma2_circle_fourier,
    sigma2_covariance_series,
    sigma2_dyadic,
    sigma2_var_sn,
)
from .inequalities import BOUND_KINDS, verify_domination
from .mdp import block_martingale_decompose, mdp_scan, method_refusal
from .diophantine import (
    IrrationalSpec,
    PrecisionError,
    badly_approximable_audit,
    cf_expand,
    convergents,
    golden_spec,
)
from .acceptance import DEFAULT_SEED, format_results, run_suite

TASKS = ("simulate", "sigma2", "conditions", "inequality", "mdp-scan",
         "diophantine", "transfer-decay", "decompose")

_TOP_KEYS = {"task", "seed", "model", "params", "output_dir"}

# each task's params with their defaults; REQUIRED marks a param the config
# must give, a tuple lists the allowed values, the default first, and a dict
# does too, with the further params that each value takes
REQUIRED = object()

_PARAMS = {
    "simulate": {"n": 1024, "replicas": 100},
    "sigma2": {"method": {
        "covariance_series": {"n": 10_000, "replicas": 100, "k_max": 50},
        "dyadic": {"n": 10_000, "replicas": 100, "j_max": 8},
        "var_sn": {"replicas": VAR_SN_MIN_REPLICAS, "n_grid": [256, 512, 1024, 2048]},
        "fourier_closed_form": {"coeffs": REQUIRED, "a": REQUIRED, "k_support": None}}},
    "conditions": {"check": ("bis", "mw"), "n_max": 256, "floor": 0.0},
    "inequality": {"bound": REQUIRED, "thresholds": REQUIRED, "replicas": 10_000, "n": 256},
    "mdp-scan": {"gamma": 1.0 / 3.0, "n_grid": REQUIRED, "x_grid": REQUIRED,
                 "method": ("exact_binomial", "tilted", "naive"), "sigma2": REQUIRED,
                 "replicas": 0},
    "diophantine": {"a": "golden", "action": ("convergents", "audit"), "K": 30, "eps": 0.1},
    "transfer-decay": {"n_max": 64},
    "decompose": {"n": 4096, "m": 8},
}


class ConfigError(ValueError):
    pass


def _count(v) -> bool:
    return type(v) is int and v >= 1


def _number(v) -> bool:
    return type(v) in (int, float)


# what each typed param must be, as JSON gives it; `a` is a number for sigma2
# and, for diophantine, an irrational spec that `_irrational_from_cfg` checks
_PARAM_TYPES = {
    **dict.fromkeys(("n", "replicas", "n_max", "m", "K", "k_max", "j_max", "k_support"),
                    ("a positive integer", _count)),
    **dict.fromkeys(("floor", "sigma2", "eps"), ("a number", _number)),
    "gamma": ("a number in (0, 1)", lambda v: _number(v) and 0 < v < 1),
    **dict.fromkeys(("method", "check", "action"), ("a string", lambda v: type(v) is str)),
    "n_grid": ("a list of positive integers", lambda v: type(v) is list and all(map(_count, v))),
    **dict.fromkeys(("x_grid", "thresholds"),
                    ("a list of numbers", lambda v: type(v) is list and all(map(_number, v)))),
    "coeffs": ("an object", lambda v: type(v) is dict),
}


def _table(task: str, params: dict) -> dict:
    """The task's params with their defaults, each dict-valued param
    replaced by the tuple of its values plus the params its chosen value takes."""
    table = dict(_PARAMS[task])
    for key, choices in _PARAMS[task].items():
        if type(choices) is dict:
            value = params.get(key, next(iter(choices)))
            if type(value) is not str or value not in choices:
                raise ConfigError(f"param {key} must be one of {tuple(choices)}, got {value!r}")
            table[key] = tuple(choices)
            table.update(choices[value])
    return table


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    task = cfg.get("task")
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    table = _table(task, params)
    bad = set(params) - set(table)
    if bad:
        raise ConfigError(f"unknown params for task {task}: {sorted(bad)}")
    missing = {key for key, default in table.items() if default is REQUIRED} - set(params)
    if missing:
        raise ConfigError(f"missing params for task {task}: {sorted(missing)}")
    if task == "inequality" and not (isinstance(params["bound"], dict)
                                     and params["bound"].get("kind") in BOUND_KINDS):
        raise ConfigError(f"param bound must be an object with kind in {BOUND_KINDS}")
    seed = cfg.get("seed", DEFAULT_SEED)
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    types = dict(_PARAM_TYPES, a=("a number", _number)) if task == "sigma2" else _PARAM_TYPES
    for key in sorted(params.keys() & types.keys()):
        what, ok = types[key]
        if not ok(params[key]):
            raise ConfigError(f"param {key} must be {what}, got {params[key]!r}")
    for key in sorted(params):
        if type(table[key]) is tuple and params[key] not in table[key]:
            raise ConfigError(f"param {key} must be one of {table[key]}, got {params[key]!r}")
    return cfg


def _model(cfg: dict):
    spec = cfg.get("model")
    if not isinstance(spec, dict):
        raise ConfigError(f"task {cfg['task']} needs a 'model' object")
    try:
        return model_from_config(spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _irrational_from_cfg(spec) -> IrrationalSpec:
    if isinstance(spec, dict):
        try:
            return IrrationalSpec(**spec)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid irrational spec: {exc}") from exc
    if spec == "golden":
        return golden_spec()
    raise ConfigError(f"unsupported irrational spec {spec!r}")


def _run_task(cfg: dict, out_dir: str) -> int:
    task = cfg["task"]
    given = cfg.get("params", {})
    params = {key: d[0] if type(d) is tuple else d for key, d in _table(task, given).items()}
    params.update(given)
    seed = cfg.get("seed", DEFAULT_SEED)
    stream = RngStream(seed)
    fourier = task == "sigma2" and params["method"] == "fourier_closed_form"
    model = None if task == "diophantine" or fourier else _model(cfg)

    if task == "simulate":
        n, reps = params["n"], params["replicas"]
        # one path per replica stream named("simulate", r), drawn and checked
        # in blocks of about 2^16 values, each summed in one pass
        height = max(1, BATCH_CHUNK_VALUES // n)
        rows = []
        for start in range(0, reps, height):
            stop = min(start + height, reps)
            s = model.sample_rows(n, [stream.named("simulate", r) for r in range(start, stop)])
            np.cumsum(s, axis=1, out=s)
            s_n = s[:, -1].tolist()
            peak = np.abs(s, out=s).max(axis=1).tolist()
            rows.extend(zip(range(start, stop), s_n, peak))
        write_csv(os.path.join(out_dir, "simulate.csv"),
                  ("replica", "s_n", "max_abs_partial_sum"), rows)
        return 0

    if task == "sigma2":
        method = params["method"]
        if fourier:
            try:
                coeffs = {int(k): complex(v) for k, v in params["coeffs"].items()}
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid Fourier coefficients: {exc}") from exc
            est = sigma2_circle_fourier(coeffs, float(params["a"]), params["k_support"])
        elif method == "var_sn":
            if params["replicas"] < VAR_SN_MIN_REPLICAS:
                raise ConfigError(f"var_sn needs replicas >= {VAR_SN_MIN_REPLICAS}, "
                                  f"got {params['replicas']}")
            est = sigma2_var_sn({m: model.sample_batch(m, params["replicas"],
                                                       stream.named(f"var_sn_{m}"))
                                 for m in params["n_grid"]})
        else:
            paths = model.sample_batch(params["n"], params["replicas"], stream.named("sigma2"))
            if method == "covariance_series":
                est = sigma2_covariance_series(paths, params["k_max"])
            else:
                est = sigma2_dyadic(paths, params["j_max"])
        write_csv(os.path.join(out_dir, "sigma2.csv"),
                  ("method", "value", "se", "clamped"),
                  [(est.method, est.value, est.se, est.clamped)])
        return 0

    if task == "conditions":
        check = params["check"]
        fn = {"bis": check_bis, "mw": check_mw}[check]
        diag = fn(model, n_max=params["n_max"], floor=params["floor"])
        write_csv(os.path.join(out_dir, f"condition_{check}.csv"),
                  ("n", "term", "partial_sum"), diag.to_csv_rows())
        with open(os.path.join(out_dir, "verdict.json"), "w") as fh:
            json.dump({"check": check, "verdict": diag.verdict,
                       "fit_kind": diag.fit_kind, "fit_param": diag.fit_param},
                      fh, indent=2, sort_keys=True)
        return 0

    if task == "inequality":
        reports = verify_domination(model, params["bound"], params["thresholds"],
                                    params["replicas"], params["n"],
                                    stream.named("inequality"))
        write_csv(os.path.join(out_dir, "domination.csv"),
                  ("threshold", "bound", "p_hat", "ci_upper", "verdict"),
                  [r.to_csv_row() for r in reports])
        return 0 if all(r.verdict == "dominated" for r in reports) else 1

    if task == "mdp-scan":
        method = params["method"]
        if method != "exact_binomial" and not params["replicas"]:
            raise ConfigError(f"method {method} needs param replicas")
        refusal = method_refusal(method, model)
        if refusal is not None:
            raise ConfigError(refusal)
        report = mdp_scan(model, SpeedSequence(gamma=params["gamma"]), params["n_grid"],
                          params["x_grid"], params["sigma2"], method,
                          replicas=params["replicas"], stream=stream.named("mdp-scan"))
        report.to_csv(os.path.join(out_dir, "mdp_scan.csv"))
        with open(os.path.join(out_dir, "mdp_scan.json"), "w") as fh:
            fh.write(report.to_json())
        return 0

    if task == "diophantine":
        a = _irrational_from_cfg(params["a"])
        if params["action"] == "convergents":
            convs = convergents(cf_expand(a, params["K"]), spec=a)
            write_csv(os.path.join(out_dir, "convergents.csv"),
                      ("k", "p", "q"), [(c.k, c.p, c.q) for c in convs])
            return 0
        hits = badly_approximable_audit(a, params["eps"], params["K"])
        write_csv(os.path.join(out_dir, "audit.csv"), ("k",), [(k,) for k in hits])
        return 0

    if task == "transfer-decay":
        if model.kernel is None:
            raise ConfigError("transfer-decay needs a kernel model")
        kernel = model.kernel
        if isinstance(kernel, CircleFourierKernel):
            raise ValueError("transfer-decay decays the sawtooth x - 1/2, which is not a "
                             "function on the circle; use the conditions task instead")
        nodes = np.asarray(kernel.nodes, dtype=float)
        f = nodes - kernel.mu(nodes)
        report = sup_norm_decay(kernel, f, params["n_max"])
        write_csv(os.path.join(out_dir, "decay.csv"),
                  ("n", "u_n"), report.to_csv_rows())
        with open(os.path.join(out_dir, "decay_fit.json"), "w") as fh:
            json.dump({"kappa": report.kappa, "rho": report.rho,
                       "residual": report.residual, "diverged": report.diverged},
                      fh, indent=2, sort_keys=True)
        return 0

    if task == "decompose":
        m = params["m"]
        path = model.sample(params["n"], stream.named("decompose"))
        dec = block_martingale_decompose(model, path, m)
        write_csv(os.path.join(out_dir, "decompose.csv"),
                  ("block", "block_sum", "cond_mean", "increment"),
                  [(i, float(b), float(c), float(d)) for i, (b, c, d) in
                   enumerate(zip(dec.block_sums, dec.cond_means, dec.increments))])
        with open(os.path.join(out_dir, "decompose_summary.json"), "w") as fh:
            json.dump({"m": m, "boundary": dec.boundary,
                       "cond_mean_check": (dec.cond_mean_check if dec.cond_mean_checked
                                           else None),
                       "cond_mean_checked": dec.cond_mean_checked,
                       "reconstruction": dec.reconstruct()},
                      fh, indent=2, sort_keys=True)
        return 0

    raise ConfigError(f"unhandled task {task!r}")


def _write_manifest(cfg: dict, out_dir: str, started: float):
    manifest = {
        "config": cfg,
        "seed": cfg.get("seed", DEFAULT_SEED),
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "mdplab": __version__},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "timing.json"), "w") as fh:
        json.dump({"started_unix": started,
                   "wall_seconds": time.time() - started}, fh, indent=2)


SCHEMA = {
    "task": f"one of {list(TASKS)}",
    "seed": "nonnegative integer (optional)",
    "model": "model spec object with 'kind' in {iid, alternating, linear, "
             "iterated, expanding, circle, counterexample}",
    # a task whose method picks its params lists them per method
    "params": {t: {k: {v: sorted(p) for v, p in d.items()}
                   for k, d in ks.items() if type(d) is dict} or sorted(ks)
               for t, ks in _PARAMS.items()},
    "output_dir": "directory for CSV/JSON outputs (optional, default '.')",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mdplab",
        description="reproducible numerics for bounded stationary sequences")
    sub = parser.add_subparsers(dest="command")
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_suite = sub.add_parser("suite", help="run a registered suite")
    p_suite.add_argument("name")
    p_suite.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_suite.add_argument("--out-dir", default=None)
    sub.add_parser("print-schema", help="print the config schema")
    args = parser.parse_args(argv)

    if args.command == "print-schema":
        print(json.dumps(SCHEMA, indent=2))
        return 0

    if args.command == "suite":
        if args.seed < 0:
            print("config error: seed must be a nonnegative integer", file=sys.stderr)
            return 2
        if args.name == "acceptance":
            results = run_suite(args.seed, out_dir=args.out_dir)
            print(format_results(results))
            return 0 if all(r.passed for r in results) else 1
        if args.name == "demo":
            return _demo_suite(args.seed)
        print(f"unknown suite {args.name!r}", file=sys.stderr)
        return 2

    if args.command == "run":
        started = time.time()
        try:
            cfg = _load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        out_dir = cfg.get("output_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        try:
            code = _run_task(cfg, out_dir)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (PrecisionError,) as exc:
            print(f"precision refusal: {exc}", file=sys.stderr)
            return 3
        except ValueError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 3
        _write_manifest(cfg, out_dir, started)
        return code

    parser.print_help()
    return 2


def _demo_suite(seed: int) -> int:
    """Heavy-tailed renewal chain: the deviation gaps do not shrink."""
    from .processes import CounterexampleChainSpec, make_counterexample_chain
    model = make_counterexample_chain(CounterexampleChainSpec())
    stream = RngStream(seed)
    speed = SpeedSequence(gamma=0.5)
    print("demo: renewal-age chain, naive scan (expected non-convergence)")
    reps = 2000
    for n in (512, 2048):
        a_n = speed.a(n)
        t = 1.0 * (n / a_n) ** 0.5 * 0.25

        def chunk_hits(rows, rng):
            return int(np.sum(np.sum(model.sample_block(n, len(rows), rng), axis=1) >= t))

        hits = sum(map_replicas(reps, REPLICA_CHUNK, stream.named("demo", n), chunk_hits))
        est = a_n * np.log(max(hits, 1) / reps)
        print(f"  n={n}: a_n*logP ~ {est:+.3f} (threshold {t:.1f}, hits {hits})")
    print("gaps need not shrink here; this model is outside the dominated family")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
