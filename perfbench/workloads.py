"""The benchmark's four workloads: inputs from a seed, timed operations, grading.

A workload is a list of operations. Each operation makes one or more calls
into mdplab and names the checks that grade its output. A rep runs every
operation once, in order, under one timer; grading happens after the timer
stops, so the cost of the oracles is not charged to the library.

Every check ends in one of three states:
  ok           the output matches its exact oracle (or the expected verdict);
  known_wrong  the output misses its oracle in the way KNOWN_WRONG documents;
  failed       anything else, including an exception.
fail_frac counts both misses; the `failed` count of the result line counts
only the undocumented ones, so a regression shows even while known defects
are still open, and fixing a defect lowers fail_frac without a benchmark edit.
See RATIONALE.md for why each workload exists and the sizes chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import mdplab.diophantine as dioph
import mdplab.processes as specs
import numpy as np
from mdplab.core import RngStream

import oracles
from spans import model_label

KSE = 6.0  # statistical checks: |estimate - exact| <= KSE * SE

KNOWN_WRONG = {
    "acceptance": {
        "c2": "criterion 2's +-0.01 window is narrower than the doubling "
              "estimators' ~0.008 SE; counted only while both estimates stay "
              f"within {KSE:g} SE of the exact 0.5",
    },
    "orbits": {
        "decay.beta2": "at some observable scales (seeds 7, 8, 18, 21, 39 of 1-40) "
                       "u_n = c 2^-(n+1) picks up rounding dust and the fit over n >= 21 "
                       "includes it: rho ~ 0.55, exact 1/2",
        "decay.beta3": "u_n hits a 7.8e-20 rounding floor by n ~ 38 and the fit over "
                       "n >= 21 includes it: rho ~ 0.65, exact 1/3",
        "decay.iterated": "u_n hits a 1.4e-17 rounding floor by n ~ 55 and the fit over "
                          "n >= 21 includes it: rho ~ 0.55, exact 0.5",
        "decay.gauss": "trapezoid mu is not the discrete operator's invariant functional; "
                       "u_n plateaus near 1e-8 and the fit gives rho ~ 1.0, exact 0.30366",
        "bis.gauss": "check_bis at floor 0 fits the same plateau and reports "
                     "'diverging'; the Gauss operator has a spectral gap",
        "cos.beta3": "the grid operator interpolates cos((x+i)/3) between nodes, so "
                     "K cos(2 pi x) = 8.7e-8 instead of 0 (beta = 2 lands on nodes)",
    },
}


@dataclass
class Op:
    """One timed operation; `checks` names the graded outputs it produces."""

    name: str
    run: object                      # run(results) -> output
    grade: object                    # grade(output, results) -> {check: (ok, detail)}
    checks: list = field(default_factory=list)

    def __post_init__(self):
        if not self.checks:
            self.checks = [self.name]


class Refused:
    """A documented refusal (naive MC pre-flight), returned instead of raised."""

    def __init__(self, message):
        self.message = message


def one(ok, detail=""):
    """Grade of a single-check operation."""
    def grade(out, res):
        return {None: (bool(ok(out, res)), detail(out, res) if callable(detail) else detail)}
    return grade


class Lab:
    """The mdplab entry points a workload calls, plain or wrapped by a tracer."""

    BUILDERS = ("make_iid", "make_circle_walk", "make_linear_process",
                "make_expanding_map", "make_iterated_function",
                "make_alternating_plus_iid")
    FUNCTIONS = {
        "processes": BUILDERS,
        "transfer": ("sup_norm_decay", "conditional_sum_norm_profile"),
        "conditions": ("check_bis", "check_mw"),
        "variance": ("sigma2_covariance_series", "sigma2_dyadic", "sigma2_var_sn",
                     "sigma2_circle_fourier"),
        "inequalities": ("verify_domination",),
        "mdp": ("empirical_mdp_point", "tilted_is_estimator", "exact_binomial_tail_log",
                "block_martingale_decompose"),
        "diophantine": ("dist_to_integers_array", "badly_approximable_audit",
                        "cf_expand", "convergents"),
        "acceptance": ("run_data_pass", "evaluate"),
        "cli": ("main",),
    }
    # names mdplab.acceptance imports and run_data_pass calls
    ACCEPTANCE_CALLS = ("sup_norm_decay", "pf_duality_gap", "check_bis", "check_mw",
                        "check_class_L", "sigma2_circle_fourier",
                        "sigma2_covariance_series", "sigma2_dyadic",
                        "verify_domination", "block_martingale_decompose",
                        "empirical_mdp_point", "endpoint_rate", "rate_I",
                        "badly_approximable_audit", "cf_expand", "convergents")
    ACCEPTANCE_BUILDERS = BUILDERS + ("IntegerBetaPFKernel",)

    def __init__(self, tracer=None):
        self.tracer = tracer
        for module, names in self.FUNCTIONS.items():
            mod = importlib.import_module(f"mdplab.{module}")
            for name in names:
                setattr(self, "cli_main" if module == "cli" else name,
                        self._wrap(getattr(mod, name), name in self.BUILDERS))

    def _wrap(self, fn, builder):
        if self.tracer is None:
            return fn
        if builder:
            return self.tracer.wrap_builder(fn)
        return self.tracer.wrap(fn, attrs=_span_attrs(fn.__name__))

    @contextlib.contextmanager
    def inside(self, module, calls=(), builders=()):
        """Trace the calls a library module makes, by swapping the names it looks up.

        Used for run_data_pass and cli.main, which build their own models: the
        builders' products get their sampler/apply boundaries wrapped too.
        """
        if self.tracer is None:
            yield
            return
        mod = importlib.import_module(module)
        saved = {}
        try:
            for name in calls + builders:
                saved[name] = getattr(mod, name)
                setattr(mod, name, self._wrap(saved[name], name in builders))
            yield
        finally:
            for name, fn in saved.items():
                setattr(mod, name, fn)


def _span_attrs(name):
    if name in ("check_bis", "check_mw"):
        return lambda a, k: {"model": model_label(a[0])}
    if name == "verify_domination":
        return lambda a, k: {"model": model_label(a[0]),
                             "replicas": int(k.get("replicas", a[3] if len(a) > 3 else 0))}
    if name == "empirical_mdp_point":
        return lambda a, k: {"method": k.get("method", a[4] if len(a) > 4 else "")}
    if name == "main":
        return lambda a, k: {"task": _cli_task(a[0])}
    return None


def _cli_task(argv):
    if len(argv) >= 2 and argv[0] == "run":
        with open(argv[1]) as fh:
            return json.load(fh).get("task", "")
    return argv[0] if argv else ""


# ---------------------------------------------------------------------------
# shared models


def _models(lab):
    return {
        "iid": lab.make_iid(specs.IIDSpec(law="rademacher")),
        "circle": lab.make_circle_walk(specs.CircleWalkSpec(a=specs.GOLDEN)),
        "linear": lab.make_linear_process(specs.LinearProcessSpec(
            coeff_kind="geometric", C=0.25, rho=0.5, modulus=lambda h: h)),
        "doubling": lab.make_expanding_map(specs.ExpandingMapSpec(map="doubling", mean=0.0)),
        "iterated": lab.make_iterated_function(specs.IteratedFunctionSpec(rho=0.5)),
    }


def _exact_sigma2(models):
    """Long-run variances in closed form for the five models of _models."""
    lin = models["linear"].meta
    c_sum = 0.25 * (1.0 - 0.5 ** (lin["truncation_radius"] + 1)) / 0.5
    return {
        "iid": 1.0,
        "circle": oracles.circle_sigma2(models["circle"].meta["coeffs"], oracles.GOLDEN),
        "linear": c_sum**2,          # (sum c_i)^2 Var(eps), Var(eps) = 1
        "doubling": 0.5,             # cos(2 pi 2^k x) are orthogonal
        "iterated": 1.0 / 12.0,      # AR(1) in y - 1/2: (1-rho)^2/12 / (1-rho)^2
    }


class Workload:
    """Oracle values are computed once per run: they depend only on the seed."""

    def cached(self, key, fn):
        store = self.__dict__.setdefault("_oracle", {})
        if key not in store:
            store[key] = fn()
        return store[key]

    def exact_tail(self, n, t):
        return self.cached(("tail", n, t), lambda: oracles.binomial_tail_log(n, t))


def _within(est, exact, se, k=KSE):
    return abs(est - exact) <= k * se, f"{est:.6g} vs exact {exact:.6g} (se {se:.2g})"


# ---------------------------------------------------------------------------
# acceptance: one run_data_pass + evaluate, what `mdplab suite acceptance` runs


class Acceptance(Workload):
    name = "acceptance"
    CSVS = ("c1_endpoint.csv", "c2_sigma2.csv", "c3_domination.csv", "c4_transfer.csv",
            "c5_diophantine.csv", "c6_conditions.csv", "c7_rates.csv", "c8_decompose.csv")

    def setup(self, lab, seed, out_dir):
        # the pass builds its own models: set-up is the import Lab() made
        self.lab, self.seed = lab, seed
        self.out_dir = os.path.join(out_dir, f"acceptance-seed{seed}")
        # stored hashes are keyed by the library's source too: "same code and seed"
        src = os.path.dirname(specs.__file__)
        digest = hashlib.sha256()
        for name in sorted(os.listdir(src)):
            if name.endswith(".py"):
                with open(os.path.join(src, name), "rb") as fh:
                    digest.update(fh.read())
        self.key = f"seed{seed}-src{digest.hexdigest()[:16]}"

    def rep_dir(self, rep):
        return os.path.join(self.out_dir, f"rep{rep}")

    def ops(self, rep):
        lab, out = self.lab, self.rep_dir(rep)
        shutil.rmtree(out, ignore_errors=True)

        def data_pass(res):
            with lab.inside("mdplab.acceptance", lab.ACCEPTANCE_CALLS,
                            lab.ACCEPTANCE_BUILDERS):
                return lab.run_data_pass(self.seed, out)

        return [
            Op("data_pass", data_pass, one(
                lambda d, r: sorted(f for f in os.listdir(out) if f.endswith(".csv"))
                == sorted(self.CSVS),
                lambda d, r: f"csv files: {sorted(os.listdir(out))}")),
            Op("evaluate", lambda res: lab.evaluate(res["data_pass"]), self._grade_criteria,
               checks=[f"c{i}" for i in range(1, 9)]),
        ]

    def _grade_criteria(self, results, res):
        data = res["data_pass"]
        by_index = {r.index: r for r in results}
        out = {}
        for i in (1, 2, 3, 4, 6, 7, 8):
            out[f"c{i}"] = (by_index[i].passed, by_index[i].line())
        audit, fib_ok = data["c5"]["audit"], data["c5"]["fib_ok"]
        out["c5"] = (not by_index[5].passed and fib_ok and audit == oracles.FIB_HITS,
                     f"expected FAIL with hits {oracles.FIB_HITS[0]}..{oracles.FIB_HITS[-1]}; "
                     + by_index[5].line())
        return out

    def known_wrong_applies(self, check, res):
        if check != "c2":
            return False
        c2 = res["data_pass"]["c2"]
        doubling_ok = all(abs(c2[k].value - 0.5) <= KSE * c2[k].se for k in ("cov_d", "dy_d"))
        circle_ok = (abs(c2["cov_c"].value - c2["exact_c"].value) <= 0.1 * c2["exact_c"].value
                     and abs(c2["brute"] - c2["exact_c"].value) <= 1e-10)
        return doubling_ok and circle_ok

    hashes = None  # sha256 per CSV of this run's first rep

    def extra_checks(self, rep, res):
        """Hash the rep's CSVs outside the timer; a hash that moves at a fixed seed fails.

        The first rep is compared with any earlier run of this seed on the same
        library source, later reps with the first. The hashes and criterion
        verdicts are kept in acceptance-seeds.json: the seed->verdict table.
        """
        hashes = self.csv_hashes(rep)
        shutil.rmtree(self.rep_dir(rep), ignore_errors=True)
        if self.hashes is not None:
            return [("csv_sha256.same_run", "ok" if hashes == self.hashes else "failed",
                     "identical to rep 0" if hashes == self.hashes else f"moved: {hashes}")]
        self.hashes = hashes
        store_path = os.path.join(os.path.dirname(self.out_dir), "acceptance-seeds.json")
        store = {}
        if os.path.exists(store_path):
            with open(store_path) as fh:
                store = json.load(fh)
        previous = store.get(self.key)
        verdicts = res.get("evaluate")
        store[self.key] = {
            "csv_sha256": hashes,
            "verdicts": {f"c{r.index}": "PASS" if r.passed else "FAIL" for r in verdicts}
            if isinstance(verdicts, list) else {}}
        with open(store_path, "w") as fh:
            json.dump(store, fh, indent=1, sort_keys=True)
        if previous is None:
            return []
        same = previous["csv_sha256"] == hashes
        return [("csv_sha256.earlier_run", "ok" if same else "failed",
                 "identical to the earlier run" if same else f"moved: {hashes}")]

    def csv_hashes(self, rep):
        out = {}
        for name in self.CSVS:
            path = os.path.join(self.rep_dir(rep), name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out


# ---------------------------------------------------------------------------
# replicas: many short paths, one sampler call per replica


class Replicas(Workload):
    name = "replicas"
    N = 256
    DOMINATION = {"iid": 100_000, "circle": 20_000, "linear": 50_000,
                  "doubling": 20_000, "iterated": 10_000}
    MULTS = (2.0, 2.5, 3.0, 3.5, 4.0)
    NAIVE_X = (1.5, 2.0, 2.5, 3.0, 3.5)
    NAIVE_REPLICAS = 20_000
    TILTED_N, TILTED_X, TILTED_REPLICAS = 1024, (2.0, 3.0, 4.0, 5.0), 20_000
    BATCH_N, BATCH_REPLICAS, BATCH_KMAX = 1024, 5_000, 40
    CLI_N, CLI_REPLICAS = 256, 10_000

    def setup(self, lab, seed, out_dir):
        self.lab, self.seed = lab, seed
        self.stream = RngStream(seed)
        self.models = m = _models(lab)
        self.sigma2 = _exact_sigma2(m)
        n, root = self.N, math.sqrt(self.N)

        def cond_norms(model):
            k = model.kernel
            f = np.asarray(model.meta["observable"](k.nodes), dtype=float)
            return lab.conditional_sum_norm_profile(k, f - k.mu(f), n)

        self.bounds = {
            "iid": {"kind": "azuma", "c": 1.0},
            "circle": {"kind": "puw", "x_inf": m["circle"].bound,
                       "cond_norms": m["circle"].kernel.cond_sum_sup_norms(n)},
            "linear": {"kind": "projection", "p_seq": m["linear"].meta["delta_bounds"]},
            "doubling": {"kind": "puw", "x_inf": m["doubling"].bound,
                         "cond_norms": cond_norms(m["doubling"])},
            "iterated": {"kind": "puw", "x_inf": m["iterated"].bound,
                         "cond_norms": cond_norms(m["iterated"])},
        }
        self.thresholds = {k: [u * math.sqrt(s2) * root for u in self.MULTS]
                           for k, s2 in self.sigma2.items()}
        self.cli_dir = os.path.join(out_dir, f"replicas-seed{seed}")
        os.makedirs(self.cli_dir, exist_ok=True)
        self.cli_cfg = os.path.join(self.cli_dir, "simulate.json")
        with open(self.cli_cfg, "w") as fh:
            json.dump({"task": "simulate", "seed": seed,
                       "model": {"kind": "iid", "law": "rademacher"},
                       "params": {"n": self.CLI_N, "replicas": self.CLI_REPLICAS},
                       "output_dir": os.path.join(self.cli_dir, "out")}, fh)

    def ops(self, rep):
        lab, st, m = self.lab, self.stream, self.models
        shutil.rmtree(os.path.join(self.cli_dir, "out"), ignore_errors=True)
        ops = []
        for key, reps in self.DOMINATION.items():
            ops.append(Op(
                f"dominated.{key}",
                lambda res, key=key, reps=reps: lab.verify_domination(
                    m[key], self.bounds[key], self.thresholds[key], reps, self.N,
                    st.named(f"domination-{key}")),
                one(lambda out, r: len(out) == len(self.MULTS)
                    and all(x.verdict == "dominated" for x in out),
                    lambda out, r: " ".join(f"{x.p_hat:.3g}<={x.bound:.3g}" for x in out))))
        for x in self.NAIVE_X:
            ops.append(Op(f"naive.x{x:g}", lambda res, x=x: self._naive(x),
                          lambda out, r, x=x: {None: self._grade_naive(x, out)}))
        spec = specs.IIDSpec(law="rademacher")
        for x in self.TILTED_X:
            t = x * math.sqrt(self.TILTED_N)
            ops.append(Op(
                f"tilted.x{x:g}",
                lambda res, t=t, x=x: lab.tilted_is_estimator(
                    spec, self.TILTED_N, t, self.TILTED_REPLICAS, st.named("tilted", int(x))),
                lambda out, r, t=t: {None: _within(out[0], self.exact_tail(self.TILTED_N, t),
                                                   out[1])}))
        ops.append(Op(
            "sigma2.circle_batch",
            lambda res: lab.sigma2_covariance_series(
                m["circle"].sample_batch(self.BATCH_N, self.BATCH_REPLICAS,
                                         st.named("batch-circle")), self.BATCH_KMAX),
            lambda out, r: {None: _within(out.value, self.sigma2["circle"], out.se)}))
        ops.append(Op("cli.simulate", lambda res: self._cli(),
                      lambda code, r: {None: self._grade_cli(code)}))
        return ops

    def _cli(self):
        with self.lab.inside("mdplab.cli", builders=("model_from_config",)):
            return self.lab.cli_main(["run", self.cli_cfg])

    def _naive(self, x):
        try:
            return self.lab.empirical_mdp_point(
                self.models["iid"], self.N, 1.0, x, "naive",
                replicas=self.NAIVE_REPLICAS, stream=self.stream)
        except ValueError as exc:
            if "refused" in str(exc):
                return Refused(str(exc))
            raise

    def _grade_naive(self, x, out):
        # the pre-flight refuses when replicas * P(N(0,1) >= x) < 20 (sigma2 = 1)
        expected = self.NAIVE_REPLICAS * 0.5 * math.erfc(x / math.sqrt(2.0))
        if isinstance(out, Refused):
            return expected < 20.0, f"{out.message} (benchmark expects {expected:.2f})"
        if expected < 20.0:
            return False, f"ran although expected exceedances {expected:.2f} < 20"
        exact = self.exact_tail(self.N, x * math.sqrt(self.N))
        return _within(out.estimate, exact, out.se)

    def _grade_cli(self, code):
        out = os.path.join(self.cli_dir, "out")
        with open(os.path.join(out, "simulate.csv")) as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        n = self.CLI_N
        bad = [r for r in rows
               if not (float(r[1]) % 2 == n % 2 and abs(float(r[1])) <= float(r[2]) <= n)]
        # spot-check eight replicas against a direct draw from the same stream
        model = specs.make_iid(specs.IIDSpec(law="rademacher"))
        for r in range(0, len(rows), max(1, len(rows) // 8)):
            s = np.cumsum(model.sample(n, RngStream(self.seed).named("simulate", r)).values)
            if float(rows[r][1]) != float(s[-1]) or float(rows[r][2]) != float(np.max(np.abs(s))):
                bad.append(rows[r])
        ok = code == 0 and len(rows) == self.CLI_REPLICAS and not bad \
            and os.path.exists(os.path.join(out, "manifest.json"))
        return ok, f"exit {code}, {len(rows)} rows, {len(bad)} bad"


# ---------------------------------------------------------------------------
# orbits: kernel iterations only, no sampling


class Orbits(Workload):
    name = "orbits"
    N_MAX = {"beta2": 4096, "beta3": 4096, "gauss": 256, "iterated": 4096,
             "circle": 4096, "alternating": 4096}
    DECAY_N = 64
    DECAY_EXACT = {"beta2": 0.5, "beta3": 1.0 / 3.0, "gauss": oracles.WIRSING,
                   "iterated": 0.5, "circle": abs(math.cos(2.0 * math.pi * oracles.GOLDEN)),
                   "alternating": 1.0}
    BIS_EXPECTED = {"alternating": "diverging"}  # every other kernel: converging

    def setup(self, lab, seed, out_dir):
        self.lab = lab
        # the seed scales every observable; verdicts and rates are scale-free
        c = float(2.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0))
        self.scale = c
        cos = lambda x: c * np.cos(2.0 * np.pi * x)
        self.models = {
            "beta2": lab.make_expanding_map(specs.ExpandingMapSpec(
                map="doubling", observable=cos, mean=0.0)),
            "beta3": lab.make_expanding_map(specs.ExpandingMapSpec(
                map="beta", beta=3, observable=cos, mean=0.0)),
            "gauss": lab.make_expanding_map(specs.ExpandingMapSpec(map="gauss", observable=cos)),
            "iterated": lab.make_iterated_function(specs.IteratedFunctionSpec(
                rho=0.5, observable=lambda y: c * y)),
            "circle": lab.make_circle_walk(specs.CircleWalkSpec(
                a=specs.GOLDEN, coeffs={1: c / 2, -1: c / 2})),
            "alternating": lab.make_alternating_plus_iid(specs.IIDSpec(law="uniform")),
        }
        self.decay_f = {}
        for key, model in self.models.items():
            k = model.kernel
            nodes = np.asarray(k.nodes, dtype=float)
            f = cos(nodes) if key == "circle" else c * (nodes - k.mu(nodes))
            self.decay_f[key] = f

    def ops(self, rep):
        lab, ops = self.lab, []
        for key, model in self.models.items():
            k, n_max = model.kernel, self.N_MAX[key]
            want_bis = self.BIS_EXPECTED.get(key, "converging")
            ops.append(Op(f"bis.{key}", lambda res, model=model, n_max=n_max:
                          lab.check_bis(model, n_max=n_max, floor=0.0),
                          one(lambda d, r, w=want_bis: d.verdict == w,
                              lambda d, r, w=want_bis: f"{d.verdict} (want {w}), "
                              f"{d.fit_kind} {d.fit_param}")))
            ops.append(Op(f"mw.{key}", lambda res, model=model, n_max=n_max:
                          lab.check_mw(model, n_max=n_max, floor=0.0),
                          one(lambda d, r: d.verdict == "converging",
                              lambda d, r: f"{d.verdict}, {d.fit_kind} {d.fit_param}")))
            exact = self.DECAY_EXACT[key]
            ops.append(Op(f"decay.{key}", lambda res, k=k, key=key:
                          lab.sup_norm_decay(k, self.decay_f[key], self.DECAY_N),
                          one(lambda d, r, e=exact: d.rho is not None
                              and abs(d.rho / e - 1.0) <= 1e-3,
                              lambda d, r, e=exact: f"rho {d.rho} vs exact {e:.10g}")))
            ops.append(Op(f"const.{key}", lambda res, k=k:
                          k.apply(np.ones(np.asarray(k.nodes).size)),
                          one(lambda v, r: float(np.max(np.abs(v - 1.0))) < 1e-12,
                              lambda v, r: f"|K1-1| = {float(np.max(np.abs(v - 1.0))):.2e}")))
        for key in ("beta2", "beta3"):
            k = self.models[key].kernel
            ops.append(Op(f"cos.{key}", lambda res, k=k:
                          k.apply(np.cos(2.0 * np.pi * k.nodes)),
                          one(lambda v, r: float(np.max(np.abs(v))) < 1e-12,
                              lambda v, r: f"|K cos| = {float(np.max(np.abs(v))):.2e}")))
        return ops


# ---------------------------------------------------------------------------
# long-paths: a few 2^20-value trajectories, bulk numpy, plus the oracles


class LongPaths(Workload):
    name = "long-paths"
    N = 1 << 20
    COV_KMAX, DYADIC_JMAX, VAR_SN_GRID = 40, 12, (128, 256, 512, 1024)
    DECOMPOSE_M = {"circle": 8, "iterated": 64}
    ITERATED_DECOMPOSE_N = 1 << 16   # nearest-node lookup is O(blocks x 4097) memory
    BINOMIAL_N = (10**3, 10**4, 10**5, 10**6, 10**7)
    AUDIT_K, AUDIT_EPS, SPOT_K = 10**6, 0.1, 64
    CF_GOLDEN_K, CF_SQRT_K = 1000, 400

    def setup(self, lab, seed, out_dir):
        self.lab = lab
        self.stream = RngStream(seed)
        self.models = _models(lab)
        self.sigma2 = _exact_sigma2(self.models)
        rng = np.random.default_rng(seed)
        self.binom_x = sorted(float(x) for x in rng.uniform(1.0, 5.0, 3))
        self.spot_k = sorted(int(k) for k in rng.choice(self.AUDIT_K, self.SPOT_K,
                                                        replace=False) + 1)
        while True:
            D = int(rng.integers(2, 10_000))
            if math.isqrt(D) ** 2 != D:
                break
        self.sqrt_spec = dioph.IrrationalSpec(kind="quadratic", P=0, D=D, Q=1)
        self.golden = dioph.golden_spec()

    def ops(self, rep):
        lab, st, m, ops = self.lab, self.stream, self.models, []
        for key, model in m.items():
            ops.append(Op(f"path.{key}", lambda res, model=model, key=key:
                          model.sample(self.N, st.named(f"long-{key}")),
                          one(lambda p, r, model=model: len(p) == self.N
                              and float(np.max(np.abs(p.values))) <= model.bound,
                              lambda p, r: f"{len(p)} values")))
        for key in m:
            exact = self.sigma2[key]
            ops.append(Op(f"sigma2.cov.{key}", lambda res, key=key:
                          lab.sigma2_covariance_series(res[f"path.{key}"].values, self.COV_KMAX),
                          lambda e, r, x=exact: {None: _within(e.value, x, e.se)}))
            ops.append(Op(f"sigma2.dyadic.{key}", lambda res, key=key:
                          lab.sigma2_dyadic(res[f"path.{key}"].values, self.DYADIC_JMAX),
                          lambda e, r, x=exact: {None: _within(e.value, x, e.se)}))
            # each n gets its own quarter of the path: levels cut from the same
            # values would be correlated, which the fit's SE does not allow for
            ops.append(Op(f"sigma2.var_sn.{key}", lambda res, key=key:
                          lab.sigma2_var_sn({n: q.reshape(-1, n) for n, q in zip(
                              self.VAR_SN_GRID, np.split(res[f"path.{key}"].values, 4))}),
                          lambda e, r, x=exact: {None: _within(e.value, x, e.se)}))
        circle = m["circle"]
        ops.append(Op("sigma2.fourier.circle", lambda res: lab.sigma2_circle_fourier(
            circle.meta["coeffs"], circle.meta["a"]),
            one(lambda e, r: abs(e.value - self.sigma2["circle"]) <= 1e-14,
                lambda e, r: f"{e.value!r} vs {self.sigma2['circle']!r}")))
        ops.append(Op("path.iterated_short", lambda res: m["iterated"].sample(
            self.ITERATED_DECOMPOSE_N, st.named("long-iterated-decompose")),
            one(lambda p, r: len(p) == self.ITERATED_DECOMPOSE_N, "")))
        ops.append(Op("decompose.circle", lambda res: lab.block_martingale_decompose(
            circle, res["path.circle"], self.DECOMPOSE_M["circle"]),
            lambda d, r: self._grade_decompose("circle", d, r["path.circle"]),
            checks=["decompose.circle.reconstruct", "decompose.circle.cond_means"]))
        ops.append(Op("decompose.iterated", lambda res: lab.block_martingale_decompose(
            m["iterated"], res["path.iterated_short"], self.DECOMPOSE_M["iterated"]),
            lambda d, r: self._grade_decompose("iterated", d, r["path.iterated_short"]),
            checks=["decompose.iterated.reconstruct", "decompose.iterated.cond_means"]))
        for n in self.BINOMIAL_N:
            for x in self.binom_x:
                t = x * math.sqrt(n)
                ops.append(Op(f"binomial.n{n}.x{x:.3f}", lambda res, n=n, t=t:
                              lab.exact_binomial_tail_log(n, t),
                              lambda lp, r, n=n, t=t: {None: self._grade_tail(n, t, lp)}))
        ops.append(Op("dist_array", lambda res: lab.dist_to_integers_array(
            self.golden, self.AUDIT_K), self._grade_dist))
        ops.append(Op("audit", lambda res: lab.badly_approximable_audit(
            self.golden, self.AUDIT_EPS, self.AUDIT_K),
            one(lambda hits, r: hits == oracles.FIB_HITS, lambda hits, r: f"hits {hits}")))
        ops.append(Op("cf.golden", lambda res: lab.convergents(
            lab.cf_expand(self.golden, self.CF_GOLDEN_K)),
            one(lambda convs, r: self._golden_convergents_ok(convs), "")))
        ops.append(Op("cf.sqrt", lambda res: self._sqrt_cf(), self._grade_sqrt_cf))
        return ops

    def _grade_decompose(self, key, dec, path):
        values = path.values
        s_n = math.fsum(values)
        rec = dec.reconstruct()
        # criterion 8 bounds it by 1e-12 at n = 4096; summing 2^20 values in
        # float rounds by more than that, so the bound grows with sum |x| as
        # float summation error does
        tol = max(1e-12, 4.0 * np.finfo(float).eps * math.fsum(np.abs(values)))
        out = {f"decompose.{key}.reconstruct":
               (abs(rec - s_n) <= tol, f"|rec - S_n| = {abs(rec - s_n):.2e} (tol {tol:.1e})")}
        m = dec.m
        states = np.asarray(path.states, dtype=float)
        starts = states[0: dec.block_sums.size * m: m]
        if key == "circle":
            # cond mean of the next m values: sum_s K^s f at the block start, exact modes
            coeffs = self.models["circle"].meta["coeffs"]
            a = self.models["circle"].meta["a"]
            exact = np.zeros_like(starts)
            for k, c in coeffs.items():
                mult = math.cos(2.0 * math.pi * k * a)
                gain = sum(mult**s for s in range(1, m + 1))
                exact += (c * gain * np.exp(2j * np.pi * k * starts)).real
            tol_c = 1e-12
        else:
            # f(y) = y - 1/2 and E(Y_s - 1/2 | Y_0 = y) = rho^s (y - 1/2); the
            # library evaluates at the nearest of 4097 nodes, resolution 1/8192
            rho = self.models["iterated"].meta["rho"]
            gain = sum(rho**s for s in range(1, m + 1))
            exact = gain * (starts - 0.5)
            tol_c = gain * 0.5 / (len(self.models["iterated"].kernel.nodes) - 1) + 1e-9
        err = float(np.max(np.abs(dec.cond_means - exact)))
        out[f"decompose.{key}.cond_means"] = (err <= tol_c,
                                              f"max |cond - exact| = {err:.2e} (tol {tol_c:.1e})")
        return out

    def _grade_tail(self, n, t, lp):
        exact = self.exact_tail(n, t)
        # log C(n, k) from float log-gamma cancels terms of size n log n
        tol = 1e-12 + 16.0 * np.finfo(float).eps * n * math.log(n)
        return abs(lp - exact) <= tol, f"{lp!r} vs {exact!r} (tol {tol:.1e})"

    def _grade_dist(self, d, res):
        exact = self.cached("dist", lambda: [oracles.dist_golden_exact(k) for k in self.spot_k])
        errs = [abs(d[k - 1] - e) for k, e in zip(self.spot_k, exact)]
        return {None: (d.size == self.AUDIT_K and max(errs) <= 1e-15,
                       f"max spot error {max(errs):.1e} over {len(errs)} k")}

    def _golden_convergents_ok(self, convs):
        fib = oracles.fibonacci(self.CF_GOLDEN_K + 3)
        return (len(convs) == self.CF_GOLDEN_K + 1
                and all(c.p == fib[c.k] and c.q == fib[c.k + 1] for c in convs))

    def _sqrt_cf(self):
        quotients = self.lab.cf_expand(self.sqrt_spec, self.CF_SQRT_K)
        return quotients, self.lab.convergents(quotients)

    def _grade_sqrt_cf(self, out, res):
        quotients, convs = out
        errors = oracles.sqrt_cf_errors(self.sqrt_spec.D, quotients, convs)
        return {None: (not errors and len(quotients) == self.CF_SQRT_K + 1,
                       f"sqrt({self.sqrt_spec.D}): " + ("; ".join(errors) or "ok"))}


WORKLOADS = {w.name: w for w in (Acceptance, Replicas, Orbits, LongPaths)}
