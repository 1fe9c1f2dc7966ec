import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import mdplab
from mdplab.cli import main
from mdplab.core import ProcessModel, RngStream
from mdplab.processes import model_from_config


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_print_schema(capsys):
    assert main(["print-schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert "task" in schema and "params" in schema


def _fresh_python(code):
    src = os.path.dirname(os.path.dirname(mdplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


# scipy.stats costs about 0.7 s of import and scipy.signal imports it;
# scipy.special about 0.2 s and 24 MiB, and only the Clopper-Pearson limit
# and the naive pre-flight load it; mpmath is a test-only dependency
HEAVY = ("scipy.special", "scipy.stats", "scipy.signal", "mpmath")
NOT_LOADED = f"loaded = [m for m in {HEAVY!r} if m in sys.modules]; " \
             "sys.exit(str(loaded) if loaded else 0)"


def test_cli_import_stays_lean():
    modules = sorted(p.stem for p in pathlib.Path(mdplab.__file__).parent.glob("[!_]*.py"))
    done = _fresh_python(f"import sys, {', '.join('mdplab.' + m for m in modules)}; "
                         + NOT_LOADED)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("task,model,params", [
    ("transfer-decay", {"kind": "expanding", "map": "doubling"}, {}),
    ("conditions", {"kind": "circle", "a": "golden"}, {"check": "bis", "n_max": 128}),
])
def test_kernel_tasks_run_without_scipy_special(tmp_path, task, model, params):
    cfg = write_cfg(tmp_path, "task.json", {"task": task, "model": model, "params": params,
                                           "output_dir": str(tmp_path / "out")})
    done = _fresh_python(f"import sys; from mdplab.cli import main; "
                         f"assert main(['run', {cfg!r}]) == 0; " + NOT_LOADED)
    assert done.returncode == 0, done.stderr


def test_clopper_pearson_limit_loads_scipy_special():
    done = _fresh_python(
        "import sys; from mdplab.inequalities import clopper_pearson_upper; "
        "assert 'scipy.special' not in sys.modules; clopper_pearson_upper(3, 100); "
        "sys.exit(0 if 'scipy.special' in sys.modules else 'scipy.special not loaded')")
    assert done.returncode == 0, done.stderr


def test_simulate_task_writes_csv_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, "sim.json", {
        "task": "simulate",
        "seed": 11,
        "model": {"kind": "iid", "law": "rademacher"},
        "params": {"n": 128, "replicas": 5},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    out = tmp_path / "out"
    assert (out / "simulate.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert "numpy" in manifest["versions"]
    assert (out / "timing.json").exists()


@pytest.mark.parametrize("model_cfg", [
    pytest.param({"kind": "iid", "law": "rademacher"}, id="rademacher"),
    pytest.param({"kind": "iid", "law": "uniform"}, id="uniform"),
    pytest.param({"kind": "circle", "a": "golden"}, id="circle"),
])
def test_simulate_rows_are_the_named_replica_paths(tmp_path, model_cfg):
    # 2^16 // 4096 = 16 rows a block: three blocks, the last one short;
    # uniform values make the partial sums depend on the order of addition;
    # `sample_rows` drops the states the circle's one-row blocks carry
    n, reps, seed = 4096, 40, 11
    cfg = write_cfg(tmp_path, "sim.json", {
        "task": "simulate", "seed": seed, "model": model_cfg,
        "params": {"n": n, "replicas": reps}, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    lines = (tmp_path / "out" / "simulate.csv").read_text().splitlines()
    assert lines[0] == "replica,s_n,max_abs_partial_sum"
    model = model_from_config(model_cfg)
    want = []
    for r in range(reps):
        s = np.cumsum(model.sample(n, RngStream(seed).named("simulate", r)).values)
        want.append(f"{r},{float(s[-1])!r},{float(np.max(np.abs(s)))!r}")
    assert lines[1:] == want


def test_run_is_byte_deterministic(tmp_path):
    def run(sub):
        cfg = write_cfg(tmp_path, f"{sub}.json", {
            "task": "simulate",
            "seed": 3,
            "model": {"kind": "iid", "law": "uniform", "c": 0.5},
            "params": {"n": 64, "replicas": 4},
            "output_dir": str(tmp_path / sub),
        })
        assert main(["run", cfg]) == 0
        return (tmp_path / sub / "simulate.csv").read_bytes()

    assert run("a") == run("b")


def test_sigma2_task(tmp_path):
    cfg = write_cfg(tmp_path, "s2.json", {
        "task": "sigma2",
        "model": {"kind": "iid", "law": "rademacher"},
        "params": {"method": "covariance_series", "n": 2000,
                   "replicas": 20, "k_max": 5},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    body = (tmp_path / "out" / "sigma2.csv").read_text().splitlines()
    assert body[0] == "method,value,se,clamped"
    value = float(body[1].split(",")[1])
    assert 0.8 < value < 1.2


def test_sigma2_lags_past_the_row_end_are_refused(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lags.json", {
        "task": "sigma2",
        "model": {"kind": "iid", "law": "rademacher"},
        "params": {"method": "covariance_series", "n": 30,
                   "replicas": 1000, "k_max": 60},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err.startswith("refused:")
    assert not (tmp_path / "out" / "sigma2.csv").exists()


@pytest.mark.parametrize("params,unread", [
    ({"method": "covariance_series", "a": 0.5, "n_grid": [64], "k_support": 3},
     ["a", "k_support", "n_grid"]),
    ({"method": "dyadic", "k_max": 5}, ["k_max"]),
    ({"method": "var_sn", "n": 256, "j_max": 4}, ["j_max", "n"]),
    ({"method": "fourier_closed_form", "coeffs": {"1": 0.5, "-1": 0.5}, "a": 0.6,
      "replicas": 10}, ["replicas"]),
])
def test_sigma2_refuses_params_its_method_never_reads(tmp_path, capsys, params, unread):
    cfg = write_cfg(tmp_path, "unread.json", {
        "task": "sigma2", "model": {"kind": "iid", "law": "rademacher"},
        "params": params, "output_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 2
    assert f"unknown params for task sigma2: {unread}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "sigma2.csv").exists()


def test_sigma2_method_params_and_defaults(tmp_path, capsys):
    # var_sn draws only its n_grid sums; the Fourier closed form needs its
    # coefficients and rotation
    cfg = write_cfg(tmp_path, "var.json", {
        "task": "sigma2", "seed": 5, "model": {"kind": "iid", "law": "rademacher"},
        "params": {"method": "var_sn", "n_grid": [64, 128], "replicas": 400},
        "output_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    body = (tmp_path / "out" / "sigma2.csv").read_text().splitlines()
    assert len(body) == 2 and body[1].startswith("var_sn")
    cfg = write_cfg(tmp_path, "fourier.json", {
        "task": "sigma2", "params": {"method": "fourier_closed_form", "a": 0.6},
        "output_dir": str(tmp_path / "out2")})
    assert main(["run", cfg]) == 2
    assert "missing params for task sigma2: ['coeffs']" in capsys.readouterr().err
    assert main(["print-schema"]) == 0
    methods = json.loads(capsys.readouterr().out)["params"]["sigma2"]["method"]
    assert methods == {"covariance_series": ["k_max", "n", "replicas"],
                       "dyadic": ["j_max", "n", "replicas"],
                       "var_sn": ["n_grid", "replicas"],
                       "fourier_closed_form": ["a", "coeffs", "k_support"]}


def test_sigma2_var_sn_below_its_replica_minimum_is_a_config_error(tmp_path, capsys,
                                                                   monkeypatch):
    # var_sn needs 200 sums per n: fewer is a config error, found before any
    # draw, and the default is that minimum
    drawn = []
    batch = ProcessModel.sample_batch
    monkeypatch.setattr(ProcessModel, "sample_batch",
                        lambda self, *a: drawn.append(a) or batch(self, *a))
    cfg = write_cfg(tmp_path, "few.json", {
        "task": "sigma2", "model": {"kind": "iid"},
        "params": {"method": "var_sn", "replicas": 199}, "output_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 2
    assert "var_sn needs replicas >= 200, got 199" in capsys.readouterr().err
    assert not drawn and not (tmp_path / "out" / "sigma2.csv").exists()
    cfg = write_cfg(tmp_path, "default.json", {
        "task": "sigma2", "model": {"kind": "iid"}, "params": {"method": "var_sn"},
        "output_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    assert [a[:2] for a in drawn] == [(n, 200) for n in (256, 512, 1024, 2048)]


def test_conditions_task_verdict(tmp_path):
    cfg = write_cfg(tmp_path, "cond.json", {
        "task": "conditions",
        "model": {"kind": "circle", "a": "golden"},
        "params": {"check": "bis", "n_max": 128},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["verdict"] == "converging"


@pytest.mark.parametrize("map_name,rate", [("doubling", 0.5),
                                           ("gauss", 0.3036630028987326)])
def test_transfer_decay_task_fits_the_spectral_gap(tmp_path, map_name, rate):
    cfg = write_cfg(tmp_path, f"{map_name}.json", {
        "task": "transfer-decay",
        "model": {"kind": "expanding", "map": map_name},
        "params": {"n_max": 64},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    fit = json.loads((tmp_path / "out" / "decay_fit.json").read_text())
    assert not fit["diverged"]
    assert abs(fit["rho"] - rate) <= 1e-3


def test_decompose_task_writes_null_when_unchecked(tmp_path):
    def run(model, name):
        cfg = write_cfg(tmp_path, f"{name}.json", {
            "task": "decompose",
            "model": model,
            "params": {"n": 256, "m": 8},
            "output_dir": str(tmp_path / name),
        })
        assert main(["run", cfg]) == 0
        return json.loads((tmp_path / name / "decompose_summary.json").read_text())

    iterated = run({"kind": "iterated", "rho": 0.5}, "iterated")
    assert iterated["cond_mean_check"] is None and iterated["cond_mean_checked"] is False
    circle = run({"kind": "circle", "a": "golden"}, "circle")
    assert circle["cond_mean_checked"] is True and circle["cond_mean_check"] < 1e-10


def test_decompose_task_refuses_an_expanding_map(tmp_path, capsys):
    # the doubling map's states are its forward orbit, n of them, and its
    # kernel steps the time-reversed chain: nothing to condition a block on
    cfg = write_cfg(tmp_path, "dbl.json", {
        "task": "decompose", "model": {"kind": "expanding", "map": "doubling"},
        "params": {"n": 256, "m": 8}, "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 3
    assert capsys.readouterr().err.startswith("refused:")
    assert not (tmp_path / "out" / "decompose.csv").exists()


def test_diophantine_task(tmp_path):
    cfg = write_cfg(tmp_path, "dio.json", {
        "task": "diophantine",
        "params": {"a": "golden", "action": "convergents", "K": 10},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 0
    rows = (tmp_path / "out" / "convergents.csv").read_text().splitlines()
    assert rows[0] == "k,p,q"
    assert len(rows) == 12  # header + convergents 0..10


def test_unknown_field_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad.json", {
        "task": "simulate",
        "model": {"kind": "iid"},
        "paramz": {},
    })
    assert main(["run", cfg]) == 2


def test_unknown_param_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad2.json", {
        "task": "simulate",
        "model": {"kind": "iid"},
        "params": {"n": 10, "bogus": 1},
    })
    assert main(["run", cfg]) == 2


def test_unknown_task_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, "bad3.json", {"task": "fly"})
    assert main(["run", cfg]) == 2


def test_unknown_model_kind_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "kind.json", {
        "task": "simulate",
        "model": {"kind": "nope"},
        "params": {"n": 8, "replicas": 1},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 2
    assert "unknown model kind" in capsys.readouterr().err


def test_task_without_model_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nomodel.json", {
        "task": "simulate",
        "params": {"n": 8, "replicas": 1},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 2
    assert "needs a 'model' object" in capsys.readouterr().err


def test_inequality_without_bound_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nobound.json", {
        "task": "inequality",
        "model": {"kind": "iid", "law": "rademacher"},
        "params": {"thresholds": [20.0], "replicas": 1000, "n": 16},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 2
    assert "missing params" in capsys.readouterr().err


SCAN = {"n_grid": [64], "x_grid": [1.0], "sigma2": 1.0}


@pytest.mark.parametrize("task,model,params", [
    ("sigma2", {"kind": "iid"}, {"method": "var_sn", "n_grid": [100, "x"]}),
    ("mdp-scan", {"kind": "iid"}, {"n_grid": [100], "x_grid": [1.0], "sigma2": "one"}),
    ("mdp-scan", {"kind": "iid"}, {"n_grid": [100], "x_grid": ["1"], "sigma2": 1.0}),
    ("conditions", {"kind": "circle", "a": "golden"}, {"floor": "x"}),
    ("diophantine", None, {"a": {"kind": "quadratic", "P": 0, "D": "5", "Q": 1}}),
    ("diophantine", None, {"a": {"kind": "quadratic", "P": 0, "D": 5, "Q": "1"}}),
    ("diophantine", None, {"a": {"kind": "literal", "literal": "abc", "radius": 1e-6}}),
    ("conditions", {"kind": "circle", "a": "golden", "coeffs": {"5000": 0.5, "-5000": 0.5}},
     {"n_max": 4}),
    ("inequality", {"kind": "iid"}, {"bound": {"kind": "azuma", "c": 1.0},
                                     "thresholds": "abc"}),
    ("sigma2", None, {"method": "fourier_closed_form", "coeffs": {"1": 0.5, "-1": 0.5},
                      "a": "x"}),
    ("sigma2", None, {"method": "fourier_closed_form", "coeffs": {"1": "half"}, "a": 0.6}),
    ("sigma2", None, {"method": "fourier_closed_form", "coeffs": {"1": [0.5]}, "a": 0.6}),
    ("simulate", {"kind": "iid"}, {"n": True}),
    ("conditions", {"kind": "circle", "a": "golden"}, {"check": ["bis"]}),
    ("conditions", {"kind": "circle", "a": "golden"}, {"check": "kac"}),
    ("sigma2", {"kind": "iid"}, {"method": "bogus"}),
    ("diophantine", None, {"action": "paroux"}),
    ("mdp-scan", {"kind": "iid"}, {**SCAN, "method": "bogus"}),
    ("mdp-scan", {"kind": "iid"}, {**SCAN, "gamma": 1.5}),
    ("mdp-scan", {"kind": "iid"}, {**SCAN, "method": "tilted"}),  # no replicas
    ("mdp-scan", {"kind": "iid"}, {**SCAN, "method": "naive"}),  # no replicas
    # a method that cannot serve the model
    ("mdp-scan", {"kind": "circle"}, SCAN),  # exact_binomial, the default
    ("mdp-scan", {"kind": "iid", "law": "uniform"}, {**SCAN, "method": "exact_binomial"}),
    ("mdp-scan", {"kind": "linear"}, {**SCAN, "method": "tilted", "replicas": 100}),
    # malformed model specs
    ("simulate", {"kind": "linear", "rho": 1.0}, {}),
    ("simulate", {"kind": "linear", "rho": 1.5}, {}),
    ("simulate", {"kind": "linear", "coeff_kind": "bogus"}, {}),
    ("simulate", {"kind": "counterexample", "j_max": 0}, {}),
    ("simulate", {"kind": "iid", "law": "uniform", "c": -1}, {}),
    ("simulate", {"kind": "iid", "law": "two_point", "p": 1.0, "a": 0.0, "b": 2.0}, {}),
    # json writes inf as Infinity, which Python's json reads back
    ("simulate", {"kind": "iid", "law": "uniform", "c": float("inf")}, {}),
    ("simulate", {"kind": "alternating", "law": "uniform", "c": 1e308}, {}),  # c^2 overflows
    ("simulate", {"kind": "iid", "law": "two_point", "p": 0.5, "a": float("nan"),
                  "b": 1.0}, {}),
    ("simulate", {"kind": "counterexample", "j_max": 2.5}, {}),
    ("simulate", {"kind": "counterexample", "j_max": True}, {}),
])
def test_malformed_param_types_are_config_errors(tmp_path, capsys, task, model, params):
    cfg = {"task": task, "params": params, "output_dir": str(tmp_path / "out")}
    if model is not None:
        cfg["model"] = model
    assert main(["run", write_cfg(tmp_path, "typed.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize("seed", [True, False])
def test_boolean_seed_is_a_config_error(tmp_path, capsys, seed):
    cfg = {"task": "simulate", "seed": seed, "model": {"kind": "iid"},
           "params": {"n": 8, "replicas": 2}, "output_dir": str(tmp_path / "out")}
    assert main(["run", write_cfg(tmp_path, "seed.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


def test_transfer_decay_refuses_the_circle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "circle.json", {
        "task": "transfer-decay",
        "model": {"kind": "circle", "a": "golden"},
        "params": {"n_max": 16},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 3
    assert "not a function on the circle" in capsys.readouterr().err
    assert not (tmp_path / "out" / "decay.csv").exists()


@pytest.mark.parametrize("map_name,rate,tol", [("doubling", 0.5, 1e-12),
                                               ("gauss", 0.30366300289873265, 1e-10)])
def test_transfer_decay_fits_the_exact_rate_and_ends_in_zeros(tmp_path, map_name, rate, tol):
    cfg = write_cfg(tmp_path, "decay.json", {
        "task": "transfer-decay", "model": {"kind": "expanding", "map": map_name},
        "output_dir": str(tmp_path / "out")})
    assert main(["run", cfg]) == 0
    fit = json.loads((tmp_path / "out" / "decay_fit.json").read_text())
    assert abs(fit["rho"] / rate - 1.0) <= tol
    assert (tmp_path / "out" / "decay.csv").read_text().splitlines()[-1] == "64,0.0"


def test_transfer_decay_refuses_an_observable_param(tmp_path, capsys):
    # the task always decays the centred state value, so an `f` it would
    # ignore is an unknown param, and the schema does not offer one
    cfg = write_cfg(tmp_path, "f.json", {
        "task": "transfer-decay",
        "model": {"kind": "expanding", "map": "doubling"},
        "params": {"f": "x**2", "n_max": 16},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 2
    assert "unknown params for task transfer-decay: ['f']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "decay.csv").exists()
    assert main(["print-schema"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["transfer-decay"] == ["n_max"]


def test_missing_config_file():
    assert main(["run", "/nonexistent/nope.json"]) == 2


def test_unknown_suite():
    assert main(["suite", "nope"]) == 2


@pytest.mark.parametrize("suite", ["demo", "acceptance"])
def test_negative_suite_seed_is_config_error(suite, capsys):
    assert main(["suite", suite, "--seed", "-1"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_precision_refusal_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "prec.json", {
        "task": "diophantine",
        "params": {"a": {"kind": "literal", "literal": "0.618034",
                         "radius": 1e-6},
                   "action": "audit", "K": 10_000, "eps": 0.1},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 3


@pytest.mark.parametrize("action, K", [("convergents", 100), ("audit", 2**32)])
def test_diophantine_past_its_limits_exits_3(tmp_path, capsys, action, K):
    # golden's interval verifies convergents up to k = 95 only, and the audit's
    # two-word kernel takes K < 2^32: both are refusals, not tracebacks
    cfg = write_cfg(tmp_path, "dio.json", {
        "task": "diophantine", "params": {"a": "golden", "action": action, "K": K},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("precision refusal:" if action == "convergents" else "refused:")
