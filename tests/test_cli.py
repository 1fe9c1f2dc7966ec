import json
import os

import pytest

from mdplab.cli import main


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_print_schema(capsys):
    assert main(["print-schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert "task" in schema and "params" in schema


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


def test_missing_config_file():
    assert main(["run", "/nonexistent/nope.json"]) == 2


def test_unknown_suite():
    assert main(["suite", "nope"]) == 2


def test_precision_refusal_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "prec.json", {
        "task": "diophantine",
        "params": {"a": {"kind": "literal", "literal": "0.618034",
                         "radius": 1e-6},
                   "action": "audit", "K": 10_000, "eps": 0.1},
        "output_dir": str(tmp_path / "out"),
    })
    assert main(["run", cfg]) == 3
