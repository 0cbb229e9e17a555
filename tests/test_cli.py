import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stringlab import cli, experiments, symplectic
from stringlab.dynamics import ActionParams

BASE = {
    "schema_version": 1,
    "solution": {"name": "pulsating_circular_string", "params": {"radius": 1.0}},
    "grid": {"n_tau": 65, "n_sigma": 32, "tau_min": 0.1, "tau_max": 0.9},
    "action": {"tension": 1.0, "gb_coupling": 0.0},
    "kind": "eom",
}


def write_config(tmp_path, overrides=None, **kwargs):
    raw = json.loads(json.dumps(BASE))
    raw.update(kwargs)
    if overrides:
        for key, val in overrides.items():
            raw[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, overrides={"extra": 1})
    assert cli.main(["validate", "--config", path]) == 2
    path = write_config(tmp_path, overrides={"grid": {**BASE["grid"], "spacing": 0.1}})
    assert cli.main(["validate", "--config", path]) == 2
    path = write_config(tmp_path, overrides={"options": {"bogus": True}})
    assert cli.main(["validate", "--config", path]) == 2


def test_schema_version_enforced(tmp_path):
    path = write_config(tmp_path, schema_version=2)
    assert cli.main(["validate", "--config", path]) == 2


def test_bad_solution_rejected(tmp_path):
    path = write_config(tmp_path, solution={"name": "moebius", "params": {}})
    assert cli.main(["validate", "--config", path]) == 2


def test_run_writes_report(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {
        "schema_version", "config", "results", "tolerances", "pass", "timings_ms",
    }
    assert report["pass"] is True
    assert report["timings_ms"] is None
    assert report["config"]["solution"]["name"] == "pulsating_circular_string"
    assert report["tolerances"]["max_residual"] == 5e-5


def test_reports_are_byte_identical(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["run", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_timings_flag_populates_timings(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", path, "--out", str(out), "--timings"]) == 0
    report = json.loads(out.read_text())
    assert report["timings_ms"]["experiment"] > 0


def test_tolerance_failure_exit_code(tmp_path):
    # oversized deformation pushes the oracle far out of its quadratic regime
    path = write_config(
        tmp_path,
        kind="deform-check",
        options={"amplitude": 20.0, "seeds": [0]},
    )
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["pass"] is False


@pytest.mark.parametrize(
    "kind,options",
    [
        ("deform-check", {"epsilon": 0.5}),
        ("linearize", {"epsilon": 0.0}),
        ("convergence", {"quantity": "bogus"}),
        ("omega", {"slices": [65]}),
        ("omega", {"slices": [-1]}),
        ("omega", {"slices": [32.5]}),
        ("gauge-check", {"slice": 65}),
        ("self-adjoint", {"beta": "x"}),
        ("conserve", {"beta": None}),
        ("deform-check", {"amplitude": True}),
        ("gauge-check", {"epsilon": "0.01"}),
        ("omega", {"betas": []}),
        ("eom", {"betas": ["0.5"]}),
        ("deform-check", {"seeds": "ab"}),
        ("omega", {"slices": []}),
        ("convergence", {"levels": [65]}),
        ("omega", {"jacobi": ["bogus", "radius"]}),
        ("conserve", {"jacobi": ["translation_t"]}),
        ("deform-check", {"amplitude": 0}),
        ("gauge-check", {"epsilon": 0.0}),
        ("deform-check", {"seeds": [0, -1]}),
        ("convergence", {"levels": [5, 7]}),
    ],
)
def test_out_of_range_option_rejected(tmp_path, capsys, kind, options):
    path = write_config(tmp_path, kind=kind, options=options)
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert f"options.{next(iter(options))}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("seed", -1),
        ("grid", {**BASE["grid"], "n_tau": 5}),
        ("grid", {**BASE["grid"], "n_sigma": 31}),
        ("grid", {**BASE["grid"], "tau_min": 0.9, "tau_max": 0.1}),
    ],
)
def test_invalid_seed_or_grid_rejected(tmp_path, capsys, key, value):
    path = write_config(tmp_path, kind="self-adjoint", **{key: value})
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert f"config error: {key}" in capsys.readouterr().err


def test_negative_seed_override_rejected(tmp_path, capsys):
    path = write_config(tmp_path, kind="self-adjoint")
    assert cli.main(["run", "--config", path, "--seed", "-3"]) == 2
    assert "config error: seed" in capsys.readouterr().err


def test_nan_discrepancy_fails_linearize():
    # built directly, bypassing config validation: at epsilon 0 both sides
    # of the central difference coincide and the oracle is 0/0
    config = cli.ExperimentConfig(
        BASE["solution"]["name"], BASE["solution"]["params"], BASE["grid"],
        ActionParams(1.0, 0.0), "linearize", {"epsilon": 0.0},
    )
    with np.errstate(invalid="ignore"):
        results, _, passed = experiments.run_linearize(config)
    assert np.isnan(results["fd_match"]["beta=0.0"])
    assert passed is False


def test_self_adjoint_builds_the_current_once(monkeypatch):
    calls = []

    def counting_current(*args):
        calls.append(args)
        return current(*args)

    current = symplectic.bilinear_current
    monkeypatch.setattr(symplectic, "bilinear_current", counting_current)
    config = cli.ExperimentConfig(
        BASE["solution"]["name"], BASE["solution"]["params"], BASE["grid"],
        ActionParams(1.0, 0.0), "self-adjoint",
    )
    experiments.run_self_adjoint(config)
    assert len(calls) == 1


def test_module_entry_point(tmp_path):
    path = write_config(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "stringlab", "validate", "--config", path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "config ok" in proc.stdout


def test_numerical_failure_exit_code(tmp_path):
    # omega on a masked row of the rotating string: numerical failure, exit 3
    path = write_config(
        tmp_path,
        solution={"name": "rotating_folded_string", "params": {"amplitude": 1.0}},
        kind="omega",
        options={"jacobi": ["translation_x", "translation_t"], "slices": [32]},
    )
    # row is fine, but the slice integral crosses the fold columns; force a
    # masked-region failure by picking the sigma-masked geometry's row
    assert cli.main(["run", "--config", path]) == 3


def test_seed_override_changes_report(tmp_path):
    path = write_config(tmp_path, kind="self-adjoint")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["run", "--config", path, "--out", str(out1), "--seed", "0"]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out2), "--seed", "5"]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert r1["config"]["seed"] != r2["config"]["seed"]
    assert r1["results"] != r2["results"]


def test_csv_dump(tmp_path):
    csv_path = tmp_path / "dump.csv"
    path = write_config(tmp_path, kind="eom", options={"csv": str(csv_path)})
    assert cli.main(["run", "--config", path]) == 0
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["tau", "sigma"]
    assert header[2:] == ["eom_residual[0]", "eom_residual[1]"]
    assert len(lines) == 1 + 65 * 32


def test_list_solutions(capsys):
    assert cli.main(["list-solutions"]) == 0
    out = capsys.readouterr().out
    assert "pulsating_circular_string" in out
    assert "rotating_folded_string" in out
    assert "spinning_two_plane_string" in out


def test_convergence_experiment(tmp_path):
    path = write_config(
        tmp_path,
        kind="convergence",
        options={"quantity": "einstein", "levels": [65, 129]},
    )
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["results"]["observed_orders"]) == 1


@pytest.mark.parametrize(
    "kind,n_tau,options",
    [
        ("geometry", 129, {}),
        ("deform-check", 193, {"seeds": [0]}),
        ("linearize", 65, {"betas": [0.0, 0.3]}),
        ("self-adjoint", 65, {"beta": 0.3}),
        ("conserve", 65, {"jacobi": ["translation_x", "translation_t"]}),
        ("omega", 65, {"jacobi": ["translation_t", "radius"]}),
        ("gauge-check", 65, {"jacobi": ["translation_t", "radius"]}),
        ("convergence", 65, {"quantity": "self-adjoint", "levels": [65, 129]}),
    ],
)
def test_every_experiment_kind_passes(tmp_path, kind, n_tau, options):
    path = write_config(
        tmp_path,
        kind=kind,
        options=options,
        action={"tension": 1.0, "gb_coupling": 0.3},
        grid={"n_tau": n_tau, "n_sigma": 32, "tau_min": 0.1, "tau_max": 0.9},
    )
    out = tmp_path / "r.json"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["pass"] is True
