import ctypes
import functools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stringlab import cli, deformation, dynamics, experiments, solutions, symplectic
from stringlab.dynamics import ActionParams
from stringlab.geometry import Embedding, build_geometry
from stringlab.grid import Field, WorldsheetGrid

BASE = {
    "schema_version": 1,
    "solution": {"name": "pulsating_circular_string", "params": {"radius": 1.0}},
    "grid": {"n_tau": 65, "n_sigma": 32, "tau_min": 0.1, "tau_max": 0.9},
    "action": {"tension": 1.0, "gb_coupling": 0.0},
    "kind": "eom",
}
# the run BASE builds, for calling a driver with library objects
BASE_RUN = (
    solutions.make_solution(BASE["solution"]["name"], BASE["solution"]["params"]),
    WorldsheetGrid(**BASE["grid"]), ActionParams(1.0, 0.0), 0,
)


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
        ("omega", {"slices": [32, 65]}),
        ("omega", {"slices": [32, -1]}),
        ("omega", {"slices": [32, 32.5]}),
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
        ("gauge-check", {"epsilon": 1.5}),
        ("gauge-check", {"epsilon": -1.0}),
        ("eom", {"csv": True}),
        ("geometry", {"csv": ""}),
        ("omega", {"slices": [32, 32, 32]}),
        ("omega", {"jacobi": ["radius", "radius"]}),
        ("gauge-check", {"jacobi": ["radius", "radius"]}),
        ("conserve", {"jacobi": ["radius", "radius"]}),
        ("convergence", {"levels": [65, 65]}),
        ("self-adjoint", {"beta": float("nan")}),
        ("conserve", {"beta": float("inf")}),
        ("eom", {"betas": [0.0, float("-inf")]}),
        ("omega", {"betas": [float("nan")]}),
        ("deform-check", {"amplitude": float("nan")}),
        ("deform-check", {"amplitude": float("-inf")}),
        ("omega", {"slices": [32]}),  # the spread of one slice is 0
        ("eom", {"betas": [0.5]}),  # nor is the spread over one beta
        ("eom", {"betas": [0.0, 0.0]}),
        ("linearize", {"betas": [0.3, 0.3]}),  # a repeated beta shares one report key
        ("omega", {"betas": [0.25, 0.25]}),
    ],
)
def test_out_of_range_option_rejected(tmp_path, capsys, kind, options):
    path = write_config(tmp_path, kind=kind, options=options)
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert f"options.{next(iter(options))}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "params",
    [
        {"radius": "1.0"},
        {"radius": None},
        {"radius": True},
        {"radius": float("nan")},
        {"radius": float("inf")},
        {"radius": 1.0, "dim": 4.0},
        {"dim": True},
        {"radius": 10**400},
    ],
)
def test_wrong_type_solution_parameter_rejected(tmp_path, capsys, params):
    path = write_config(tmp_path, solution={"name": "pulsating_circular_string", "params": params})
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert f"parameter {list(params)[-1]!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("gb_coupling", "x"),
        ("gb_coupling", None),
        ("gb_coupling", "0.3"),
        ("gb_coupling", True),
        ("gb_coupling", float("nan")),
        ("tension", True),
        ("tension", "1.0"),
        ("tension", float("nan")),
        ("tension", float("-inf")),
        ("tension", -(10**400)),
        ("tension", -1.0),
        ("worldsheet_dim", "two"),
        ("worldsheet_dim", True),
        ("worldsheet_dim", 2.5),
    ],
)
def test_wrong_type_action_value_rejected(tmp_path, capsys, key, value):
    path = write_config(tmp_path, action={**BASE["action"], key: value})
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert f"config error: action.{key}" in capsys.readouterr().err


def test_zero_tension_rejected(tmp_path, capsys):
    """Every kind's tolerance or on-shell bound scales with the tension, so
    the curvature-only theory, which ``ActionParams`` allows, cannot run."""
    path = write_config(tmp_path, action={"tension": 0, "gb_coupling": 0.3})
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert "config error: action.tension must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [
        ("tau_max", float("inf")),
        ("tau_min", float("-inf")),
        pytest.param("tau_max", 10**400, id="tau_max-400-digits"),
        ("tau_min", True),
    ],
)
def test_wrong_type_grid_value_rejected(tmp_path, capsys, key, value):
    path = write_config(tmp_path, grid={**BASE["grid"], key: value})
    assert cli.main(["validate", "--config", path]) == 2
    assert cli.main(["run", "--config", path]) == 2
    assert f"config error: grid.{key}" in capsys.readouterr().err


def test_numeric_action_values_echo_as_before():
    raw = json.loads(json.dumps(BASE))
    raw["action"] = {"tension": 1, "gb_coupling": 0, "worldsheet_dim": 2.0}
    action = cli.ExperimentConfig.from_dict(raw).resolved()["action"]
    assert json.dumps(action) == '{"tension": 1.0, "gb_coupling": 0.0, "worldsheet_dim": 2}'
    del raw["action"]["tension"]
    with pytest.raises(cli.ConfigError, match="missing required key 'tension'"):
        cli.ExperimentConfig.from_dict(raw)


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


# the option names of each kind, pinned: they are the drivers' keyword-only
# parameters, so renaming a parameter would silently rename a config key
KIND_OPTIONS = {
    "geometry": {"csv"},
    "deform-check": {"epsilon", "amplitude", "seeds"},
    "eom": {"betas", "csv"},
    "linearize": {"betas", "epsilon"},
    "self-adjoint": {"beta"},
    "conserve": {"jacobi", "beta"},
    "omega": {"jacobi", "betas", "slices"},
    "gauge-check": {"jacobi", "beta", "epsilon", "slice"},
    "convergence": {"quantity", "levels"},
}


def test_kind_options_are_the_driver_parameters():
    assert set(experiments.EXPERIMENTS) == set(KIND_OPTIONS)
    for kind, names in KIND_OPTIONS.items():
        assert set(cli.option_defaults(kind)) == names


def test_option_defaults_pass_validation():
    grid = WorldsheetGrid(n_tau=129, n_sigma=32, tau_min=0.1, tau_max=0.9)
    families = solutions.make_solution(BASE["solution"]["name"], {}).family_names()
    checked = 0
    for kind in KIND_OPTIONS:
        for name, default in cli.option_defaults(kind).items():
            if default is None:
                continue
            # as JSON would carry it: tuples become lists
            value = json.loads(json.dumps(default))
            cli._check_option_values(kind, {name: value}, grid, families)
            checked += 1
    assert checked == 14


@pytest.mark.parametrize(
    "solution,n_sigma,code,message",
    [
        ({"name": "pulsating_circular_string", "params": {"radius": 1.0}}, 32, 0, ""),
        ({"name": "spinning_two_plane_string", "params": {"scale": 1.0}}, 64, 0, ""),
        # every row of the folded string meets a fold column
        ({"name": "rotating_folded_string", "params": {"amplitude": 1.0}}, 32, 3,
         "intersects the masked region"),
    ],
)
@pytest.mark.parametrize("kind", ["omega", "gauge-check"])
def test_default_jacobi_pair_is_the_family_modulus(
    tmp_path, capsys, kind, solution, n_sigma, code, message
):
    path = write_config(
        tmp_path, kind=kind, solution=solution, grid={**BASE["grid"], "n_sigma": n_sigma}
    )
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "r.json")]) == code
    err = capsys.readouterr().err
    assert message in err and "family direction" not in err


def test_nan_discrepancy_fails_linearize():
    # called directly, bypassing config validation: at epsilon 0 both sides
    # of the central difference coincide and the oracle is 0/0
    with np.errstate(invalid="ignore"):
        results, _, passed = experiments.run_linearize(*BASE_RUN, epsilon=0.0)
    assert np.isnan(results["fd_match"]["beta=0.0"])
    assert passed is False


def test_self_adjoint_builds_the_current_once(monkeypatch):
    calls = []

    def counting_current(*args):
        calls.append(args)
        return current(*args)

    current = symplectic.bilinear_current
    monkeypatch.setattr(symplectic, "bilinear_current", counting_current)
    experiments.run_self_adjoint(*BASE_RUN)
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
        options={"jacobi": ["translation_x", "translation_t"], "slices": [32, 64]},
    )
    # row is fine, but the slice integral crosses the fold columns; force a
    # masked-region failure by picking the sigma-masked geometry's row
    assert cli.main(["run", "--config", path]) == 3


# pulsating through its collapse at tau = pi/2: declared rows 246-252 masked
COLLAPSE = {**BASE, "grid": {"n_tau": 257, "n_sigma": 16, "tau_min": 0.5, "tau_max": 1.6}}


@pytest.mark.parametrize(
    "kind,options,message",
    [
        # both bands are rows 244-256; the first bad row is named
        ("omega", {"betas": [0.3], "slices": [255, 256]},
         "the stencils of tau row 255 reach the masked region: its band on tau rows 244 to 256"),
        ("gauge-check", {"beta": 0.3, "slice": 256},
         "the stencils of tau row 256 reach the masked region: its band on tau rows 244 to 256"),
        ("omega", {"slices": [32, 250]}, "tau row 250 intersects the masked region"),
        ("gauge-check", {"slice": 250}, "tau row 250 intersects the masked region"),
    ],
)
def test_slice_whose_band_meets_the_mask_fails_naming_it(tmp_path, capsys, kind, options,
                                                         message):
    """Rows near a masked region give a two-form read off masked points
    (omega(0.3) is -4.02 on row 256, against -2 pi); the run exits 3 and
    names the row, whether the row itself or only its band is masked."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**COLLAPSE, "kind": kind, "options": options}))
    assert cli.main(["run", "--config", str(path)]) == 3
    assert f"numerical failure: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,options,args",
    [("omega", {}, ["--out", "{missing}/r.json"]),
     ("geometry", {"csv": "{missing}/p.csv"}, [])],
)
def test_unwritable_output_path_is_a_one_line_error(tmp_path, capsys, kind, options, args):
    missing = tmp_path / "missing"
    options = {k: v.format(missing=missing) for k, v in options.items()}
    path = write_config(tmp_path, kind=kind, options=options)
    argv = ["run", "--config", path] + [a.format(missing=missing) for a in args]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error: ") and err.count("\n") == 1
    assert str(missing) in err


@pytest.mark.parametrize(
    "kind,options",
    [("omega", {}), ("gauge-check", {"beta": 0.3}), ("conserve", {"beta": 0.3})],
)
def test_jacobi_direction_without_normal_part_fails(tmp_path, capsys, kind, options):
    """sigma_shift moves the string along itself: its Jacobi field is
    roundoff, and a check paired with it would pass vacuously."""
    options = {"jacobi": ["translation_t", "sigma_shift"], **options}
    path = write_config(tmp_path, kind=kind, options=options)
    assert cli.main(["run", "--config", path]) == 3
    assert "'sigma_shift' has no normal part" in capsys.readouterr().err


def test_seed_override_changes_report(tmp_path):
    path = write_config(tmp_path, kind="self-adjoint")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["run", "--config", path, "--out", str(out1), "--seed", "0"]) == 0
    assert cli.main(["run", "--config", path, "--out", str(out2), "--seed", "5"]) == 0
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert r1["config"]["seed"] != r2["config"]["seed"]
    assert r1["results"] != r2["results"]


@pytest.mark.parametrize(
    "kind,n_tau,columns",
    [
        pytest.param("eom", 65, ["eom_residual[0]", "eom_residual[1]"], id="eom"),
        pytest.param("geometry", 129, [f"einstein[{a}][{b}]" for a in "01" for b in "01"],
                     id="geometry"),
    ],
)
def test_csv_dump(tmp_path, kind, n_tau, columns):
    csv_path = tmp_path / "dump.csv"
    grid = {**BASE["grid"], "n_tau": n_tau}
    path = write_config(tmp_path, kind=kind, grid=grid, options={"csv": str(csv_path)})
    assert cli.main(["run", "--config", path]) == 0
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["tau", "sigma"]
    assert header[2:] == columns
    assert len(lines) == 1 + n_tau * 32
    # the second point of the first row, written as plain floats
    tau, sigma, *_ = map(float, lines[2].split(","))
    grid = WorldsheetGrid(**grid)
    assert (tau, sigma) == (grid.tau[0], grid.sigma[1])


def _count_builds(monkeypatch, *modules):
    """Count build_geometry calls made through the given modules."""
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build_geometry(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, "build_geometry", counting_build)
    return calls


def test_csv_dump_reuses_the_experiment_geometry(tmp_path, monkeypatch):
    csv_path = tmp_path / "dump.csv"
    path = write_config(tmp_path, kind="eom", options={"csv": str(csv_path)})
    calls = _count_builds(monkeypatch, solutions)
    assert cli.main(["run", "--config", path]) == 0
    assert len(calls) == 1
    assert csv_path.read_text().startswith("tau,sigma,eom_residual[0],eom_residual[1]\n")


def test_linearize_builds_one_displaced_pair(monkeypatch):
    calls = _count_builds(monkeypatch, solutions, dynamics)
    results, _, _ = experiments.run_linearize(*BASE_RUN, betas=[0, 0.3, 1])
    assert len(calls) == 3
    assert list(results["fd_match"]) == ["beta=0", "beta=0.3", "beta=1"]


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


def test_nan_convergence_error_fails(monkeypatch):
    """A NaN error fails its pairs, even after a pair that converged."""
    errors = iter([1e-6, 6e-8, float("nan")])
    monkeypatch.setattr(experiments, "masked_max_abs", lambda values, active: next(errors))
    report = cli.run(cli.ExperimentConfig.from_dict({**BASE, "kind": "convergence"}))
    assert report["pass"] is False
    assert report["results"]["observed_orders"][0] > 4.0
    assert report["results"]["observed_orders"][1] == "nan"


@pytest.mark.parametrize(
    "errors,orders,passed",
    [
        ([1e-6, 6e-8, float("nan")], [4.06, float("nan")], False),
        ([float("nan"), 6e-8, 1e-9], [float("nan"), 5.91], False),
        ([float("inf"), 1e-9], [float("nan")], False),
        ([1e-6, 6e-8, 0.0], [4.06, float("nan")], True),  # zero is at the roundoff floor
        ([1e-6, 2e-7, 5e-8], [2.32, 2.0], False),  # above the floor at order 2.3
    ],
)
def test_refinement_verdict(errors, orders, passed):
    levels = [65, 129, 257][:len(errors)]
    got, ok = experiments.refinement_verdict(levels, errors, 1e-7)
    np.testing.assert_allclose(got, orders, rtol=1e-2)
    assert ok is passed


NESTED = {"metric": 2.5e-7, "connection": 1.485e-6, "ricci": 2.1e-4, "volume": 1e-6}


@pytest.mark.parametrize(
    "results,tolerances,failing",
    [
        # deform-check's table: the tolerances name keys one level down
        ({"max_relative_discrepancy": NESTED}, {name: 1e-6 for name in NESTED},
         ["max_relative_discrepancy.connection", "max_relative_discrepancy.ricci"]),
        # linearize's per-beta tables: a tolerance bounds every entry under its key
        ({"fd_match": {"beta=0.0": 2e-5, "beta=0.3": 2e-4},
          "evaluator_agreement": {"beta=0.0": 1e-9, "beta=0.3": 1e-12},
          "einstein_blocks": {"beta=0.0": 0.0, "beta=0.3": 3e-8}},
         {"fd_match": 1e-4, "evaluator_agreement": 1e-10, "einstein_blocks": 1e-6},
         ["fd_match.beta=0.3", "evaluator_agreement.beta=0.0"]),
        # a lower bound
        ({"relative": 1e-5, "control_ratio": 9.99}, {"relative": 5e-4, "control_ratio_min": 10.0},
         ["control_ratio"]),
        ({"relative": 1e-5, "control_ratio": 10.0}, {"relative": 5e-4, "control_ratio_min": 10.0},
         []),
        # a zero bound holds |x|: the slightest negative value misses it
        ({"self_pairing": -1e-17}, {"self_pairing": 0.0}, ["self_pairing"]),
        ({"self_pairing": -0.0}, {"self_pairing": 0.0}, []),
        # non-finite numbers, and a parsed report's strings for them
        ({"a": float("nan"), "b": ["nan", 1.0], "c": {"d": "inf"}, "e": 1.0},
         {"a": 1.0, "b": 1.0, "c": 1.0, "e": 1.0}, ["a", "b[0]", "c.d"]),
        ({"control_ratio": "-inf"}, {"control_ratio_min": 10.0}, ["control_ratio"]),
        ({"control_ratio": float("nan")}, {"control_ratio_min": 10.0}, ["control_ratio"]),
        # a number under no bounded key is not checked
        ({"scale": float("nan"), "relative": 1e-5}, {"relative": 5e-4}, []),
    ],
)
def test_failing_checks_names_exactly_the_failing_values(results, tolerances, failing):
    got = experiments.failing_checks(results, tolerances)
    assert [path for path, _, _ in got] == failing


def test_a_tolerance_that_names_no_result_fails():
    got = experiments.failing_checks({"observed_orders": [4.0, 4.1]}, {"min_order": 3.5})
    assert got == [("min_order", None, 3.5)]


@pytest.mark.parametrize("kind", [k for k in experiments.EXPERIMENTS if k != "convergence"])
def test_every_tolerance_names_a_result(kind):
    """A misspelled tolerance key would bound nothing and fail every run."""
    results, tolerances, passed = experiments.EXPERIMENTS[kind](*BASE_RUN)
    failing = experiments.failing_checks(results, tolerances)
    assert [key for key, value, _ in failing if value is None] == []
    assert passed is (not failing)


def test_nan_omega_on_a_late_slice_fails(monkeypatch):
    """max() and min() skip a NaN that is not their first item; the slice
    spread must not."""
    late = (3 * BASE["grid"]["n_tau"]) // 4
    table = symplectic.two_form_table

    def late_nan(geo, fields, params, rows):  # one call for every slice
        omega = table(geo, fields, params, rows)
        omega[:, list(rows).index(late)] = float("nan")
        return omega

    monkeypatch.setattr(symplectic, "two_form_table", late_nan)
    report = cli.run(cli.ExperimentConfig.from_dict({**BASE, "kind": "omega"}))
    assert report["pass"] is False
    assert report["results"]["slice_relative_spread"] == "nan"


@pytest.mark.parametrize(
    "kind,key",
    [("omega", "slice_relative_spread"), ("gauge-check", "smooth_reparam_relative_change")],
)
def test_zero_two_form_fails(monkeypatch, kind, key):
    """A two-form that is exactly zero is no evidence of slice independence or
    gauge invariance: the relative change is NaN, and the check fails."""
    def zero(geo, fields, params, rows):
        return np.zeros((len(params), len(rows), len(fields), len(fields)))

    monkeypatch.setattr(symplectic, "_two_form_rows", zero)
    report = cli.run(cli.ExperimentConfig.from_dict({**BASE, "kind": kind}))
    assert report["pass"] is False
    assert report["results"][key] == "nan"


@pytest.mark.parametrize("levels,passed", [([9, 11, 12], False), ([13, 17], True)])
def test_convergence_on_levels_without_deep_rows_fails(levels, passed):
    """The self-adjoint quantity reads rows at least BAND_RADIUS from each tau
    edge; a level with no such row has no error to report, so it fails."""
    raw = {**BASE, "kind": "convergence",
           "options": {"quantity": "self-adjoint", "levels": levels}}
    report = cli.run(cli.ExperimentConfig.from_dict(raw))
    assert report["pass"] is passed
    assert ("nan" in report["results"]["errors"]) is not passed


def test_numpy_nonfinite_values_are_written_as_strings():
    assert cli._plain(np.float64("nan")) == "nan"
    assert cli._plain(np.float64("inf")) == "inf"
    text = cli.serialize_report(cli._plain({"a": np.float64("nan"), "b": [np.float64("-inf")]}))

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert json.loads(text, parse_constant=reject) == {"a": "nan", "b": ["-inf"]}


def test_nan_eom_residual_at_a_later_beta_fails(monkeypatch):
    """max() skips a NaN that is not its first item; the eom verdict must not."""
    calls = []
    residual = dynamics.max_eom_residual

    def nan_on_second_call(geo, p):
        calls.append(p)
        return float("nan") if len(calls) == 2 else residual(geo, p)

    monkeypatch.setattr(dynamics, "max_eom_residual", nan_on_second_call)
    report = cli.run(cli.ExperimentConfig.from_dict(BASE))
    assert report["pass"] is False
    assert report["results"]["residuals"]["beta=0.5"] == "nan"
    assert report["results"]["max_residual"] == "nan"
    assert report["results"]["beta_spread"] == "nan"


def test_run_builds_no_solution_and_no_grid(monkeypatch):
    """The config holds the solution and grid it validated; a run reuses them."""
    config = cli.ExperimentConfig.from_dict(BASE)
    name = BASE["solution"]["name"]
    factory = solutions._REGISTRY[name]
    built = []

    @functools.wraps(factory)
    def counting_factory(*args, **kwargs):
        built.append(name)
        return factory(*args, **kwargs)

    post_init = WorldsheetGrid.__post_init__
    monkeypatch.setitem(solutions._REGISTRY, name, counting_factory)
    monkeypatch.setattr(
        WorldsheetGrid, "__post_init__", lambda grid: built.append(grid) or post_init(grid)
    )
    cli.run(config)
    assert built == []


def test_a_repeated_run_faults_in_no_memory():
    """The memory a run frees stays in the heap, so the same run again
    reuses it instead of faulting its arrays back in (about 1,200 minor
    faults when glibc returns the heap top after the first run)."""
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("the heap thresholds are glibc's")
    grid = {"n_tau": 129, "n_sigma": 32, "tau_min": 0.1, "tau_max": 0.9}
    config = cli.ExperimentConfig.from_dict({**BASE, "grid": grid, "kind": "geometry"})
    cli.run(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cli.run(config)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_driver_with_library_objects_matches_run():
    results, tolerances, passed = experiments.run_omega(*BASE_RUN)
    report = cli.run(cli.ExperimentConfig.from_dict({**BASE, "kind": "omega"}))
    assert (report["results"], report["tolerances"], report["pass"]) == (results, tolerances, passed)


def test_spinning_convergence_passes(tmp_path):
    # each level reads its frame off its own tangents, so the 65-row level
    # builds with no frame supplied
    path = write_config(
        tmp_path,
        solution={"name": "spinning_two_plane_string", "params": {"scale": 1.0}},
        grid={"n_tau": 129, "n_sigma": 64, "tau_min": 0.1, "tau_max": 0.9},
        action={"tension": 1.0, "gb_coupling": 0.3},
        kind="convergence",
    )
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "r.json")]) == 0


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
        # errors 6.3e-7 then 7.5e-8, under the 1e-7 floor
        ("convergence", 65, {"quantity": "eom", "levels": [65, 129]}),
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


@pytest.mark.parametrize("kind", ["deform-check", "linearize"])
def test_displaced_collapse_fails_typed_without_a_warning(tmp_path, capsys, monkeypatch, kind):
    """A displaced chart of the collapse that is not finite at two masked
    points of row 249, the collapse instant: under the suite's
    warnings-as-errors the periodicity check reads it without a warning,
    and the run exits 3 naming the first bad point."""
    real = deformation.deform_embedding

    def displaced(geo, d, eps):
        emb = real(geo, d, eps)
        x = emb.x.values.copy()
        x[249, [4, 12]] = np.inf
        return Embedding(emb.background, Field(emb.grid, x, emb.x.indices), emb.mask)

    monkeypatch.setattr(deformation, "deform_embedding", displaced)
    monkeypatch.setattr(dynamics, "deform_embedding", displaced)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**COLLAPSE, "kind": kind}))
    assert cli.main(["run", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: conn is not finite at grid point (tau=245, sigma=4)\n")


@pytest.mark.parametrize("kind,code,message", [
    ("deform-check", 1, ""),
    # the seeded rebuild leaves NaN on masked rows that the tau stencil carries to row 253
    ("linearize", 3, "numerical failure: normal_conn is not finite at grid point (tau=253, sigma=1)\n"),
])
def test_displaced_collapse_runs_without_a_warning(tmp_path, capsys, kind, code, message):
    """The displaced charts of the 257x16 collapse are finite, masked rows
    included, and each run ends under warnings-as-errors: deform-check
    fails its checks, linearize fails typed."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**COLLAPSE, "kind": kind}))
    assert cli.main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == code
    assert capsys.readouterr().err == message
