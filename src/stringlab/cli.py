"""Config-driven command-line front end.

One experiment per invocation; a run reads a JSON config, executes the named
experiment, and writes a JSON report whose top level carries the resolved
config, the results, the tolerance table, a pass flag, and timings.  Reports
are byte-identical across repeated runs of the same config and seed; wall
times are only recorded when explicitly requested (``--timings``), since
they are the one quantity that cannot be deterministic.

    stringlab run --config cfg.json [--out report.json] [--seed N] [--timings]
    stringlab validate --config cfg.json
    stringlab list-solutions

Exit codes: 0 all tolerances met; 1 tolerance failure; 2 invalid config;
3 numerical failure (reported with the offending grid point when known).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import experiments
from .deformation import MAX_DEFORM_EPS, ORACLE_EPS_RANGE
from .dynamics import ActionParams, DynamicsError
from .geometry import GeometryError
from .grid import GridError, WorldsheetGrid
from .solutions import SolutionError, make_solution, solution_names

SCHEMA_VERSION = 1

_KIND_OPTIONS = {
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


class ConfigError(ValueError):
    """Config fails validation (unknown keys, missing fields, bad types)."""


@dataclass(frozen=True)
class ExperimentConfig:
    solution_name: str
    solution_params: dict
    grid_kwargs: dict
    action_params: ActionParams
    kind: str
    options: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        allowed = {"schema_version", "solution", "grid", "action", "kind", "options", "seed"}
        _reject_unknown(raw, allowed, "config")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {raw.get('schema_version')!r}"
            )
        sol = _require(raw, "solution", dict)
        _reject_unknown(sol, {"name", "params"}, "solution")
        name = _require(sol, "name", str)
        params = sol.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("solution.params must be an object")
        try:
            solution = make_solution(name, params)
        except SolutionError as exc:
            raise ConfigError(str(exc)) from exc

        grid = _require(raw, "grid", dict)
        _reject_unknown(grid, {"n_tau", "n_sigma", "tau_min", "tau_max"}, "grid")
        grid_kwargs = {
            "n_tau": int(_require(grid, "n_tau", int)),
            "n_sigma": int(_require(grid, "n_sigma", int)),
            "tau_min": float(_require(grid, "tau_min", (int, float))),
            "tau_max": float(_require(grid, "tau_max", (int, float))),
        }
        _check_grid(grid_kwargs, "grid")

        action = _require(raw, "action", dict)
        _reject_unknown(action, {"tension", "gb_coupling", "worldsheet_dim"}, "action")
        try:
            action_params = ActionParams(
                tension=float(_require(action, "tension", (int, float))),
                gb_coupling=float(action.get("gb_coupling", 0.0)),
                worldsheet_dim=int(action.get("worldsheet_dim", 2)),
            )
        except DynamicsError as exc:
            raise ConfigError(str(exc)) from exc

        kind = _require(raw, "kind", str)
        if kind not in experiments.EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment kind {kind!r}; known: {sorted(experiments.EXPERIMENTS)}"
            )
        options = raw.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError("options must be an object")
        _reject_unknown(options, _KIND_OPTIONS[kind], f"options for kind {kind!r}")
        _check_option_values(kind, options, grid_kwargs, solution.family_names())
        seed = raw.get("seed", 0)
        if not (_is_int(seed) and seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        return cls(name, params, grid_kwargs, action_params, kind, dict(options), seed)

    def resolved(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "solution": {"name": self.solution_name, "params": self.solution_params},
            "grid": self.grid_kwargs,
            "action": {
                "tension": self.action_params.tension,
                "gb_coupling": self.action_params.gb_coupling,
                "worldsheet_dim": self.action_params.worldsheet_dim,
            },
            "kind": self.kind,
            "options": self.options,
            "seed": self.seed,
        }


def _require(raw: dict, key: str, types) -> object:
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    val = raw[key]
    if types is int and isinstance(val, bool):
        raise ConfigError(f"{key!r} must be an integer")
    if not isinstance(val, types):
        raise ConfigError(f"{key!r} has wrong type {type(val).__name__}")
    return val


def _reject_unknown(raw: dict, allowed: set, where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_nonzero_number(val) -> bool:
    return _is_number(val) and val != 0


def _list_of(test, min_len: int = 1):
    return lambda val: isinstance(val, list) and len(val) >= min_len and all(map(test, val))


def _check_grid(grid_kwargs: dict, where: str) -> None:
    """Reject grid parameters that ``WorldsheetGrid`` itself rejects."""
    try:
        WorldsheetGrid(**grid_kwargs)
    except GridError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_option_values(kind: str, options: dict, grid_kwargs: dict, families: list[str]) -> None:
    """Reject option values the experiments cannot run with, or
    with which a check would pass vacuously (a zero deformation amplitude
    or reparametrization size)."""
    floors = experiments._CONVERGENCE_FLOORS
    lo, hi = ORACLE_EPS_RANGE
    n_tau = grid_kwargs["n_tau"]

    def is_row(val) -> bool:
        return _is_int(val) and 0 <= val < n_tau

    epsilon = {
        "deform-check": (lambda v: _is_number(v) and lo <= v <= hi, f"a number in [{lo}, {hi}]"),
        "linearize": (lambda v: _is_number(v) and 0.0 < v <= MAX_DEFORM_EPS,
                      f"a number in (0, {MAX_DEFORM_EPS}]"),
        "gauge-check": (_is_nonzero_number, "a nonzero number"),
    }
    rules = {
        "beta": (_is_number, "a number"),
        "amplitude": (_is_nonzero_number, "a nonzero number"),
        "epsilon": epsilon.get(kind),
        "betas": (_list_of(_is_number), "a non-empty list of numbers"),
        "seeds": (_list_of(lambda v: _is_int(v) and v >= 0),
                  "a non-empty list of non-negative integers"),
        "levels": (_list_of(_is_int, 2), "a list of at least 2 integers"),
        "slices": (_list_of(is_row), f"a non-empty list of tau rows in [0, {n_tau})"),
        "slice": (is_row, f"a tau row in [0, {n_tau})"),
        "jacobi": (lambda v: isinstance(v, list) and len(v) == 2 and all(n in families for n in v),
                   f"two family directions from {families}"),
        "quantity": (lambda v: v in list(floors), f"one of {sorted(floors)}"),
    }
    for name, val in options.items():
        if name not in rules:  # csv: a free-form output path
            continue
        test, need = rules[name]
        if not test(val):
            raise ConfigError(f"options.{name} for kind {kind!r} must be {need}, got {val!r}")
    for level in options.get("levels", []):
        _check_grid({**grid_kwargs, "n_tau": level},
                    f"options.levels for kind {kind!r}, level {level}")


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json serializes cleanly."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def run(config: ExperimentConfig, with_timings: bool = False) -> dict:
    """Execute one experiment and assemble the report dictionary."""
    start = time.perf_counter()
    results, tolerances, passed = experiments.EXPERIMENTS[config.kind](config)
    elapsed_ms = 1000.0 * (time.perf_counter() - start)
    if config.options.get("csv"):
        _dump_csv(config)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.resolved(),
        "results": _plain(results),
        "tolerances": _plain(tolerances),
        "pass": bool(passed),
        "timings_ms": {"experiment": elapsed_ms} if with_timings else None,
    }


def _dump_csv(config: ExperimentConfig) -> None:
    """Per-point dump of the experiment's primary field over active points."""
    from .dynamics import eom_residual

    sol = make_solution(config.solution_name, config.solution_params)
    grid = WorldsheetGrid(**config.grid_kwargs)
    geo = sol.geometry(grid)
    if config.kind == "eom":
        f = eom_residual(geo, config.action_params)
        name = "eom_residual"
    else:
        f = geo.einstein
        name = "einstein"
    vals = f.values
    dims = vals.shape[2:]
    headers = ["tau", "sigma"]
    idx = [()] if not dims else list(np.ndindex(*dims))
    headers += [name + "".join(f"[{i}]" for i in comp) for comp in idx]
    tt, ss = grid.meshgrid()
    lines = [",".join(headers)]
    for it, isig in np.argwhere(geo.mask.active):
        row = [repr(tt[it, isig]), repr(ss[it, isig])]
        row += [repr(float(vals[(it, isig) + comp])) for comp in idx]
        lines.append(",".join(row))
    with open(config.options["csv"], "w") as fh:
        fh.write("\n".join(lines) + "\n")


def serialize_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stringlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="report path (default: stdout)")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--timings", action="store_true",
                       help="record wall times in the report (breaks byte-reproducibility)")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True)
    sub.add_parser("list-solutions", help="list available exact solutions")
    args = parser.parse_args(argv)

    if args.command == "list-solutions":
        for name in solution_names():
            sol = make_solution(name, {})
            print(f"{name}: parameters {sorted(sol.params)}; "
                  f"family directions {sol.family_names()}")
        return 0

    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if getattr(args, "seed", None) is not None and isinstance(raw, dict):
            raw = {**raw, "seed": args.seed}
        config = ExperimentConfig.from_dict(raw)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("config ok")
        return 0

    try:
        report = run(config, with_timings=args.timings)
    except (GridError, GeometryError, DynamicsError, SolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    text = serialize_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
