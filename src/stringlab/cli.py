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

Exit codes: 0 all tolerances met; 1 tolerance failure; 2 invalid config or
an output path (``--out``, the ``csv`` option) that cannot be written;
3 numerical failure (reported with the offending grid point when known).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import experiments
from .deformation import MAX_DEFORM_EPS, ORACLE_EPS_RANGE
from .dynamics import ActionParams, DynamicsError
from .geometry import GeometryError
from .grid import GridError, WorldsheetGrid
from .solutions import (
    _PARAM_TYPES, ExactSolution, SolutionError, make_solution, read_arguments, solution_names,
)

SCHEMA_VERSION = 1


def option_defaults(kind: str) -> dict:
    """The options of ``kind`` and their defaults: the keyword-only
    parameters of its driver."""
    params = inspect.signature(experiments.EXPERIMENTS[kind]).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


class ConfigError(ValueError):
    """Config fails validation (unknown keys, missing fields, bad types)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated run: the objects built from the config, which its driver
    takes, and the solution parameters as given, which the report echoes
    (``solution.params`` adds the factory's defaults)."""

    solution: ExactSolution
    solution_params: dict
    grid: WorldsheetGrid
    action: ActionParams
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

        grid_kwargs = read_arguments(WorldsheetGrid, _require(raw, "grid", dict), "grid.{}",
                                     ConfigError)
        grid = _check_grid(WorldsheetGrid, "grid", **grid_kwargs)

        action = dict(_require(raw, "action", dict))
        dim = action.pop("worldsheet_dim", 2)
        if dim != 2:  # a schema constant, echoed as 2; 2.0 passes, true does not
            raise ConfigError(f"action.worldsheet_dim must be 2, got {dim!r}")
        couplings = read_arguments(ActionParams, action, "action.{}", ConfigError)
        # every kind's tolerance or on-shell bound scales with the tension
        if not couplings["tension"] > 0:
            raise ConfigError(f"action.tension must be positive, got {couplings['tension']!r}")

        kind = _require(raw, "kind", str)
        if kind not in experiments.EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment kind {kind!r}; known: {sorted(experiments.EXPERIMENTS)}"
            )
        options = raw.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError("options must be an object")
        _reject_unknown(options, set(option_defaults(kind)), f"options for kind {kind!r}")
        _check_option_values(kind, options, grid, solution.family_names())
        seed = raw.get("seed", 0)
        if not (_is_int(seed) and seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        return cls(solution, params, grid, ActionParams(**couplings), kind, dict(options), seed)

    def resolved(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "solution": {"name": self.solution.name, "params": self.solution_params},
            "grid": asdict(self.grid),
            "action": {**asdict(self.action), "worldsheet_dim": 2},
            "kind": self.kind,
            "options": self.options,
            "seed": self.seed,
        }


def _require(raw: dict, key: str, types) -> object:
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    val = raw[key]
    if not isinstance(val, types):
        raise ConfigError(f"{key!r} has wrong type {type(val).__name__}")
    return val


def _reject_unknown(raw: dict, allowed: set, where: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


# the value rules of solution parameters, grid and action, reused for options
_is_finite = _PARAM_TYPES[float][0]
_is_int = _PARAM_TYPES[int][0]


def _is_nonzero_finite(val) -> bool:
    return _is_finite(val) and val != 0


def _list_of(test, min_len: int = 1):
    return lambda val: isinstance(val, list) and len(val) >= min_len and all(map(test, val))


def _distinct_list_of(test, min_len: int = 1):
    listed = _list_of(test, min_len)
    return lambda val: listed(val) and len(set(val)) == len(val)


def _check_grid(build, where: str, *args, **kwargs) -> WorldsheetGrid:
    """The grid ``build(*args, **kwargs)``; grid parameters that
    ``WorldsheetGrid`` itself rejects are invalid config at ``where``."""
    try:
        return build(*args, **kwargs)
    except GridError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _check_option_values(kind: str, options: dict, grid: WorldsheetGrid,
                         families: list[str]) -> None:
    """Reject option values the experiments cannot run with (a repeated
    slice or beta collapses a report's table, a repeated level divides by
    log 1), or with which a check would pass vacuously (a zero deformation
    amplitude or reparametrization size, a Jacobi field paired with itself,
    one slice or one eom beta, whose spread is 0)."""
    floors = experiments._CONVERGENCE_FLOORS
    lo, hi = ORACLE_EPS_RANGE
    n_tau = grid.n_tau
    fewest_betas = 2 if kind == "eom" else 1

    def is_row(val) -> bool:
        return _is_int(val) and 0 <= val < n_tau

    epsilon = {
        "deform-check": (lambda v: _is_finite(v) and lo <= v <= hi, f"a number in [{lo}, {hi}]"),
        "linearize": (lambda v: _is_finite(v) and 0.0 < v <= MAX_DEFORM_EPS,
                      f"a number in (0, {MAX_DEFORM_EPS}]"),
        # s + epsilon sin(s) is invertible exactly when |epsilon| < 1
        "gauge-check": (lambda v: _is_nonzero_finite(v) and abs(v) < 1,
                        "a nonzero number with |epsilon| < 1"),
    }
    rules = {
        "beta": (_is_finite, "a finite number"),
        "amplitude": (_is_nonzero_finite, "a nonzero finite number"),
        "epsilon": epsilon.get(kind),
        "betas": (_distinct_list_of(_is_finite, fewest_betas),
                  f"a list of at least {fewest_betas} distinct finite numbers"),
        "seeds": (_list_of(lambda v: _is_int(v) and v >= 0),
                  "a non-empty list of non-negative integers"),
        "levels": (_distinct_list_of(_is_int, 2), "a list of at least 2 distinct integers"),
        "slices": (_distinct_list_of(is_row, 2),
                   f"a list of at least 2 distinct tau rows in [0, {n_tau})"),
        "slice": (is_row, f"a tau row in [0, {n_tau})"),
        "jacobi": (lambda v: isinstance(v, list) and len(v) == 2 and all(n in families for n in v)
                   and v[0] != v[1], f"two different family directions from {families}"),
        "quantity": (lambda v: v in list(floors), f"one of {sorted(floors)}"),
        "csv": (lambda v: isinstance(v, str) and v != "", "a non-empty string (an output path)"),
    }
    for name, val in options.items():
        test, need = rules[name]
        if not test(val):
            raise ConfigError(f"options.{name} for kind {kind!r} must be {need}, got {val!r}")
    for level in options.get("levels", []):
        _check_grid(replace, f"options.levels for kind {kind!r}, level {level}", grid, n_tau=level)


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json serializes cleanly."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _plain(obj.item())
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


@functools.cache
def _keep_freed_heap() -> None:
    """Fix glibc's heap thresholds at the ceilings its dynamic rule climbs
    to (mmap above 32 MiB, trim above 64 MiB), so the memory one experiment
    frees stays in the heap for the next.

    An experiment allocates and frees a few MiB of arrays.  Under the
    dynamic rule the freed heap top goes back to the system unless some
    long-lived block happens to sit above it, which changes with the
    process's address layout; the next experiment in the process then faults
    its working set back in, a quarter of a 129x32 geometry run, in some
    processes and not in others.  Without glibc's ``mallopt`` this does
    nothing."""
    mallopt = getattr(ctypes.CDLL(None) if sys.platform != "win32" else None, "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def run(config: ExperimentConfig, with_timings: bool = False) -> dict:
    """Execute one experiment and assemble the report dictionary."""
    _keep_freed_heap()
    start = time.perf_counter()
    results, tolerances, passed = experiments.EXPERIMENTS[config.kind](
        config.solution, config.grid, config.action, config.seed, **config.options
    )
    elapsed_ms = 1000.0 * (time.perf_counter() - start)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.resolved(),
        "results": _plain(results),
        "tolerances": _plain(tolerances),
        "pass": bool(passed),
        "timings_ms": {"experiment": elapsed_ms} if with_timings else None,
    }


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
        text = serialize_report(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (GridError, GeometryError, DynamicsError, SolutionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the report or the csv option's path cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
