"""Workloads of the stringlab benchmark and the checks on every operation.

A workload is one exact worldsheet on one grid.  Each of its operations is
one ``stringlab run`` experiment kind, driven in-process the way the CLI
drives it: ``ExperimentConfig.from_dict`` and then ``cli.run``, with the
CLI's exit codes (0 pass, 1 tolerance failure, 2 invalid config, 3 typed
numerical failure).
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

KINDS = (
    "geometry",
    "deform-check",
    "eom",
    "linearize",
    "self-adjoint",
    "conserve",
    "omega",
    "gauge-check",
    "convergence",
)

TAU_WINDOW = (0.1, 0.9)
TENSION = 1.0
GB_COUPLING = 0.3
# the omega kind's own slice tolerance, reused for the analytic anchor
ANCHOR_RTOL = 1e-3


@dataclass(frozen=True)
class Workload:
    solution: str
    params: dict
    n_tau: int
    n_sigma: int
    modulus: str
    # omega(translation_t, modulus) at beta=0 on the middle slice, or None
    # where no closed form is asserted
    omega_anchor: float | None


# why each workload was chosen: BENCHMARK.json and README.md in this directory
WORKLOADS = {
    "readme": Workload(
        "pulsating_circular_string", {"radius": 1.0}, 129, 32, "radius", -2.0 * math.pi),
    "spinning": Workload(
        "spinning_two_plane_string", {"scale": 1.0}, 129, 64, "scale", -4.0 * math.pi),
    "large": Workload(
        "pulsating_circular_string", {"radius": 1.0}, 257, 64, "radius", -2.0 * math.pi),
    "folded": Workload(
        "rotating_folded_string", {"amplitude": 1.0}, 129, 32, "amplitude", None),
}


class SourceMissing(RuntimeError):
    """The stringlab sources are not in the checkout the benchmark runs in."""


def load_stringlab(root: Path):
    """Import ``stringlab.cli`` from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "stringlab" / "__init__.py").is_file():
        raise SourceMissing(f"no stringlab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from stringlab import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SourceMissing(f"stringlab was imported from {cli.__file__}, not {src}")
    return cli


def raw_configs(name: str, seed: int) -> dict[str, dict]:
    """The JSON configs of one workload, one per experiment kind."""
    w = WORKLOADS[name]
    out = {}
    for kind in KINDS:
        raw = {
            "schema_version": 1,
            "solution": {"name": w.solution, "params": dict(w.params)},
            "grid": {"n_tau": w.n_tau, "n_sigma": w.n_sigma,
                     "tau_min": TAU_WINDOW[0], "tau_max": TAU_WINDOW[1]},
            "action": {"tension": TENSION, "gb_coupling": GB_COUPLING},
            "kind": kind,
            "seed": seed,
        }
        if kind in ("omega", "gauge-check"):
            raw["options"] = {"jacobi": ["translation_t", w.modulus]}
        out[kind] = raw
    return out


@dataclass(frozen=True)
class Outcome:
    """What one operation returned: the CLI exit code and the serialized
    report, or the message of the exception that ended it."""

    code: int | str  # 0..3 as the CLI exits, or "crash" for an untyped exception
    text: str


def execute(cli, config) -> tuple[Outcome, float]:
    """Run one experiment as ``stringlab run`` would; return the outcome and
    the wall time of ``cli.run`` alone."""
    typed = (cli.GridError, cli.GeometryError, cli.DynamicsError, cli.SolutionError)
    start = time.perf_counter()
    try:
        report = cli.run(config)
    except typed as exc:
        seconds = time.perf_counter() - start
        return Outcome(3, f"numerical failure: {exc}"), seconds
    except Exception:  # an untyped error is a defect: record it, keep measuring
        seconds = time.perf_counter() - start
        return Outcome("crash", traceback.format_exc()), seconds
    seconds = time.perf_counter() - start
    return Outcome(0 if report["pass"] else 1, cli.serialize_report(report)), seconds


def failure(name: str, kind: str, outcome: Outcome) -> str | None:
    """Why an operation failed, or None when it passed every check."""
    if outcome.code != 0:
        return f"exit {outcome.code}"
    anchor = WORKLOADS[name].omega_anchor
    if kind == "omega" and anchor is not None:
        try:
            value = middle_omega(outcome.text)
        except (KeyError, IndexError, TypeError):
            return "omega report has no beta=0.0 slice table"
        if abs(value - anchor) > ANCHOR_RTOL * abs(anchor):
            return f"omega {value!r} misses the anchor {anchor!r}"
    return None


def middle_omega(report_text: str) -> float:
    """omega at beta=0 on the middle slice of an omega report."""
    table = json.loads(report_text)["results"]["omega"]
    rows = list(table["beta=0.0"].values())
    return rows[len(rows) // 2]
