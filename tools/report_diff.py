#!/usr/bin/env python3
"""Compare the reports of this checkout with those of another checkout.

    python3 tools/report_diff.py PARENT_CHECKOUT [--seed N]

Runs the 36 configs of ``perfbench/workloads.raw_configs`` (four workloads
× nine kinds) and the forty-one slice-path, declared-mask,
shared-derivative, sigma-shift, normal-frame, random-field and curvature
configs of :func:`extra_configs` once per checkout, each checkout in its
own child process that imports ``stringlab`` from that checkout's
``src/``.  Both sides run the configs of this checkout's ``perfbench/``,
which is only read.

For each config it prints both exit codes.  Where two reports differ it
prints each differing leaf key with both values and their relative
difference.  Exits 0 only if every report is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.dont_write_bytecode = True  # perfbench/ is only read
sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, raw_configs  # noqa: E402

# one checkout: every config as stringlab run would, exit code and output
CHILD = """\
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from workloads import execute, load_stringlab
cli = load_stringlab(Path(sys.argv[2]))
out = {}
for key, raw in json.load(sys.stdin).items():
    try:
        config = cli.ExperimentConfig.from_dict(raw)
    except cli.ConfigError as exc:
        out[key] = [2, f"config error: {exc}"]
        continue
    outcome, _ = execute(cli, config)
    out[key] = [outcome.code, outcome.text]
json.dump(out, sys.stdout)
"""


def extra_configs(seed: int) -> dict:
    """Configs beyond the workloads'.  Slice paths: configs that take every
    branch of ``Mask.slice_row`` and ``WorldsheetGrid.bands``, that is a
    shared band, overlapping bands and both edges' bands on pulsating
    129x32 and spinning 129x64; and, on the pulsating collapse (257x16, tau
    in [0.5, 1.6], rows 246 to 252 masked), bands that meet the masked
    region and a masked row; and gauge-check on spinning at beta 0.3, so
    the stacked reparametrized rebuilds see a nonzero normal connection,
    the topological part and a near-edge row.  Declared masks, through full
    builds: rows around spinning's cusp (129x64, tau in [2.0, 2.7]),
    folded's fold columns at 129x64, also under ``convergence``, whose
    negative orders fail it, and rows around the pulsating collapse at
    257x16 and at 1025x16, where the tau stencil meets inf - inf on masked
    rows.  Shared derivatives: linearize at three betas on
    pulsating and spinning and at two nonzero betas on folded (masked
    fills), and self-adjoint and conserve on spinning (nonzero normal
    connection), so every evaluator and coupling reads one set of each
    field's derivatives.  Sigma shift: conserve with the ``sigma_shift``
    Jacobi field on pulsating, spinning and folded, whose error text
    carries the roundoff size of the shift's normal part.  Normal frames:
    pulsating in three dimensions (codimension 1, the tangents' dual)
    under ``geometry`` and ``conserve``; ``geometry`` and ``eom`` on the
    window tau in [1.5708, 2.3708], past the collapse, whose first active
    row is 3; ``deform-check`` and ``linearize`` on the 257x16 collapse,
    whose displaced charts are large on the masked rows; ``geometry`` and
    ``eom`` on spinning 129x64 over tau in [0, 3.1416], through the instant
    the string is at rest (tau near pi/4, where e_t nearly lies in the
    tangent plane) and both cusps; and ``omega`` on spinning over tau in
    [1.178, 1.978].  Random fields: ``deform-check`` on pulsating in three
    dimensions (one random normal scalar per seed) and
    on folded 129x64 (the fold columns through the Riemann block),
    ``convergence`` of ``self-adjoint`` (random fields on 65, 129 and 257
    rows), and ``self-adjoint`` on spinning 129x128 (32 sigma modes).
    Curvature: ``geometry`` on spinning 129x128, the largest Riemann block
    of the configs, and ``convergence`` of the Einstein tensor on
    spinning's cusp window, where the curvature is largest."""
    pulsating, spinning = raw_configs("readme", seed), raw_configs("spinning", seed)
    folded_kinds = raw_configs("folded", seed)
    folded = folded_kinds["geometry"]
    collapse = {"grid": {"n_tau": 257, "n_sigma": 16, "tau_min": 0.5, "tau_max": 1.6}}
    fine_collapse = {"grid": {**collapse["grid"], "n_tau": 1025}}
    folded_64 = {"grid": {**folded["grid"], "n_sigma": 64}}
    cusp = {"grid": {"n_tau": 129, "n_sigma": 64, "tau_min": 2.0, "tau_max": 2.7}}
    masks = {
        "spinning cusp geometry": (spinning["geometry"], cusp),
        "spinning cusp eom": (spinning["eom"], cusp),
        "folded 129x64 geometry": (folded, folded_64),
        "folded 129x64 convergence": (folded_kinds["convergence"], folded_64),
        "collapse geometry": (pulsating["geometry"], collapse),
        "collapse eom": (pulsating["eom"], collapse),
        "collapse 1025 geometry": (pulsating["geometry"], fine_collapse),
        "collapse 1025 eom": (pulsating["eom"], fine_collapse),
    }
    cases = {
        "omega 0,2,64,66,128": (pulsating["omega"], {}, {"slices": [0, 2, 64, 66, 128]}),
        "gauge-check 0": (pulsating["gauge-check"], {}, {"slice": 0, "beta": 0.3}),
        "gauge-check 128": (pulsating["gauge-check"], {}, {"slice": 128, "beta": 0.3}),
        "spinning omega 1,64,127": (spinning["omega"], {}, {"slices": [1, 64, 127],
                                                           "jacobi": ["rotation_xy", "scale"]}),
        "collapse omega 255,256": (pulsating["omega"], collapse, {"slices": [255, 256]}),
        "collapse gauge-check 256": (pulsating["gauge-check"], collapse, {"slice": 256}),
        "collapse gauge-check 250": (pulsating["gauge-check"], collapse, {"slice": 250}),
        "spinning gauge-check": (spinning["gauge-check"], {}, {"beta": 0.3}),
        "spinning gauge-check rotation": (spinning["gauge-check"], {},
                                          {"beta": 0.3, "jacobi": ["rotation_xy", "scale"]}),
        "spinning gauge-check 1": (spinning["gauge-check"], {}, {"slice": 1, "beta": 0.3}),
    }
    shared = {
        "linearize": (pulsating["linearize"], {"betas": [0, 0.3, 1]}),
        "spinning linearize": (spinning["linearize"], {"betas": [0, 0.3, 1]}),
        "folded linearize": (folded_kinds["linearize"], {"betas": [0.3, 1]}),
        "spinning self-adjoint": (spinning["self-adjoint"], {"beta": 0}),
        "spinning conserve": (spinning["conserve"], {"jacobi": ["rotation_xy", "scale"],
                                                     "beta": 0.3}),
    }
    sigma_shift = {"pulsating": pulsating["conserve"], "spinning": spinning["conserve"],
                   "folded": folded_kinds["conserve"]}
    dim3 = {"solution": {**pulsating["geometry"]["solution"], "params": {"radius": 1.0, "dim": 3}}}
    window = {"grid": {**pulsating["geometry"]["grid"], "tau_min": 1.5708, "tau_max": 2.3708}}
    spinning_0_pi = {"grid": {**spinning["geometry"]["grid"], "tau_min": 0.0, "tau_max": 3.1416}}
    spinning_mid = {"grid": {**spinning["omega"]["grid"], "tau_min": 1.178, "tau_max": 1.978}}
    frames = {
        "pulsating dim 3 geometry": (pulsating["geometry"], dim3),
        "pulsating dim 3 conserve": (pulsating["conserve"], dim3),
        "window geometry": (pulsating["geometry"], window),
        "window eom": (pulsating["eom"], window),
        "collapse deform-check": (pulsating["deform-check"], collapse),
        "collapse linearize": (pulsating["linearize"], collapse),
        "spinning 0-pi geometry": (spinning["geometry"], spinning_0_pi),
        "spinning 0-pi eom": (spinning["eom"], spinning_0_pi),
        "spinning omega 1.178-1.978": (spinning["omega"], spinning_mid),
    }
    spinning_128 = {"grid": {**spinning["geometry"]["grid"], "n_sigma": 128}}
    fields = {
        "pulsating dim 3 deform-check": (pulsating["deform-check"], dim3),
        "folded 129x64 deform-check": (folded_kinds["deform-check"], folded_64),
        "convergence self-adjoint": (pulsating["convergence"],
                                     {"options": {"quantity": "self-adjoint"}}),
        "spinning 129x128 self-adjoint": (spinning["self-adjoint"], spinning_128),
    }
    curvature = {
        "spinning 129x128 geometry": (spinning["geometry"], spinning_128),
        "spinning cusp convergence": (spinning["convergence"], cusp),
    }
    out = {f"slices/{key}": {**raw, **over, "options": {**raw["options"], **options}}
           for key, (raw, over, options) in cases.items()}
    out.update({f"derivatives/{key}": {**raw, "options": {**raw.get("options", {}), **options}}
                for key, (raw, options) in shared.items()})
    out.update({f"masks/{key}": {**raw, **over} for key, (raw, over) in masks.items()})
    out.update({f"frames/{key}": {**raw, **over} for key, (raw, over) in frames.items()})
    out.update({f"random-fields/{key}": {**raw, **over} for key, (raw, over) in fields.items()})
    out.update({f"curvature/{key}": {**raw, **over} for key, (raw, over) in curvature.items()})
    out.update({f"sigma-shift/{key} conserve":
                {**raw, "options": {"jacobi": ["translation_t", "sigma_shift"]}}
                for key, raw in sigma_shift.items()})
    return out


def run_checkout(checkout: Path, configs: dict) -> dict:
    """``{config key: [exit code, report or message]}`` for one checkout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PERFBENCH), str(checkout)],
        input=json.dumps(configs), capture_output=True, text=True, cwd=checkout, env=env,
    )
    if proc.returncode != 0:
        raise SystemExit(f"running {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def leaves(obj, path: str = "") -> dict:
    """Every leaf of a parsed report, keyed by its dotted path."""
    if isinstance(obj, dict):
        children = ((f"{path}.{key}" if path else key, val) for key, val in obj.items())
    elif isinstance(obj, list):
        children = ((f"{path}[{i}]", val) for i, val in enumerate(obj))
    else:
        return {path: obj}
    out = {}
    for key, val in children:
        out.update(leaves(val, key))
    return out


def relative(a, b) -> str:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    if not numbers:
        return "-"
    scale = max(abs(a), abs(b))
    return f"{abs(a - b) / scale:.3g}" if scale else "0"


def differing_leaves(parent_text: str, text: str) -> list[str]:
    """One line per leaf key whose value differs, or the two texts' first
    lines when either is not a JSON report."""
    try:
        old, new = leaves(json.loads(parent_text)), leaves(json.loads(text))
    except json.JSONDecodeError:
        return [f"{parent_text.splitlines()[0]!r} -> {text.splitlines()[0]!r}"]
    missing = object()
    lines = []
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, missing), new.get(key, missing)
        if a != b:
            shown = ["(absent)" if v is missing else repr(v) for v in (a, b)]
            lines.append(f"{key}: {shown[0]} -> {shown[1]} (rel {relative(a, b)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    configs = {f"{name}/{kind}": raw for name in WORKLOADS
               for kind, raw in raw_configs(name, args.seed).items()}
    configs.update(extra_configs(args.seed))
    parent = run_checkout(args.parent.resolve(), configs)
    this = run_checkout(ROOT, configs)
    identical = codes_changed = 0
    for key in configs:
        (old_code, old_text), (code, text) = parent[key], this[key]
        same = old_text == text
        identical += same
        codes_changed += old_code != code
        print(f"{key:38s} exit {old_code} -> {code}  {'identical' if same else 'differs'}")
        if not same:
            for line in differing_leaves(old_text, text):
                print(f"    {line}")
    print(f"{len(configs)} reports: {identical} byte-identical, {len(configs) - identical} "
          f"differ; {codes_changed} exit codes changed")
    return 0 if identical == len(configs) else 1


if __name__ == "__main__":
    sys.exit(main())
