#!/usr/bin/env python3
"""Alternating benchmark pairs: this checkout against another one.

    python3 tools/bench_pairs.py PARENT_CHECKOUT --workload readme --pairs 5 --seconds 60

Each pair runs ``perfbench/run.py --trace 0`` once for each side, and the
side that goes first alternates from pair to pair.  Every run starts in a
fresh temporary copy of that side's ``src/`` and ``perfbench/`` (without
``__pycache__`` or ``perfbench/out``), with ``PYTHONDONTWRITEBYTECODE=1``,
so no run inherits byte code, a warm import or a record from another, and
each side's ``setup_s`` compiles its sources the same way.  Nothing in
either checkout is written.

For each end-to-end metric of this checkout's ``BENCHMARK.json`` it prints
the median per side, their ratio (this / parent), the distance between the
quartiles of the parent's runs (NaN for one pair) and the number of pairs
this checkout won; then every run's value, in pair order.  Exits 1 if a run is not ``correct`` or if the two
sides' ``failed`` counts differ, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "perfbench")
SKIPPED = shutil.ignore_patterns("__pycache__", "out")


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result object of one benchmark run in a fresh copy of ``checkout``."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        for name in COPIED:
            shutil.copytree(checkout / name, Path(tmp) / name, ignore=SKIPPED)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise SystemExit(f"benchmark run of {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    sides = {"parent": args.parent.resolve(), "this": ROOT}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "this") if i % 2 == 0 else ("this", "parent")
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, args.seconds, args.seed))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s, seed {args.seed}")
    print(f"{'metric':16s} {'parent':>11s} {'this':>11s} {'ratio':>7s} {'parent IQR':>11s}  won")
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        medians = {side: statistics.median(v) for side, v in values.items()}
        won = sum((b < a) if lower else (b > a) for a, b in zip(values["parent"], values["this"]))
        ratio = medians["this"] / medians["parent"] if medians["parent"] else float("nan")
        iqr = float("nan")
        if args.pairs > 1:
            q1, _, q3 = statistics.quantiles(values["parent"], n=4)
            iqr = q3 - q1
        print(f"{name:16s} {medians['parent']:11.5g} {medians['this']:11.5g} {ratio:7.3f} "
              f"{iqr:11.3g}  {won}/{args.pairs}")

    print("runs in pair order, parent | this:")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        cells = {side: " ".join(f"{r['metrics'][name]['value']:.5g}" for r in runs[side])
                 for side in sides}
        print(f"{name:16s} {cells['parent']} | {cells['this']}")

    ok = True
    for side in sides:
        bad = [i + 1 for i, r in enumerate(runs[side]) if not r["correct"]]
        if bad:
            print(f"{side}: runs {bad} not correct")
            ok = False
    failed = {side: sorted({r["failed"] for r in runs[side]}) for side in sides}
    print(f"failed: parent {failed['parent']}, this {failed['this']}")
    if failed["parent"] != failed["this"]:
        print("the two sides fail a different number of operations")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
