#!/usr/bin/env python3
"""The failing-verdict ledger: which benchmark configs fail, and why.

    python3 tools/ledger.py [--seeds A-B]

Runs the 36 configs of ``perfbench/workloads.raw_configs`` (four workloads
× nine kinds) at each seed from A to B (default 0-0), in one child process
that imports ``stringlab`` from this checkout's ``src/``, as
``tools/report_diff.py`` does; ``perfbench/`` is only read.  Each run is
classified by ``workloads.failure``.

Per seed and workload it prints the failing count out of nine and, for each
failing kind, why: for exit 1 the result values beyond their tolerance, for
exit 3 the error text.  Then the seed's total out of 36.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

sys.dont_write_bytecode = True  # nothing under tools/ or perfbench/ is written

from report_diff import ROOT, leaves, run_checkout  # noqa: E402
from workloads import KINDS, WORKLOADS, Outcome, failure, raw_configs  # noqa: E402


def beyond_tolerance(report: dict) -> list[str]:
    """``path value (tolerance)`` for each result value beyond its
    tolerance: a numeric leaf of ``results`` one of whose dotted path
    segments is the tolerance's name, above it in magnitude, or below it
    for a lower bound ``NAME_min``."""
    values = leaves(report["results"])
    out = []
    for key, tol in report["tolerances"].items():
        name = key.removesuffix("_min")
        for path, value in values.items():
            if name not in re.split(r"[.\[]", path) or not isinstance(value, (int, float)):
                continue
            if (value < tol) if name != key else (abs(value) > tol):
                out.append(f"{path} {value:.4g} (tolerance {tol:g})")
    return out


def why(name: str, kind: str, code, text: str) -> str | None:
    """Why one run failed, or None when it passed."""
    reason = failure(name, kind, Outcome(code, text))
    if reason is None or code == 0:
        return reason
    if code == 1:
        values = beyond_tolerance(json.loads(text)) or ["no result named by a tolerance"]
        return f"{reason}: {', '.join(values)}"
    return f"{reason}: {text.strip().splitlines()[-1]}"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last or first) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B or A, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=range(0, 1),
                        help="seeds A-B, both included (default 0-0)")
    args = parser.parse_args(argv)

    configs = {f"{seed}/{name}/{kind}": raw for seed in args.seeds for name in WORKLOADS
               for kind, raw in raw_configs(name, seed).items()}
    runs = run_checkout(ROOT, configs)
    for seed in args.seeds:
        print(f"seed {seed}")
        total = 0
        for name in WORKLOADS:
            reasons = {kind: why(name, kind, *runs[f"{seed}/{name}/{kind}"]) for kind in KINDS}
            failed = {kind: reason for kind, reason in reasons.items() if reason is not None}
            total += len(failed)
            print(f"  {name:10s} {len(failed)}/{len(KINDS)}")
            for kind, reason in failed.items():
                print(f"    {kind}: {reason}")
        print(f"  {total}/{len(WORKLOADS) * len(KINDS)} failing")
    return 0


if __name__ == "__main__":
    sys.exit(main())
