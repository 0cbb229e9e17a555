#!/usr/bin/env python3
"""The failing-verdict ledger: which benchmark configs fail, and why.

    python3 tools/ledger.py [--seeds A-B]

Runs the 36 configs of ``perfbench/workloads.raw_configs`` (four workloads
× nine kinds) at each seed from A to B (default 0-0), in one child process
that imports ``stringlab`` from this checkout's ``src/``, as
``tools/report_diff.py`` does; ``perfbench/`` is only read.  Each run is
classified by ``workloads.failure``.

Per seed and workload it prints the failing count out of nine and, for each
failing kind, why: for exit 1 each result value that misses its tolerance,
by ``stringlab.experiments.failing_checks`` from this checkout's ``src/``,
for exit 3 the error text.  Then the seed's total out of 36.
"""

from __future__ import annotations

import argparse
import json
import sys

sys.dont_write_bytecode = True  # nothing under tools/ or perfbench/ is written

from report_diff import ROOT, run_checkout  # noqa: E402
from workloads import KINDS, WORKLOADS, Outcome, failure, load_stringlab, raw_configs  # noqa: E402

failing_checks = load_stringlab(ROOT).experiments.failing_checks


def why(name: str, kind: str, code, text: str) -> str | None:
    """Why one run failed, or None when it passed.  A failing
    ``convergence`` lists its observed orders below ``min_order`` and its
    errors above ``roundoff_floor``: a pair fails when it misses both."""
    reason = failure(name, kind, Outcome(code, text))
    if reason is None or code == 0:
        return reason
    if code == 1:
        report = json.loads(text)
        tol = report["tolerances"]
        if kind == "convergence":
            tol = {"observed_orders_min": tol["min_order"], "errors": tol["roundoff_floor"]}
        return f"{reason}: " + ", ".join(
            f"{path} {value if value is None else format(value, '.4g')} (tolerance {bound:g})"
            for path, value, bound in failing_checks(report["results"], tol))
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
