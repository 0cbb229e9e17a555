#!/usr/bin/env python3
"""stringlab benchmark: every experiment kind on one worldsheet workload.

    python3 perfbench/run.py --workload readme --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  One client runs one experiment at a time (a closed
loop) through ``ExperimentConfig.from_dict`` and ``cli.run``, repeating
sweeps of the nine kinds until ``--seconds`` have been measured.

``--trace 0`` times the kinds with nothing instrumented and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced sweeps
and reports the per-layer metrics of the traced ones.  Either way every
report is checked, a human-readable summary is printed, a JSON record with
the run metadata is written under ``perfbench/out/``, and the last line of
standard output is the result object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    KINDS, WORKLOADS, SourceMissing, execute, failure, load_stringlab, raw_configs,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# a kind faster than this is repeated within a sweep until it fills it, so
# the cheap kinds get as many samples as the noise on this scale needs
MIN_KIND_SECONDS = 0.3
MAX_REPEATS = 10
# end-to-end times are reported in seconds at the speed where the reference
# kernel takes REF_SECONDS (its typical time on a 2-core Xeon VM)
REF_LOOPS = 8
REF_SECONDS = 0.02
REF_EVERY = 0.2
REPORT_KEYS = {"schema_version", "config", "results", "tolerances", "pass", "timings_ms"}

SETUP_CHILD = """\
import json, sys, time
raws = json.load(sys.stdin)
start = time.perf_counter()
from stringlab import cli
for raw in raws:
    cli.ExperimentConfig.from_dict(raw)
print(repr(time.perf_counter() - start))
"""


# -- checks -------------------------------------------------------------------


class Ledger:
    """Every operation run, whether it failed, and whether its output held up.

    An operation is one experiment kind on the workload: one config.  Its
    repeats are timing samples of the same operation, so it is counted once
    however many times the deadline lets it run, and ``attempted`` and
    ``failed`` depend only on the code and the seed, not on the machine's
    speed.  An operation *fails* on a nonzero exit or a missed analytic
    anchor; the output is *incorrect* when a report is malformed, an untyped
    exception escaped, or a repeat of the same config gave a different report.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.runs = 0
        self.first: dict = {}
        self.reasons: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, kind: str, outcome) -> None:
        self.runs += 1
        first = self.first.setdefault(kind, outcome)
        if first is outcome:
            self._inspect(kind, outcome)
        elif outcome != first:
            self.problems.append(f"{kind}: a repeat gave a different outcome")

    @property
    def attempted(self) -> int:
        return len(self.first)

    @property
    def failed(self) -> int:
        return len(self.reasons)

    def _inspect(self, kind: str, outcome) -> None:
        if outcome.code == "crash":
            self.problems.append(f"{kind}: untyped exception {outcome.text}")
            self.reasons[kind] = "crash"
            return
        if outcome.code in (0, 1):
            report = json.loads(outcome.text)
            if set(report) != REPORT_KEYS or report["config"].get("kind") != kind:
                self.problems.append(f"{kind}: malformed report")
        reason = failure(self.workload, kind, outcome)
        if reason:
            self.reasons[kind] = reason

    @property
    def correct(self) -> bool:
        return not self.problems


# -- measurement --------------------------------------------------------------


def warm_up(cli, configs, ledger) -> None:
    """One untimed geometry build: imports and FFT plans for the grid load here."""
    run_kind(cli, configs["geometry"], "geometry", ledger)


def run_kind(cli, config, kind, ledger, tracer=None) -> tuple[float, float]:
    """One operation: (wall time of cli.run, wall time including the report)."""
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        outcome, seconds = execute(cli, config)
    else:
        with tracer.root(kind):
            outcome, seconds = execute(cli, config)
    wall = time.perf_counter() - start
    ledger.record(kind, outcome)
    return seconds, wall


class Reference:
    """A fixed numpy kernel, timed between operations.

    On a shared 2-core VM the whole machine switches between a fast and a slow
    state (up to 1.8x apart, for seconds at a time), and raw medians of
    separate runs differ by 20-40%.  The reference does not depend on the code
    under test, so dividing an operation's time by the reference times around
    it removes most of that and keeps every change in the program.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        # shaped like fields on the README grid: many small contractions, one FFT
        self.k = rng.standard_normal((129, 32, 2, 2, 2))
        self.g = rng.standard_normal((129, 32, 2, 2))
        self.f = rng.standard_normal((129, 32, 8))

    def seconds(self) -> float:
        np = self.np
        start = time.perf_counter()
        for _ in range(REF_LOOPS):
            np.einsum("...abi,...bc->...aci", self.k, self.g)
            np.einsum("...ab,...bc->...ac", self.g, self.g)
            np.fft.irfft(np.fft.rfft(self.f, axis=1), n=32, axis=1)
        return time.perf_counter() - start


def measure_kinds(cli, configs, raws, seconds, ledger) -> tuple[dict, dict]:
    """Closed loop over sweeps of the nine kinds until the deadline.

    The first sweep runs every kind once.  Later sweeps repeat each cheap kind
    up to ``MIN_KIND_SECONDS`` and start an operation only if its last time
    still fits before the deadline.  One set-up sample is taken before each
    sweep.  The reference kernel is timed after a group of repeats once
    ``REF_EVERY`` seconds have passed since it last ran; each sample is also
    returned scaled by ``REF_SECONDS / mean(reference before, reference after)``.

    Returns (wall samples, scaled samples), keyed by kind and ``"setup"``.
    """
    labels = (*KINDS, "setup")
    wall: dict[str, list[float]] = {label: [] for label in labels}
    scaled: dict[str, list[float]] = {label: [] for label in labels}
    reference = Reference()
    before, since, pending = reference.seconds(), time.perf_counter(), []

    def close_group(label, times, flush=False):
        nonlocal before, since
        wall[label] += times
        pending.append((label, times))
        if not flush and time.perf_counter() - since < REF_EVERY:
            return
        after, since = reference.seconds(), time.perf_counter()
        for group_label, group in pending:
            scaled[group_label] += [t * 2.0 * REF_SECONDS / (before + after) for t in group]
        before = after
        pending.clear()

    repeats = dict.fromkeys(KINDS, 1)
    deadline = time.perf_counter() + seconds
    progressed = True
    while progressed:
        progressed = False
        if len(wall["setup"]) < SETUP_REPEATS:
            close_group("setup", [measure_setup(raws)])
        for kind in KINDS:
            times: list[float] = []
            for _ in range(repeats[kind]):
                last = (wall[kind] + times)[-1:]
                if last and time.perf_counter() + last[0] > deadline:
                    break
                times.append(run_kind(cli, configs[kind], kind, ledger)[0])
            if times:
                close_group(kind, times)
                progressed = True
        repeats = {kind: min(MAX_REPEATS, max(1, math.ceil(MIN_KIND_SECONDS / min(wall[kind]))))
                   for kind in KINDS}
    while len(wall["setup"]) < SETUP_REPEATS:
        close_group("setup", [measure_setup(raws)])
    close_group("setup", [], flush=True)
    return wall, scaled


def measure_setup(raws: list[dict]) -> float:
    """A fresh interpreter that imports stringlab and validates the configs."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD], input=json.dumps(raws), text=True,
        capture_output=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def end_to_end(cli, name, seed, seconds, ledger, record) -> dict:
    raws = raw_configs(name, seed)
    configs = {kind: cli.ExperimentConfig.from_dict(raw) for kind, raw in raws.items()}
    warm_up(cli, configs, ledger)
    wall, scaled = measure_kinds(cli, configs, list(raws.values()), seconds, ledger)
    medians = {label: statistics.median(s) for label, s in scaled.items()}
    # a kind that ends in a typed error has no verdict to time: its
    # time-to-error is reported under its own name but left out of the sweep
    verdicts = [k for k in KINDS if ledger.first[k].code in (0, 1)]
    metrics = {f"{kind}_s": (medians[kind], "s") for kind in KINDS}
    metrics["sweep_s"] = (sum(medians[k] for k in verdicts), "s")
    metrics["setup_s"] = (medians["setup"], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    record.update(wall_samples=wall, scaled_samples=scaled)

    print(f"{'':13s} {'':>3s} {'scaled':>9s} {'wall time, ms':^29s}")
    print(f"{'kind':13s} {'n':>3s} {'median':>9s} {'median':>9s} {'min':>9s} {'max':>9s}  outcome")
    for label in (*KINDS, "setup"):
        w = wall[label]
        verdict = ledger.reasons.get(label, "pass") if label in KINDS else ""
        print(f"{label:13s} {len(w):3d} {1e3 * medians[label]:9.1f} {1e3 * statistics.median(w):9.1f} "
              f"{1e3 * min(w):9.1f} {1e3 * max(w):9.1f}  {verdict}")
    return metrics


def per_layer(cli, name, seed, seconds, ledger, record) -> dict:
    import tracing

    configs = {kind: cli.ExperimentConfig.from_dict(raw)
               for kind, raw in raw_configs(name, seed).items()}
    untraced, traced, aggregates, first_spans = [], [], [], None
    warm_up(cli, configs, ledger)
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(sum(run_kind(cli, configs[k], k, ledger)[1] for k in KINDS))
        with tracing.Tracer() as tracer:
            traced.append(sum(run_kind(cli, configs[k], k, ledger, tracer)[1] for k in KINDS))
        aggregates.append(tracing.aggregate(tracer.spans))
        if first_spans is None:
            first_spans, absent = tracer.spans, tracer.absent
        if tracing.counts(aggregates[-1]) != tracing.counts(aggregates[0]):
            ledger.problems.append("traced counts differ between sweeps")
        if time.perf_counter() + untraced[-1] + traced[-1] > deadline:
            break

    metrics = layer_metrics(aggregates, absent)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    breakdown = {
        kind: {span: {"calls": e["calls"], "self_ms": e["self_ns"] / 1e6,
                      "total_ms": e["total_ns"] / 1e6, "distinct": len(e["digests"]),
                      "hits": e["hits"], "mbytes": e["bytes"] / 1e6,
                      "rows_used": e["rows_used"], "rows_computed": e["rows_computed"]}
               for span, e in sorted(names.items())}
        for kind, names in aggregates[0].items()
    }
    record.update(untraced_sweeps=untraced, traced_sweeps=traced, absent=absent,
                  per_kind=breakdown, spans=first_spans)

    print(f"traced sweeps: {len(traced)}; untraced {statistics.median(untraced):.3f} s, "
          f"traced {statistics.median(traced):.3f} s")
    if absent:
        print("absent (reported without metrics): " + ", ".join(absent))
    print(f"{'kind':13s} {'builds':>6s} {'distinct':>8s} {'coef_hit':>8s} "
          f"{'einsums':>8s} {'einsum_ms':>9s} {'self_ms':>8s}")
    for kind in KINDS:
        spans = breakdown.get(kind, {})
        build = spans.get("geometry.build_geometry", {})
        coef = spans.get("dynamics.operator_coefficients", {})
        ein = spans.get("kernel.einsum", {})
        root = spans.get(tracing.ROOT, {})
        print(f"{kind:13s} {build.get('calls', 0):6d} {build.get('distinct', 0):8d} "
              f"{coef.get('hits', 0):3d}/{coef.get('calls', 0):<4d} {ein.get('calls', 0):8d} "
              f"{ein.get('self_ms', 0.0):9.1f} {root.get('self_ms', 0.0):8.1f}")
    return metrics


def layer_metrics(aggregates, absent) -> dict:
    """Per-layer metrics, summed over the kinds of a sweep: counts from the
    first traced sweep (they repeat exactly), times as medians over sweeps."""
    import tracing

    def total(agg, span, field):
        return sum(names[span][field] for names in agg.values() if span in names)

    def median_ms(span, field):
        return statistics.median(total(a, span, field) for a in aggregates) / 1e6

    first = aggregates[0]
    metrics = {}
    for span in (*tracing.TARGETS, "kernel.einsum", "kernel.fft"):
        if span in absent:
            continue
        metrics[f"{span}.calls"] = (total(first, span, "calls"), "count")
        metrics[f"{span}.self_ms"] = (median_ms(span, "self_ns"), "ms")
        if not span.startswith("kernel."):
            metrics[f"{span}.total_ms"] = (median_ms(span, "total_ns"), "ms")

    def ratio(num, den):
        return num / den if den else 1.0

    builds = "geometry.build_geometry"
    if builds not in absent:
        distinct = sum(len(n[builds]["digests"]) for n in first.values() if builds in n)
        metrics[f"{builds}.distinct_ratio"] = (ratio(distinct, total(first, builds, "calls")), "ratio")
    coef = "dynamics.operator_coefficients"
    if coef not in absent:
        metrics[f"{coef}.hit_ratio"] = (ratio(total(first, coef, "hits"), total(first, coef, "calls")), "ratio")
    current = "symplectic.bilinear_current"
    if current not in absent:
        metrics[f"{current}.rows_used_ratio"] = (
            ratio(total(first, current, "rows_used"), total(first, current, "rows_computed")), "ratio")
    metrics["kernel.einsum.mbytes"] = (total(first, "kernel.einsum", "bytes") / 1e6, "MB")
    metrics["experiments.self_ms"] = (median_ms(tracing.ROOT, "self_ns"), "ms")
    return metrics


# -- run metadata ---------------------------------------------------------------


def limit_threads() -> int:
    """Default the BLAS/OpenMP pools to one thread and cap them at nproc, before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, "1"))
        except ValueError:
            wanted = 1
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return nproc


def metadata(nproc: int) -> dict:
    import numpy as np

    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    return caches


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    nproc = limit_threads()
    try:
        cli = load_stringlab(ROOT)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    ledger = Ledger(args.workload)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **metadata(nproc)}
    print("run: " + json.dumps(record))
    measure = per_layer if args.trace else end_to_end
    metrics = measure(cli, args.workload, args.seed, args.seconds, ledger, record)

    record.update(failures=ledger.reasons, problems=ledger.problems,
                  metrics={k: v[0] for k, v in metrics.items()})
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record) + "\n")
    print(f"failed {ledger.failed}/{ledger.attempted} operations ({ledger.runs} runs): "
          + (", ".join(f"{k} ({v})" for k, v in ledger.reasons.items()) or "none"))
    for problem in ledger.problems:
        print(f"INCORRECT: {problem}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
