"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import KINDS, Outcome, execute, failure, load_stringlab, raw_configs

ROOT = Path(__file__).resolve().parent.parent
cli = load_stringlab(ROOT)


def traced(kind: str, workload: str = "readme", seed: int = 0):
    config = cli.ExperimentConfig.from_dict(raw_configs(workload, seed)[kind])
    with tracing.Tracer() as tracer:
        with tracer.root(kind):
            outcome, _ = execute(cli, config)
    assert outcome.code != "crash", outcome.text
    return tracing.aggregate(tracer.spans)[kind]


def _bindings():
    import numpy as np

    out = {(name, attr): value for name, module in list(sys.modules.items())
           if module is not None and name.split(".")[0] == "stringlab"
           for attr, value in vars(module).items()}
    out[("numpy", "einsum")] = np.einsum
    out[("numpy.fft", "rfft")] = np.fft.rfft
    out[("numpy.fft", "irfft")] = np.fft.irfft
    return out


def test_wrappers_exist_only_while_traced():
    import numpy as np
    from stringlab import geometry, solutions

    before = _bindings()
    with tracing.Tracer():
        assert geometry.build_geometry is not before[("stringlab.geometry", "build_geometry")]
        # the by-name import in another module is rebound to the same wrapper
        assert solutions.build_geometry is geometry.build_geometry
        assert np.einsum is not before[("numpy", "einsum")]
        assert np.fft.rfft.__wrapped__ is before[("numpy.fft", "rfft")]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_readme_build_counts():
    deform = traced("deform-check")["geometry.build_geometry"]
    assert (deform["calls"], len(deform["digests"])) == (37, 7)
    linearize = traced("linearize")["geometry.build_geometry"]
    assert (linearize["calls"], len(linearize["digests"])) == (5, 3)


def test_traced_counts_repeat_exactly():
    first, second = traced("omega"), traced("omega")
    assert tracing.counts({"omega": first}) == tracing.counts({"omega": second})
    coef = first["dynamics.operator_coefficients"]
    assert (coef["hits"], coef["calls"]) == (19, 20)
    current = first["symplectic.bilinear_current"]
    # every current under symplectic_form integrates one of the 129 rows
    assert current["rows_used"] * 129 == current["rows_computed"]


def test_absent_target_is_reported_not_fatal(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + ("grid.renamed_away",))
    with tracing.Tracer() as tracer:
        pass
    assert tracer.absent == ["grid.renamed_away"]
    metrics = run.layer_metrics([tracing.aggregate([])], tracer.absent)
    assert not any(name.startswith("grid.renamed_away") for name in metrics)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {f"{kind}_s" for kind in KINDS} | {"sweep_s", "setup_s", "peak_rss_mb"}
    assert {m["name"] for m in spec["end_to_end"]} == e2e
    layers = set(run.layer_metrics([{"geometry": traced("geometry")}], []))
    assert {m["name"] for m in spec["per_layer"]} == layers | {"trace.overhead_s"}
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_missed_anchor_counts_as_failure():
    report = {"results": {"omega": {"beta=0.0": {"row=32": -6.0, "row=64": -6.0, "row=96": -6.0}}}}
    assert failure("readme", "omega", Outcome(0, json.dumps(report)))
    report["results"]["omega"]["beta=0.0"]["row=64"] = -6.2831
    assert failure("readme", "omega", Outcome(0, json.dumps(report))) is None
    assert failure("readme", "eom", Outcome(3, "numerical failure")) == "exit 3"


def test_ledger_counts_each_config_once():
    """Repeats are timing samples: the counts do not grow with the run's length."""
    ledger = run.Ledger("folded")
    for _ in range(3):
        ledger.record("omega", Outcome(3, "numerical failure: every row is masked"))
        ledger.record("eom", Outcome("crash", "Traceback"))
    assert (ledger.attempted, ledger.failed, ledger.runs) == (2, 2, 6)
    assert not ledger.correct
    ledger = run.Ledger("folded")
    ledger.record("omega", Outcome(3, "a"))
    ledger.record("omega", Outcome(3, "b"))
    assert ledger.problems == ["omega: a repeat gave a different outcome"]


def test_benchmark_imports_no_backend():
    """The compiled-stencil backend can be deleted without touching the benchmark."""
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("backend" in n or "_kernels" in n for n in names), path


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "folded", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
