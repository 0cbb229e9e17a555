"""The span targets of the perfbench tracer name callables in stringlab.

The tracer skips a target that no longer resolves, so a renamed or deleted
function drops its metrics from the per-layer result line while the traced
run still exits 0.  ``TARGETS`` is read from the tracer's source with ``ast``,
without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_targets() -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "TARGETS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


@pytest.mark.parametrize("target", tracing_targets())
def test_tracing_target_is_a_stringlab_callable(target):
    module_name, function_name = target.split(".")
    module = importlib.import_module(f"stringlab.{module_name}")
    assert callable(getattr(module, function_name, None)), target
