"""The benchmark's tracer wraps package functions by name and silently skips a
name that is missing, so a renamed or deleted function would leave its traced
metric reading 0.  These names must exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"

# Forecasts that became test oracles (tests/oracles.py); their wraps go with
# the next change to the benchmark.
KNOWN_STALE = {("interpolator", "forecast"), ("interpolator", "backward_forecast")}


def _wrapped_names() -> set[tuple[str, str]]:
    """(module, attribute) of every ``_wrap(module, "attribute", ...)`` call."""
    return {
        (call.args[0].id, call.args[1].value)
        for call in ast.walk(ast.parse(TRACING.read_text(encoding="utf8")))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_wrap"
        and isinstance(call.args[0], ast.Name)
        and isinstance(call.args[1], ast.Constant)
    }


def test_every_traced_name_exists_in_the_package():
    wrapped = _wrapped_names()
    assert len(wrapped) > 10  # the parse found the calls
    missing = {
        (module, attr)
        for module, attr in wrapped
        if not hasattr(importlib.import_module(f"track_enrich.{module}"), attr)
    }
    assert missing == KNOWN_STALE
