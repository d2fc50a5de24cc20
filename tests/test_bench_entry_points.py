"""The benchmark tracer wraps package functions by name; each must exist.

``perfbench/tracer.py`` replaces the entry points it lists with timing
wrappers, and a renamed or deleted one fails only when the benchmark
installs the tracer.  This check fails in the test-suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, name, *_ in tracer.ENTRY_POINTS]


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("module, name", ENTRY_POINTS, ids=[f"{m}.{n}" for m, n in ENTRY_POINTS])
def test_entry_point_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ctrwpricer.{module}"), name))
