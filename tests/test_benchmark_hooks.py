"""The benchmark's tracer wraps package functions by module attribute; a
renamed function would only be reported as absent and its span's metrics
would silently drop out of a traced run."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Import a benchmark module by name, as ``perfbench/run.py`` does."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("spans", "speed", "checks", "workloads")
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module
    for name in names:
        sys.modules.pop(name, None)


def test_benchmark_hooks_are_attached(perfbench):
    spans = perfbench("spans")
    assert spans.SPANNED and spans.COUNTED
    for mod, attr, name in spans.SPANNED + spans.COUNTED:
        module = importlib.import_module(f"dwcolor.{mod}")
        assert callable(getattr(module, attr, None)), f"{name}: dwcolor.{mod}.{attr} is gone"
    perfbench("checks")
    perfbench("workloads")
