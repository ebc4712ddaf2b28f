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


def test_traced_table_solve_keeps_its_counters(perfbench, tmp_path, capsys):
    """``--trace 1`` reads the table's counters from ``build_dp``'s
    arguments and replays the largest call; a change of either must not
    make the counter hooks fail or the replay read nothing."""
    from dwcolor import cli, formats, fpt, kernel
    from dwcolor.formats import serialize_dwc
    from dwcolor.instances import bench_instance

    path = tmp_path / "table.dwc"
    path.write_text(serialize_dwc(bench_instance(200, 6, 1)), encoding="ascii")
    tracer = perfbench("spans").Tracer()
    tracer.install({"cli": cli, "formats": formats, "fpt": fpt, "kernel": kernel})
    try:
        assert cli.main(["solve", str(path), "--emit-certificate"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert not tracer.absent and not tracer.hook_errors
    assert tracer.counts["fpt.active_layers"] > 0
    assert tracer.build_dp_peak_mb(fpt.build_dp) > 0
