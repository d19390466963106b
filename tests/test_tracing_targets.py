"""The benchmark's traced functions still exist in the package, and a
hearth run still calls them.

``perfbench/tracing.py`` patches every ``(module, function)`` of its
``TARGETS`` by name; a refactor that renames or moves one of them, or
stops calling it, would only show up when a traced benchmark run fails.
These tests import the benchmark files by path, resolve each target and
trace one coarse hearth run and coarse runs of the MMS studies.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

from axitherm import cli
from axitherm import verification as ver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(monkeypatch, name, path):
    """Import ``path`` as module ``name``, registered in sys.modules for
    the test (workloads.py imports tracing.py as ``tracing``, and its
    dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    targets = _load(monkeypatch, "tracing", TRACING).TARGETS
    assert targets
    for module_name, function, *_ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function, None)), \
            f"{module_name}.{function} is traced but does not exist"


def test_every_hearth_span_fires(monkeypatch, tmp_path):
    tracing = _load(monkeypatch, "tracing", TRACING)
    workloads = _load(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    tracer = tracing.Tracer()
    with tracing.tracing(tracer):
        # through the module attribute, which is what tracing patches
        cli.run_scenario(cli.RunConfig(target_h=0.5, isoline_levels=[1423.0],
                                       output_dir=str(tmp_path)))
    fired = {name for name, (_, calls) in tracer.spans.items() if calls}
    missing = workloads.HEARTH_SPANS - fired
    assert not missing, f"spans that no longer fire: {sorted(missing)}"


def test_every_mms_span_fires(monkeypatch):
    tracing = _load(monkeypatch, "tracing", TRACING)
    workloads = _load(monkeypatch, "workloads", PERFBENCH / "workloads.py")
    case = workloads.mms_case(0)
    levels = (1 / 4, 1 / 8, 1 / 16)
    tracer = tracing.Tracer()
    with tracing.tracing(tracer):
        # the studies the workload runs, at coarse levels
        ver.mms_thermal_study(case.thermal, levels)
        ver.mms_mechanical_study(case.mechanical, levels)
        ver.annulus_study(subdivisions=(4, 8, 16))
    fired = {name for name, (_, calls) in tracer.spans.items() if calls}
    missing = workloads.MMS_SPANS - fired
    assert not missing, f"spans that no longer fire: {sorted(missing)}"
