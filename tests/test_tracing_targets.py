"""The benchmark's traced functions still exist in the package.

``perfbench/tracing.py`` patches every ``(module, function)`` of its
``TARGETS`` by name; a refactor that renames or moves one of them would
only show up when a traced benchmark run raises. This test imports the
file by path and resolves each target.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    targets = _tracing_module().TARGETS
    assert targets
    for module_name, function, *_ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, function, None)), \
            f"{module_name}.{function} is traced but does not exist"
