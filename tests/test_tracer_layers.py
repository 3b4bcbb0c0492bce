"""The benchmark tracer's layer table still names functions of the package.

``perfbench/tracer.py`` rebinds each ``(module, attr)`` of its ``LAYERS``
table for a ``--trace 1`` run.  A layer function that is renamed, removed
or moved to another module would only show up there, as a failed traced
run or a layer that reads zero; this test reads the table and resolves
every entry against the package instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


_MODULE = _tracer_module()


@pytest.mark.parametrize("layer", _MODULE.LAYERS, ids=lambda layer: f"{layer.module}.{layer.attr}")
def test_every_layer_resolves_to_a_function_defined_in_its_module(layer):
    owner, attr = _MODULE._resolve(layer)
    function = inspect.getattr_static(owner, attr)
    assert inspect.isfunction(function)
    assert function.__module__ == layer.module
