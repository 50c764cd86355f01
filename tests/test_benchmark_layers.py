"""The benchmark's per-layer spans wrap package functions by name.

perfbench/spans.py lists each layer as (module, function name) pairs and
rebinds those names while it traces.  A function that is renamed, moved
or re-exported from another module would silently drop out of its layer,
so every pair must still name a function defined in that module.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(layer, mod, name) for layer, targets in module.LAYERS.items()
            for mod, name in targets]


@pytest.mark.parametrize("layer, module, name", _layers())
def test_layer_function_is_defined_in_its_module(layer, module, name):
    fn = getattr(importlib.import_module(module), name)
    assert fn.__module__ == module, f"{layer}: {module}.{name} comes from {fn.__module__}"
