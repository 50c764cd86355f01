"""Per-layer spans recorded from outside the program.

While a Tracer is installed, each public function listed in LAYERS is
replaced, in every bergpoly module that binds it, by a wrapper that
records a span (name, parent, start, end) and adds the call's time to its
layer's total.  A layer counts only its outermost call, so a nested call
of the same layer is not counted twice; totals are inclusive of any other
layer called inside.  Spans stay in memory until the benchmark writes
them out at the end.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

# layer metric -> the functions (module, name) whose calls it totals
LAYERS = {
    "int_linalg.prepare_ms": (("bergpoly.int_linalg", "prepare"),),
    "kernel.numerator_ms": (("bergpoly.kernel", "numerator_polynomial"),),
    "kernel.canonicity_ms": (("bergpoly.kernel", "canonicity_check"),),
    "kernel.assemble_ms": (("bergpoly.kernel", "assemble_kernel"),),
    "render.json_ms": (("bergpoly.render", "form_to_json_dict"), ("bergpoly.render", "dumps")),
    # Every window fill goes through fill_products, which is all that
    # oracle_series does; the CLI reaches it only inside the compare.
    "oracle.fill_ms": (("bergpoly.oracle", "oracle_series"), ("bergpoly._backend", "fill_products")),
    "oracle.compare_ms": (("bergpoly.oracle", "compare_with_closed_form"),),
    "oracle.spot_check_ms": (("bergpoly.oracle", "numeric_spot_check"),),
    "special.formula_ms": tuple(
        ("bergpoly.special", name)
        for name in ("kernel_unimodular", "kernel_dim2", "kernel_signature_one",
                     "kernel_generalized_hartogs")
    ),
    "kernel.same_kernel_ms": (("bergpoly.kernel", "same_kernel"),),
}

COUNTS = (
    "kernel.box_points",
    "kernel.numerator_terms",
    "oracle.window_points",
    "oracle.checked_points",
    "render.json_bytes",
)


def _count(name, args, kwargs, result, counts):
    """Input-size counters, read off the arguments and results."""
    if name == "assemble_kernel":
        counts["kernel.box_points"] += result.box.volume()
        counts["kernel.numerator_terms"] += len(result.numerator)
    elif name == "compare_with_closed_form":
        window = args[1] if len(args) > 1 else kwargs["window"]
        counts["oracle.window_points"] += math.prod(
            u - l + 1 for l, u in zip(window.lower, window.upper))
        counts["oracle.checked_points"] += result.checked
    elif name == "dumps":
        counts["render.json_bytes"] += len(result)


class Tracer:
    """Spans and per-layer totals of the rounds run while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.round = 0
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._ms: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple] = []

    def _wrap(self, layer, fn):
        name = fn.__name__

        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            self._depth[layer] += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._depth[layer] -= 1
                self._stack.pop()
                self.spans[span_id] = (self.round, span_id, parent, f"{fn.__module__}.{name}",
                                       start, end)
                if self._depth[layer] == 0:
                    self._ms[layer] += (end - start) / 1e6
            _count(name, args, kwargs, result, self._counts)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "bergpoly" or k.startswith("bergpoly."))]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                fn = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(layer, fn)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, fn))
        return self

    def __exit__(self, *exc):
        for module, key, fn in reversed(self._patched):
            setattr(module, key, fn)
        self._patched.clear()
        return False

    def take_round(self) -> dict[str, float]:
        """Layer totals and counts since the last call; starts a new round."""
        out = {layer: self._ms.get(layer, 0.0) for layer in LAYERS}
        out.update({name: self._counts.get(name, 0) for name in COUNTS})
        boxes = out["kernel.box_points"]
        out["kernel.support_fill"] = out["kernel.numerator_terms"] / boxes if boxes else 0.0
        self._ms.clear()
        self._counts.clear()
        self.round += 1
        return out
