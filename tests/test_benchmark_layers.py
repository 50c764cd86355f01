"""The benchmark reaches the package by name.

perfbench/spans.py lists each layer as (module, function name) pairs and
rebinds those names while it traces.  A function that is renamed, moved
or re-exported from another module would silently drop out of its layer,
so every pair must still name a function defined in that module.  The
workloads and the scripts under benchmarks/ read package attributes and
import names from package modules, and each of those must still resolve.
"""

import ast
import collections
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import bergpoly
from bergpoly import render

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return [(layer, mod, name) for layer, targets in _spans().LAYERS.items()
            for mod, name in targets]


@pytest.mark.parametrize("layer, module, name", _layers())
def test_layer_function_is_defined_in_its_module(layer, module, name):
    fn = getattr(importlib.import_module(module), name)
    assert fn.__module__ == module, f"{layer}: {module}.{name} comes from {fn.__module__}"




def _library_names():
    """(file, module, attribute chain) for every bergpoly.<attr>[.<attr>...]
    read, and every name imported from a bergpoly module, in the sources
    of perfbench/ and benchmarks/."""
    found = set()
    for path in sorted([*ROOT.joinpath("perfbench").glob("*.py"),
                        *ROOT.joinpath("benchmarks").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                text = ast.unparse(node)
                if re.fullmatch(r"bergpoly(\.\w+)+", text):
                    found.add((path.name, "bergpoly", text.partition(".")[2]))
            elif (isinstance(node, ast.ImportFrom)
                  and re.fullmatch(r"bergpoly(\.\w+)*", node.module or "")):
                found.update((path.name, node.module, a.name) for a in node.names)
    return sorted(found)


@pytest.mark.parametrize("source, module, chain", _library_names())
def test_benchmark_library_name_resolves(source, module, chain):
    # `pytest perfbench` is not part of this suite, so without this test a
    # package name that the benchmark reads and a change deletes would
    # first show up as a failed benchmark run
    obj = importlib.import_module(module)
    for attr in chain.split("."):
        if not hasattr(obj, attr) and isinstance(obj, types.ModuleType):
            name = f"{obj.__name__}.{attr}"
            if importlib.util.find_spec(name) is not None:
                importlib.import_module(name)
        assert hasattr(obj, attr), f"{source}: {module}.{chain} does not resolve at {attr!r}"
        obj = getattr(obj, attr)


@pytest.mark.parametrize("build", [
    lambda: bergpoly.assemble_kernel(bergpoly.IntMatrix(((2, -1), (0, 1)))),
    lambda: bergpoly.kernel_unimodular(bergpoly.prepare(bergpoly.IntMatrix(((1, -1), (0, 1))))),
    lambda: bergpoly.kernel_dim2(bergpoly.prepare(bergpoly.IntMatrix(((3, -2), (-1, 1))))),
    lambda: bergpoly.kernel_signature_one(bergpoly.SignatureOneSpec((2, 3, 5))),
    lambda: bergpoly.kernel_generalized_hartogs(bergpoly.GeneralizedHartogsSpec((2, 3, 1))),
], ids=["assemble_kernel", "kernel_unimodular", "kernel_dim2", "kernel_signature_one",
        "kernel_generalized_hartogs"])
def test_benchmark_reads_of_a_form_resolve(build):
    # perfbench/spans.py counts box.volume() and the numerator's terms;
    # perfbench/workloads.py compares n, pi_exponent, prefactor, the
    # numerator's items() and each factor's items()
    form = build()
    assert form.box.volume() >= len(form.numerator) > 0
    assert form.pi_exponent == -form.n
    assert form.prefactor > 0
    assert all(type(c) is int for _, c in form.numerator.items())
    assert all(len(f.items()) == 2 for f in form.factors)


def test_benchmark_reads_of_a_report_resolve(worked_vm):
    # perfbench/spans.py counts the window's points and the report's
    # `checked`; perfbench/workloads.py reads `checked`, `matched` and
    # `mismatches` from the JSON of `bergpoly verify`
    window = bergpoly.Window.cube(2, 3)
    report = bergpoly.compare_with_closed_form(worked_vm, window)
    box = [h - l + 1 for l, h in zip(report.safe_lower, report.safe_upper)]
    assert report.checked == box[0] * box[1] > 0
    assert report.matched == report.checked and report.ok
    counts = collections.defaultdict(int)
    _spans()._count("compare_with_closed_form", (worked_vm, window), {}, report, counts)
    assert counts == {"oracle.window_points": 49, "oracle.checked_points": report.checked}
    data = render.report_to_json_dict(report)
    assert (data["checked"], data["matched"], data["mismatches"]) == (
        report.checked, report.checked, [])
