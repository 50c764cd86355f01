"""Package functions that no benchmark input reaches.

    python3 benchmarks/reach.py --seeds 1 2

Runs, under a profile hook (sys.setprofile, and threading.setprofile for
the fill's worker threads), every CLI call that
benchmarks/output_digest.py builds for the given seeds, then one round of
each perfbench workload at the first seed through workloads.run_op, in
process on the bergpoly in this checkout's `src/`.
It prints every function and method defined in `src/bergpoly` that no
call entered, with its line count (from its `def` line to its last line,
decorators excluded), and the totals.  A function listed here is reached
by no command, benchmark operation or witness; it is either a reference
that the tests compare against, library API, or dead code.
perfbench is imported, never changed.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bergpoly"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def package_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line of its code object) -> (qualified name, line count)
    for every function and method in the package, nested ones included."""
    out = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code object starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[(str(path), first)] = (name, child.end_lineno - child.lineno + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(), path.stem + ".")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = p.parse_args(argv)

    functions = package_functions()
    entered: set[tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        import output_digest
        import workloads

        calls = output_digest.cli_calls(args.seeds)
        for call in calls:
            output_digest.run_call(call)
        ops = [op for workload in workloads.WORKLOADS
               for op in workloads.make_ops(workload, args.seeds[0])]
        for op in ops:
            workloads.run_op(op)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    missed = sorted((key, functions[key]) for key in functions.keys() - entered)
    print(f"CLI calls {len(calls)} (seeds {' '.join(map(str, args.seeds))}), "
          f"workload ops {len(ops)} (seed {args.seeds[0]})")
    for (path, line), (name, lines) in missed:
        print(f"  {Path(path).name}:{line:<4} {name}  {lines}")
    print(f"never entered: {len(missed)} of {len(functions)} functions, "
          f"{sum(lines for _, (_, lines) in missed)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
