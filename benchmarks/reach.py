"""Package functions and lines that no benchmark input reaches.

    python3 benchmarks/reach.py --seeds 1 2

Runs, under a trace hook (sys.settrace), every CLI call that
benchmarks/output_digest.py builds for the given seeds, then one round of
each perfbench workload at the first seed through workloads.run_op, in
process on the bergpoly in this checkout's `src/`.

It prints two lists.  The first holds every function and method defined
in `src/bergpoly` that no call entered, with its line count (from its
`def` line to its last line, decorators excluded).  The second holds,
for every function that was entered, the lines of its body that never
ran, one line per function:

    tent.py:61   tent.tent  4 of 10 lines: 65 68-70

that is, 4 of the function's 10 lines hold code that never ran: line 65
and lines 68 to 70.  A span runs on over lines that hold no code.  A
function's body lines are the lines its
code object (and the comprehensions and lambdas inside it, not its
nested functions) attributes instructions to, less its first line.
Totals follow each list.  A function or line listed here is reached by
no command, benchmark operation or witness; it is either a reference
that the tests compare against, library API, a guard against input the
program never builds, or dead code.  perfbench is imported, never
changed.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import defaultdict
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


def body_lines() -> dict[tuple[str, int], set[int]]:
    """(file, first line of its code object) -> the lines that code object
    and its comprehensions and lambdas attribute instructions to, less the
    first line, for every function in the package."""
    out = {}

    def lines(code) -> set[int]:
        found = {line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if isinstance(const, type(code)) and const.co_name.startswith("<"):
                found |= lines(const)
        return found

    def visit(code, top: bool) -> None:
        if not top and not code.co_name.startswith("<"):
            key = (code.co_filename, code.co_firstlineno)
            out[key] = lines(code) - {code.co_firstlineno}
        for const in code.co_consts:
            if isinstance(const, type(code)):
                visit(const, False)

    for path in sorted(PACKAGE.glob("*.py")):
        path = path.resolve()
        visit(compile(path.read_text(), str(path), "exec"), True)
    return out


def _ranges(lines: list[int], body: set[int]) -> str:
    """Sorted line numbers as "206 209-216": a span runs on over lines
    that are not in body (blank lines, comments, a bare `else:`)."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and not body.intersection(range(spans[-1][1] + 1, line)):
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = p.parse_args(argv)

    functions = package_functions()
    bodies = body_lines()
    package = str(PACKAGE.resolve())
    entered: set[tuple[str, int]] = set()
    ran: dict[str, set[int]] = defaultdict(set)

    def trace(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(package):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        seen = ran[code.co_filename]

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
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
        sys.settrace(None)

    missed = sorted((key, functions[key]) for key in functions.keys() - entered)
    print(f"CLI calls {len(calls)} (seeds {' '.join(map(str, args.seeds))}), "
          f"workload ops {len(ops)} (seed {args.seeds[0]})")
    for (path, line), (name, lines) in missed:
        print(f"  {Path(path).name}:{line:<4} {name}  {lines}")
    print(f"never entered: {len(missed)} of {len(functions)} functions, "
          f"{sum(lines for _, (_, lines) in missed)} lines")

    partial = [(key, sorted(bodies[key] - ran[key[0]]))
               for key in sorted(entered & functions.keys())]
    partial = [(key, never) for key, never in partial if never]
    for (path, line), never in partial:
        name, lines = functions[(path, line)]
        print(f"  {Path(path).name}:{line:<4} {name}  "
              f"{len(never)} of {lines} lines: {_ranges(never, bodies[(path, line)])}")
    print(f"never run in entered functions: {sum(len(n) for _, n in partial)} lines "
          f"in {len(partial)} functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
