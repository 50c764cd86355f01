"""Every module-level import of the package, the tests and the benchmark
scripts is used: the name it binds is read somewhere in the module, as a
name or inside a string annotation.  No linter ships with the toolchain,
so this is the check."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    [p for p in ROOT.joinpath("src", "bergpoly").glob("*.py") if p.name != "__init__.py"]
    + list(ROOT.joinpath("tests").glob("*.py"))
    + list(ROOT.joinpath("benchmarks").glob("*.py"))
)


def _bound_names(tree: ast.Module):
    """(name, line) for each name a top-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _read_names(tree: ast.Module) -> set[str]:
    """Every ast.Name of the module, and those of its string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_imports_are_used(path):
    tree = ast.parse(path.read_text())
    read = _read_names(tree)
    unused = [f"{name} (line {line})" for name, line in _bound_names(tree) if name not in read]
    assert not unused, f"unused imports: {', '.join(unused)}"
