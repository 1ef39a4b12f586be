"""Every name a module imports is read in that module: an import left
behind by a refactor fails here. `from __future__ import annotations` and
names a module lists in `__all__` are exempt.

And the package holds only what runs: every function, class and method
defined under src/nutsearch is named somewhere in the package or in the
benchmark's own modules (perfbench/*.py), so code that only the tests
call lives in the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nutsearch").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
# the benchmark's modules, whose calls count as uses (its tests do not)
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree) -> dict[str, int]:
    """name bound by an import -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _assigned(tree, name: str):
    """The value of a top-level `name = ...` assignment, or None."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name
                        for t in node.targets)):
            return node.value
    return None


def _exported(tree) -> set[str]:
    value = _assigned(tree, "__all__")
    return set(ast.literal_eval(value)) if value is not None else set()


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = {name: line for name, line in _imported(tree).items()
              if name not in read and name not in _exported(tree)}
    assert not unread, f"imported but never read: {unread}"


def _named(tree) -> set[str]:
    """Every name a module uses: a name, an attribute, an import, an
    `__all__` entry, and each part of a dotted string in the tracer's
    `TARGETS` table (how perfbench wraps a method it never calls)."""
    out = set(_exported(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    targets = _assigned(tree, "TARGETS")
    if targets is not None:
        for node in ast.walk(targets):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(node.value.split("."))
    return out


def test_every_package_definition_is_named():
    named = set()
    for path in [*PACKAGE, *BENCHMARK]:
        named |= _named(ast.parse(path.read_text(encoding="utf-8")))
    unnamed = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name not in named and node.name != "main"
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                unnamed.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unnamed, ("defined under src/nutsearch but named nowhere in "
                         f"it or in perfbench: {unnamed}")
