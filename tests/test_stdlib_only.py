"""The library imports nothing outside the standard library, and its modules import
each other at module level only, without a cycle; it defines and exports nothing,
and its exported classes have no public method, that only the tests use; no nested
function of it refers to itself, and the graph and map loaders leave the document's
items to Graph and HomMap."""

from __future__ import annotations

import ast
import graphlib
import re
import sys
from pathlib import Path

import pytest

import quograph

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "quograph").glob("*.py"))
README = (ROOT / "README.md").read_text()


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def absolute_imports(path: Path) -> list[str]:
    """Top-level module of every absolute import in a source file."""
    names = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_quograph(path):
    outside = [n for n in absolute_imports(path) if n != "quograph" and n not in sys.stdlib_module_names]
    assert outside == []


def relative_imports(tree: ast.Module) -> list[tuple[ast.ImportFrom, list[str]]]:
    """Each relative import in a parsed source file, with the quograph modules it names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.append((node, [node.module] if node.module else [alias.name for alias in node.names]))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_relative_imports_are_module_level(path):
    tree = parse(path)
    nested = [node.lineno for node, _ in relative_imports(tree) if not any(node is stmt for stmt in tree.body)]
    assert nested == []


def test_relative_import_graph_is_acyclic():
    graph = {path.stem: {name for _, names in relative_imports(parse(path)) for name in names} for path in SOURCES}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_every_top_level_definition_is_used():
    # Code only the tests use belongs in tests/: each module-level function
    # or class is named in the code (a docstring does not count) or exported.
    trees = [parse(path) for path in SOURCES]
    used = set(quograph.__all__)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert sorted(defined - used) == []


# Exports that neither library code nor README.md names, each with its reason.
UNREFERENCED_EXPORTS = {
    # perfbench/layers.py times it; it moves to tests/reference.py once the
    # benchmark times verify._index_maps, which the sweeps use
    "enumerate_homs",
}


def names_in_code() -> set[str]:
    """Every name and attribute the library's code refers to, bar
    ``__init__.py``, which names every export only to re-export it."""
    used = set()
    for path in SOURCES:
        if path.name != "__init__.py":
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def in_readme(name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", README) is not None


def test_every_export_is_used_or_documented():
    # An export that only the tests call is test code: it belongs in tests/.
    used = names_in_code()
    unreferenced = {n for n in quograph.__all__ if n not in used and not in_readme(n)}
    assert unreferenced == UNREFERENCED_EXPORTS


def test_every_public_method_is_used_or_documented():
    # The export rule one level down: each public method or property of an
    # exported class is named by library code or by README.md.
    used = names_in_code()
    unreferenced = [
        f"{cls.name}.{item.name}"
        for path in SOURCES
        for cls in parse(path).body
        if isinstance(cls, ast.ClassDef) and cls.name in quograph.__all__
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in used
        and not in_readme(item.name)
    ]
    assert unreferenced == []


def self_calling_nested_functions(tree: ast.Module) -> list[str]:
    """Each function defined inside another whose body names itself.

    Such a function reaches itself through its closure cell, so every call
    of the enclosing function leaves a reference cycle (function, cell,
    function) that only the cyclic collector frees; ``cli.main`` pauses
    that collector.
    """
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = {n.id for stmt in inner.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            if inner.name in names:
                found.append(f"{inner.name} (line {inner.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_nested_function_refers_to_itself(path):
    assert self_calling_nested_functions(parse(path)) == []


def test_self_reference_check_finds_a_recursive_closure():
    tree = ast.parse("def outer():\n    def rec(i):\n        return rec(i - 1) if i else 0\n    return rec(3)\n")
    assert self_calling_nested_functions(tree) == ["rec (line 2)"]


# Loops, comprehensions and the io helpers that walk a document's items.
ITEM_WALKS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
ITEM_CHECKS = {"_expect_labels", "_all_of"}


def item_walks(function: ast.FunctionDef) -> list[str]:
    """Each loop, comprehension or call of an item check in a function, by line."""
    found = []
    for node in ast.walk(function):
        if isinstance(node, ITEM_WALKS):
            found.append((node.lineno, type(node).__name__))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ITEM_CHECKS:
            found.append((node.lineno, node.func.id))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("name", ["graph_from_dict", "hom_from_dict"])
def test_graph_and_map_loaders_check_only_the_envelope(name):
    # Graph and HomMap name the first faulty item in document order, so a
    # walk over the items in the loader would check each of them twice.
    tree = parse(ROOT / "src" / "quograph" / "io.py")
    [function] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
    assert item_walks(function) == []


def test_item_walk_check_finds_a_loader_walk():
    source = (
        "def load(data):\n"
        "    if not _all_of(list, data):\n"
        "        for e in data:\n"
        "            _expect_labels(e, 'edge endpoint')\n"
        "    return [x for x in data]\n"
    )
    [function] = ast.parse(source).body
    assert item_walks(function) == ["_all_of (line 2)", "For (line 3)", "_expect_labels (line 4)", "ListComp (line 5)"]
