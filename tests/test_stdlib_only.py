"""The library imports nothing outside the standard library, and its modules import
each other at module level only, without a cycle."""

from __future__ import annotations

import ast
import graphlib
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "quograph").glob("*.py"))


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
