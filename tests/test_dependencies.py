"""The package imports nothing outside the standard library and numpy,
and exports what its __all__ names."""
import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

import qfci

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "qfci").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qfci"}


def _imported_roots(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_or_numpy(path):
    roots = set(_imported_roots(ast.parse(path.read_text(encoding="utf-8"))))
    assert roots - ALLOWED == set()


def test_sources_found():
    assert len(SOURCES) > 5


def test_all_names_resolve_once():
    assert [n for n, count in Counter(qfci.__all__).items() if count > 1] == []
    assert [n for n in qfci.__all__ if not hasattr(qfci, n)] == []
