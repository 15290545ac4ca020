"""The package imports nothing outside the standard library and numpy."""
import ast
import sys
from pathlib import Path

import pytest

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
