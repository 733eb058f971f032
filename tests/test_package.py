"""Source-level rules for the package: no catch-all handlers, no assert."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "faberzol")
                 .glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def _violations(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None:
                found.append((node.lineno, "bare except"))
            elif any(isinstance(n, ast.Name) and n.id in CATCH_ALL
                     for n in names):
                found.append((node.lineno, "catch-all except"))
        elif isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
    return found


def test_sources_are_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handlers_or_asserts(path):
    assert _violations(path) == []
