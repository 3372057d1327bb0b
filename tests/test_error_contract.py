"""Every error the package raises on purpose is typed: no plain ValueError or
TypeError is raised anywhere under ``src/tritune``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "tritune").glob("*.py"))
UNTYPED = {"ValueError", "TypeError"}


def _raised_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of every ``raise Name`` or ``raise Name(...)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.append((node.lineno, exc.id))
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"equal.py", "intervals.py", "ratio.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_plain_value_or_type_error(path):
    raised = _raised_names(ast.parse(path.read_text(encoding="utf-8")))
    assert [(line, name) for line, name in raised if name in UNTYPED] == []


def test_the_check_sees_plain_raises():
    tree = ast.parse("def f():\n    raise ValueError('x')\n\ndef g():\n    raise TypeError\n")
    assert _raised_names(tree) == [(2, "ValueError"), (5, "TypeError")]
