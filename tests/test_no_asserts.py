"""No library cross-check may be an `assert`: `python -O` strips those, so every
check in src/powerstruct raises a named error instead."""

import ast
from pathlib import Path

import powerstruct

SOURCES = sorted(Path(powerstruct.__file__).resolve().parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
