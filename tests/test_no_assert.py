"""The library's certificates are explicit raises: `python -O` strips
assert statements, and a certificate written as one would silently stop
checking."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tropabel"


def test_library_has_no_assert_statement():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
