"""The engine computes in exact arithmetic only.

Coefficients are ints while they are integers, so a ``/`` between two of
them would give a float; an exact quotient is written ``Fraction(a, b)``.
"""

import ast
from pathlib import Path

import graphdet

SOURCES = sorted(Path(graphdet.__file__).parent.glob("*.py"))


def _float_sites(tree: ast.AST) -> list[tuple[int, str]]:
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            sites.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append((node.lineno, "name float"))
    return sorted(sites)


def test_float_sites_are_found():
    code = "a = b / c\nb /= 2\nx = 0.5\ny = float(z)\nq = Fraction(a, b) // 2\n"
    assert _float_sites(ast.parse(code)) == [
        (1, "true division"),
        (2, "true division"),
        (3, "float literal 0.5"),
        (4, "name float"),
    ]


def test_engine_has_no_division_or_float():
    assert SOURCES
    found = [
        (path.name, line, what)
        for path in SOURCES
        for line, what in _float_sites(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
