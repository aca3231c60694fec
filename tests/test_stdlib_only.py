"""The engine imports nothing outside the standard library, and its
modules form layers: each imports only the modules before it, at its top."""

import ast
import sys
from pathlib import Path

import graphdet

SOURCES = sorted(Path(graphdet.__file__).parent.glob("*.py"))


def test_engine_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


# Each module imports only modules before it in this order.
LAYERS = ["graphs", "poly", "algebra", "laplace", "potts", "verify", "cli"]


def _package_modules(node) -> list[str]:
    """The graphdet modules that an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module == "graphdet":
        return [a.name for a in node.names]
    names = [node.module] if isinstance(node, ast.ImportFrom) else [
        a.name for a in node.names
    ]
    return [name.split(".")[1] for name in names if name.startswith("graphdet.")]


def test_modules_import_only_earlier_modules_and_only_at_top_level():
    modules = [p for p in SOURCES if p.stem not in ("__init__", "__main__")]
    assert sorted(p.stem for p in modules) == sorted(LAYERS)
    upward, in_functions = [], []
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                upward += [
                    (path.stem, node.lineno, name)
                    for name in _package_modules(node)
                    if LAYERS.index(name) >= LAYERS.index(path.stem)
                ]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                in_functions += [
                    (path.stem, inner.lineno)
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                ]
    assert upward == []
    assert in_functions == []
