"""The engine imports nothing outside the standard library, its modules
form layers: each imports only the modules before it, at its top, and the
package exports exactly the public names listed here."""

import ast
import sys
from pathlib import Path
from types import ModuleType

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
LAYERS = ["graphs", "poly", "oracles", "algebra", "laplace", "potts", "verify", "cli"]


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


# The only package names the oracles read: a graph type and the polynomials,
# nothing of the engine (classification, the class walk, the class sums,
# laplace, the position operators, pairing) that the checks compare them with.
ORACLE_IMPORTS = [("graphs", "DirectedGraph"), ("poly", "MultiPoly"), ("poly", "w")]


def test_oracles_read_no_engine_code_and_only_verify_reads_them():
    imports, readers = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            modules = _package_modules(node)
            if path.stem == "oracles":
                imports += [(m, a.name) for m in modules for a in node.names]
            if "oracles" in modules:
                readers.append(path.stem)
    assert sorted(imports) == ORACLE_IMPORTS
    assert readers == ["verify"]


PUBLIC = [
    "CapExceeded", "DirectedGraph", "FormalSum", "GradedElement",
    "GraphClassification", "GraphFormatError", "MultiPoly", "SymmetricSum",
    "UndirectedGraph", "Variable", "WeightMatrix", "b_op", "beta0", "beta1",
    "classify", "concat_product", "count_orientations", "determinant",
    "enumerate_class", "enumerate_graphs", "enumerate_undirected", "forget",
    "forget_sum", "format_formal_sum", "format_graph", "laplace",
    "laplace_matrix", "minor", "orientations", "pairing", "parse_formal_sum",
    "parse_graph", "shave", "theta", "tutte", "u_sum", "universal_codim1",
    "universal_det", "universal_potts", "w", "x_sum",
]


def test_public_names_are_exactly_the_listed_ones():
    exported = sorted(
        name for name in dir(graphdet)
        if not name.startswith("_")
        and not isinstance(getattr(graphdet, name), ModuleType)
    )
    assert exported == PUBLIC
