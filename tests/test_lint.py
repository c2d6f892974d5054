"""Source-level rules for the library.

No ``assert`` in src/anyondeg: ``python -O`` strips asserts, so a
self-check written as one would vanish there, and where it stays it
ends in a traceback rather than the CLI's exit code 3.  Self-checks
raise ArithmeticError instead.

Imports sit at module top, with no exception, and no module imports
numpy: the library runs on the standard library alone, and numpy is
left to the test oracles.

One edge table: ``lattice.predecessors`` is called only where
``lattice.class_predecessors`` builds the table that every walk count
reads, and where ``genfunc.build_system`` fills the full matrix, so no
module grows a second predecessor list of its own.

One walk-count loop: every walk count, the system determinant's closed
walks too, comes from ``pathcount._sweep`` over that table, padded to
three predecessors per vertex; ``spectral._perron_apply`` takes the same
three padded steps on float vectors, to apply the Perron block B and
its transpose for Lanczos.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "anyondeg"


def _trees():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in modules]


def test_no_assert_statements_in_the_library():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _imported(node):
    """The module names an import statement names; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "."]
    return []


def test_imports_at_module_top():
    found = [(name, func.name, module) for name, tree in _trees()
             for func in ast.walk(tree)
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func) for module in _imported(node)]
    assert found == []


def test_no_numpy_imports():
    found = [(name, module) for name, tree in _trees()
             for node in ast.walk(tree) for module in _imported(node)
             if module.split(".")[0] == "numpy"]
    assert found == []


def _callers(tree, callee):
    """Names of the innermost functions (``<module>`` at top level) that
    call ``callee`` by name or as an attribute."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            target = node.func
            if getattr(target, "id", getattr(target, "attr", None)) == callee:
                found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_predecessors_called_only_by_the_edge_table():
    callers = {(name, func) for name, tree in _trees()
               for func in _callers(tree, "predecessors")}
    assert callers == {("lattice.py", "class_predecessors"),
                       ("genfunc.py", "build_system")}
