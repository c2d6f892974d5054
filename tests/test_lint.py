"""Source-level rules for the library.

No ``assert`` in src/anyondeg: ``python -O`` strips asserts, so a
self-check written as one would vanish there, and where it stays it
ends in a traceback rather than the CLI's exit code 3.  Self-checks
raise ArithmeticError instead.

Imports sit at module top.  The one exception is numpy inside
``spectral.lambda_perron``, so that a process which never asks for the
Perron eigenvalue never loads it.

One edge table: ``lattice.predecessors`` is called only where
``lattice.class_predecessors`` builds the table that every walk count
reads, and where ``genfunc.build_system`` fills the full matrix, so no
module grows a second predecessor list of its own.

One walk-count loop: every walk count, the system determinant's closed
walks too, comes from ``pathcount._sweep`` over that table, padded to
three predecessors per vertex; only ``spectral._perron_block`` reads
the same rows as index arrays, to fill the Perron block B for numpy.
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


def test_imports_at_module_top():
    found = []
    for name, tree in _trees():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Import):
                    found += [(name, func.name, a.name) for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    found += [(name, func.name, node.module or ".")]
    assert found == [("spectral.py", "lambda_perron", "numpy")]


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
