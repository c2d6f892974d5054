"""Source-level rules for the library.

No ``assert`` in src/anyondeg: ``python -O`` strips asserts, so a
self-check written as one would vanish there, and where it stays it
ends in a traceback rather than the CLI's exit code 3.  Self-checks
raise ArithmeticError instead.

Imports sit at module top.  The one exception is numpy inside
``spectral.lambda_perron``, so that a process which never asks for the
Perron eigenvalue never loads it.
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
