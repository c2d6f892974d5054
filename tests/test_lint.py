"""Source-level rules for the library.

No ``assert`` in src/anyondeg: ``python -O`` strips asserts, so a
self-check written as one would vanish there, and where it stays it
ends in a traceback rather than the CLI's exit code 3.  Self-checks
raise ArithmeticError instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "anyondeg"


def test_no_assert_statements_in_the_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
