"""Source-level rules for the library.

No ``assert`` in src/anyondeg: ``python -O`` strips asserts, so a
self-check written as one would vanish there, and where it stays it
ends in a traceback rather than the CLI's exit code 3.  Self-checks
raise ArithmeticError instead.

Two failure families: every ``raise`` in src/anyondeg names
``ValueError``, ``ArithmeticError`` or a subclass of one, a builtin
or a library class that derives from one, so every library failure
reaches the CLI's exit code 2 (a bad input) or 3 (a numeric failure)
and none ends in a traceback.  There are two exceptions: cli's own
``UsageError``, which exits 2 with the subcommand's usage line, and the
``AttributeError`` that the package's module ``__getattr__`` raises for
an unknown name, as the attribute protocol asks.

Imports sit at module top, with two exceptions, so that a process loads
only the route it runs: a ``cli._cmd_*`` function imports its own
route, ``.``-relative library modules and ``json``, and the package's
module ``__getattr__`` imports ``import_module`` from ``importlib``, and
nothing else from it, to resolve a name on its first read.  So no
file-system probe such as ``importlib.util.find_spec`` decides what
resolves: a directory under the package is not a module.  No module
imports numpy, at any level: the library runs on the standard library
alone, and numpy is left to the test oracles.

One edge table: the step deltas ``lattice._STEPS`` are read only in
``lattice.walk_table``, which builds the padded per-class table that
every walk, the Perron block and the numerator sweep read, by position
arithmetic, so no module grows a second predecessor list of its own.
The full system M_k is not built in the library; the test oracles paste
it from the paper's block display.  The Perron route needs positions
only: no call ``lambda_perron`` makes, however deep, builds the lattice
or a ``Vertex``, so its set-up cost cannot come back unnoticed.

One step loop: the padded three-entry sum ``x[a] + x[b] + x[c]`` is
written only in ``lattice.step``.  One route per quantity, where the
counts at one step are one quantity: the endpoint counts at one step,
the one that ``pathcount.degeneracy`` returns and the class-wide table
of ``records.count_paths``, come from the affine reflection sum, at
every level and from no sweep: ``degeneracy`` alone calls its one-vertex
form ``pathcount._reflection_count``, and ``records.count_paths`` alone
calls its class form ``pathcount._class_counts``, which builds the
lattice, picks class n mod 3 and fills the rest with 0, and is the one
reader of the residue table ``_residue_table``.  So ``records`` only
wraps ``pathcount``: it imports nothing from ``lattice`` but ``ORIGIN``
and ``Vertex``, and every walk-count route is decided in ``pathcount``.
The reflection principle lives in ``pathcount._reflection_keys`` and
``_residue_sums``, whose only callers are those two sums (the class sum
through the table) and ``pathcount._grid_history``, which builds one
grid row (``grid_rows`` and so ``table``).  A row reflects where that
costs less than the sweep, by one test per level, ``pathcount._reflects``,
which only the row loop of ``grid_rows`` calls, and no row reflects past
n_max = 600; that loop alone builds v's class binomial rows
(``_class_binomials``), once, at the first level that reflects.  The
other rows come, like every history (``origin_history``), from
``lattice.sweep`` stepping along the edge table.  ``origin_history``
does reach the sweep, so a renamed sweep fails the rule rather than
leaving it nothing to check.
Every numerator of ``solve_system`` comes from one sweep fed the
determinant's coefficients at the origin; ``spectral._three_steps``
takes the same steps on float vectors, to apply the transpose of the
Perron block B once per Lanczos step, as (I + P) B^T on the
mirror-symmetric Krylov vectors.  The test oracles keep their own
loops: ``tests/oracles.py`` imports no ``_``-prefixed library name.
One pivot loop: the LDL^T pivots of T - x, ``zip(alphas[1:],
sq_betas)``, are iterated in one loop, in ``spectral._newton_step``,
whose early exit at the first nonnegative pivot is the Sturm count, and
its one caller is ``spectral._top_ritz``, which counts only inside a
bracket that Newton's passes found.  So a second count loop beside
Newton's, or a caller that bisects the whole bracket (theta_prev,
PERRON_THETA_MAX) one count per midpoint, cannot come back unnoticed.
The determinant does not walk: ``system_det`` multiplies the Galois-orbit
factors of the spectrum, and no call it makes, however deep, reaches
``lattice.sweep`` or any ``pathcount`` or ``records`` function.
``solve_system`` does reach ``lattice.sweep``, so a renamed sweep fails
the rule rather than leaving it nothing to check.

One walk home: the sweep lives in ``lattice`` beside the table and the
step, and among library modules only ``cli`` and ``records`` import
``pathcount``, the walk-count queries, at any level and in any form;
only ``reproduce`` imports ``records``, the two count records, and reads
``pathcount`` through it.  So the determinant, series and spectral
routes load neither, and the ``count`` and ``table`` subcommands, which
print ``pathcount``'s plain ints, do not load ``records`` or the
``dataclasses`` its records need.

One rotation-orbit rule: the first points of the 3-point orbits of the
simple current J, (i, j) -> (k - i - j, i), come from the closed form
``range(i, k - 2 * i)``, written once, in ``lattice.orbit_firsts``, and
both readers, ``genfunc._orbit_factors`` and ``spectral._perron_tables``,
call it.  J's image ``k - i - j`` is computed only where
``orbit_firsts`` supplies the points, so no module maps every class
position under J and searches that map for representatives.

Two dataclasses: ``@dataclass`` decorates only ``records.CountTable``
and ``records.CountGrid``, because ``perfbench/test_bench_checks.py``
rebuilds them with ``dataclasses.replace``.  Every other record is a
``NamedTuple``: a dataclass compiles its generated methods at every
import, which costs several times what a NamedTuple class does.

Two caches: ``lru_cache`` decorates ``system_det`` and ``solve_system``
alone, the two caches a caller can clear, so no hidden per-k memo keeps
a cleared solve warm.

One tableau count: the exponential enumeration
``syt.brute_force_count`` runs only when a user asks for it, by
``syt --oracle``, so ``cli._cmd_syt`` is its one caller in the library
and no golden check or other route runs it beside ``hook_count``.

No polynomial gcd: lowest terms come from the determinant's
Galois-orbit factors, each kept or divided out by one S-matrix entry
per vertex, and the primitive-PRS ``poly_gcd`` with its ``_pseudo_rem``
is left to the test oracles, as are the numerator residues at the
factors' roots that cross-check the kept factors.

Library code only: every module-level function, class or constant
(dunder names aside) is named somewhere else in the library or
exported in ``anyondeg.__all__``, so a fixture or a reference value
only the tests read lives in ``tests/oracles.py`` or is used where the
library checks against it.  The package's surface is one table,
``_HOMES`` in ``__init__.py``, keyed by every submodule and by nothing
else, with the public names each defines; ``__all__`` is derived from
it, so each exported name is listed once, under one submodule, and is
no key.  The same holds for class members: every method, property and
classmethod is read as an attribute, ``x.name``, in the library outside
its own definition, in ``perfbench/*.py`` or in ``demos/*.py``, so a
member only the tests call leaves the library; every dunder a class
defines or assigns is on ``PROTOCOL`` with the caller that needs it.

The clients resolve: every name ``perfbench/*.py`` and ``demos/*.py``
import from ``anyondeg``, and every attribute chain they read on an
imported ``anyondeg`` module (``ad.build_lattice``,
``ad.syt.shape_for_vertex``), exists on a freshly imported package,
including the ones in code paths no test runs.
"""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "anyondeg"
INIT = SRC / "__init__.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
CLIENTS = sorted((ROOT / "perfbench").glob("*.py")) \
    + sorted((ROOT / "demos").glob("*.py"))

# (class, dunder) -> what needs it; every dunder a library class binds
PROTOCOL = {
    ("IntPoly", "__slots__"): "the interpreter: one coeffs slot, no __dict__",
    ("IntPoly", "__init__"): "IntPoly(coeffs) throughout",
    ("IntPoly", "__bool__"): "`not p` in exact_div, RationalFn, "
                             "poly_to_text and the oracles' `if p:`",
    ("IntPoly", "__getitem__"): "den[0] and num[n] in RationalFn",
    ("IntPoly", "__add__"): "perfbench/test_bench_checks.py and the "
                            "oracles' Bareiss and PRS routes",
    ("IntPoly", "__neg__"): "RationalFn's sign normalization",
    ("IntPoly", "__mul__"): "prod in genfunc.system_det and solve_system",
    ("IntPoly", "__eq__"): "reproduce's golden determinant check",
    ("IntPoly", "__hash__"): "the denominator dicts of cli._cmd_genfunc",
    ("IntPoly", "__repr__"): "assertion and interactive output",
    ("IntPoly", "__call__"): "det(t0) in perfbench/checks.py check_det",
    ("RationalFn", "__slots__"): "the interpreter: num and den slots only",
    ("RationalFn", "__init__"): "RationalFn(num, den) in solve_system",
    ("RationalFn", "__eq__"): "reproduce's golden generating functions",
    ("RationalFn", "__repr__"): "assertion and interactive output",
}


def _trees():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in modules]


def test_no_assert_statements_in_the_library():
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _raise_findings(trees):
    """(module, line, name) for every ``raise`` whose exception is not
    ValueError, ArithmeticError or a subclass of one, by the bases the
    library's own classes name; cli's ``UsageError`` and the package
    ``__getattr__``'s ``AttributeError`` are exempt."""
    bases = {node.name: [_name(base) for base in node.bases]
             for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)}

    def numeric(name):
        if name in bases:
            return any(numeric(base) for base in bases[name])
        cls = getattr(builtins, name or "", None)
        return isinstance(cls, type) \
            and issubclass(cls, (ValueError, ArithmeticError))

    found = []
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                name = _name(exc) if exc is not None else None
                if not numeric(name) and (module, name) not in {
                        ("cli.py", "UsageError"),
                        ("__init__.py", "AttributeError")}:
                    found.append((module, node.lineno, name))
    return sorted(found, key=lambda entry: entry[:2])


def test_every_raise_is_a_value_or_arithmetic_error():
    assert _raise_findings(_trees()) == []


def test_raise_rule_flags_other_families():
    # a numeric failure derived from RuntimeError, a bare Exception, a
    # re-raise and another module's UsageError are reported; the
    # subclasses of ValueError and ArithmeticError are not
    spectral = ast.parse(
        "class NonConvergenceError(RuntimeError):\n    pass\n"
        "class NoRootError(ArithmeticError):\n    pass\n"
        "def f(x):\n"
        "    if x == 0:\n        raise NonConvergenceError('no')\n"
        "    if x == 1:\n        raise NoRootError('no')\n"
        "    if x == 2:\n        raise ZeroDivisionError\n"
        "    if x == 3:\n        raise KeyError(x)\n"
        "    if x == 4:\n        raise UsageError(x)\n"
        "    try:\n        raise Exception(x)\n"
        "    except Exception:\n        raise\n")
    cli = ast.parse("class UsageError(Exception):\n    pass\n"
                    "def g():\n    raise UsageError('bad')\n"
                    "def h():\n    raise AttributeError('h')\n")
    init = ast.parse("def __getattr__(name):\n    raise AttributeError(name)\n")
    found = _raise_findings([("__init__.py", init), ("cli.py", cli),
                             ("spectral.py", spectral)])
    assert found == [("cli.py", 6, "AttributeError"),
                     ("spectral.py", 7, "NonConvergenceError"),
                     ("spectral.py", 13, "KeyError"),
                     ("spectral.py", 15, "UsageError"),
                     ("spectral.py", 17, "Exception"),
                     ("spectral.py", 19, None)]


def _imported(node):
    """The module names an import statement names; [] for other nodes."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or "."]
    return []


def _late_import_findings(trees):
    """(module, function, imported) for every import inside a function
    but a ``cli._cmd_*`` function's of a ``.``-relative library module or
    ``json``, and the package ``__getattr__``'s
    ``from importlib import import_module``."""
    found = []
    for name, tree in trees:
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                relative = getattr(node, "level", 0) > 0
                for module in _imported(node):
                    if name == "cli.py" and func.name.startswith("_cmd_") \
                            and (relative or module == "json"):
                        continue
                    if (name, func.name, ast.unparse(node)) \
                            == ("__init__.py", "__getattr__",
                                "from importlib import import_module"):
                        continue
                    found.append((name, func.name, module))
    return found


def test_imports_at_module_top():
    assert _late_import_findings(_trees()) == []


def test_import_rule_flags_other_late_imports():
    # a non-library import inside a _cmd_* function, an absolute library
    # import there, a route import outside _cmd_* or outside cli, and an
    # import in another package dunder are reported, and so is any other
    # import from importlib in __getattr__; a _cmd_* function's relative
    # and json imports and __getattr__'s import_module are not
    cli = ast.parse(
        "def _cmd_count(args):\n"
        "    import json\n"
        "    from .pathcount import degeneracy\n"
        "    from . import reference\n"
        "    import numpy\n"
        "    from anyondeg.genfunc import system_det\n"
        "def build_parser():\n"
        "    from .syt import Shape3\n")
    spectral = ast.parse(
        "def _cmd_root(k):\n    import json\n"
        "def root_rho(k):\n    from .genfunc import system_det\n")
    init = ast.parse(
        "def __getattr__(name):\n    from importlib import import_module\n"
        "    from importlib import import_module, util\n"
        "    import json\n"
        "def __dir__():\n    import sys\n")
    found = _late_import_findings([("__init__.py", init), ("cli.py", cli),
                                   ("spectral.py", spectral)])
    assert found == [("__init__.py", "__getattr__", "importlib"),
                     ("__init__.py", "__getattr__", "json"),
                     ("__init__.py", "__dir__", "sys"),
                     ("cli.py", "_cmd_count", "numpy"),
                     ("cli.py", "_cmd_count", "anyondeg.genfunc"),
                     ("cli.py", "build_parser", "syt"),
                     ("spectral.py", "_cmd_root", "json"),
                     ("spectral.py", "root_rho", "genfunc")]


def test_no_numpy_imports():
    found = [(name, module) for name, tree in _trees()
             for node in ast.walk(tree) for module in _imported(node)
             if module.split(".")[0] == "numpy"]
    assert found == []


def _name(node):
    """The name a Name, Attribute or function definition node carries."""
    return getattr(node, "id", getattr(node, "attr",
                                       getattr(node, "name", None)))


def _enclosing(tree, match):
    """Names of the innermost functions (``<module>`` at top level) that
    hold a node for which ``match`` is true; a function's decorators and
    its own definition count as inside it."""
    found = set()

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if match(node):
            found.add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return found


def _callers(tree, callee):
    """Names of the innermost functions that call ``callee`` by name or
    as an attribute."""
    return _enclosing(tree, lambda node: isinstance(node, ast.Call)
                      and _name(node.func) == callee)


def test_predecessors_called_only_by_the_edge_table():
    readers = {(name, func) for name, tree in _trees()
               for func in _enclosing(tree, lambda node: isinstance(
                   node, (ast.Name, ast.Attribute)) and _name(node) == "_STEPS"
                   and isinstance(node.ctx, ast.Load))}
    assert readers == {("lattice.py", "walk_table")}


def _three_entry_sum(node):
    """Whether node is x[a] + x[b] + x[c]: three entries of one
    sequence, added."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.Add)):
        return False
    terms = [node.left.left, node.left.right, node.right]
    return all(isinstance(t, ast.Subscript) for t in terms) \
        and len({ast.dump(t.value) for t in terms}) == 1


def test_one_step_loop():
    found = {(name, func) for name, tree in _trees()
             for func in _enclosing(tree, _three_entry_sum)}
    assert found == {("lattice.py", "step")}


def _reflection_callers(trees):
    """{callee: its (module, function) callers} for the reflection sums,
    the residue table, the two steps they share, the grid rule and the
    grid's binomial rows."""
    return {callee: {(name, func) for name, tree in trees
                     for func in _callers(tree, callee)}
            for callee in ("_reflection_count", "_class_counts",
                           "_residue_table", "_reflection_keys",
                           "_residue_sums", "_reflects", "_class_binomials")}


def test_reflection_sum_called_only_by_the_one_step_counts():
    # the counts at one step call the sums, degeneracy the one-vertex sum
    # and count_paths the class sum; the sums and the grid rows that
    # reflect are the only readers of the keys and the residue sums; the
    # row loop of grid_rows alone tests each level and builds the
    # binomial rows
    grid, rows = ("pathcount.py", "_grid_history"), ("pathcount.py", "rows")
    assert _reflection_callers(_trees()) == {
        "_reflection_count": {("pathcount.py", "degeneracy")},
        "_class_counts": {("records.py", "count_paths")},
        "_residue_table": {("pathcount.py", "_class_counts")},
        "_reflection_keys": {("pathcount.py", "_reflection_count"),
                             ("pathcount.py", "_class_counts"), grid},
        "_residue_sums": {("pathcount.py", "_reflection_count"),
                          ("pathcount.py", "_residue_table"), grid},
        "_reflects": {rows},
        "_class_binomials": {rows}}


def test_reflection_rule_flags_other_callers():
    # a history and a grid of their own, counts past the one-step
    # routes, and a grid that tests its levels and builds its binomial
    # rows outside the row loop
    tree = ast.parse(
        "def origin_history(k, n_max, v):\n"
        "    return [_reflection_keys(k, n, [v]) for n in range(n_max)]\n"
        "def growth_rate_estimate(k, n):\n"
        "    return _reflection_count(k, n, (0, 0))\n"
        "def degeneracy(k, n, v):\n"
        "    return _class_counts(k, n)[v]\n"
        "def _grid_history(k, n_max, v, binomials):\n"
        "    return [_residue_table(k, n) for n in range(n_max)]\n"
        "def table(k_max, n_max, v):\n"
        "    return list(_residue_sums(k_max + 3, n_max))\n"
        "def grid_rows(k_max, n_max, v):\n"
        "    first = min(k for k in range(1, k_max + 1)\n"
        "                if _reflects(k, n_max))\n"
        "    return first, _class_binomials(n_max, 0)\n")
    assert _reflection_callers([("pathcount.py", tree)]) == {
        "_reflection_count": {("pathcount.py", "growth_rate_estimate")},
        "_class_counts": {("pathcount.py", "degeneracy")},
        "_residue_table": {("pathcount.py", "_grid_history")},
        "_reflection_keys": {("pathcount.py", "origin_history")},
        "_residue_sums": {("pathcount.py", "table")},
        "_reflects": {("pathcount.py", "grid_rows")},
        "_class_binomials": {("pathcount.py", "grid_rows")}}


def _lattice_names(tree):
    """The names a module imports from ``lattice``, at any level: those of
    ``from .lattice import …``, and ``lattice`` itself for
    ``from . import lattice`` or an absolute ``anyondeg.lattice``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[-1] == "lattice":
            found |= {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {"lattice" for m in _imported(node) + [
                a.name for a in node.names] if "lattice" in m.split(".")}
    return found


def test_records_reads_only_origin_and_vertex_from_lattice():
    # records wraps pathcount: the lattice build and the class pick of
    # count_paths live in pathcount._class_counts
    assert _lattice_names(dict(_trees())["records.py"]) \
        <= {"ORIGIN", "Vertex"}


def test_records_lattice_rule_flags_other_names():
    # a third name, the module itself, and a late import are reported
    for source, names in (
            ("from .lattice import ORIGIN, Vertex, build_lattice\n",
             {"ORIGIN", "Vertex", "build_lattice"}),
            ("from . import lattice\n", {"lattice"}),
            ("import anyondeg.lattice as lat\n", {"lattice"}),
            ("def count_paths(k, n):\n"
             "    from anyondeg.lattice import class_offsets\n",
             {"class_offsets"})):
        assert _lattice_names(ast.parse(source)) == names, source


def test_no_library_module_calls_smallest_positive_root():
    # the library reads rho from root_rho alone; smallest_positive_root
    # stays for det(M_k) as a whole, which only clients pass it
    callers = {(name, func) for name, tree in _trees()
               for func in _callers(tree, "smallest_positive_root")}
    assert callers == set()


def test_brute_force_count_called_only_by_syt_oracle():
    callers = {(name, func) for name, tree in _trees()
               for func in _callers(tree, "brute_force_count")}
    assert callers == {("cli.py", "_cmd_syt")}


def _pivot_loop_findings(trees):
    """(where ``zip(alphas[1:], sq_betas)`` is iterated, one entry per
    loop, sorted; who calls ``_newton_step``), as (module, function)
    pairs."""
    pivots = _expression("zip(alphas[1:], sq_betas)")
    loops, callers = [], set()
    for name, tree in trees:
        iters = [node.iter for node in ast.walk(tree)
                 if isinstance(node, (ast.For, ast.comprehension))
                 and ast.dump(node.iter) == pivots]
        loops += [(name, func) for loop in iters
                  for func in _enclosing(tree, lambda node: node is loop)]
        callers |= {(name, func) for func in _callers(tree, "_newton_step")}
    return sorted(loops), callers


def test_one_ldlt_pivot_loop():
    loops, callers = _pivot_loop_findings(_trees())
    assert loops == [("spectral.py", "_newton_step")]
    assert callers == {("spectral.py", "_top_ritz")}


def test_pivot_rule_flags_a_second_count():
    # a Sturm count of its own beside Newton's pass, and a caller
    # outside the bracket search
    spectral = ast.parse(
        "def _top_at_least(alphas, sq_betas, x):\n"
        "    d = alphas[0] - x\n"
        "    for a, b2 in zip(alphas[1:], sq_betas):\n"
        "        if d >= 0:\n"
        "            return True\n"
        "        d = a - x - b2 / d\n"
        "    return d >= 0\n"
        "def _newton_step(alphas, sq_betas, x):\n"
        "    return sum(b2 / a for a, b2 in zip(alphas[1:], sq_betas))\n"
        "def _top_ritz(alphas, sq_betas, floor, guess):\n"
        "    return _newton_step(alphas, sq_betas, guess)\n"
        "def lambda_perron(k):\n"
        "    return _newton_step([1.0], [], 0.5) is None\n")
    loops, callers = _pivot_loop_findings([("spectral.py", spectral)])
    assert loops == [("spectral.py", "_newton_step"),
                     ("spectral.py", "_top_at_least")]
    assert callers == {("spectral.py", "_top_ritz"),
                       ("spectral.py", "lambda_perron")}


def _reached(root):
    """{(module, function): node} for every library function of each name
    that ``root`` calls, followed to any depth, ``root`` included."""
    defined = {}
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, []).append((name, node))
    reached, todo = {}, [root]
    while todo:
        func = todo.pop()
        for name, node in defined.get(func, ()):
            if (name, func) not in reached:
                reached[name, func] = node
                todo += [_name(call.func) for call in ast.walk(node)
                         if isinstance(call, ast.Call)]
    return reached


def test_system_det_reaches_no_walk_sweep():
    reached = _reached("system_det")
    assert ("genfunc.py", "_orbit_factors") in reached
    assert {(name, func) for name, func in reached
            if name in ("pathcount.py", "records.py")
            or (name, func) == ("lattice.py", "sweep")} == set()
    # the numerators do walk: a renamed sweep fails here
    assert ("lattice.py", "sweep") in _reached("solve_system")


def test_degeneracy_reaches_no_walk_sweep():
    # one route for the counts at one step, at every level: the
    # reflection sum, and no sweep beside it
    for root, route in (("degeneracy", "_reflection_count"),
                        ("count_paths", "_class_counts")):
        reached = _reached(root)
        assert ("pathcount.py", route) in reached, root
        assert ("lattice.py", "sweep") not in reached, root
    # the histories do walk: a renamed sweep fails here; the grid rows
    # take either route
    assert ("lattice.py", "sweep") in _reached("origin_history")
    assert {("lattice.py", "sweep"), ("pathcount.py", "_reflection_keys")} \
        <= set(_reached("grid_rows"))


def _importers(trees, module="pathcount"):
    """The library modules with an import of module anywhere:
    ``from .pathcount import …``, ``from . import pathcount`` or an
    absolute ``anyondeg.pathcount``."""
    found = set()
    for name, tree in trees:
        for node in ast.walk(tree):
            modules = _imported(node)
            if isinstance(node, ast.ImportFrom):
                modules += [f"{node.module or ''}.{a.name}"
                            for a in node.names]
            if any(module in m.split(".") for m in modules):
                found.add(name)
    return sorted(found)


def test_only_cli_and_records_import_pathcount():
    assert _importers(_trees()) == ["cli.py", "records.py"]


def test_only_reproduce_imports_records():
    assert _importers(_trees(), "records") == ["reproduce.py"]


def test_pathcount_rule_flags_other_importers():
    # a relative, a package-level and an absolute import, at module top
    # or in a function, are reported; an import of lattice.sweep is not
    genfunc = ast.parse("from .pathcount import _sweep\n")
    spectral = ast.parse(
        "def growth_rate_estimate(k, n):\n    from . import pathcount\n")
    syt = ast.parse("import anyondeg.pathcount as pc\n")
    poly = ast.parse("from .lattice import sweep\n"
                     "from anyondeg import lattice\n")
    cli = ast.parse("def _cmd_count(args):\n"
                    "    from .pathcount import degeneracy\n")
    found = _importers([
        ("cli.py", cli), ("genfunc.py", genfunc), ("poly.py", poly),
        ("spectral.py", spectral), ("syt.py", syt)])
    assert found == ["cli.py", "genfunc.py", "spectral.py", "syt.py"]
    # the records rule: cli reading the records, in each of the three
    # forms, is reported; a pathcount import is not
    for source in ("def _cmd_table(args):\n    from .records import table\n",
                   "from . import records\n", "import anyondeg.records\n"):
        assert _importers([("cli.py", ast.parse(source)), ("poly.py", poly),
                           ("syt.py", syt)], "records") == ["cli.py"]


def test_perron_route_builds_no_lattice_or_vertex():
    reached = _reached("lambda_perron")
    assert ("lattice.py", "walk_table") in reached
    banned = {"build_lattice", "Vertex"}
    found = {(name, func) for (name, func), node in reached.items()
             for call in ast.walk(node) if isinstance(call, ast.Call)
             and (_name(call.func) in banned
                  or _name(getattr(call.func, "value", None)) in banned)}
    assert found == set()


def _expression(source):
    return ast.dump(ast.parse(source, mode="eval").body)


def _orbit_rule_findings(trees):
    """(where the closed form is written, one entry per copy; who calls
    ``orbit_firsts``; who computes J's image ``k - i - j`` without
    calling it), as (module, function) pairs."""
    closed = _expression("range(i, k - 2 * i)")
    image = _expression("k - i - j")
    written, callers, unfed = [], set(), set()
    for name, tree in trees:
        copies = [node for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and ast.dump(node) == closed]
        written += [(name, func) for copy in copies
                    for func in _enclosing(tree, lambda node: node is copy)]
        called = _callers(tree, "orbit_firsts")
        callers |= {(name, func) for func in called}
        unfed |= {(name, func) for func in _enclosing(
            tree, lambda node: isinstance(node, ast.BinOp)
            and ast.dump(node) == image) - called}
    return written, callers, unfed


def test_one_rotation_orbit_rule():
    written, callers, unfed = _orbit_rule_findings(_trees())
    assert written == [("lattice.py", "orbit_firsts")]
    assert callers == {("genfunc.py", "_orbit_factors"),
                       ("spectral.py", "_perron_tables")}
    assert unfed == set()


def test_orbit_rule_flags_a_representative_search():
    # J's position map over a whole class, searched for the orbit firsts,
    # and a second copy of the closed form
    spectral = ast.parse(
        "def _perron_tables(k):\n"
        "    turn = [at[k - i - j] + i // 3 for i in range(k + 1)\n"
        "            for j in range(i % 3, k - i + 1, 3)]\n"
        "    return [p for p, q in enumerate(turn)\n"
        "            if p <= q and p <= turn[q]]\n")
    genfunc = ast.parse(
        "def _orbit_factors(k):\n"
        "    return [(i, j) for i in range(k + 1)\n"
        "            for j in range(i, k - 2 * i)]\n")
    written, callers, unfed = _orbit_rule_findings(
        [("genfunc.py", genfunc), ("spectral.py", spectral)])
    assert written == [("genfunc.py", "_orbit_factors")]
    assert callers == set()
    assert unfed == {("spectral.py", "_perron_tables")}


def test_lru_cache_only_on_the_two_clearable_solvers():
    memo = {"lru_cache", "cache", "cached_property"}
    found = {(name, func) for name, tree in _trees()
             for func in _enclosing(tree, lambda node: isinstance(
                 node, (ast.Name, ast.Attribute)) and _name(node) in memo)}
    assert found == {("genfunc.py", "system_det"),
                     ("genfunc.py", "solve_system")}


def _dataclass_findings(trees):
    """(module, class) for every class that a ``dataclass`` decorator,
    bare, called or read as ``dataclasses.dataclass``, decorates."""
    return sorted((name, node.name) for name, tree in trees
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for dec in node.decorator_list
                  if _name(getattr(dec, "func", dec)) == "dataclass")


def test_dataclass_only_on_the_two_replaced_records():
    assert _dataclass_findings(_trees()) == [("records.py", "CountGrid"),
                                             ("records.py", "CountTable")]


def test_dataclass_rule_flags_a_third_record():
    # a called and an attribute-read decorator are both reported; a
    # NamedTuple record is not
    lattice = ast.parse(
        "@dataclass(frozen=True)\nclass Lattice:\n    k: int\n"
        "@dataclasses.dataclass\nclass Report:\n    k: int\n"
        "class Shape3(NamedTuple):\n    r1: int\n")
    pathcount = ast.parse("@dataclass\nclass CountTable:\n    k: int\n")
    found = _dataclass_findings([("lattice.py", lattice),
                                 ("pathcount.py", pathcount)])
    assert found == [("lattice.py", "Lattice"), ("lattice.py", "Report"),
                     ("pathcount.py", "CountTable")]


def test_no_polynomial_gcd_in_the_library():
    gcd = {"poly_gcd", "_pseudo_rem"}
    found = {(name, func) for name, tree in _trees()
             for func in _enclosing(tree, lambda node: isinstance(
                 node, (ast.Name, ast.Attribute, ast.FunctionDef))
                 and _name(node) in gcd)}
    imported = {(name, alias.name) for name, tree in _trees()
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names if alias.name in gcd}
    assert found == set() and imported == set()


def test_oracles_import_no_private_library_name():
    tree = ast.parse(ORACLES.read_text(), str(ORACLES))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "anyondeg":
            names = node.module.split(".") + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.startswith("anyondeg")
                     for part in a.name.split(".")]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_")]
    assert found == []


def _homes():
    """The table ``__init__.py`` binds to ``_HOMES``: submodule -> the
    public names it defines."""
    tree = ast.parse(INIT.read_text(), str(INIT))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [_name(t) for t in node.targets] == ["_HOMES"])


def _exported():
    """The names ``__all__`` exports: the table's names, in its order."""
    return [name for names in _homes().values() for name in names]


def _defined(stmt):
    """The names a module-level statement defines: a function or class,
    or the plain names an assignment binds, dunder names aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


def test_every_definition_is_used_in_the_library_or_exported():
    defs, uses = [], set()  # uses: (module, defining statement, name)
    for name, tree in _trees():
        for pos, stmt in enumerate(tree.body):
            defs += [(name, pos, defined) for defined in _defined(stmt)]
            uses |= {(name, pos, _name(node)) for node in ast.walk(stmt)
                     if isinstance(node, (ast.Name, ast.Attribute))}
    exported = set(_exported())
    unused = [(name, defined) for name, pos, defined in defs
              if defined not in exported and not _dunder(defined)
              and not any(used == defined and (module, at) != (name, pos)
                          for module, at, used in uses)]
    assert unused == []


def test_all_is_bound_and_covers_every_public_import():
    # the table is keyed by every submodule and by nothing else, and
    # lists each exported name once, under one key and never as a key
    homes = _homes()
    exported = _exported()
    assert len(set(exported)) == len(exported)
    assert sorted(set(exported) & homes.keys()) == []
    assert sorted(homes) == sorted(path.stem for path in SRC.glob("*.py")
                                   if path.stem != "__init__")


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _members(tree):
    """(class, name, statement) for every name a class body binds: the
    ``_defined`` names and the dunders it assigns."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                names = _defined(stmt) + [
                    target.id for target in getattr(stmt, "targets", ())
                    if isinstance(target, ast.Name) and _dunder(target.id)]
                yield from ((cls.name, name, stmt) for name in names)


def _attribute_reads(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)]


def _member_findings(trees, clients):
    """The methods of library classes that no library module, outside
    their own definition, and no client reads as an attribute; and the
    dunders that are not on ``PROTOCOL`` or are there for no class that
    binds them."""
    reads = [node for _, tree in trees for node in _attribute_reads(tree)]
    outside = {node.attr for tree in clients for node in _attribute_reads(tree)}
    unread, dunders = [], set()
    for module, tree in trees:
        for cls, name, node in _members(tree):
            if _dunder(name):
                dunders.add((cls, name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = set(map(id, ast.walk(node)))
                if name not in outside and not any(
                        read.attr == name and id(read) not in own
                        for read in reads):
                    unread.append((module, cls, name))
    return unread, sorted(dunders ^ PROTOCOL.keys())


def _client_trees():
    return [(path, ast.parse(path.read_text(), str(path))) for path in CLIENTS]


def test_every_class_member_has_a_caller():
    clients = [tree for _, tree in _client_trees()]
    assert _member_findings(_trees(), clients) == ([], [])


def test_member_rule_reads_attributes_only():
    # a local variable named like a member is no read of it, and a
    # dunder assigned in the class body needs a PROTOCOL entry too
    tree = ast.parse("class IntPoly:\n"
                     "    def zero(self):\n        return self.zero()\n"
                     "    def one(self):\n        return 1\n"
                     "    __rmul__ = one\n")
    client = ast.parse("zero = 0\nIntPoly.one()\n")
    unread, dunders = _member_findings([("poly.py", tree)], [client])
    assert unread == [("poly.py", "IntPoly", "zero")]
    assert ("IntPoly", "__rmul__") in dunders


def _client_reads(tree):
    """(line, module, names, from) for every name a client imports from
    an ``anyondeg`` module, every module it imports, and every attribute
    chain it reads on a name that an ``import anyondeg...`` statement
    binds; ``from`` marks an import-from, which may name a submodule."""
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "anyondeg":
            found += [(node.lineno, node.module, [alias.name], True)
                      for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "anyondeg":
                    found.append((node.lineno, alias.name, [], False))
                    bound[alias.asname or "anyondeg"] = \
                        alias.name if alias.asname else "anyondeg"
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in bound:
                found.append((node.lineno, bound[base.id], chain, False))
    return found


_RESOLVE = """
import importlib, json, sys
missing = []
for where, module, names, from_import in json.load(sys.stdin):
    try:
        obj = importlib.import_module(module)
        for name in names:
            if from_import and not hasattr(obj, name):
                importlib.import_module(f"{module}.{name}")
            else:
                obj = getattr(obj, name)
    except (ImportError, AttributeError) as exc:
        missing.append([where, module, names, repr(exc)])
print(json.dumps(missing))
"""


def test_client_reads_resolve_on_the_package():
    reads = []
    for path, tree in _client_trees():
        reads += [(f"{path.relative_to(ROOT)}:{line}", *read)
                  for line, *read in _client_reads(tree)]
    chains = [names for _, _, names, _ in reads]
    assert ["syt", "shape_for_vertex"] in chains
    assert ["build_lattice"] in chains
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", _RESOLVE],
                         input=json.dumps(reads), capture_output=True,
                         text=True, env=env, check=True, timeout=60).stdout
    assert json.loads(out) == []
