"""The library never loads numpy: not on import, and not in any
subcommand, the Perron route and the full reproduce included.  Nor does
importing the CLI load ``fractions``: the exact kernel is integer only,
and every CLI process would pay for its import.

Each process loads only the route it runs: ``import anyondeg`` loads no
submodule, since the package resolves its names on first read;
``import anyondeg.cli`` loads ``lattice`` alone beside ``cli``; and a
subcommand loads its own route's modules, not the other routes'.  The
walk itself is ``lattice.sweep``, so ``det``, ``genfunc``, ``verify``
and ``qdim`` load neither ``pathcount``, the walk-count queries, nor
``records``, the two count records, nor the ``dataclasses`` those
records need.  ``count`` and ``table`` print ``pathcount``'s plain ints
and rows, so they load ``pathcount`` but not ``records`` or
``dataclasses``.

Each case runs in a fresh interpreter, so what earlier tests imported
into this process does not count.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import anyondeg

ROOT = Path(__file__).resolve().parent.parent

_RUN_MAIN = """
import contextlib, io
from anyondeg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == 0, code
"""


def _last_line(code: str, src: Path = ROOT / "src", *options: str) -> str:
    """Run code in a fresh interpreter, with the package imported from
    src and the given interpreter options; the last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *options, "-c", code], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def module_loaded(body: str, module: str = "numpy") -> bool:
    """Run body in a fresh interpreter; whether module is loaded after it."""
    return _last_line(body + f"\nimport sys\n"
                             f"print({module!r} in sys.modules)\n") == "True"


def submodules_loaded(body: str) -> set[str]:
    """Run body in a fresh interpreter; the ``anyondeg`` submodules loaded
    after it, by their names in the package."""
    return set(_last_line(body + "\nimport sys\nprint(' '.join(\n"
                          "    name.split('.', 1)[1] for name in sys.modules\n"
                          "    if name.startswith('anyondeg.')))\n").split())


@pytest.mark.parametrize("module", ["anyondeg", "anyondeg.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert not module_loaded(f"import {module}")


def test_cli_import_leaves_fractions_unloaded():
    assert not module_loaded("import anyondeg.cli", "fractions")


@pytest.mark.parametrize("argv", [
    "count --k 4 --n 12",
    "det --k 4",
    "genfunc --k 3",
    "verify --k 3 --n 12",
    "syt --shape 2,2,2 --oracle",
    "table --max-k 3 --max-n 9",
    "reproduce --only table2",
])
def test_exact_subcommands_leave_numpy_unloaded(argv):
    assert not module_loaded(_RUN_MAIN.format(argv=argv.split()))


@pytest.mark.parametrize("argv", [
    *(f"qdim --k 3 --method {method}"
      for method in ("trig", "eig", "root", "all")),
    "reproduce",
])
def test_spectral_subcommands_leave_numpy_unloaded(argv):
    assert not module_loaded(_RUN_MAIN.format(argv=argv.split()))


def test_package_import_loads_no_submodule():
    assert submodules_loaded("import anyondeg") == set()


def test_cli_import_loads_only_lattice():
    assert submodules_loaded("import anyondeg.cli") == {"cli", "lattice"}


@pytest.mark.parametrize("argv", [
    "count --k 4 --n 12",
    "table --max-k 3 --max-n 9",
    "det --k 4",
])
def test_exact_subcommands_leave_the_other_routes_unloaded(argv):
    loaded = submodules_loaded(_RUN_MAIN.format(argv=argv.split()))
    assert loaded & {"spectral", "syt", "reproduce", "reference"} == set()


@pytest.mark.parametrize("argv", [
    "det --k 4",
    "genfunc --k 3",
    "verify --k 3 --n 12",
    "qdim --k 3 --method all",
])
def test_algebra_subcommands_leave_pathcount_unloaded(argv):
    body = _RUN_MAIN.format(argv=argv.split())
    assert submodules_loaded(body) & {"pathcount", "records"} == set()
    assert not module_loaded(body, "dataclasses")


@pytest.mark.parametrize("argv", [
    "count --k 4 --n 12",
    "table --max-k 3 --max-n 9",
    "table --max-k 3 --max-n 9 --format json",
])
def test_count_subcommands_leave_the_records_unloaded(argv):
    body = _RUN_MAIN.format(argv=argv.split())
    loaded = submodules_loaded(body)
    assert "pathcount" in loaded and "records" not in loaded
    assert not module_loaded(body, "dataclasses")


def test_syt_leaves_the_walk_and_algebra_routes_unloaded():
    loaded = submodules_loaded(_RUN_MAIN.format(
        argv="syt --n 11 --vertex 1,0 --oracle".split()))
    assert "syt" in loaded
    assert loaded & {"genfunc", "spectral", "pathcount"} == set()


def test_star_import_binds_every_exported_name():
    names = {}
    exec("from anyondeg import *", names)
    assert sorted(set(anyondeg.__all__) - names.keys()) == []


def test_dir_lists_every_exported_name():
    assert set(anyondeg.__all__) <= set(dir(anyondeg))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        anyondeg.no_such_name
    assert not hasattr(anyondeg, "no_such_name")
    assert not hasattr(anyondeg, "syt.shape_for_vertex")


def test_only_listed_submodules_resolve(tmp_path):
    # a directory beside the modules, such as __pycache__, is no module
    # of the package, and resolving a name probes no file system, so
    # without site importlib.util stays unloaded
    package = tmp_path / "anyondeg"
    package.mkdir()
    for module in (ROOT / "src" / "anyondeg").glob("*.py"):
        shutil.copy(module, package)
    (package / "__pycache__").mkdir()
    (package / "stray").mkdir()
    line = _last_line(
        "import sys\nimport anyondeg\n"
        "print(anyondeg.__file__.startswith({root!r}),\n"
        "      [hasattr(anyondeg, name) or name in dir(anyondeg)\n"
        "       for name in ('__pycache__', 'stray')],\n"
        "      anyondeg.syt.__name__, anyondeg.build_lattice.__name__,\n"
        "      'importlib.util' in sys.modules)\n".format(root=str(tmp_path)),
        tmp_path, "-S")
    assert line == "True [False, False] anyondeg.syt build_lattice False"
