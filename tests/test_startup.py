"""The library never loads numpy: not on import, and not in any
subcommand, the Perron route and the full reproduce included.  Nor does
importing the CLI load ``fractions``: the exact kernel is integer only,
and every CLI process would pay for its import.

Each case runs in a fresh interpreter, so what earlier tests imported
into this process does not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_RUN_MAIN = """
import contextlib, io
from anyondeg.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == 0, code
"""


def module_loaded(body: str, module: str = "numpy") -> bool:
    """Run body in a fresh interpreter; whether module is loaded after it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = body + f"\nimport sys\nprint({module!r} in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


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
