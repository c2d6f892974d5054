"""Host-speed calibration: fixed reference work timed next to every job.

The shared host's speed moves in phases up to 2x apart that can last
longer than a run, so the raw time of a job tells as much about the
host's phase as about the program.  Each job is therefore timed between
two runs of a fixed piece of reference work of the same kind, and its
raw time is scaled by REF_S[kind] / (mean time of those two runs).  The
result is the job's time at the reference host speed, in seconds.

The reference work uses no anyondeg code: a change to the program moves
the job times and leaves the calibration alone.  REF_S holds each kind's
median time on the machine in BASELINE.md, measured when this benchmark
was added.  Neither the work nor REF_S may change afterwards, or figures
from before and after the change stop being comparable.

Kinds:
  py     a pure-Python walk-count recurrence and big-int polynomial
         products, like the walk counts and the exact algebra;
  blas   a dense matrix product and a power iteration, like the Perron
         route (numpy, OpenBLAS threads as the program uses them);
  spawn  a fresh interpreter that imports numpy, like one `anyondeg`
         process, timed from the parent;
  import the numpy import inside that interpreter, like the set-up
         imports, timed inside it.
"""

from __future__ import annotations

import subprocess
import sys
import time

REF_S = {"py": 0.0079, "blas": 0.016, "spawn": 0.11, "import": 0.062}

_BLAS_DIM = 800
_blas_state = None

_SPAWN_CODE = """import time
t0 = time.perf_counter()
import numpy
print(time.perf_counter() - t0)
"""


_K = 12
_VERTICES = [(i, j) for i in range(_K + 1) for j in range(_K + 1 - i)]
_PREDECESSORS = {(i, j): [u for u in ((i, j - 1), (i + 1, j), (i - 1, j + 1))
                          if u in set(_VERTICES)] for i, j in _VERTICES}


def _py_work() -> int:
    """A walk-count recurrence on dicts, then products of big-int polynomials."""
    row = dict.fromkeys(_VERTICES, 0)
    row[(0, 0)] = 1
    for _ in range(150):
        row = {v: sum(row[u] for u in preds) for v, preds in _PREDECESSORS.items()}
    poly = [3**40 + i for i in range(40)]
    for _ in range(3):
        product = [0] * (2 * len(poly) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(poly):
                product[i + j] += x * y
    return row[(0, 0)] + product[0]


def _blas_work() -> float:
    global _blas_state
    import numpy as np

    if _blas_state is None:
        rng = np.random.default_rng(0)
        _blas_state = (rng.random((_BLAS_DIM, _BLAS_DIM)) / _BLAS_DIM, np.ones(_BLAS_DIM))
    mat, vec = _blas_state
    cubed = mat @ mat
    for _ in range(60):
        vec = cubed @ vec
        vec /= np.linalg.norm(vec)
    return float(vec[0])


def seconds(kind: str, env: dict | None = None, cwd=None) -> float:
    """One timed run of the reference work of this kind."""
    if kind == "import":
        return spawn(env, cwd)
    if kind == "spawn":
        start = time.perf_counter()
        spawn(env, cwd)
        return time.perf_counter() - start
    work = {"py": _py_work, "blas": _blas_work}[kind]
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def spawn(env: dict | None = None, cwd=None) -> float:
    """Run the spawn reference once; returns the numpy import time inside it."""
    out = subprocess.run([sys.executable, "-c", _SPAWN_CODE], capture_output=True,
                         text=True, env=env, cwd=cwd, timeout=60, check=True).stdout
    return float(out.strip().splitlines()[-1])


class Calibrator:
    """Scales raw times to the reference host speed.

    before(kind) just ahead of the timed work and after(kind, raw) just
    behind it.  A calibration run right after one job serves as the run
    before the next job of the same kind; forget() drops it when other
    work has run in between.
    """

    def __init__(self, env: dict | None = None, cwd=None):
        self.env, self.cwd = env, cwd
        self._last: tuple[str, float] | None = None
        self._before = 0.0

    def forget(self) -> None:
        self._last = None

    def before(self, kind: str) -> None:
        if self._last is None or self._last[0] != kind:
            self._last = (kind, seconds(kind, self.env, self.cwd))
        self._before = self._last[1]

    def after(self, kind: str, raw: float) -> float:
        now = seconds(kind, self.env, self.cwd)
        self._last = (kind, now)
        return raw * REF_S[kind] * 2 / (self._before + now)
