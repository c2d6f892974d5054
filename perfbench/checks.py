"""Correctness checks for benchmark jobs, each by a route independent of
the one being timed.

  * walk counts: a vector recurrence mod a prime, written here from the
    step rules alone; hook-length counts (syt) whenever n <= k; the
    golden origin counts in anyondeg.reference for k <= 8;
  * determinants: the golden polynomials for k <= 8, otherwise
    det(I - t0 A) by Gaussian elimination mod the prime at a seeded point;
  * generating functions: series coefficients against the recurrence,
    and the golden rational functions where they exist;
  * growth factor: the closed trig form and the spectral radius of the
    adjacency matrix built here, against the route being timed;
  * CLI jobs: the exit code plus one of the checks above on the printed
    output; reproduce's own "ok" flag.

check() raises Mismatch when a result is wrong.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

from anyondeg import reference
from anyondeg.poly import IntPoly, poly_from_text
from anyondeg.syt import unrestricted_count

P = 2**31 - 1  # prime; a sum of three residues still fits in int64
LAMBDA_TOL = 1e-6
_STEPS = ((0, 1), (-1, 0), (1, -1))  # box added to row 1, 3, 2


class Mismatch(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _vertices(k: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(k + 1) for j in range(k + 1 - i)]


def walk_counts_mod(k: int, n_max: int) -> tuple[dict, np.ndarray]:
    """Walk counts from the origin mod P: (vertex -> column, rows n = 0..n_max)."""
    verts = _vertices(k)
    col = {v: c for c, v in enumerate(verts)}
    zero = len(verts)  # index of an always-zero slot for missing predecessors
    preds = np.array([[col.get((i - di, j - dj), zero) for di, dj in _STEPS]
                      for i, j in verts])
    cur = np.zeros(zero + 1, dtype=np.int64)
    cur[col[(0, 0)]] = 1
    hist = np.empty((n_max + 1, zero), dtype=np.int64)
    hist[0] = cur[:zero]
    for n in range(1, n_max + 1):
        cur[:zero] = cur[preds].sum(axis=1) % P
        hist[n] = cur[:zero]
    return col, hist


def _check_count(k: int, n: int, v: tuple[int, int], value: int, hist_row, col) -> None:
    where = f"k={k} n={n} v={v}"
    _require(value % P == int(hist_row[col[v]]), f"count mod p differs at {where}")
    if n <= k:
        _require(value == unrestricted_count(n, v), f"hook-length count differs at {where}")
    if k in reference.ORIGIN_COUNTS and v == (0, 0) and n in reference.ORIGIN_COUNT_COLUMNS:
        golden = reference.ORIGIN_COUNTS[k][reference.ORIGIN_COUNT_COLUMNS.index(n)]
        _require(value == golden, f"golden origin count differs at {where}")


def check_counts(k: int, n: int, counts: dict) -> None:
    """counts: vertex -> walk count after n steps, every vertex of level k."""
    col, hist = walk_counts_mod(k, n)
    _require(set(map(tuple, counts)) == set(col), f"wrong vertex set at k={k}")
    for v, value in counts.items():
        _check_count(k, n, tuple(v), value, hist[n], col)


def check_degeneracy(k: int, n: int, v: tuple[int, int], value: int) -> None:
    col, hist = walk_counts_mod(k, n)
    _check_count(k, n, v, value, hist[n], col)


def check_grid(k_max: int, v: tuple[int, int], columns, rows: dict) -> None:
    """rows: level -> counts at v, aligned with columns."""
    _require(sorted(rows) == list(range(1, k_max + 1)), "wrong set of levels")
    for k, row in rows.items():
        _require(len(row) == len(columns), f"row length differs at k={k}")
        if v[0] + v[1] > k:
            _require(not any(row), f"nonzero counts outside the level-{k} lattice")
            continue
        col, hist = walk_counts_mod(k, max(columns))
        for n, value in zip(columns, row):
            _check_count(k, n, v, value, hist[n], col)


def _edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and directed edges (row, column) of the level-k lattice."""
    col = {v: c for c, v in enumerate(_vertices(k))}
    edges = [(r, col[(i + di, j + dj)]) for (i, j), r in col.items()
             for di, dj in _STEPS if (i + di, j + dj) in col]
    return len(col), edges


def _det_mod(k: int, t0: int) -> int:
    """det(I - t0 A) mod P by Gaussian elimination, A the adjacency matrix."""
    dim, edges = _edges(k)
    m = [[int(r == c) for c in range(dim)] for r in range(dim)]
    for r, c in edges:
        m[r][c] = -t0 % P
    det = 1
    for p in range(dim):
        piv = next((r for r in range(p, dim) if m[r][p]), None)
        if piv is None:
            return 0
        if piv != p:
            m[p], m[piv] = m[piv], m[p]
            det = -det
        det = det * m[p][p] % P
        inv = pow(m[p][p], P - 2, P)
        for r in range(p + 1, dim):
            f = m[r][p] * inv % P
            if f:
                m[r] = [(a - f * b) % P for a, b in zip(m[r], m[p])]
    return det % P


def check_det(k: int, det: IntPoly) -> None:
    if k in reference.DETERMINANTS:
        _require(det == reference.determinant_poly(k), f"golden determinant differs at k={k}")
        return
    _require(det[0] == 1, f"determinant constant term is not 1 at k={k}")
    # One random point suffices: a wrong polynomial of degree d agrees
    # with the right one at no more than d of the P points.
    t0 = random.Random(k).randrange(2, P)
    _require(det(t0) % P == _det_mod(k, t0), f"det(I - tA) mod p differs at k={k}")


def check_series(k: int, v: tuple[int, int], fn, coeffs: list) -> None:
    """fn: the generating function at v; coeffs: its first terms."""
    col, hist = walk_counts_mod(k, len(coeffs) - 1)
    for n, c in enumerate(coeffs):
        c = Fraction(c)
        _require(c.denominator == 1, f"non-integer series coefficient at k={k} v={v} n={n}")
        _check_count(k, n, v, c.numerator, hist[n], col)
    golden = {1: reference.LEVEL1_GENFUNCS, 2: reference.LEVEL2_GENFUNCS}.get(k, {})
    spec = golden.get(v) or (reference.ORIGIN_GENFUNCS.get(k) if v == (0, 0) else None)
    if spec is not None:
        _require(fn == reference.genfunc_rational(spec), f"golden generating function differs at k={k} v={v}")


def lambda_closed_form(k: int) -> float:
    return math.sin(3 * math.pi / (3 + k)) / math.sin(math.pi / (3 + k))


def spectral_radius(k: int) -> float:
    dim, edges = _edges(k)
    a = np.zeros((dim, dim))
    a[tuple(zip(*edges))] = 1.0
    return float(np.max(np.abs(np.linalg.eigvals(a))))


def check_lambda(k: int, value: float, routes: tuple[float, ...] = ()) -> None:
    """value against the closed form, and against the further routes given."""
    for other in (lambda_closed_form(k),) + routes:
        _require(abs(value - other) < LAMBDA_TOL, f"growth factor {value!r} differs from {other!r} at k={k}")


def check_cli(job, rc: int, out: str) -> None:
    _require(rc == 0, f"{' '.join(job.argv)} exited with code {rc}")
    if job.kind == "count":
        check_degeneracy(job.k, job.n, job.v, int(out))
    elif job.kind == "det":
        check_det(job.k, poly_from_text(out.strip()))
    elif job.kind == "verify":
        _require(out.startswith("ok:"), f"verify printed {out!r}")
    elif job.kind == "qdim":
        report = json.loads(out)
        radius = spectral_radius(job.k)
        for key in ("lambda_trig", "lambda_perron", "lambda_from_root"):
            check_lambda(job.k, report[key], (radius,))
    elif job.kind == "syt":
        # With the level at least n the restriction is inert.
        check_degeneracy(job.n, job.n, job.v, int(out))
    elif job.kind == "table":
        lines = out.strip().splitlines()
        columns = [int(c) for c in lines[0].split(",")[1:]]
        rows = {int(line.split(",")[0]): [int(c) for c in line.split(",")[1:]]
                for line in lines[1:]}
        check_grid(job.k, job.v, columns, rows)
    elif job.kind == "reproduce":
        _require(json.loads(out)["ok"] is True, "reproduce reported a mismatch")
    else:
        raise ValueError(f"no check for CLI subcommand {job.kind!r}")


def check(job, result) -> None:
    """Raise Mismatch unless result is the right answer to job."""
    if job.argv:
        rc, out = result
        check_cli(job, rc, out)
    elif job.kind == "degeneracy":
        check_degeneracy(job.k, job.n, job.v, result)
    elif job.kind == "count_paths":
        check_counts(job.k, job.n, result.counts)
    elif job.kind == "table":
        check_grid(job.k, job.v, result.columns, result.rows)
    elif job.kind == "perron":
        check_lambda(job.k, result)
    elif job.kind == "det":
        check_det(job.k, result)
    elif job.kind == "solve":
        fn, coeffs = result
        check_series(job.k, job.v, fn, coeffs)
    elif job.kind == "root":
        det, rho = result
        check_det(job.k, det)
        check_lambda(job.k, 1.0 / rho, (spectral_radius(job.k),))
    else:
        raise ValueError(f"no check for job kind {job.kind!r}")
