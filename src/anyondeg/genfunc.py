"""Generating functions via the polynomial linear system M_k x = e_1.

The recurrence on walk counts packs into a linear system M_k x = e_1
over Z[t], where x stacks the generating functions in canonical vertex
order and M_k = I - t * A^T (A the adjacency matrix).  M_k is filled
straight from the lattice's predecessor rule; in the canonical order it
is the paper's block-tridiagonal form.  The system is solved exactly
by fraction-free (Bareiss) elimination; the final pivot is det(M_k),
and Cramer numerators come out of a division-exact back substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import ORIGIN, Vertex, build_lattice, predecessors
from .poly import IntPoly, RationalFn

PolyMatrix = list  # list of rows of IntPoly


def j_matrix(p: int, q: int, s: int) -> list[list[int]]:
    """p x q 0/1 band matrix: ones exactly where column - row = s (1-based)."""
    if p < 1 or q < 1:
        raise ValueError("matrix dimensions must be positive")
    return [[1 if c - r == s else 0 for c in range(1, q + 1)]
            for r in range(1, p + 1)]


def build_system(k: int) -> PolyMatrix:
    """System matrix I - t * A^T of dimension (k+1)(k+2)/2, canonical order.

    Row v holds 1 on the diagonal and -t in the column of every
    predecessor of v; the right-hand side of the system is e_1, which
    lands on the origin's row (asserted)."""
    lat = build_lattice(k)
    zero, neg_t = IntPoly.zero(), IntPoly.monomial(-1, 1)
    mat = [[zero] * lat.dim for _ in range(lat.dim)]
    for v in lat.vertices:
        r = lat.index(v)
        mat[r][r] = IntPoly.one()
        for u in predecessors(v, k):
            mat[r][lat.index(u)] = neg_t
    assert lat.index(ORIGIN) == 0 and mat[0][0] == IntPoly.one()
    return mat


@dataclass(frozen=True)
class GenFnSolution:
    """All generating functions at level k plus the system determinant."""

    k: int
    solutions: dict[Vertex, RationalFn]
    determinant: IntPoly


def _bareiss(mat: PolyMatrix, rhs: list[IntPoly] | None):
    """In-place fraction-free elimination; returns the determinant.

    Pivots are the leading principal minors; each has constant term 1
    (the matrix is the identity at t = 0), so no pivoting is needed and
    every division by the previous pivot is exact.
    """
    n = len(mat)
    prev = IntPoly.one()
    for p in range(n - 1):
        piv = mat[p][p]
        assert piv[0] == 1, "pivot lost its unit constant term"
        for r in range(p + 1, n):
            factor = mat[r][p]
            for c in range(p + 1, n):
                mat[r][c] = (piv * mat[r][c] - factor * mat[p][c]).exact_div(prev)
            if rhs is not None:
                rhs[r] = (piv * rhs[r] - factor * rhs[p]).exact_div(prev)
            mat[r][p] = IntPoly.zero()
        prev = piv
    det = mat[n - 1][n - 1]
    if det.is_zero():
        raise ArithmeticError("system matrix is singular")
    return det


@lru_cache(maxsize=None)
def system_det(k: int) -> IntPoly:
    """Determinant of the level-k system matrix, constant term +1."""
    mat = build_system(k)
    det = _bareiss(mat, None)
    if det[0] < 0:
        det = -det
    return det


@lru_cache(maxsize=None)
def solve_system(k: int) -> GenFnSolution:
    """Exact solution of M_k x = e_1: every generating function, reduced."""
    mat = build_system(k)
    n = len(mat)
    rhs = [IntPoly.one()] + [IntPoly.zero()] * (n - 1)
    det = _bareiss(mat, rhs)
    sign = 1 if det[0] > 0 else -1

    # Back substitution for the Cramer numerators N with x = N / det:
    # U[i][i] * N_i = rhs_i * det - sum_{j>i} U[i][j] * N_j, all exact.
    numerators: list[IntPoly] = [IntPoly.zero()] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i] * det
        for j in range(i + 1, n):
            if mat[i][j] and numerators[j]:
                acc = acc - mat[i][j] * numerators[j]
        numerators[i] = acc.exact_div(mat[i][i])

    if sign < 0:
        det = -det
        numerators = [-p for p in numerators]
    lat = build_lattice(k)
    solutions = {v: RationalFn(numerators[lat.index(v)], det)
                 for v in lat.vertices}
    sol0 = solutions[Vertex(0, 0)]
    assert sol0.num[0] == sol0.den[0], "origin series must start at 1"
    return GenFnSolution(k=k, solutions=solutions, determinant=det)


def generating_function(k: int, v: Vertex) -> RationalFn:
    v = Vertex(*v)
    sol = solve_system(k)
    if v not in sol.solutions:
        raise ValueError(f"vertex {tuple(v)} not in the level-{k} lattice")
    return sol.solutions[v]


def verify_series(k: int, n_max: int) -> list[tuple[Vertex, int, int, int]]:
    """Compare Taylor coefficients against the walk-count DP.

    Returns a list of mismatches (vertex, n, series value, dp value);
    empty means the two routes agree everywhere up to n_max.
    """
    from .pathcount import origin_history

    sol = solve_system(k)
    mismatches = []
    for v, fn in sol.solutions.items():
        series = fn.series_coeffs(n_max)
        counts = origin_history(k, n_max, v)
        for n in range(n_max + 1):
            if series[n] != counts[n]:
                mismatches.append((v, n, series[n], counts[n]))
    return mismatches
