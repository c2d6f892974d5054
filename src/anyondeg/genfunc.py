"""Generating functions via the polynomial linear system M_k x = e_1.

The recurrence on walk counts packs into a linear system M_k x = e_1
over Z[t], where x stacks the generating functions in canonical vertex
order and M_k = I - t * A^T (A the adjacency matrix).  ``build_system``
fills M_k straight from the lattice's predecessor rule; in the
canonical order it is the paper's block-tridiagonal form.

Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic in
the grade classes C0, C1, C2 and the system is solved on C0 alone:
(I - s B^T) x_0 = e_0 with s = t^3 and B = A_01 A_12 A_20, about a third
of the dimension and a third of the degree.  No elimination runs: the
integer powers B^m, m <= |C0|, give det(I - s B^T) (which is det(M_k)
at s = t^3) from their traces by Newton's identities, and the series
x_0 from their origin rows; the Cramer numerators are det(I - s B^T)
times that series, truncated below s^|C0|.  Then x_1 = t A_01^T x_0 and
x_2 = t A_12^T x_1, and each function is reduced in s before s = t^3
is substituted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .lattice import ORIGIN, Vertex, build_lattice, graded_walks, \
    predecessors
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
    lands on the origin's row (else ArithmeticError)."""
    lat = build_lattice(k)
    zero, neg_t = IntPoly.zero(), IntPoly.monomial(-1, 1)
    mat = [[zero] * lat.dim for _ in range(lat.dim)]
    for v in lat.vertices:
        r = lat.index(v)
        mat[r][r] = IntPoly.one()
        for u in predecessors(v, k):
            mat[r][lat.index(u)] = neg_t
    if lat.index(ORIGIN) != 0 or mat[0][0] != IntPoly.one():
        raise ArithmeticError("e_1 does not land on the origin's row")
    return mat


@dataclass(frozen=True)
class GenFnSolution:
    """All generating functions at level k plus the system determinant."""

    k: int
    solutions: dict[Vertex, RationalFn]
    determinant: IntPoly


def _class0_det(walks: list[dict[int, int]]
                ) -> tuple[IntPoly, list[list[int]]]:
    """D(s) = det(I - s B^T), and row 0 of B^m for m = 0..n0.

    B[z, r] = walks[r][z] (absent keys are 0), n0 = len(walks).  The
    power sums p_m = tr(B^m) of the integer powers B^m give D by
    Newton's identities, m c_m = -sum_{i=1..m} c_{m-i} p_i, each
    division exact (else ArithmeticError).  Entry v of row 0 of B^m
    counts the 3m-step walks from the origin to v: the s^m coefficient
    of the series F_v of x_0 in (I - s B^T) x_0 = e_0.
    """
    n0 = len(walks)
    cols = [list(row.items()) for row in walks]
    power = [[int(r == c) for c in range(n0)] for r in range(n0)]
    sums, rows = [], [power[0]]  # rows[m] is row 0 of B^m
    for _ in range(n0):
        power = [[sum(row[z] * c for z, c in col) for col in cols]
                 for row in power]
        sums.append(sum(power[r][r] for r in range(n0)))
        rows.append(power[0])
    coeffs = [1]
    for m in range(1, n0 + 1):
        c, rem = divmod(-sum(coeffs[m - i] * sums[i - 1]
                             for i in range(1, m + 1)), m)
        if rem:
            raise ArithmeticError(f"Newton identity not exact at s^{m}")
        coeffs.append(c)
    return IntPoly(coeffs), rows


def _class0_numerators(det: IntPoly, rows: list[list[int]]) -> list[IntPoly]:
    """Cramer numerators N_v = (D F_v) mod s^n0 from ``_class0_det``.

    Each N_v is a minor of size n0 - 1 with entries of degree <= 1, so
    the s^n0 coefficient of D F_v must vanish (else ArithmeticError).
    """
    n0 = len(rows) - 1
    coeffs = [det[i] for i in range(n0 + 1)]
    numerators = []
    for v in range(n0):
        prod = [sum(coeffs[i] * rows[m - i][v] for i in range(m + 1))
                for m in range(n0 + 1)]
        if prod[n0]:
            raise ArithmeticError(
                f"numerator {v} has a nonzero s^{n0} coefficient")
        numerators.append(IntPoly(prod[:n0]))
    return numerators


@lru_cache(maxsize=None)
def system_det(k: int) -> IntPoly:
    """det(I - t * A^T) at level k, constant term +1.

    Computed as det(I - s * B^T) on the origin's grade class, then
    s = t^3 (the two agree because A is 3-cyclic in the grade classes);
    no Cramer numerator is formed.
    """
    *_, walks = graded_walks(build_lattice(k))
    det, _ = _class0_det(walks)
    return det.substitute_power(3)


@lru_cache(maxsize=None)
def solve_system(k: int) -> GenFnSolution:
    """Exact solution of M_k x = e_1: every generating function, reduced.

    Solves (I - s B^T) x_0 = e_0 on class 0, then x_1 = t A_01^T x_0
    and x_2 = t A_12^T x_1.  Each class-g function is t^g times a
    function of s = t^3; it is reduced in s and then substituted, which
    gives the same lowest terms as reducing in t.
    """
    lat = build_lattice(k)
    classes, pred, walks = graded_walks(lat)
    det, rows = _class0_det(walks)
    numerators = _class0_numerators(det, rows)
    graded = {}
    for g, cls in enumerate(classes):
        if g:  # class-g numerators: sums over the class-(g-1) predecessors
            numerators = [sum((numerators[u] for u in us), IntPoly.zero())
                          for us in pred[g]]
        for v, num in zip(cls, numerators):
            graded[v] = RationalFn(num, det).substitute_power(3, g)
    solutions = {v: graded[v] for v in lat.vertices}
    sol0 = solutions[ORIGIN]
    if sol0.num[0] != sol0.den[0]:
        raise ArithmeticError("origin series must start at 1")
    return GenFnSolution(k=k, solutions=solutions,
                         determinant=det.substitute_power(3))


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

    if n_max < 0:  # before the costly solve
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    sol = solve_system(k)
    mismatches = []
    for v, fn in sol.solutions.items():
        series = fn.series_coeffs(n_max)
        counts = origin_history(k, n_max, v)
        for n in range(n_max + 1):
            if series[n] != counts[n]:
                mismatches.append((v, n, series[n], counts[n]))
    return mismatches
