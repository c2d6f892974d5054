"""Generating functions via the polynomial linear system M_k x = e_1.

The recurrence on walk counts packs into a linear system M_k x = e_1
over Z[t], where x stacks the generating functions in canonical vertex
order and M_k = I - t * A^T (A the adjacency matrix).  ``build_system``
fills M_k straight from the lattice's predecessor rule; in the
canonical order it is the paper's block-tridiagonal form.

Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic in
the grade classes C0, C1, C2 and the system is solved on C0 alone:
(I - s B^T) x_0 = e_0 with s = t^3 and B = A_01 A_12 A_20, about a third
of the dimension and a third of the degree.  Fraction-free (Bareiss)
elimination solves it exactly; the final pivot is det(I - s B^T), which
is det(M_k) at s = t^3, and the Cramer numerators come out of a
division-exact back substitution.  Then x_1 = t A_01^T x_0 and
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
    """Fraction-free elimination of mat x = rhs, in place.

    Returns (det, numerators): det(mat) and, when rhs is given, the
    Cramer numerators N with x = N / det (None otherwise).  Pivots are
    the leading principal minors; each has constant term 1 (the matrix
    is the identity at 0), so no pivoting is needed and every division
    by the previous pivot is exact.
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
    assert det[0] == 1, "determinant lost its unit constant term"
    if rhs is None:
        return det, None

    # U[i][i] * N_i = rhs_i * det - sum_{j>i} U[i][j] * N_j, all exact.
    numerators: list[IntPoly] = [IntPoly.zero()] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i] * det
        for j in range(i + 1, n):
            if mat[i][j] and numerators[j]:
                acc = acc - mat[i][j] * numerators[j]
        numerators[i] = acc.exact_div(mat[i][i])
    return det, numerators


def _graded_system(k: int):
    """The grade classes, their predecessor lists and I - s * B^T on C0.

    Row r of B^T counts the 3-step walks z -> C1 -> C2 -> r between
    class-0 vertices (``lattice.graded_walks``), so x_0 = e_0 + s B^T x_0
    with s = t^3; the right-hand side e_0 lands on the origin's row
    (asserted).
    """
    lat = build_lattice(k)
    classes, pred, walks = graded_walks(lat)
    n0 = len(classes[0])
    mat = [[IntPoly((int(r == c), -row.get(c, 0))) for c in range(n0)]
           for r, row in enumerate(walks)]
    assert classes[0][0] == ORIGIN and mat[0][0][0] == 1
    return lat, classes, pred, mat


@lru_cache(maxsize=None)
def system_det(k: int) -> IntPoly:
    """det(I - t * A^T) at level k, constant term +1.

    Computed as det(I - s * B^T) on the origin's grade class, then
    s = t^3 (the two agree because A is 3-cyclic in the grade classes).
    """
    *_, mat = _graded_system(k)
    det, _ = _bareiss(mat, None)
    return det.substitute_power(3)


@lru_cache(maxsize=None)
def solve_system(k: int) -> GenFnSolution:
    """Exact solution of M_k x = e_1: every generating function, reduced.

    Solves (I - s B^T) x_0 = e_0 on class 0, then x_1 = t A_01^T x_0
    and x_2 = t A_12^T x_1.  Each class-g function is t^g times a
    function of s = t^3; it is reduced in s and then substituted, which
    gives the same lowest terms as reducing in t.
    """
    lat, classes, pred, mat = _graded_system(k)
    rhs = [IntPoly.one()] + [IntPoly.zero()] * (len(mat) - 1)
    det, numerators = _bareiss(mat, rhs)
    graded = {}
    for g, cls in enumerate(classes):
        if g:  # class-g numerators: sums over the class-(g-1) predecessors
            numerators = [sum((numerators[u] for u in us), IntPoly.zero())
                          for us in pred[g]]
        for v, num in zip(cls, numerators):
            graded[v] = RationalFn(num, det).substitute_power(3, g)
    solutions = {v: graded[v] for v in lat.vertices}
    sol0 = solutions[ORIGIN]
    assert sol0.num[0] == sol0.den[0], "origin series must start at 1"
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

    sol = solve_system(k)
    mismatches = []
    for v, fn in sol.solutions.items():
        series = fn.series_coeffs(n_max)
        counts = origin_history(k, n_max, v)
        for n in range(n_max + 1):
            if series[n] != counts[n]:
                mismatches.append((v, n, series[n], counts[n]))
    return mismatches
