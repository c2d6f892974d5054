"""Generating functions via the polynomial linear system M_k x = e_1.

The recurrence on walk counts packs into a linear system M_k x = e_1
over Z[t], where x stacks the generating functions in canonical vertex
order and M_k = I - t * A^T (A the adjacency matrix).  ``build_system``
fills M_k straight from the lattice's predecessor rule; in the
canonical order it is the paper's block-tridiagonal form.

Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic in
the grade classes C0, C1, C2, and on C0 the system is
(I - s B^T) x_0 = e_0 with s = t^3 and B = A_01 A_12 A_20.  No
elimination runs.  ``system_det`` takes D(s) = det(I - s B^T), which
is det(M_k) at s = t^3, from the closed 3m-step walks on C0, which
sum to tr(B^m), m <= n0 = |C0|, by Newton's identities; each class-0
vertex starts one ``pathcount._sweep``.  Every class-g function is
t^g N(s) / D(s) with deg N < n0 (Cramer's rule on C0; x_1 = t A_01^T x_0
and x_2 = t A_12^T x_1 keep that bound), so N = (D G) mod s^n0 for the
walk series G of the vertex, which one origin sweep to step 3 n0 + 2
gives for every vertex at once: its steps g, g + 3, ... are flat lists
over class g, one series coefficient per vertex of that class.  The
s^n0 coefficient of D G must vanish.  Each function is reduced in s
before s = t^3 is substituted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from operator import mul

from .lattice import ORIGIN, Vertex, build_lattice, check_vertex, \
    class_predecessors, grade_classes, predecessors
from .pathcount import _sweep
from .poly import IntPoly, RationalFn

PolyMatrix = list  # list of rows of IntPoly


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


def _newton(sums: list[int]) -> IntPoly:
    """D(s) = det(I - s B^T) from the power sums p_m = sums[m - 1] =
    tr(B^m), m <= n0, of an n0 x n0 matrix B by Newton's identities,
    m c_m = -sum_{i=1..m} c_{m-i} p_i, each division exact (else
    ArithmeticError)."""
    coeffs = [1]
    for m in range(1, len(sums) + 1):
        c, rem = divmod(-sum(coeffs[m - i] * sums[i - 1]
                             for i in range(1, m + 1)), m)
        if rem:
            raise ArithmeticError(f"Newton identity not exact at s^{m}")
        coeffs.append(c)
    return IntPoly(coeffs)


def _numerator(det: tuple[int, ...], series: list[int]) -> IntPoly:
    """N = (D G) mod s^n0 for D's coefficients ``det`` and the first
    n0 + 1 coefficients ``series`` of a function G = N / D.

    N has degree below n0, so the s^n0 coefficient of D G must vanish
    (else ArithmeticError).
    """
    n0 = len(series) - 1
    prod = [sum(map(mul, det, series[m::-1])) for m in range(n0 + 1)]
    if prod[n0]:
        raise ArithmeticError(
            f"a numerator has a nonzero s^{n0} coefficient")
    return IntPoly(prod[:n0])


@lru_cache(maxsize=None)
def system_det(k: int) -> IntPoly:
    """det(I - t * A^T) at level k, constant term +1.

    Computed as det(I - s * B^T) on the origin's grade class, then
    s = t^3 (the two agree because A is 3-cyclic in the grade classes);
    no numerator is formed.  The sweep from the z-th class-0 vertex
    adds the closed walks at z to tr(B^m) at step 3m.
    """
    pred = class_predecessors(build_lattice(k))
    n0 = len(pred[0])
    sums = [0] * n0
    for z in range(n0):
        steps = _sweep(pred, 3 * n0, z)  # class 0 at steps 3, 6, ..., 3 n0
        for m, counts in enumerate(islice(steps, 3, None, 3)):
            sums[m] += counts[z]
    return _newton(sums).substitute_power(3)


@lru_cache(maxsize=None)
def solve_system(k: int) -> GenFnSolution:
    """Exact solution of M_k x = e_1: every generating function, reduced.

    Every class-g function is t^g G(s) with G = N / D, D(s) the
    determinant in s = t^3 and deg N < n0 = |C0|.  One walk-count sweep
    to step 3 n0 + 2 gives each G to s^n0, and N = (D G) mod s^n0.  G
    is reduced in s and then substituted, which gives the same lowest
    terms as reducing in t.
    """
    lat = build_lattice(k)
    classes = grade_classes(lat)
    n0 = len(classes[0])
    det_t = system_det(k)
    coeffs = det_t.coeffs[::3]
    det = IntPoly(coeffs)
    steps = list(_sweep(class_predecessors(lat), 3 * n0 + 2))
    graded = {}
    for g, cls in enumerate(classes):
        # steps[g::3] are the class-g lists; zip drops the trailing slot
        for v, series in zip(cls, zip(*steps[g::3])):
            graded[v] = RationalFn(_numerator(coeffs, series),
                                   det).substitute_power(3, g)
    solutions = {v: graded[v] for v in lat.vertices}
    sol0 = solutions[ORIGIN]
    if sol0.num[0] != sol0.den[0]:
        raise ArithmeticError("origin series must start at 1")
    return GenFnSolution(k=k, solutions=solutions, determinant=det_t)


def generating_function(k: int, v: Vertex) -> RationalFn:
    """The generating function of the walks from the origin to v; a
    vertex outside the lattice is rejected before the solve."""
    v = Vertex(*v)
    check_vertex(v, k)
    return solve_system(k).solutions[v]


def verify_series(k: int, n_max: int) -> list[tuple[Vertex, int, int, int]]:
    """Compare Taylor coefficients against the walk-count DP.

    Returns a list of mismatches (vertex, n, series value, dp value) in
    canonical vertex order, then by n; empty means the two routes agree
    everywhere up to n_max.  Every series is expanded first; then each
    step of one sweep is compared as it comes and dropped.  At step n
    the vertices outside class n mod 3 are compared with 0.
    """
    if n_max < 0:  # before the costly solve
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    sol = solve_system(k)
    lat = build_lattice(k)
    classes = grade_classes(lat)
    series = [[sol.solutions[v].series_coeffs(n_max) for v in cls]
              for cls in classes]
    mismatches = []
    for n, counts in enumerate(_sweep(class_predecessors(lat), n_max)):
        for g, cls in enumerate(classes):
            on_grade = g == n % 3
            for r, (v, coeffs) in enumerate(zip(cls, series[g])):
                dp = counts[r] if on_grade else 0
                if coeffs[n] != dp:
                    mismatches.append((v, n, coeffs[n], dp))
    mismatches.sort(key=lambda m: (lat.index(m[0]), m[1]))
    return mismatches
