import random

import pytest
from hypothesis import example, given, strategies as st

import anyondeg.genfunc
from anyondeg.genfunc import (
    _newton, _numerator, build_system, generating_function,
    solve_system, system_det, verify_series,
)
from anyondeg.lattice import Vertex, build_lattice, grade_classes
from anyondeg.pathcount import origin_history
from anyondeg.poly import IntPoly, RationalFn, poly_gcd
from anyondeg.reference import (
    LEVEL1_GENFUNCS, LEVEL2_GENFUNCS, ORIGIN_GENFUNCS, determinant_degree,
    determinant_poly, genfunc_rational,
)

from oracles import _bareiss, adjacency, full_system_solution, \
    graded_bareiss_solution, graded_system, j_matrix, paper_block_system, \
    transfer_det_mod_p


def P(terms):
    return IntPoly.from_terms(terms)


class TestJMatrix:
    def test_identity(self):
        assert j_matrix(3, 3, 0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_rectangular_super(self):
        assert j_matrix(2, 3, 1) == [[0, 1, 0], [0, 0, 1]]

    def test_rectangular_tall(self):
        assert j_matrix(3, 2, 0) == [[1, 0], [0, 1], [0, 0]]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            j_matrix(0, 2, 0)


class TestBuildSystem:
    def test_level_one_matrix(self):
        one, neg_t, zero = IntPoly.one(), P({1: -1}), IntPoly.zero()
        assert build_system(1) == [
            [one, zero, neg_t],
            [neg_t, one, zero],
            [zero, neg_t, one],
        ]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_transfer_form(self, k):
        # the system is exactly the paper's block display and I - t * A^T
        # in the canonical order
        mat = build_system(k)
        assert mat == paper_block_system(k)
        adj = adjacency(build_lattice(k))
        n = len(mat)
        for r in range(n):
            for c in range(n):
                expected = (IntPoly.one() if r == c else IntPoly.zero())
                if adj[c][r]:
                    expected = expected - P({1: 1})
                assert mat[r][c] == expected

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            build_system(0)

    def test_dimension(self):
        assert len(build_system(4)) == 15


class TestSolveSystem:
    def test_level_one(self):
        sol = solve_system(1).solutions
        for v, spec in LEVEL1_GENFUNCS.items():
            assert sol[v] == genfunc_rational(spec)

    def test_level_two(self):
        sol = solve_system(2).solutions
        for v, spec in LEVEL2_GENFUNCS.items():
            assert sol[v] == genfunc_rational(spec)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_origin_closed_forms(self, k):
        assert solve_system(k).solutions[Vertex(0, 0)] \
            == genfunc_rational(ORIGIN_GENFUNCS[k])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_values_at_origin_of_t(self, k):
        sol = solve_system(k)
        for v, fn in sol.solutions.items():
            first = fn.series_coeffs(0)[0]
            assert first == (1 if v == Vertex(0, 0) else 0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_denominators_divide_determinant(self, k):
        sol = solve_system(k)
        for fn in sol.solutions.values():
            g = poly_gcd(sol.determinant, fn.den)
            assert g.degree == fn.den.degree

    def test_level_one_inverse_identity(self):
        # (1 - t^3) * M_1^{-1} has the cyclic power pattern
        sol = solve_system(1).solutions
        t = {Vertex(0, 0): 0, Vertex(0, 1): 1, Vertex(1, 0): 2}
        for v, power in t.items():
            assert sol[v] == RationalFn(P({power: 1}), P({0: 1, 3: -1}))


class TestG2Identity:
    def test_inverse_block_display(self):
        # published 6x6 inverse: M_2 * G2 == det * I with the y/z shorthand
        y = P({0: 1, 3: -1})          # 1 - t^3
        z = P({1: 1, 4: 1})           # t(1 + t^3)
        t = P({1: 1})
        c = P({0: 1, 3: -3})          # 1 - 3t^3
        two_t3, two_t4, two_t2 = P({3: 2}), P({4: 2}), P({2: 2})
        g2 = [
            [c, t * z, P({4: 2}), t * y, two_t3, t * t * y],
            [t * y, y, t * z, two_t2, z, two_t3],
            [t * t * y, t * y, c, two_t3, t * z, two_t4],
            [t * z, z, two_t3, y, two_t2, t * y],
            [two_t3, two_t2, t * y, z, y, t * z],
            [two_t4, two_t3, t * t * y, t * z, t * y, c],
        ]
        mat = build_system(2)
        det = system_det(2)
        for r in range(6):
            for cidx in range(6):
                acc = IntPoly.zero()
                for m in range(6):
                    acc = acc + mat[r][m] * g2[m][cidx]
                assert acc == (det if r == cidx else IntPoly.zero())


class TestDeterminant:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_reference_polynomials(self, k):
        assert system_det(k) == determinant_poly(k)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_structure_laws(self, k):
        # B = A_01 A_12 A_20 has rank at most min |C_g|, and the degree in
        # s = t^3 reaches it; the smallest class is C1 (not C0: at k = 3,
        # |C0| = 4 while the degree is 9)
        det = system_det(k)
        sizes = [len(c) for c in grade_classes(build_lattice(k))]
        assert det.degree == 3 * min(sizes) == 3 * sizes[1]
        assert det.degree == determinant_degree(k)
        assert det[0] == 1
        assert det[3] == -k * k
        assert all(c == 0 for e, c in enumerate(det.coeffs) if e % 3)


class TestGradedReduction:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_full_system(self, k):
        det, solutions = full_system_solution(k)
        sol = solve_system(k)
        assert system_det(k) == sol.determinant == det
        assert list(sol.solutions.items()) == list(solutions.items())

    @pytest.mark.parametrize("k", [9, 12])
    def test_matches_graded_bareiss(self, k):
        det, solutions = graded_bareiss_solution(k)
        sol = solve_system(k)
        assert sol.determinant == det
        assert list(sol.solutions.items()) == list(solutions.items())

    @pytest.mark.parametrize("k", [*range(9, 15), 16, 21])
    def test_determinant_mod_p(self, k):
        p = 2 ** 61 - 1
        t0 = random.Random(k).randrange(2, p)
        det = system_det(k)
        assert det(t0) % p == transfer_det_mod_p(k, t0, p)
        assert det.degree == determinant_degree(k)


square_matrices = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    min_size=n, max_size=n))


class TestSolveClass0:
    @given(square_matrices)
    @example([[0, 0], [0, 0]])  # zero
    @example([[0, 1, 2], [0, 0, 3], [0, 0, 0]])  # nilpotent
    @example([[1, 2, 1], [2, 4, 2], [0, 0, 0]])  # rank 1
    @example([[1, 1], [1, 1]])  # rank 1: deg N_0 = deg D = 1
    @example([[0, 1], [1, 0]])  # permutation
    @example([[5]])
    def test_matches_bareiss(self, matrix):
        # G_v of (I - s M^T) x = e_0 has the s^m coefficient
        # (row 0 of M^m)[v]; D comes from the traces of M^m, m <= n0
        n0 = len(matrix)
        power = [[int(r == c) for c in range(n0)] for r in range(n0)]
        rows, sums = [power[0]], []
        for _ in range(n0):
            power = [[sum(row[z] * matrix[z][c] for z in range(n0))
                      for c in range(n0)] for row in power]
            rows.append(power[0])
            sums.append(sum(power[r][r] for r in range(n0)))
        rhs = [IntPoly.one()] + [IntPoly.zero()] * (n0 - 1)
        det = _newton(sums)
        numerators = [_numerator(det.coeffs, [row[v] for row in rows])
                      for v in range(n0)]
        assert (det, numerators) == _bareiss(graded_system(matrix), rhs)

    def test_system_det_forms_no_numerators(self, monkeypatch):
        def no_numerators(det, series):
            raise AssertionError("numerators formed")

        monkeypatch.setattr(anyondeg.genfunc, "_numerator", no_numerators)
        system_det.cache_clear()
        try:
            assert system_det(5) == determinant_poly(5)
        finally:
            system_det.cache_clear()


class TestSeriesConsistency:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_series_equals_dp(self, k):
        # 28 steps past the prefix 0..3 |C0| + 2 the numerators are read from
        n0 = len(grade_classes(build_lattice(k))[0])
        assert verify_series(k, 3 * n0 + 30) == []

    def test_generating_function_accessor(self):
        fn = generating_function(2, Vertex(1, 1))
        series = fn.series_coeffs(12)
        history = origin_history(2, 12, Vertex(1, 1))
        assert [int(c) for c in series] == history

    def test_accessor_rejects_foreign_vertex(self, monkeypatch):
        def no_solve(k):
            raise AssertionError("solve_system ran")

        monkeypatch.setattr(anyondeg.genfunc, "solve_system", no_solve)
        with pytest.raises(ValueError, match="not in the level-2 lattice"):
            generating_function(2, (3, 0))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_series_are_nonnegative_integers(self, k):
        for fn in solve_system(k).solutions.values():
            for c in fn.series_coeffs(15):
                assert c.denominator == 1 and c >= 0
