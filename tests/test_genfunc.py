import random
import tracemalloc
from itertools import islice
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

import anyondeg.genfunc
from anyondeg.genfunc import (
    _cube, _is_prime, _orbit_factors,
    _unit_roots, generating_function, solve_system, system_det, verify_series,
)
from anyondeg.lattice import Vertex, build_lattice, orbit_firsts, sweep
from anyondeg.pathcount import origin_history
from anyondeg.poly import IntPoly, RationalFn
from anyondeg.reference import (
    LEVEL1_GENFUNCS, LEVEL2_GENFUNCS, ORIGIN_GENFUNCS, determinant_poly,
    genfunc_rational,
)
from anyondeg.reproduce import SERIES_N_MAX

from oracles import _bareiss, _newton, adjacency, block_det_mod_p, \
    class_positions, closed_walk_det, coprime_mod_p, determinant_degree, \
    every_unit_orbit_factors, full_length_mismatches, \
    full_system_solution, graded_bareiss_solution, graded_system, \
    j_matrix, paper_block_system, poly_gcd, primes_1_mod, reduced, \
    residue_lowest_terms, rotate, rotation_orbit_firsts, \
    schur_at_alcove_point, series_mod_p, transfer_det_mod_p, \
    trig_trivial_factor, verlinde_counts


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
    # M_k as the oracle pastes it from the paper's block display
    def test_level_one_matrix(self):
        one, neg_t, zero = IntPoly.one(), P({1: -1}), IntPoly()
        assert paper_block_system(1) == [
            [one, zero, neg_t],
            [neg_t, one, zero],
            [zero, neg_t, one],
        ]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_transfer_form(self, k):
        # the paper's block display is exactly I - t * A^T in the
        # canonical order, A from the box-addition rule (graded_system
        # builds I - t M^T entry by entry)
        adj = adjacency(build_lattice(k)).tolist()
        assert paper_block_system(k) == graded_system(adj)

    def test_dimension(self):
        assert len(paper_block_system(4)) == 15


class TestSolveSystem:
    def test_level_one(self):
        sol = solve_system(1)
        for v, spec in LEVEL1_GENFUNCS.items():
            assert sol[v] == genfunc_rational(spec)

    def test_level_two(self):
        sol = solve_system(2)
        for v, spec in LEVEL2_GENFUNCS.items():
            assert sol[v] == genfunc_rational(spec)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_origin_closed_forms(self, k):
        assert solve_system(k)[Vertex(0, 0)] \
            == genfunc_rational(ORIGIN_GENFUNCS[k])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_values_at_origin_of_t(self, k):
        sol = solve_system(k)
        for v, fn in sol.items():
            first = fn.series_coeffs(0)[0]
            assert first == (1 if v == Vertex(0, 0) else 0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_denominators_divide_determinant(self, k):
        sol = solve_system(k)
        for fn in sol.values():
            g = poly_gcd(system_det(k), fn.den)
            assert g.degree == fn.den.degree

    @pytest.mark.parametrize("spec", [
        *LEVEL1_GENFUNCS.values(), *LEVEL2_GENFUNCS.values(),
        *ORIGIN_GENFUNCS.values()])
    def test_reference_specs_are_in_lowest_terms(self, spec):
        # so genfunc_rational needs no reducing constructor
        num, den = (IntPoly.from_terms(terms) for terms in spec)
        assert reduced(num, den) == genfunc_rational(spec)

    def test_level_one_inverse_identity(self):
        # (1 - t^3) * M_1^{-1} has the cyclic power pattern
        sol = solve_system(1)
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
        mat = paper_block_system(2)
        det = system_det(2)
        for r in range(6):
            for cidx in range(6):
                acc = IntPoly()
                for m in range(6):
                    acc = acc + mat[r][m] * g2[m][cidx]
                assert acc == (det if r == cidx else IntPoly())


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
        sizes = [len(c) for c in class_positions(build_lattice(k))[0]]
        assert det.degree == 3 * min(sizes) == 3 * sizes[1]
        assert det.degree == determinant_degree(k)
        assert det[0] == 1
        assert det[3] == -k * k
        assert all(c == 0 for e, c in enumerate(det.coeffs) if e % 3)

    @pytest.mark.parametrize("k", [48, 64])
    def test_block_determinant_mod_p(self, k):
        # past the closed-walk oracle's reach: D(t0^3) mod p by elimination
        # on I - s0 B, which uses no spectrum
        p = 2 ** 61 - 1
        t0 = random.Random(k).randrange(2, p)
        det = system_det(k)
        assert det.degree == determinant_degree(k)
        assert det(t0) % p == block_det_mod_p(k, pow(t0, 3, p), p)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_degree_law_counts_rotation_orbits(self, k):
        # D(s) is the product of 1 - s chi^3 over one alcove point per
        # free rotation orbit, so its degree in t is three times their number
        assert 3 * len(orbit_firsts(k)) == determinant_degree(k) \
            == 3 * len(rotation_orbit_firsts(k))

    @pytest.mark.parametrize("k", range(1, 65))
    def test_alcove_points_are_orbit_firsts(self, k):
        # lattice.orbit_firsts, the one rule the factors and the Perron
        # tables read, against J-orbits built from oracles.rotate: each
        # 3-point orbit gives its first point in (i, j) order, and J's
        # fixed point gives none
        vertices = build_lattice(k).vertices
        fixed = [v for v in vertices if rotate(v, k) == v]
        assert fixed == ([Vertex(k // 3, k // 3)] if k % 3 == 0 else [])
        assert 3 * len(orbit_firsts(k)) + len(fixed) == len(vertices)
        assert orbit_firsts(k) == rotation_orbit_firsts(k)


class TestGradedReduction:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_full_system(self, k):
        det, solutions = full_system_solution(k)
        sol = solve_system(k)
        assert system_det(k) == det
        assert list(sol.items()) == list(solutions.items())
        full = [fn.den for fn in sol.values() if fn.den.degree == det.degree]
        assert full and all(den == system_det(k) for den in full)

    @pytest.mark.parametrize("k", [9, 12])
    def test_matches_graded_bareiss(self, k):
        det, solutions = graded_bareiss_solution(k)
        sol = solve_system(k)
        assert system_det(k) == det
        assert list(sol.items()) == list(solutions.items())

    @pytest.mark.parametrize("k", [*range(9, 15), 16, 21])
    def test_determinant_mod_p(self, k):
        p = 2 ** 61 - 1
        t0 = random.Random(k).randrange(2, p)
        det = system_det(k)
        assert det(t0) % p == transfer_det_mod_p(k, t0, p)
        assert det.degree == determinant_degree(k)


def _det_s(k):
    return IntPoly(system_det(k).coeffs[::3])


def _times(det, series):
    """The first len(series) coefficients of D G, for D's coefficients
    det and G's leading coefficients series."""
    return [sum(d * series[m - j] for j, d in enumerate(det[:m + 1]))
            for m in range(len(series))]


def _is_prime_12_bases(n):
    """Miller-Rabin with the prime bases up to 37, deterministic for
    n < 3.18e23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def corrupt_check_prime(unit_roots, drawn):
    """``_unit_roots`` with every pair after the first corrupted; the
    prime of every pair drawn is appended to ``drawn``."""
    def roots(order):
        for n, (p, powers) in enumerate(unit_roots(order)):
            drawn.append(p)
            yield p, powers if n == 0 else [(x + 1) % p for x in powers]
    return roots


class TestGaloisFactors:
    def test_is_prime(self):
        small = [n for n in range(2000) if n > 1
                 and all(n % q for q in range(2, int(n ** 0.5) + 1))]
        assert [n for n in range(2000) if _is_prime(n)] == small
        assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 32 - 5)
        # the strong pseudoprime to the bases 2, 3, 5 and 7, and a
        # Carmichael number
        assert not _is_prime(3215031751)
        assert not _is_prime(561)
        # refused from 2^32 on, where the test does not answer: two
        # Mersenne numbers, the strong pseudoprime to every prime base up
        # to 31, and the first one to 2, 7 and 61
        for n in (2 ** 32, 2 ** 61 - 1, 2 ** 62 - 1, 3825123056546413051,
                  4759123141):
            with pytest.raises(ValueError):
                _is_prime(n)

    def test_is_prime_matches_a_sieve_below_a_million(self):
        # the sieve of Eratosthenes, exact with no primality test of its own
        sieve = bytearray([0, 0]) + bytearray([1]) * (10 ** 6 - 2)
        for q in range(2, 1001):
            if sieve[q]:
                sieve[q * q::q] = bytes(len(range(q * q, 10 ** 6, q)))
        assert [n for n in range(10 ** 6) if _is_prime(n)] \
            == [n for n, prime in enumerate(sieve) if prime]

    @settings(max_examples=1000, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    @example(2 ** 32 - 1)
    @example(2 ** 32 - 5)
    @example(3215031751)
    def test_is_prime_matches_twelve_bases_below_2_to_32(self, n):
        assert _is_prime(n) == _is_prime_12_bases(n)

    @pytest.mark.parametrize("order", range(6, 202))
    def test_unit_roots_yield_every_prime(self, order):
        # the first two primes the factors use, and every candidate
        # between them, agree with the twelve-base test; the walk from
        # the expected start is cut at 2000 candidates, so a library that
        # starts elsewhere fails here instead of sending the walk on
        start = (2 ** 30 - 2) // order * order + 1
        candidates = range(start, start - 2000 * order, -order)
        roots = _unit_roots(order)
        primes = [next(roots)[0], next(roots)[0]]
        assert primes == list(islice(filter(_is_prime_12_bases, candidates),
                                     2))

    @pytest.mark.parametrize("k", range(1, 65))
    def test_cubes_distinct_and_degrees_sum_to_det(self, k):
        order = 3 * (k + 3)
        p, powers = next(_unit_roots(order))
        # zeta = powers[1] has exact order 3(k + 3) mod a prime p = 1 mod it
        primes = [q for q in range(2, order + 1)
                  if order % q == 0 and all(q % r for r in range(2, q))]
        assert p % order == 1 and p < 2 ** 30 and _is_prime(p)
        assert len(powers) == order and pow(powers[1], order, p) == 1
        assert all(pow(powers[1], order // q, p) != 1 for q in primes)
        cubes = [_cube((i + j + 2, i + 1, 0), powers, p)
                 for i, j in rotation_orbit_firsts(k)]
        assert len(set(cubes)) == len(cubes) and 0 not in cubes
        first, first_powers, factors = _orbit_factors(k)
        assert (first, first_powers) == (p, powers)
        assert sum(f.degree for f, _ in factors) == len(cubes) \
            == determinant_degree(k) // 3
        assert all(f[0] == 1 for f, _ in factors)
        assert {_cube(ell, powers, p) for _, ell in factors} <= set(cubes)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_orbit_factors_match_every_unit_images(self, k):
        # the library takes one unit per class mod k + 3; the oracle loops
        # over every unit mod 3(k + 3), with its own primes and cube
        p, powers, factors = _orbit_factors(k)
        q, q_powers, expected = every_unit_orbit_factors(k)
        assert (p, powers, factors) == (q, q_powers, expected)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_trivial_factor_is_the_trig_product(self, k):
        # the first factor is the trivial weight's, with roots the
        # 1 / (1 + 2 cos(2 pi a / (k + 3)))^3; the oracle builds it from
        # Ramanujan sums, with no prime and no character cube
        assert _orbit_factors(k)[2][0][0] == trig_trivial_factor(k)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 64).flatmap(lambda k: st.tuples(
        st.just(k),
        st.integers(0, k).flatmap(
            lambda i: st.tuples(st.just(i), st.integers(0, k - i))),
        st.integers(0, 3 * (k + 3) - 1), st.integers(0, 2))))
    @example((5, (1, 2), 7, 1))  # the units 7 and 15 mod 24
    @example((4, (0, 3), 3, 1))  # 3, no unit mod 21, stands for 10
    def test_cube_depends_on_a_mod_k_plus_3(self, case):
        # sigma_a(chi^3) = sigma_b(chi^3) mod p for units a = b mod k + 3,
        # and _orbit_factors passes a in 1 .. k + 2, a unit mod k + 3 that
        # need not be one mod 3(k + 3), for those units
        k, (i, j), a, shift = case
        order = 3 * (k + 3)
        b = (a + shift * (k + 3)) % order
        p, powers = next(_unit_roots(order))
        ell = (i + j + 2, i + 1, 0)
        assert _cube(ell, powers, p, a) == _cube(ell, powers, p, b)

    @pytest.mark.parametrize("k", [*range(1, 22), 28])
    def test_product_is_the_determinant(self, k):
        # the product of the factors against closed walks, which use no
        # spectrum (1.5 s at k = 28)
        *_, factors = _orbit_factors(k)
        det = prod((f for f, _ in factors), start=IntPoly.one())
        assert system_det(k) == det.substitute_power(3) == closed_walk_det(k)

    @pytest.mark.parametrize("k", [33, 44, 50])
    def test_product_is_the_block_determinant_mod_p(self, k):
        # past the closed-walk oracle's reach, where the exact D is
        # costly: D(s0) mod p by elimination on I - s0 B, which shares
        # nothing with the closed-walk D or with the factors
        p = 2 ** 61 - 1
        s0 = random.Random(k).randrange(2, p)
        *_, factors = _orbit_factors(k)
        assert prod(f(s0) for f, _ in factors) % p \
            == block_det_mod_p(k, s0, p)

    @pytest.mark.parametrize("k", [16, 17])
    def test_lowest_terms_by_prs(self, k):
        # a vertex of each grade class, and at k = 17 one whose
        # denominator shed a factor (none does at k = 16)
        sol = solve_system(k)
        shed = [v for v, fn in sol.items() if fn.den != system_det(k)]
        assert bool(shed) == (k == 17)
        for v in [Vertex(0, 0), Vertex(1, 0), Vertex(0, 1)] + shed[:1]:
            fn = sol[v]
            assert poly_gcd(fn.num, fn.den).degree == 0

    @pytest.mark.parametrize("k", [13, 15, 22, 24])
    def test_lowest_terms_mod_p(self, k):
        # past the PRS checks (3 s a vertex at k = 22): every vertex, in
        # s = t^3, certified coprime by Euclid mod p
        sol = solve_system(k)
        assert any(fn.den != system_det(k) for fn in sol.values())
        p = 2 ** 61 - 1
        for v, fn in sol.items():
            g = (2 * v.i + v.j) % 3
            assert coprime_mod_p(IntPoly(fn.den.coeffs[::3]),
                                 IntPoly(fn.num.coeffs[g::3]), p)

    @pytest.mark.parametrize("k", [*range(1, 25), 32])
    def test_kept_sets_match_the_residue_route(self, k):
        # each unreduced N_v from the fed sweep, reduced by its residues at
        # the factors' roots, where the library reads S_{v mu}
        classes = class_positions(build_lattice(k))[0]
        p, powers, factors = _orbit_factors(k)
        det = prod((f for f, _ in factors), start=IntPoly.one())
        steps = list(sweep(k, 3 * len(classes[0]) - 1, det.coeffs))
        roots = [(f, _cube(ell, powers, p)) for f, ell in factors]
        sol, dens = solve_system(k), {}
        for g, cls in enumerate(classes):
            for r, v in enumerate(cls):
                num = IntPoly([step[r] for step in steps[g::3]])
                num, kept = residue_lowest_terms(num, roots, p)
                if kept not in dens:
                    dens[kept] = prod((factors[pos][0] for pos in kept),
                                      start=IntPoly.one())
                assert sol[v] == RationalFn(
                    num.substitute_power(3, g), dens[kept].substitute_power(3))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_schur_vanishes_exactly_where_a_factor_is_shed(self, k):
        # s_v(x_mu) = S_{v mu} / S_{0 mu} by Jacobi-Trudi, not by the
        # library's alternant, at the member mu of each factor
        *_, factors = _orbit_factors(k)
        p = primes_1_mod(6 * (k + 3), 1)[0]
        for v, fn in solve_system(k).items():
            den = IntPoly(fn.den.coeffs[::3])
            for f, ell in factors:
                try:
                    den.exact_div(f)
                    shed = False
                except ValueError:
                    shed = True
                assert (schur_at_alcove_point(k, v, ell, p) == 0) == shed

    @settings(max_examples=60, deadline=None)
    @given(*[st.lists(st.integers(-9, 9), min_size=1, max_size=5)] * 3)
    def test_coprime_mod_p_agrees_with_prs(self, f, g, h):
        # |Res(f, g)| < 10^14 < p here, so mod p decides exactly
        p = 2 ** 61 - 1
        f, g, h = IntPoly(f + [1]), IntPoly(g + [1]), IntPoly(h + [1])
        assert coprime_mod_p(f, g, p) == (poly_gcd(f, g).degree == 0)
        assert not coprime_mod_p(f * h, g * h, p)

    @pytest.mark.parametrize("k", [3, 9])
    def test_root_residues(self, k):
        # each factor vanishes at 1/x mod p for x = chi^3 of its member
        p, powers, factors = _orbit_factors(k)
        for f, ell in factors:
            assert f(pow(_cube(ell, powers, p), -1, p)) % p == 0

    def test_product_mismatch_raises(self, monkeypatch):
        # k = 5 lifts with the first prime alone, so the second, whose
        # zeta powers are shifted here, is the check prime: two pairs drawn
        drawn = []
        monkeypatch.setattr(anyondeg.genfunc, "_unit_roots",
                            corrupt_check_prime(_unit_roots, drawn))
        solve_system.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="check prime"):
                solve_system(5)
        finally:
            solve_system.cache_clear()
        assert len(drawn) == 2

    def test_library_and_oracle_primes_never_meet(self, monkeypatch):
        # the factors are built below 2^30 and the mod-p oracles work
        # above it, so block_det_mod_p, verlinde_counts and the
        # Schur check never share a modulus with the route they check
        drawn = set()

        def recorded(order):
            for p, powers in _unit_roots(order):
                drawn.add(p)
                yield p, powers

        monkeypatch.setattr(anyondeg.genfunc, "_unit_roots", recorded)
        for k in range(1, 65):
            _orbit_factors(k)
        oracle = {p for k in range(1, 65)
                  for p in primes_1_mod(6 * (k + 3), 2)} | {2 ** 61 - 1}
        assert max(drawn) < 2 ** 30 < min(oracle)

    @pytest.mark.parametrize("k", [3, 6, 9, 12])
    def test_forced_false_zero_keeps_the_result(self, monkeypatch, k):
        # every S-matrix entry read as 0: exact_div then tries every
        # factor, and the ones it cannot divide out stay in the denominator
        expected = solve_system(k)
        monkeypatch.setattr(anyondeg.genfunc, "_s_entry", lambda *args: 0)
        solve_system.cache_clear()
        try:
            got = solve_system(k)
        finally:
            solve_system.cache_clear()
        assert got is not expected
        assert list(got.items()) == list(expected.items())
        assert any(fn.den != system_det(k) for fn in got.values())

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.integers(0, (k + 1) * (k + 2) // 2 - 1))))
    def test_matches_prs_reduction(self, case):
        # the reduced pair is the PRS oracle's reduction of (N_v, D)
        k, index = case
        v = build_lattice(k).vertices[index]
        g = (2 * v.i + v.j) % 3
        n0 = len(class_positions(build_lattice(k))[0][0])
        series = origin_history(k, 3 * n0 + 2, v)[g::3]
        det = _det_s(k)
        *num, top = _times(det.coeffs, series)  # D G to s^n0
        assert top == 0
        fn = reduced(IntPoly(num), det)
        assert solve_system(k)[v] == RationalFn(
            fn.num.substitute_power(3, g), fn.den.substitute_power(3))


class TestNumeratorSweep:
    @pytest.mark.parametrize("k", [*range(1, 17), 21])
    def test_fed_sweep_gives_every_numerator(self, k):
        # the sweep fed D at the origin holds (D G_v) to s^n0 at every
        # vertex, its s^n0 coefficient 0; here D G_v is multiplied out
        # from each vertex's own walk counts
        classes = class_positions(build_lattice(k))[0]
        n0, det = len(classes[0]), _det_s(k).coeffs
        steps = list(sweep(k, 3 * n0 + 2, det))
        for g, cls in enumerate(classes):
            for r, v in enumerate(cls):
                series = origin_history(k, 3 * n0 + 2, v)[g::3]
                product = _times(det, series)
                assert product[n0] == 0
                assert [step[r] for step in steps[g::3]] == product


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
        rhs = [IntPoly.one()] + [IntPoly()] * (n0 - 1)
        det = _newton(sums)
        products = [_times(det.coeffs, [row[v] for row in rows])
                    for v in range(n0)]  # D G_v to s^n0
        assert all(product[n0] == 0 for product in products)
        numerators = [IntPoly(product[:n0]) for product in products]
        assert (det, numerators) == _bareiss(graded_system(matrix), rhs)


# vertices in classes 1, 2 and 0 whose numerators the fault tests double
DOUBLED = [Vertex(0, 1), Vertex(0, 2), Vertex(1, 1)]


def _class0_size(k):
    return len(class_positions(build_lattice(k))[0][0])


def _proof_stop(k):
    """The last step ``verify_series`` compares when nothing differs:
    3 |C0| + max(deg den, deg num + 1) - 1 over the vertices, in t."""
    return 3 * _class0_size(k) - 1 + max(
        max(fn.den.degree, fn.num.degree + 1)
        for fn in anyondeg.genfunc.solve_system(k).values())


def _doubled_numerators(k):
    return {v: RationalFn(fn.num + fn.num, fn.den) if v in DOUBLED else fn
            for v, fn in solve_system(k).items()}


def _count_sweep_steps(monkeypatch):
    """Wrap ``genfunc.sweep`` so that every step it yields is appended
    to the returned list; solves cached before the wrap do not count."""
    real, steps = anyondeg.genfunc.sweep, []

    def counted(*args):
        for counts in real(*args):
            steps.append(len(steps))
            yield counts

    monkeypatch.setattr(anyondeg.genfunc, "sweep", counted)
    return steps


class TestSeriesConsistency:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_series_equals_dp(self, k):
        # 28 steps past the prefix 0..3 |C0| + 2 the numerators are read from
        n0 = len(class_positions(build_lattice(k))[0][0])
        assert verify_series(k, 3 * n0 + 30) == []

    def test_mismatches_in_canonical_order_then_by_n(self, monkeypatch):
        # (0, 1), (0, 2), (1, 1) lie in classes 1, 2, 0, so the sweep meets
        # (1, 1) first; doubled numerators make every nonzero term wrong
        k, n_max = 3, 20
        solutions = _doubled_numerators(k)
        monkeypatch.setattr(anyondeg.genfunc, "solve_system",
                            lambda k: solutions)
        expected = [(v, n, 2 * c, c) for v in DOUBLED
                    for n, c in enumerate(origin_history(k, n_max, v)) if c]
        assert {v for v, *_ in expected} == set(DOUBLED)
        assert verify_series(k, n_max) == expected

    @pytest.mark.parametrize("k,distinct", [(33, 22), (37, 19), (45, 29)])
    def test_series_match_verlinde(self, k, distinct):
        # past the other oracles' reach: at one vertex per denominator,
        # three coefficients on its grade class past the 3 |C0| + 3 that
        # the numerator sweep fixes, mod p, against the walk-free Verlinde
        n0 = len(class_positions(build_lattice(k))[0][0])
        sol = solve_system(k)
        one_each = {fn.den: (v, fn) for v, fn in sol.items()}
        assert len(one_each) == distinct
        p = primes_1_mod(6 * (k + 3), 1)[0]
        for v, fn in one_each.values():
            ns = [3 * n0 + 3 + (2 * v.i + v.j) % 3 + 3 * m for m in (0, 1, 20)]
            series = series_mod_p(fn, ns[-1], p)
            assert [series[n] for n in ns] == verlinde_counts(k, ns, p, v)

    def test_memory_and_work_flat_past_the_stop(self, monkeypatch):
        # n = 1500 and 3000 both stop at step 57 at k = 6, so the sweep
        # takes the same steps and the peak does not grow with n; the
        # full-length route kept deg(den) coefficients of O(n) bits per
        # vertex, which grew the peak about linearly
        assert _proof_stop(6) == 57
        steps = _count_sweep_steps(monkeypatch)
        peaks, counts = [], []
        for n in (1500, 3000):
            steps.clear()
            tracemalloc.start()
            try:
                assert verify_series(6, n) == []
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            counts.append(len(steps))
        assert counts == [58, 58]
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_matches_the_full_length_route(self, k):
        stop, sol = _proof_stop(k), solve_system(k)
        for n_max in (0, stop - 1, stop, stop + 1, 3 * stop):
            assert verify_series(k, n_max) \
                == full_length_mismatches(k, n_max, sol) == []

    @pytest.mark.parametrize("k", [3, 5, 9, 12])
    def test_planted_faults_match_the_full_length_route(self, monkeypatch,
                                                        k):
        # the doubled numerators of the canonical-order test; a mismatch
        # before the stop runs the sweep on to n_max
        solutions = _doubled_numerators(k)
        monkeypatch.setattr(anyondeg.genfunc, "solve_system",
                            lambda k: solutions)
        stop = _proof_stop(k)
        n_max = stop + 30
        expected = full_length_mismatches(k, n_max, solutions)
        assert {v for v, *_ in expected} == set(DOUBLED)
        assert max(n for _, n, *_ in expected) > stop
        assert verify_series(k, n_max) == expected

    @pytest.mark.parametrize("k", range(1, 13))
    def test_sweep_stops_at_the_proof_length(self, monkeypatch, k):
        stop = _proof_stop(k)
        steps = _count_sweep_steps(monkeypatch)
        for n_max in (0, stop - 1, stop, stop + 1, 3 * stop):
            steps.clear()
            assert verify_series(k, n_max) == []
            assert len(steps) == min(n_max, stop) + 1

    @pytest.mark.parametrize("k", range(1, 7))
    def test_series_item_reaches_the_proof_length(self, monkeypatch, k):
        # reproduce's series item proves agreement at every n for each k
        stop = _proof_stop(k)
        steps = _count_sweep_steps(monkeypatch)
        assert verify_series(k, SERIES_N_MAX) == []
        assert len(steps) == stop + 1 <= SERIES_N_MAX + 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_planted_coefficient_is_reported_alone(self, data):
        # (N + c t^m D) / D has the series of N / D plus c t^m, so only
        # step m is wrong, at any m below the vertex's proof length L
        k = data.draw(st.integers(1, 8), label="k")
        sol = solve_system(k)
        v = data.draw(st.sampled_from(list(sol)), label="vertex")
        fn, n0 = sol[v], _class0_size(k)
        length = 3 * n0 + max(fn.den.degree, fn.num.degree + 1)
        m = data.draw(st.integers(0, length - 1), label="m")
        c = data.draw(st.integers(-10 ** 6, 10 ** 6).filter(bool), label="c")
        n_max = m + data.draw(st.integers(0, 30), label="n_max - m")
        solutions = {**sol, v: RationalFn(
            fn.num + P({m: c}) * fn.den, fn.den)}
        dp = origin_history(k, m, v)[m]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(anyondeg.genfunc, "solve_system", lambda k: solutions)
            assert verify_series(k, n_max) == [(v, m, dp + c, dp)]

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
        for fn in solve_system(k).values():
            for c in fn.series_coeffs(15):
                assert c.denominator == 1 and c >= 0
