"""Generating functions via the polynomial linear system M_k x = e_1.

x stacks the generating functions in canonical vertex order, and
M_k = I - t * A^T over Z[t] (A the adjacency matrix) is the paper's
block-tridiagonal form.  M_k is never built here; only the test
oracles solve the full system.

Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic in
the grade classes C0, C1, C2, and on C0 the system is
(I - s B^T) x_0 = e_0 with s = t^3 and B = A_01 A_12 A_20.  No
elimination runs.  Every class-g function is t^g N(s) / D(s) with
D(s) = det(I - s B^T), which is det(M_k) at s = t^3, and deg N < n0 =
|C0| (Cramer's rule on C0; x_1 = t A_01^T x_0 and x_2 = t A_12^T x_1
keep that bound), so N = (D G) mod s^n0 for the walk series G of the
vertex.  One sweep that starts D_m walks at the origin at step 3m
gives D G at every vertex: step 3m + g holds its s^m coefficients over
class g, and the s^n0 ones must vanish (Cayley-Hamilton).

D comes from the spectrum, and lowest terms too, with no walk and no
polynomial gcd.  The lattice is the SU(3)_k fusion graph, so
D(s) = prod (1 - s chi_mu^3) over one alcove point mu per rotation
orbit of size 3, its first in (i, j) order: ``lattice.orbit_firsts``,
the one rule the Perron tables read too.  chi_mu is an eigenvalue of A
in Q(zeta), zeta of order 3(k + 3).  D is squarefree and splits over Q
into one irreducible factor F_O per Galois orbit O of the chi_mu^3.
``_orbit_factors`` builds every F_O mod primes p = 1 mod 3(k + 3)
below 2^30, lifts it by CRT and checks the lift mod one further prime;
D is their product.  chi_mu^3 = omega^(-|l|) (sum_j omega^(l_j))^3 lies
in Q(omega), omega = zeta^3 of order k + 3, so sigma_a(chi_mu^3) depends
on a mod k + 3 alone, in Z[zeta] and so mod p: one unit per class of
(Z/(k + 3))^x gives every Galois image.  ``_cube`` and ``_s_entry``
read l_3 = 0, as ``_label`` gives.
Below 2^30 a residue is one CPython digit and a three-base Miller-Rabin
test is proven, so the prime search costs little; the lift only takes
more primes where the bound on F_O's coefficients needs them.  The
modular S-matrix diagonalizes A (Verlinde), so the class-g vertex v
has G = sum_mu c_mu / (1 - s chi_mu^3) plus a polynomial, with
c_mu = 3 S_{0 mu} conj(S_{v mu}) chi_mu^g and S_{0 mu} != 0, and F_O
stays in its denominator exactly when S_{v mu} != 0 for one, and then
every, mu in O (Coste-Gannon).  N / D
is reduced by that test mod p: a nonzero S_{v mu} keeps F_O, and where
it is 0 ``exact_div`` decides.  Each function is reduced in s, and each
distinct denominator is substituted s = t^3 once.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from itertools import count
from math import gcd, prod

from .lattice import ORIGIN, Vertex, build_lattice, check_vertex, \
    class_offsets, orbit_firsts, sweep
from .poly import IntPoly, RationalFn


# Miller-Rabin with the bases 2, 7, 61 is deterministic for every
# n < 4 759 123 141 (Jaeschke, Math. Comp. 61 (1993) 915), and
# _is_prime answers for n < 2^32 only.  Trial division, one gcd with the
# product of the odd primes below 100, first rejects most composites for
# less than one modular power, and leaves n > 97, so no base is 0 mod n.
_MR_BASES = (2, 7, 61)
_SMALL_PRIMES = tuple(q for q in range(3, 100, 2)
                      if all(q % r for r in range(3, q, 2)))
_SMALL_PRODUCT = prod(_SMALL_PRIMES)


def _is_prime(n: int) -> bool:
    """Deterministic primality test for n < 2^32, where the bases 2, 7,
    61 are proven; ValueError from 2^32 on."""
    if n >= 2 ** 32:
        raise ValueError(f"_is_prime is proven for n < 2^32, got {n}")
    if n < 2 or n % 2 == 0:
        return n == 2
    if gcd(n, _SMALL_PRODUCT) != 1:
        return n in _SMALL_PRIMES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
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


def _unit_roots(order: int) -> Iterator[tuple[int, list[int]]]:
    """Pairs (p, powers) for the primes p = 1 (mod order) below 2^30,
    descending: powers lists zeta^0 .. zeta^(order - 1) mod p for an
    element zeta of exact multiplicative order ``order``.  Below 2^30
    every residue is one CPython digit, so each product and modular
    power is cheap, and the primality test is a three-base one."""
    factors = [q for q in range(2, order + 1)
               if order % q == 0 and _is_prime(q)]
    for p in range((2 ** 30 - 2) // order * order + 1, order, -order):
        if not _is_prime(p):
            continue
        for g in count(2):
            zeta = pow(g, (p - 1) // order, p)
            if all(pow(zeta, order // q, p) != 1 for q in factors):
                break
        powers = [1]
        for _ in range(order - 1):
            powers.append(powers[-1] * zeta % p)
        yield p, powers


def _label(i: int, j: int) -> tuple[int, int, int]:
    """l = (i+j+2, i+1, 0) for the point (i, j); chi = sum_j
    zeta^(3 l_j - |l|) is its eigenvalue of A.  The rotation J
    (``lattice.orbit_firsts``) multiplies chi by a cube root of unity,
    so chi^3 is one value per orbit, and J's fixed point (k/3, k/3),
    when 3 | k, has chi = 0."""
    return i + j + 2, i + 1, 0


def _cube(ell: tuple[int, ...], powers: list[int], p: int,
          a: int = 1) -> int:
    """sigma_a(chi)^3 mod p for chi = sum_j zeta^(3 l_j - |l|), ``ell``
    the l_j and ``powers`` the powers of zeta mod p; sigma_a maps zeta to
    zeta^a.  It reads l_3 = 0, as ``_label`` gives, so the exponents are
    2 l_1 - l_2, 2 l_2 - l_1 and -(l_1 + l_2).  Every exponent is
    -|l| mod 3, so the value is omega^(-a|l|) (sum_j omega^(a l_j))^3 with
    omega = zeta^3 of order k + 3: chi^3 lies in Q(omega), and the value
    depends on a mod k + 3 alone, for any integer a, in Z[zeta] and so
    mod p too."""
    n, (l1, l2, _) = len(powers), ell
    return pow(sum([powers[a * (2 * l1 - l2) % n],
                    powers[a * (2 * l2 - l1) % n],
                    powers[-a * (l1 + l2) % n]]), 3, p)


def _s_entry(ell: tuple, rep: tuple, powers: list[int], p: int) -> int:
    """The alternant det[omega^(l^v_a l^mu_b)] mod p, omega = zeta^3 read
    from the powers of zeta, for l^v = ``ell`` and l^mu = ``rep``.  It is
    S_{v mu} up to a nonzero factor and complex conjugation, so it is 0
    exactly when S_{v mu} is.  It reads l_3 = 0 on both sides, as
    ``_label`` gives, where it is ad - a - bc + b + c - d on the four
    entries of its top-left block."""
    n, (x1, x2, _), (y1, y2, _) = len(powers), ell, rep
    a, b = powers[3 * x1 * y1 % n], powers[3 * x1 * y2 % n]
    c, d = powers[3 * x2 * y1 % n], powers[3 * x2 * y2 % n]
    return (a * d - a - b * c + b + c - d) % p


def _factor_mod(values: list[int], orbit: list[int], p: int) -> list[int]:
    """prod_{r in orbit} (1 - values[r] s) mod p, ascending coefficients."""
    poly = [1]
    for r in orbit:
        poly = [(c - values[r] * d) % p for c, d in zip(poly + [0], [0] + poly)]
    return poly


def _orbit_factors(k: int) -> tuple[int, list[int],
                                    list[tuple[IntPoly, tuple[int, ...]]]]:
    """D's irreducible factors over Q, one per Galois orbit O of the
    chi^3, as (p, powers, [(F_O, l of one member of O)]), with p the first
    prime and ``powers`` its powers of zeta.

    F_O = prod_{mu in O} (1 - s chi_mu^3).  The orbits come from the
    first prime: the chi^3 must be distinct and nonzero mod p, and every
    Galois conjugate of one must be another (else ArithmeticError).  A
    coefficient of F_O is at most 28^|O| in size since |chi| <= 3, which
    sets how many primes the CRT lift takes.  Every lifted F_O must then
    agree with the product mod the next prime, which the lift did not use
    (else ArithmeticError).  The primes come from ``_unit_roots``, below
    2^30.
    """
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    order = 3 * (k + 3)
    reps = [_label(i, j) for i, j in orbit_firsts(k)]
    roots = _unit_roots(order)
    p, powers = next(roots)
    values = [_cube(ell, powers, p) for ell in reps]
    where = {x: r for r, x in enumerate(values)}
    if len(where) < len(values) or 0 in where:
        raise ArithmeticError(
            f"the character cubes are not distinct and nonzero mod {p}")
    # one a per unit class mod k + 3: _cube at a is sigma_b for every
    # unit b = a mod k + 3
    units = [a for a in range(1, k + 3) if gcd(a, k + 3) == 1]
    orbits, done = [], set()
    for r, ell in enumerate(reps):
        if r in done:
            continue
        images = {_cube(ell, powers, p, a) for a in units}
        if not where.keys() >= images:
            raise ArithmeticError(
                "a Galois conjugate of a character cube is not one")
        orbit = sorted(where[x] for x in images)
        done.update(orbit)
        orbits.append(orbit)
    first = p, powers
    bound = 2 * 28 ** max(map(len, orbits), default=0)
    modulus, lifts = 1, [[0] * (len(orbit) + 1) for orbit in orbits]
    while modulus <= bound:
        inverse = pow(modulus, -1, p)
        for lift, orbit in zip(lifts, orbits):
            lift[:] = [c + modulus * ((d - c) * inverse % p)
                       for c, d in zip(lift, _factor_mod(values, orbit, p))]
        modulus *= p
        p, powers = next(roots)
        values = [_cube(ell, powers, p) for ell in reps]
    factors = []
    for lift, orbit in zip(lifts, orbits):
        coeffs = [c - modulus if 2 * c > modulus else c for c in lift]
        if [c % p for c in coeffs] != _factor_mod(values, orbit, p):
            raise ArithmeticError(
                f"a Galois-orbit factor fails the check prime {p}")
        factors.append((IntPoly(coeffs), reps[orbit[0]]))
    return *first, factors


def _lowest_terms(num: IntPoly, v: Vertex, factors: list, p: int,
                  powers: list[int]) -> tuple[IntPoly, tuple[int, ...]]:
    """num / D in lowest terms for vertex v: num with every factor F_O of
    D that divides it divided out, and the positions of the factors kept.

    F_O divides num exactly when S_{v mu} = 0 for its member mu (the
    module docstring), so a nonzero S_{v mu} mod p proves it does not,
    and at a zero ``exact_div`` decides and proves every factor it
    divides out; a false zero keeps the factor.
    """
    ell = _label(*v)
    kept = []
    for pos, (factor, rep) in enumerate(factors):
        if not _s_entry(ell, rep, powers, p):
            try:
                num = num.exact_div(factor)
                continue
            except ValueError:
                pass
        kept.append(pos)
    return num, tuple(kept)


@lru_cache(maxsize=None)
def system_det(k: int) -> IntPoly:
    """det(I - t * A^T) at level k, constant term +1.

    The product of D's Galois-orbit factors, D(s) = det(I - s * B^T) on
    the origin's grade class, at s = t^3 (the two agree because A is
    3-cyclic in the grade classes); no walk is counted and no numerator
    is formed.
    """
    *_, factors = _orbit_factors(k)
    return prod((f for f, _ in factors), start=IntPoly.one()) \
        .substitute_power(3)


@lru_cache(maxsize=None)
def solve_system(k: int) -> dict[Vertex, RationalFn]:
    """Exact solution of M_k x = e_1: every generating function, reduced,
    as a dict from each vertex, in canonical order, to its function.

    Every class-g function is t^g G(s) with G = N / D, D(s) the
    determinant in s = t^3 and deg N < n0 = |C0|.  D is the product of
    its Galois-orbit factors.  One sweep fed D at the origin gives D G
    to s^n0 at every vertex, N below it and 0 at s^n0.  G is put in
    lowest terms by those factors and then substituted, which gives the
    same lowest terms as reducing in t; the vertices that keep the same
    factors share one denominator object.  Every denominator is a
    product of the factors, each with constant term 1, so it is
    primitive and positive at 0.  The dict is the cached object itself,
    so a caller must not change it; its common denominator is
    ``system_det(k)``.
    """
    off = class_offsets(k)
    n0 = off[0][-1]
    p, powers, factors = _orbit_factors(k)
    det = prod((f for f, _ in factors), start=IntPoly.one())
    # kept positions -> their product in t, one object shared by vertices
    dens = {tuple(range(len(factors))): det.substitute_power(3)}
    steps = list(sweep(k, 3 * n0 + 2, det.coeffs))
    if any(map(any, steps[3 * n0:])):
        raise ArithmeticError(f"a numerator has a nonzero s^{n0} coefficient")
    # per class, each position's numerator coefficients, transposed once
    columns = [list(zip(*steps[g:3 * n0:3])) for g in range(3)]
    solutions = {}
    for v in build_lattice(k).vertices:
        g = (2 * v.i + v.j) % 3
        num = IntPoly(columns[g][off[g][v.i] + v.j // 3])
        num, kept = _lowest_terms(num, v, factors, p, powers)
        if kept not in dens:
            dens[kept] = prod((factors[pos][0] for pos in kept),
                              start=IntPoly.one()).substitute_power(3)
        solutions[v] = RationalFn(num.substitute_power(3, g), dens[kept])
    sol0 = solutions[ORIGIN]
    if sol0.num[0] != sol0.den[0]:
        raise ArithmeticError("origin series must start at 1")
    return solutions


def generating_function(k: int, v: Vertex) -> RationalFn:
    """The generating function of the walks from the origin to v, read
    from ``solve_system(k)``; a vertex outside the lattice is rejected
    before the solve."""
    v = Vertex(*v)
    check_vertex(v, k)
    return solve_system(k)[v]


def verify_series(k: int, n_max: int) -> list[tuple[Vertex, int, int, int]]:
    """Compare Taylor coefficients against the walk-count DP.

    Returns a list of mismatches (vertex, n, series value, dp value) in
    canonical vertex order, then by n; empty means the two routes agree
    everywhere up to n_max.  Every function's ``series`` advances one
    coefficient per step of one sweep, and each step is compared as it
    comes and dropped, so only deg(den) coefficients per vertex are
    kept.  At step n the vertices outside class n mod 3 are compared
    with 0.

    The sweep ends at the proof length: with no mismatch by step
    stop = max over v of 3 n0 + max(deg D, deg N + 1) - 1, N / D the
    function of v in t and n0 = |C0|, the two agree at every n.  The
    walk series of a class-g vertex is t^g P(t^3) / Delta(t^3) with
    Delta(s) = det(I - s B^T), and Cramer's rule on the n0 x n0 class-0
    system gives deg Delta <= n0 and deg P <= n0 - 1.  Let L = 3 n0 +
    max(deg D, deg N + 1).  If N / D agrees with the walk series on
    t^0 .. t^(L - 1), then t^g P(t^3) D - N Delta(t^3) vanishes mod t^L,
    and its degree is below L, so it is 0 and the series are equal.
    After a mismatch the sweep runs on to n_max, so the list is the
    whole one.  The proof takes ``series`` as correct; L reads only the
    candidates' own degrees, not ``solve_system``'s D.
    """
    if n_max < 0:  # before the costly solve
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    sol, off = solve_system(k), class_offsets(k)
    entries = [(v, g, off[g][v.i] + v.j // 3, fn.series())
               for v, fn in sol.items() for g in [(2 * v.i + v.j) % 3]]
    stop = 3 * off[0][-1] - 1 + max(
        max(fn.den.degree, fn.num.degree + 1) for fn in sol.values())
    mismatches = []
    for n, counts in enumerate(sweep(k, n_max)):
        for v, g, r, coeffs in entries:
            c, dp = next(coeffs), counts[r] if g == n % 3 else 0
            if c != dp:
                mismatches.append((v, n, c, dp))
        if n == stop and not mismatches:
            break
    mismatches.sort(key=lambda m: m[:2])  # (i, j) order is canonical
    return mismatches
