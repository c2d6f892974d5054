"""Independent brute-force oracles shared by the tests.

These deliberately avoid the library's production code paths.  The
library reads edges backwards only, from the step table ``_STEPS``
through ``lattice.walk_table``; here the forward rule ``successors`` is
derived afresh from box addition on the vertex's 3-row shape and shares
no step table with the library, and the predecessor lists are that rule
reversed.  Walks are enumerated one at a time by depth-first search over
it, or counted by powers of the dense adjacency matrix built from it;
the system matrix M_k, which the library never builds, is pasted from
the paper's block display rather than from an edge rule; determinants
and generating functions come from fraction-free (Bareiss) elimination,
which the library does not use: on the full system in t, and on the
graded system I - s B^T over the origin's grade class; they are put in
lowest terms by the primitive-PRS gcd, where the library divides by the
determinant's Galois-orbit factors, and past the PRS gcd's reach
coprimality is certified by Euclid's algorithm mod a prime; which
factors a numerator keeps is decided by its residues at the factors'
roots, where the library reads the S-matrix; determinants at a point are
taken mod p by Gaussian elimination on the adjacency matrix or on
I - s B; the Perron block B, for the power iteration and for the graded
system alike, is sliced out of the adjacency matrix and multiplied
rather than chained from the library's predecessor table.  The
determinant, which the library takes from the SU(3)_k spectrum, is
rebuilt from closed walks by Newton's identities.  Walk counts past the
golden tables, to any endpoint, are checked mod primes by the Verlinde
formula over the SU(3)_k spectrum, which uses no walk at all; its
characters are Schur polynomials by Jacobi-Trudi, where the library
takes S-matrix entries as alternants.  Past level 32 it checks the
generating functions too, by their series mod p (``series_mod_p``).
``verify_series``, which stops at a proof length, is checked against
the comparison run to n_max (``full_length_mismatches``), with one
``origin_history`` sweep per vertex.  The
closed forms the counts and determinants are checked against, the
Fibonacci and 3-dimensional Catalan sequences and the determinant degree
law, live here too, and the simple current J (``rotate``), written from
its formula, with the orbit representatives it gives
(``rotation_orbit_firsts``), against which the Perron route's rotation
orbits and ``lattice.orbit_firsts`` are checked.  The Perron route's
top Ritz value is checked against the plain full-width bisection of a
Sturm count written here (``eigenvalue_at_least``, bisected by
``bisected_top_ritz``), where the library brackets it by Newton's
method first and reads the count off Newton's early exit.  The Perron
route's orbit tables, which the library builds from the representatives'
rows alone, are checked against the same tables cut out of the whole
walk table (``whole_table_orbit_tables``).  The determinant's Galois
orbits, whose images the library takes over one unit per class mod
k + 3 with a closed-form cube, are checked against the images over every
unit mod 3(k + 3), each cube summed over all three l_j, with primes of
its own search (``every_unit_orbit_factors``).  The first of them, the
trivial weight's, is checked against the trig product
prod_a (1 - s (1 + 2cos(2 pi a/(k + 3)))^3), built in integers from
Ramanujan sums and Newton's identities (``trig_trivial_factor``), where
the library lifts it from character cubes mod primes.  The root route, which
takes a float guess of its grid cell and of its bisection's leaf and
checks both by exact signs, is checked against the plain scan of the
grid, one exact sign per point, and bisection of the step it stops on
(``scanned_smallest_positive_root``), as the library took it before;
that scan runs on past u = 1 and splits (0, lo) below a bracket that
Descartes' rule cannot certify, where the library, which serves only
det(M_k) and its factors, stops at u = 1 and raises;
``scanned_smallest_positive_roots`` gives that float at several tols
from one scan and bisection.
``RationalFn.series``, which runs its recurrence in
s = t^m on the residue classes mod m that the numerator touches, is
checked against the plain recurrence in t (``plain_series``).
"""

import math
from collections import Counter
from itertools import chain
from math import gcd

import numpy as np

from anyondeg.lattice import ORIGIN, Lattice, Vertex, build_lattice, \
    class_offsets, orbit_firsts, walk_table
from anyondeg.pathcount import origin_history
from anyondeg.poly import IntPoly, RationalFn
from anyondeg.spectral import GRID, PERRON_THETA_MAX, NoRootError

# The general scan's reach in t past u = 1; the library's grid stops at
# u = 1, where the smallest root of det(M_k) lies
SEARCH_LIMIT = 1.5


def _bareiss(mat: list[list[IntPoly]], rhs: list[IntPoly] | None):
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
                mat[r][c] = (piv * mat[r][c] + -factor * mat[p][c]).exact_div(prev)
            if rhs is not None:
                rhs[r] = (piv * rhs[r] + -factor * rhs[p]).exact_div(prev)
            mat[r][p] = IntPoly()
        prev = piv
    det = mat[n - 1][n - 1]
    if not det:
        raise ArithmeticError("system matrix is singular")
    assert det[0] == 1, "determinant lost its unit constant term"
    if rhs is None:
        return det, None

    # U[i][i] * N_i = rhs_i * det - sum_{j>i} U[i][j] * N_j, all exact.
    numerators: list[IntPoly] = [IntPoly()] * n
    for i in range(n - 1, -1, -1):
        acc = rhs[i] * det
        for j in range(i + 1, n):
            if mat[i][j] and numerators[j]:
                acc = acc + -mat[i][j] * numerators[j]
        numerators[i] = acc.exact_div(mat[i][i])
    return det, numerators


def successors(v: Vertex, k: int) -> list[Vertex]:
    """Forward edge rule by box addition: the vertices reached from v by
    adding one box to row 1, 2 or 3 of its shape (i + j, i, 0), where
    the result is a partition with i + j <= k."""
    out = []
    for row in range(3):
        shape = [v.i + v.j, v.i, 0]
        shape[row] += 1
        r1, r2, r3 = shape
        if r1 >= r2 >= r3 and r1 - r3 <= k:
            out.append(Vertex(r2 - r3, r1 - r2))
    return out


def rotate(v: Vertex, k: int) -> Vertex:
    """The simple current J of SU(3)_k, (i, j) -> (k - i - j, i): the
    rotation of the level-k alcove (Schellekens-Yankielowicz)."""
    return Vertex(k - v.i - v.j, v.i)


def rotation_orbit_firsts(k: int) -> list[Vertex]:
    """The first point, in (i, j) order, of every 3-point orbit of J,
    in (i, j) order: every lattice point's orbit built by ``rotate``."""
    orbits = {frozenset({v, rotate(v, k), rotate(rotate(v, k), k)})
              for v in build_lattice(k).vertices}
    return sorted(min(o) for o in orbits if len(o) == 3)


def canonical_positions(lattice: Lattice) -> dict[Vertex, int]:
    """Each vertex's position in the canonical vertex order."""
    return {v: r for r, v in enumerate(lattice.vertices)}


def class_positions(lattice: Lattice) -> tuple[list[list[Vertex]],
                                               dict[Vertex, int]]:
    """(classes, pos) by plain enumeration: classes[g] lists the vertices
    of grade (2i + j) mod 3 = g in canonical order, and pos[v] is v's
    position in its class."""
    classes, pos = [[], [], []], {}
    for v in lattice.vertices:
        cls = classes[(2 * v.i + v.j) % 3]
        pos[v] = len(cls)
        cls.append(v)
    return classes, pos


def adjacency(lattice: Lattice) -> np.ndarray:
    """0/1 adjacency matrix in the canonical vertex order (row -> column)."""
    n, pos = lattice.dim, canonical_positions(lattice)
    mat = np.zeros((n, n), dtype=np.int64)
    for v in lattice.vertices:
        for w in successors(v, lattice.k):
            mat[pos[v], pos[w]] = 1
    return mat


def dfs_walk_counts(k: int, n: int) -> Counter:
    """Endpoint histogram of all n-step walks from the origin."""
    counts = Counter()

    def go(v: Vertex, steps: int) -> None:
        if steps == n:
            counts[v] += 1
            return
        for w in successors(v, k):
            go(w, steps + 1)

    go(ORIGIN, 0)
    return counts


def counts_by_matrix_power(k: int, n: int) -> dict[Vertex, int]:
    """Origin row of the n-th adjacency-matrix power, exact."""
    lat = build_lattice(k)
    mat, pos = adjacency(lat).tolist(), canonical_positions(lat)
    row = [0] * lat.dim
    row[pos[ORIGIN]] = 1
    for _ in range(n):
        row = [sum(row[r] * mat[r][c] for r in range(lat.dim) if row[r])
               for c in range(lat.dim)]
    return {v: row[pos[v]] for v in lat.vertices}


def j_matrix(p: int, q: int, s: int) -> list[list[int]]:
    """p x q 0/1 band matrix: ones exactly where column - row = s (1-based)."""
    if p < 1 or q < 1:
        raise ValueError("matrix dimensions must be positive")
    return [[1 if c - r == s else 0 for c in range(1, q + 1)]
            for r in range(1, p + 1)]


def paper_block_system(k: int) -> list[list[IntPoly]]:
    """M_k as the paper displays it, in block rows i = 0..k.

    Block row i has size m = k + 1 - i: I - t J(m,m,-1) on the diagonal,
    -t J(m,m-1,0) to its right and -t J(m-1,m,1) below it.
    """
    sizes = range(k + 1, 0, -1)
    dim = sum(sizes)
    t = IntPoly.monomial(1, 1)
    mat = [[IntPoly.one() if r == c else IntPoly() for c in range(dim)]
           for r in range(dim)]

    def minus_t(block, r0, c0):
        for r, row in enumerate(block):
            for c, bit in enumerate(row):
                if bit:
                    mat[r0 + r][c0 + c] = mat[r0 + r][c0 + c] + -t

    offset = 0
    for m in sizes:
        minus_t(j_matrix(m, m, -1), offset, offset)
        if m > 1:
            minus_t(j_matrix(m, m - 1, 0), offset, offset + m)
            minus_t(j_matrix(m - 1, m, 1), offset + m, offset)
        offset += m
    return mat


def content(p: IntPoly) -> int:
    """gcd of the coefficients (nonnegative; 0 for the zero poly)."""
    return gcd(*p.coeffs)


def primitive(p: IntPoly) -> IntPoly:
    """Divide out the content; sign of the leading coefficient kept."""
    g = content(p)
    return p if g in (0, 1) else IntPoly(c // g for c in p.coeffs)


def _pseudo_rem(p: IntPoly, q: IntPoly) -> IntPoly:
    """Pseudo-remainder of p by q: rem(lc(q)^(dp-dq+1) * p, q), all in Z[t]."""
    lead = q.leading()
    rem = p
    scale = p.degree - q.degree + 1
    while rem and rem.degree >= q.degree:
        shift = rem.degree - q.degree
        rem = rem * IntPoly((lead,)) + q * IntPoly.monomial(-rem.leading(), shift)
        scale -= 1
    if scale > 0:
        rem = rem * IntPoly((lead ** scale,))
    return rem


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t], positive leading coefficient.

    Primitive-PRS Euclidean scheme: contents are handled over Z, the
    polynomial part runs on primitive parts with pseudo-remainders, so
    no rational arithmetic and no coefficient blowup.
    """
    if not p and not q:
        raise ValueError("gcd(0, 0) is undefined")
    if not p or not q:
        g = primitive(p or q)
        return -g if g.leading() < 0 else g
    common = gcd(content(p), content(q))
    a, b = primitive(p), primitive(q)
    if a.degree < b.degree:
        a, b = b, a
    while b:
        a, b = b, primitive(_pseudo_rem(a, b))
    if a.leading() < 0:
        a = -a
    return a * IntPoly((common,))


def reduced(num: IntPoly, den: IntPoly) -> RationalFn:
    """num / den in lowest terms by the PRS gcd: coprime in Q[t], no
    common integer content, sign normalized by ``RationalFn``."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if num:
        g = poly_gcd(num, den)
        num, den = num.exact_div(g), den.exact_div(g)
        c = gcd(content(num), content(den))
        num = IntPoly(x // c for x in num.coeffs)
        den = IntPoly(x // c for x in den.coeffs)
    return RationalFn(num, den)


def full_system_solution(k: int) -> tuple[IntPoly, dict[Vertex, RationalFn]]:
    """det(M_k) and every generating function, by Bareiss elimination on
    the full system M_k x = e_1 over Z[t] of ``paper_block_system``."""
    mat = paper_block_system(k)
    rhs = [IntPoly.one()] + [IntPoly()] * (len(mat) - 1)
    det, numerators = _bareiss(mat, rhs)
    return det, {v: reduced(num, det)
                 for v, num in zip(build_lattice(k).vertices, numerators)}


def graded_system(matrix: list[list[int]]) -> list[list[IntPoly]]:
    """I - s M^T over Z[s] for the square integer matrix M."""
    n = len(matrix)
    return [[IntPoly((int(r == c), -matrix[c][r])) for c in range(n)]
            for r in range(n)]


def graded_predecessors(lat: Lattice) -> list[list[list[int]]]:
    """pred[g][r]: the positions in class g - 1 of the predecessors of
    the r-th vertex of class g: ``successors`` reversed, in one pass."""
    classes, pos = class_positions(lat)
    pred = [[[] for _ in cls] for cls in classes]
    for u in lat.vertices:
        for w in successors(u, lat.k):
            pred[(2 * w.i + w.j) % 3][pos[w]].append(pos[u])
    return pred


def graded_bareiss_solution(k: int) -> tuple[IntPoly, dict[Vertex, RationalFn]]:
    """det(M_k) and every generating function, by Bareiss elimination on
    (I - s B^T) x_0 = e_0 over the origin's grade class, s = t^3, with
    B from ``dense_perron_block``.

    Then x_1 = t A_01^T x_0 and x_2 = t A_12^T x_1 by summing the
    predecessors' numerators; each function is reduced in s before
    s = t^3 is substituted, in the canonical vertex order.
    """
    lat = build_lattice(k)
    classes, pred = class_positions(lat)[0], graded_predecessors(lat)
    mat = graded_system(dense_perron_block(k).astype(int).tolist())
    rhs = [IntPoly.one()] + [IntPoly()] * (len(mat) - 1)
    det, numerators = _bareiss(mat, rhs)
    graded = {}
    for g, cls in enumerate(classes):
        if g:
            numerators = [sum((numerators[u] for u in us), IntPoly())
                          for us in pred[g]]
        for v, num in zip(cls, numerators):
            fn = reduced(num, det)
            graded[v] = RationalFn(fn.num.substitute_power(3, g),
                                   fn.den.substitute_power(3))
    return det.substitute_power(3), {v: graded[v] for v in lat.vertices}


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


def closed_walk_det(k: int) -> IntPoly:
    """det(I - t * A^T) from closed walks, with no spectrum: tr(B^m)
    counts the closed 3m-step walks at the class-0 vertices, one walk
    count from each along the padded per-class table, and Newton's
    identities turn the sums into D(s), then s = t^3."""
    pred = walk_table(k)
    n0 = len(pred[0])
    sums = [0] * n0
    for z in range(n0):
        counts = [int(r == z) for r in range(n0 + 1)]  # plus the zero slot
        for n in range(1, 3 * n0 + 1):
            counts = [counts[a] + counts[b] + counts[c]
                      for a, b, c in pred[n % 3]] + [0]
            if n % 3 == 0:
                sums[n // 3 - 1] += counts[z]
    return _newton(sums).substitute_power(3)


def coprime_mod_p(f: IntPoly, g: IntPoly, p: int) -> bool:
    """True when Euclid's algorithm over Z/p proves f and g coprime in
    Q[t]; False when it cannot.

    A common factor h in Z[t] of positive degree has p prime to its
    leading coefficient when p is prime to f's, so h mod p would divide
    the gcd mod p; a constant gcd mod p thus rules h out.
    """
    if f.leading() % p == 0:
        return False
    a, b = ([c % p for c in x.coeffs] for x in (f, g))
    while b and not b[-1]:
        b.pop()
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _det_mod_p(matrix: list[list[int]], x: int, p: int) -> int:
    """det(I - x M) mod a prime p for the square integer matrix M, by
    Gaussian elimination."""
    n = len(matrix)
    mat = [[((r == c) - x * matrix[r][c]) % p for c in range(n)]
           for r in range(n)]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], -1, p)
        for r in range(col + 1, n):
            f = mat[r][col] * inv % p
            if f:
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[col])]
    return det % p


def transfer_det_mod_p(k: int, t0: int, p: int) -> int:
    """det(I - t0 * A) mod a prime p, on the adjacency matrix."""
    return _det_mod_p(adjacency(build_lattice(k)).tolist(), t0, p)


def block_det_mod_p(k: int, s0: int, p: int) -> int:
    """det(I - s0 * B) mod a prime p, on ``dense_perron_block``: the
    determinant D(s) of the graded system at s = s0."""
    return _det_mod_p(dense_perron_block(k).astype(int).tolist(), s0, p)


def dense_perron_block(k: int) -> np.ndarray:
    """B = A[C0,C1] @ A[C1,C2] @ A[C2,C0], sliced out of the dense
    adjacency matrix and multiplied in float64."""
    lat = build_lattice(k)
    adj, pos = adjacency(lat), canonical_positions(lat)
    c0, c1, c2 = ([pos[v] for v in cls]
                  for cls in class_positions(lat)[0])

    def block(rows, cols):
        return adj[np.ix_(rows, cols)].astype(np.float64)

    return block(c0, c1) @ block(c1, c2) @ block(c2, c0)


def dense_lambda_perron(k: int, tol: float = 1e-12,
                        max_iter: int = 100_000) -> float:
    """Power iteration on ``dense_perron_block(k)``; the cube root of its
    dominant eigenvalue."""
    cubed = dense_perron_block(k)
    vec = np.ones(cubed.shape[0])
    vec /= np.linalg.norm(vec)
    mu_prev = math.inf
    for _ in range(max_iter):
        nxt = cubed @ vec
        mu = float(vec @ nxt)
        vec = nxt / np.linalg.norm(nxt)
        if abs(mu - mu_prev) < tol:
            return mu ** (1.0 / 3.0)
        mu_prev = mu
    raise RuntimeError(f"power iteration did not converge (k={k})")


def whole_table_orbit_tables(k: int) -> tuple[list, list[int], list[int]]:
    """The Perron route's (rows, mirror, weight) as it was built before
    the representatives' rows were built alone: the whole
    ``walk_table(k)``, of which, when 3 | k, each orbit representative's
    row is looked up by its class position and re-indexed to orbits."""
    off, pred = class_offsets(k), walk_table(k)
    if k % 3:
        flip = [off[0][j] + i // 3 for i in range(k + 1)
                for j in range(i % 3, k - i + 1, 3)]
        return pred, flip, [1] * len(flip)
    reps = [[], [], []]
    for i, j in orbit_firsts(k) + [(k // 3, k // 3)]:
        reps[(2 * i + j) % 3].append((i, j))
    index = [[len(rep)] * (at[-1] + 1) for at, rep in zip(off, reps)]
    for at, rep, idx in zip(off, reps, index):
        for r, (i, j) in enumerate(rep):
            for a, b in ((i, j), (k - i - j, i), (j, k - i - j)):
                idx[at[a] + b // 3] = r
    rows = [[[u[a], u[b], u[c]] for a, b, c in
             (table[at[i] + j // 3] for i, j in rep)]
            for table, at, rep, u in zip(pred, off, reps,
                                         index[-1:] + index[:-1])]
    mirror = [index[0][off[0][j] + i // 3] for i, j in reps[0]]
    return rows, mirror, [3] * (len(mirror) - 1) + [1]


def eigenvalue_at_least(alphas: list[float], sq_betas: list[float],
                        x: float) -> bool:
    """Whether the symmetric tridiagonal with diagonal alphas and squared
    off-diagonal sq_betas has an eigenvalue >= x: the LDL^T pivots of
    T - x, d_0 = alphas[0] - x, d_i = alphas[i] - x - sq_betas[i-1] /
    d_{i-1}, are not all negative."""
    d = alphas[0] - x
    for i in range(1, len(alphas)):
        if d >= 0:
            return True
        d = alphas[i] - x - sq_betas[i - 1] / d
    return d >= 0


def bisected_top_ritz(alphas: list[float], sq_betas: list[float],
                      floor: float) -> float:
    """The top eigenvalue of that tridiagonal, bisected by the Sturm count
    from (floor, PERRON_THETA_MAX) over the whole width, one count per
    midpoint, until no float lies strictly between the ends; the lower
    end."""
    lo, hi = floor, PERRON_THETA_MAX
    while lo < (mid := (lo + hi) / 2) < hi:
        if eigenvalue_at_least(alphas, sq_betas, mid):
            lo = mid
        else:
            hi = mid
    return lo


def _taylor_shift(c: list[int], shift: int) -> None:
    """Replace the coefficients c of f(x) by those of f(x + shift); by
    additions alone when shift is 1, the shift of every count."""
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1] if shift == 1 else shift * c[j + 1]


def _descartes_count(q: tuple[int, ...], a: int, b: int, den: int) -> int:
    """Sign variations of (1 + x)^d q((a x + b) / (den (1 + x))),
    d = deg q: the Descartes bound on the roots of q in (a / den, b / den),
    by Taylor shifts, as the root route took it before its float guess."""
    d = len(q) - 1
    c = [x * den ** (d - i) for i, x in enumerate(q)]
    if a:
        _taylor_shift(c, a)
    c = [x * (b - a) ** j for j, x in enumerate(c)][::-1]
    _taylor_shift(c, 1)
    signs = [x > 0 for x in c if x]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _power_root(num: int, den: int, g: int) -> float:
    """(num / den)^(1/g) for num, den >= 1: the exact float when both
    parts of the reduced fraction are g-th powers, else the float power."""
    d = gcd(num, den)
    parts = []
    for n in (num // d, den // d):
        lo, hi = 0, 1 << (n.bit_length() // g + 1)  # floor(n^(1/g)), bisected
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid ** g <= n else (lo, mid - 1)
        parts.append(lo if lo ** g == n else None)
    if None in parts:
        return (num / den) ** (1 / g)
    return parts[0] / parts[1]


def _scanned_step(p: IntPoly) -> tuple[IntPoly, int, tuple[int, int, int]]:
    """(q, g, (lo, hi, den)): q(u) = p(t), u = t^g, g the gcd of p's
    exponents, and the grid step (lo / den, hi / den] in u where the scan
    of q, at every grid point in order, 1/GRID apart in u up to u = 1 and
    in t beyond, up to t = SEARCH_LIMIT, first finds a sign that is not
    positive; lo = hi at an exact zero."""
    if p.sign_at(0, 1) <= 0:
        raise ValueError("polynomial must be positive at 0")
    g = gcd(*(e for e, c in enumerate(p.coeffs) if c)) or 1
    q = IntPoly(p.coeffs[::g])
    grid = chain(((m, GRID) for m in range(1, GRID + 1)),
                 ((m ** g, GRID ** g) for m in
                  range(GRID + 1, math.ceil(SEARCH_LIMIT * GRID) + 1)))
    last = (0, 1)
    for hi, den in grid:
        if (sign := q.sign_at(hi, den)) <= 0:
            break
        last = (hi, den)
    else:
        raise NoRootError("no sign change in the search range")
    return q, g, (hi if sign == 0 else last[0] * den // last[1], hi, den)


def _stops(lo: int, hi: int, den: int, g: int, tol: float) -> bool:
    """Whether the bisection stops at (lo / den, hi / den] in u: at an
    exact zero, or where the bracket in t is at most tol wide or at float
    resolution."""
    if lo >= hi:
        return True
    t_lo, t_hi = ((x / den) ** (1 / g) for x in (lo, hi))
    return t_hi - t_lo <= tol or t_lo == t_hi


def _bisection(q: IntPoly, g: int, lo: int, hi: int, den: int, tol: float):
    """Every bracket (lo, hi, den) the bisection of q on (lo / den,
    hi / den] passes through, one exact sign per midpoint, the one it
    stops at last."""
    yield lo, hi, den
    while not _stops(lo, hi, den, g, tol):
        lo, hi, den, mid = 2 * lo, 2 * hi, 2 * den, lo + hi
        sign = q.sign_at(mid, den)
        if sign == 0:
            lo = hi = mid
        else:
            lo, hi = (mid, hi) if sign > 0 else (lo, mid)
        yield lo, hi, den


def scanned_smallest_positive_root(p: IntPoly, tol: float = 1e-12) -> float:
    """``smallest_positive_root`` as it was before it took a float guess:
    q(u) = p(t), u = t^g, is scanned at every grid point in order until
    its sign is not positive (``_scanned_step``); that step is bisected,
    one exact sign per midpoint, until the bracket in t is at most tol
    wide or at float resolution, an exact zero ending it.  Where
    Descartes counts roots of q in (0, lo) below it, (0, lo) is split,
    the last pieces first, until a piece counts one root, which is
    bisected instead; a piece that still counts more at float resolution
    raises ArithmeticError."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    q, g, step = _scanned_step(p)
    *_, bracket = _bisection(q, g, *step, tol)
    lo, _, den = bracket
    pieces = [(0, lo, den)] if _descartes_count(q.coeffs, 0, lo, den) else []
    while pieces:
        a, b, den = pieces.pop()
        count = 1 if a == b else _descartes_count(q.coeffs, a, b, den)
        if count == 1:
            *_, bracket = _bisection(q, g, a, b, den, tol)
            break
        if count:
            if _stops(a, b, den, g, tol):
                raise ArithmeticError("roots closer than float resolution")
            mid = a + b
            pieces.append((mid, 2 * b, 2 * den))
            if q.sign_at(mid, 2 * den) == 0:
                pieces.append((mid, mid, 2 * den))
            pieces.append((2 * a, mid, 2 * den))
    lo, hi, den = bracket
    return _power_root(lo + hi, 2 * den, g)


def scanned_smallest_positive_roots(p: IntPoly,
                                    tols: tuple[float, ...]) -> list[float]:
    """``scanned_smallest_positive_root(p, tol)`` for each tol, in order,
    from one scan, one bisection to the finest tol and one Descartes
    count below its bracket; where that count is not 0, each tol takes
    the plain route on its own.

    The scan does not read tol, and neither do the bisection's midpoints
    or signs: tol only decides the bracket it stops at, the first that is
    an exact zero or at most tol wide in t (or at float resolution).  The
    bracket where the finest tol stops meets every coarser tol too, so a
    coarser run stops at a bracket the finest run passes through.  The
    brackets' lower ends only rise, so that bracket's lower end a is at
    most the finest one's, b.  The count below a, V(0, a), is the number
    of sign variations of r_a(x) = (1 + x)^d q(a / (1 + x)), d = deg q,
    and r_a(x) = (a / b)^d r_b(lam + b x / a), lam = (b - a) / a >= 0: a
    Taylor shift of r_b by lam, which by Budan's theorem adds no sign
    variation, then a positive scaling of x, which keeps every sign (at
    a = 0, r_0 = q(0) (1 + x)^d has none).  So V(0, a) <= V(0, b), and
    V(0, b) = 0 leaves no root below any coarser bracket either: each tol
    returns the middle of its own stopping bracket, as the plain route
    does when its count is 0."""
    if not all(0 < tol < math.inf for tol in tols):
        raise ValueError("tol must be positive and finite")
    q, g, step = _scanned_step(p)
    brackets = list(_bisection(q, g, *step, min(tols)))
    lo, _, den = brackets[-1]
    if _descartes_count(q.coeffs, 0, lo, den):
        return [scanned_smallest_positive_root(p, tol) for tol in tols]
    stops = (next(x for x in brackets if _stops(*x, g, tol)) for tol in tols)
    return [_power_root(lo + hi, 2 * den, g) for lo, hi, den in stops]


def primes_1_mod(modulus: int, count: int) -> list[int]:
    """The ``count`` largest primes p = 1 (mod modulus) below 2^31, by
    trial division."""
    out = []
    p = (2 ** 31 - 2) // modulus * modulus + 1
    while len(out) < count:
        if all(p % q for q in range(2, math.isqrt(p) + 1)):
            out.append(p)
        p -= modulus
    return out


def _zeta(k: int, p: int) -> int:
    """An element of exact order 6m mod a prime p = 1 mod 6m, m = k + 3."""
    order = 6 * (k + 3)
    if (p - 1) % order:
        raise ValueError(f"{p} is not 1 mod {order}")
    factors = [q for q in range(2, order + 1)
               if order % q == 0 and all(q % r for r in range(2, q))]
    for g in range(2, p):
        zeta = pow(g, (p - 1) // order, p)
        if all(pow(zeta, order // q, p) != 1 for q in factors):
            return zeta
    raise ArithmeticError(f"no element of order {order} mod {p}")


def _alcove_point(ell: tuple[int, int, int], zeta: int, p: int) -> list[int]:
    """x_j = e^(2 pi i (l_j - |l| / 3) / m) mod p, as zeta^(2 (3 l_j - |l|))
    for zeta of order 6m: the point at which the characters are read for
    the alcove point with l = (a + b + 2, b + 1, 0)."""
    return [pow(zeta, 2 * (3 * x - sum(ell)), p) for x in ell]


def schur_mod_p(v: Vertex, xs: list[int], p: int) -> int:
    """s_lambda(x_1, x_2, x_3) mod p for v's shape lambda = (i + j, i, 0),
    by Jacobi-Trudi, h_(l1) h_(l2) - h_(l1 + 1) h_(l2 - 1); the complete
    homogeneous h_m come from h_m(x, rest) = h_m(rest) + x h_(m-1)(x, rest),
    one variable at a time."""
    r1, r2 = v.i + v.j, v.i
    h = [1] + [0] * (r1 + 1)
    for x in xs:
        for m in range(1, r1 + 2):
            h[m] = (h[m] + x * h[m - 1]) % p
    return (h[r1] * h[r2] - h[r1 + 1] * (h[r2 - 1] if r2 else 0)) % p


def schur_at_alcove_point(k: int, v: Vertex, ell: tuple[int, int, int],
                          p: int) -> int:
    """s_v at the alcove point with l = ``ell``, mod p = 1 mod 6(k + 3):
    S_(v mu) / S_(0 mu) for that point mu, up to a Galois conjugation."""
    return schur_mod_p(v, _alcove_point(ell, _zeta(k, p), p), p)


def verlinde_counts(k: int, ns: list[int], p: int,
                    v: Vertex = ORIGIN) -> list[int]:
    """The numbers of n-step walks from the origin to v for each n in
    ``ns``, mod a prime p = 1 mod 6m, m = k + 3, by the Verlinde formula.

    Each is sum_mu w_mu chi_mu^n s_v(conj x_mu) / sum_mu w_mu over the
    alcove points mu = (a, b), a + b <= k: w_mu = |S_(0 mu)|^2 up to a
    constant, chi_mu = x_1 + x_2 + x_3 the fundamental character at the
    point x_mu of ``_alcove_point``, and s_v the Schur polynomial of v's
    shape, so that s_v(x_mu) = S_(v mu) / S_(0 mu).  Here
    w_mu = prod_x (2 sin(pi x / m))^2 over x in {a + 1, b + 1, a + b + 2};
    mod p, with zeta of order 6m, 2 sin(pi x / m) = -i (zeta^(3x) -
    zeta^(-3x)), so w_mu = -prod_x (zeta^(3x) - zeta^(-3x))^2.
    """
    zeta = _zeta(k, p)
    totals, weights = [0] * len(ns), 0
    for a in range(k + 1):
        for b in range(k + 1 - a):
            w = -math.prod((pow(zeta, 3 * x, p) - pow(zeta, -3 * x, p)) ** 2
                           for x in (a + 1, b + 1, a + b + 2)) % p
            xs = _alcove_point((a + b + 2, b + 1, 0), zeta, p)
            term = w * schur_mod_p(v, [pow(x, -1, p) for x in xs], p)
            totals = [(total + term * pow(sum(xs), n, p)) % p
                      for total, n in zip(totals, ns)]
            weights += w
    inverse = pow(weights, -1, p)
    return [total * inverse % p for total in totals]


def series_mod_p(fn: RationalFn, n_max: int, p: int) -> list[int]:
    """The Taylor coefficients c_0 .. c_(n_max) of fn mod a prime p, by
    the recurrence c_n = num_n - sum_(m >= 1) den_m c_(n - m) mod p, for
    den(0) = 1; the terms of den that vanish mod p are skipped."""
    if fn.den[0] != 1:
        raise ValueError("den(0) must be 1")
    den = [(m, d % p) for m, d in enumerate(fn.den.coeffs) if m and d % p]
    out = []
    for n in range(n_max + 1):
        out.append((fn.num[n] - sum(d * out[n - m] for m, d in den
                                    if m <= n)) % p)
    return out


def plain_series(fn: RationalFn, n_max: int) -> list[int]:
    """The Taylor coefficients c_0 .. c_(n_max) of fn, for den(0) = 1,
    by the recurrence c_n = num_n - sum_(m >= 1) den_m c_(n - m) in t,
    at every n and over every term of den."""
    if fn.den[0] != 1:
        raise ValueError("den(0) must be 1")
    den = [(m, d) for m, d in enumerate(fn.den.coeffs) if m and d]
    out = []
    for n in range(n_max + 1):
        out.append(fn.num[n] - sum(d * out[n - m] for m, d in den if m <= n))
    return out


def full_length_mismatches(k: int, n_max: int,
                           solutions: dict[Vertex, RationalFn]
                           ) -> list[tuple[Vertex, int, int, int]]:
    """Every (vertex, n, series value, dp value) with n <= n_max where
    the Taylor coefficient of ``solutions[vertex]`` differs from the walk
    count, in canonical vertex order, then by n: every coefficient is
    compared, with no proof length, against one ``origin_history`` sweep
    per vertex."""
    mismatches = []
    for v in sorted(solutions):  # (i, j) order is canonical
        history = origin_history(k, n_max, v)
        mismatches += [(v, n, c, dp) for n, (c, dp)
                       in enumerate(zip(solutions[v].series(), history))
                       if c != dp]
    return mismatches


def _residue(coeffs: tuple[int, ...], x: int, p: int) -> int:
    """x^d N(1/x) mod p for the coefficients of N, d = len(coeffs) - 1;
    for x != 0 mod p it is 0 exactly when N(1/x) is."""
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


def residue_lowest_terms(num: IntPoly, factors: list[tuple[IntPoly, int]],
                         p: int) -> tuple[IntPoly, tuple[int, ...]]:
    """num / D in lowest terms, for D the product of the irreducible
    ``factors`` given as pairs (F_O, chi^3 mod p of one root of O): num
    with every F_O that divides it divided out, and the positions of the
    factors kept.

    F_O divides num iff num vanishes at its root 1/x, x = chi^3: a
    nonzero residue mod p proves it does not, and at a zero residue
    ``exact_div`` decides; a false zero keeps the factor.  The
    coefficients are reduced mod p once, before the factors' residues.
    """
    kept, coeffs = [], [c % p for c in num.coeffs]
    for pos, (factor, x) in enumerate(factors):
        if not _residue(coeffs, x, p):
            try:
                num = num.exact_div(factor)
                continue
            except ValueError:
                pass
        kept.append(pos)
    return num, tuple(kept)


def _unit_roots_below_2_30(order: int):
    """(p, powers) for the primes p = 1 (mod order) below 2^30,
    descending, by trial division: powers lists zeta^0 .. zeta^(order-1)
    mod p for zeta = g^((p - 1) / order), g the least base from 2 that
    gives exact order ``order``."""
    factors = [q for q in range(2, order + 1)
               if order % q == 0 and all(q % r for r in range(2, q))]
    for p in range((2 ** 30 - 2) // order * order + 1, order, -order):
        if not all(p % q for q in range(2, math.isqrt(p) + 1)):
            continue
        g = 2
        while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
            g += 1
        zeta = pow(g, (p - 1) // order, p)
        yield p, [pow(zeta, e, p) for e in range(order)]


def every_unit_orbit_factors(k: int) -> tuple[int, list[int],
                                              list[tuple[IntPoly, tuple]]]:
    """D's factors over Q, one per Galois orbit of the chi^3, as
    (p, powers, [(F_O, l of the orbit's first member)]), with the Galois
    images of each cube taken over every unit a mod 3(k + 3): sigma_a(chi)
    = sum_j zeta^(a (3 l_j - |l|)) over all three l_j.  Each F_O is built
    mod primes below 2^30, lifted by CRT to twice 28^(largest orbit) and
    checked mod the next prime."""
    order = 3 * (k + 3)
    reps = [(v.i + v.j + 2, v.i + 1, 0) for v in rotation_orbit_firsts(k)]
    units = [a for a in range(1, order) if gcd(a, order) == 1]

    def cube(ell, powers, p, a=1):
        return pow(sum(powers[a * (3 * x - sum(ell)) % order] for x in ell),
                   3, p)

    def factor_mod(values, orbit, p):
        poly = [1]
        for r in orbit:
            poly = [(c - values[r] * d) % p
                    for c, d in zip(poly + [0], [0] + poly)]
        return poly

    roots = _unit_roots_below_2_30(order)
    first = p, powers = next(roots)
    values = [cube(ell, powers, p) for ell in reps]
    where = {x: r for r, x in enumerate(values)}
    if len(where) < len(values) or 0 in where:
        raise ArithmeticError(f"the cubes are not distinct and nonzero mod {p}")
    orbits = []
    for r, ell in enumerate(reps):
        if not any(r in orbit for orbit in orbits):
            images = {cube(ell, powers, p, a) for a in units}
            orbits.append(sorted(where[x] for x in images))
    bound = 2 * 28 ** max(map(len, orbits))
    modulus, lifts = 1, [[0] * (len(orbit) + 1) for orbit in orbits]
    while modulus <= bound:
        inverse = pow(modulus, -1, p)
        for lift, orbit in zip(lifts, orbits):
            lift[:] = [c + modulus * ((d - c) * inverse % p)
                       for c, d in zip(lift, factor_mod(values, orbit, p))]
        modulus *= p
        p, powers = next(roots)
        values = [cube(ell, powers, p) for ell in reps]
    factors = []
    for lift, orbit in zip(lifts, orbits):
        coeffs = [c - modulus if 2 * c > modulus else c for c in lift]
        if [c % p for c in coeffs] != factor_mod(values, orbit, p):
            raise ArithmeticError(f"an orbit factor fails mod {p}")
        factors.append((IntPoly(coeffs), reps[orbit[0]]))
    return *first, factors


def _mobius(n: int) -> int:
    sign, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            sign = -sign
        q += 1
    return -sign if n > 1 else sign


def ramanujan_sum(m: int, e: int) -> int:
    """c_m(e), the sum of zeta_m^(a e) over the units a mod m, as the
    integer sum of mu(m / d) d over the divisors d of gcd(m, e)."""
    g = gcd(m, e)
    return sum(_mobius(m // d) * d for d in range(1, g + 1) if g % d == 0)


def trig_trivial_factor(k: int) -> IntPoly:
    """F_0(s) = prod_a (1 - s (1 + 2 cos(2 pi a / m))^3), m = k + 3, over
    the units a mod m up to sign, in exact integers: no float, no prime.
    With 2 cos(2 pi a / m) = z + 1/z at z = zeta_m^a, the power sum of
    the j-th powers over all units is sum_e T(e) c_m(e), where T(e) is
    the coefficient of z^e in (1 + z + 1/z)^(3j); half of it is the sum
    up to sign, and Newton's identities turn the sums into F_0.  Its
    smallest root is 1 / lambda_trig(k)^3 (a = 1)."""
    m = k + 3
    c = [ramanujan_sum(m, e) for e in range(m)]  # c_m(e) depends on e mod m
    row, sums = [1], []  # (1 + z + 1/z)^(3j), z^e at index e + 3j
    for j in range(1, c[0] // 2 + 1):  # c_m(0) = phi(m) units
        for _ in range(3):
            row = [a + b + d for a, b, d in
                   zip([0, 0] + row, [0] + row + [0], row + [0, 0])]
        total = sum(t * c[(e - 3 * j) % m] for e, t in enumerate(row))
        if total % 2:
            raise ArithmeticError(f"odd power sum at j = {j}")
        sums.append(total // 2)
    return _newton(sums)


def determinant_degree(k: int) -> int:
    """Degree law for the system determinant, by residue of k mod 3."""
    m, r = divmod(k, 3)
    if r == 2:  # k = 3(m+1) - 1
        return 3 * (m + 1) * (3 * (m + 1) + 1) // 2
    if r == 0:  # k = 3m
        return 9 * m * (m + 1) // 2
    return 3 * (m + 1) * (3 * m + 2) // 2  # k = 3m + 1


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def catalan3d(n: int) -> int:
    """2 * n! / ((n/3)! (n/3+1)! (n/3+2)!) for 3 | n."""
    if n % 3:
        raise ValueError("defined only for multiples of 3")
    m = n // 3
    num = 2 * math.factorial(n)
    den = math.factorial(m) * math.factorial(m + 1) * math.factorial(m + 2)
    if num % den:
        raise ArithmeticError(f"Catalan quotient not exact at n={n}")
    return num // den
