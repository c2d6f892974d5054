"""Exact counting of n-step walks from the origin on the level-k lattice.

Every step raises the grade (2i + j) mod 3 by 1, so after n steps only
the vertices of class n mod 3 can hold a nonzero count.  Every
walk-count route is decided in this module, and here is what each one
costs, with m = k + 3:

* The sweep, ``lattice.sweep``, the dynamic programme over the
  predecessor recurrence

      f[(i,j)](n) = f[(i+1,j)](n-1) + f[(i-1,j+1)](n-1) + f[(i,j-1)](n-1)

  with out-of-range terms zero, one flat list per step over class
  n mod 3: about n (k + 1)(k + 2) / 6 additions to step n.
  ``origin_history`` reads it, every step of one vertex.
* The affine reflection sum at one vertex (``degeneracy``, by
  ``_reflection_count``): one pass of the binomial residue sums
  (``_residue_sums``), about n m additions that no vertex changes, and
  about 3 n / m big products.  The reflection principle itself, a
  vertex's keys and the residue sums, is written once, in
  ``_reflection_keys`` and ``_residue_sums``.
* The whole class n mod 3 (``_class_counts``, which
  ``records.count_paths`` wraps): the same pass builds the symmetric
  trinomial residue table of ``_residue_table`` with about n m / 6
  products, a third of what the class's keys would take one by one,
  and each vertex reads six entries.  From k = 16 up this is cheaper
  than the sweep, up to about n = 100 m at k = 16 and past n = 3000 at
  k = 28 and 64.  At k <= 8 the sweep is cheaper at every n, by 1.2x at
  (8, 60) up to 6x at (4, 3000); no size rule sends those calls to the
  sweep, as the package's one caller there, ``reproduce``'s hooks item
  at k = n <= 12, pays about 0.1 ms for it in all.
* A grid row, v's count at every n <= n_max on one level
  (``grid_rows``, one ``_grid_history`` a level): the sweep's
  n_max (k + 1)(k + 2) / 6 additions, or the reflection sum at every n
  of v's class, about n_max m additions and n_max^2 / (2 m) products
  with the binomial rows C(n, .) of v's class (``_class_binomials``),
  which are built once a grid, about n_max^2 / 4 additions' worth.
  ``_reflects`` weighs a product as ``PRODUCT_COST`` additions and
  reflects each level where the sweep costs more a step,
  (k + 1)(k + 2) / 6 > m + PRODUCT_COST n_max / (2 m), so long as
  n_max <= ``REFLECT_MAX_N``.  Per level the two routes cross, in
  process at the origin with the binomial rows apart, near k = 7 at
  n_max = 27, k = 9 at 60, k = 11 at 120, k = 12 at 200, k = 15 at 400
  and k = 20 at 670, and the cost comparison puts the crossing at 8,
  10, 12, 13, 16 and 19, always within one level.  The binomial rows
  are left out of the test.  Where their cost would tip a run of levels
  back to the sweep, the loss is small: level 8 of ``reproduce``'s grid
  (8, 27) takes the same time by either route, and levels 13-15 of
  (15, 200), which no caller runs, take about 0.4 ms more than their
  sweeps' 2.3 ms.

``growth_rate_estimate`` reads one count.  Every count is a Python int,
with no floats, and there are no records: the two records,
``CountTable`` and ``CountGrid``, live in ``records``, so the ``count``
and ``table`` subcommands, which print plain ints, load neither it nor
``dataclasses``.  Only ``cli`` and ``records`` import this module;
``reproduce`` reads it through ``records``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from operator import add

from .lattice import ORIGIN, Vertex, build_lattice, check_vertex, \
    class_offsets, in_vertex_set, sweep

# The weight of a big product, in additions, in the route test of
# ``_reflects`` (module docstring): with 3 the test's crossing lies within
# one level of the measured one at n_max = 27..670.  Past REFLECT_MAX_N
# every row sweeps, so the largest reflected grid the CLI allows,
# (64, 600), stays near 23 MB.
PRODUCT_COST = 3
REFLECT_MAX_N = 600


def _reflection_keys(k: int, n: int, vertices: list[Vertex]
                     ) -> list[tuple[int, int, int]]:
    """The affine reflection principle (Gessel-Zeilberger; Grabiner) at
    each of vertices after n steps: its keys, as the residues
    (x, y, z) = b - (1, 1, 1) mod m, m = k + 3.

    A walk is a 3-row tableau; in b = (r1 + 2, r2 + 1, r3) it starts at
    (2, 1, 0), adds 1 to one coordinate per step and stays in the alcove
    b1 > b2 > b3 > b1 - m.  So the count at v is the signed sum over
    sigma in S3 and the translations by m of the unrestricted
    multinomials C(n, c1) C(n - c1, c2), c1 = b_sigma1 - 2 and
    c2 = b_sigma2 - 1 (mod m):  sum_sigma sgn sigma sum_c1 C(n, c1)
    S(n - c1, b_sigma2 - 1), where S(q, r) sums C(q, c) over c = r
    (mod m) (``_residue_sums``).  The two sigma with the same
    sigma(1) have opposite signs and share one product: the cyclic
    successor adds and the other subtracts.  So the count is the sum
    over the three keys (c1, plus, minus), the cyclic turns
    (x - 1, y, z), (y - 1, z, x) and (z - 1, x, y), and over
    q = n - c1 (mod m), of C(n, q) (S(q, plus) - S(q, minus)).  The b
    are distinct mod m, so a vertex's three c1 never collide.  Needs
    n = 2i + j (mod 3) at every vertex.
    """
    m = k + 3
    return [((r3 + i + j + 1) % m, (r3 + i) % m, (r3 - 1) % m)
            for i, j in vertices for r3 in ((n - 2 * i - j) // 3,)]


def _residue_sums(m: int, q_max: int) -> Iterator[list[int]]:
    """S(q, r) for r = 0..m - 1, q = 0..q_max: the sum of C(q, c) over
    c = r (mod m).  S(q) steps up from S(0) = (1, 0, ..) by S(q + 1, r)
    = S(q, r) + S(q, r - 1), m additions a step, and no vertex changes
    it."""
    s = [1] + [0] * (m - 1)
    yield s
    for _ in range(q_max):
        s = [s[0] + s[-1], *map(add, s[1:], s)]
        yield s


def _reflection_count(k: int, n: int, v: Vertex) -> int:
    """Number of n-step walks from the origin ending at v, the reflection
    sum of ``_reflection_keys``: one pass of S(q), with C(n, q) stepped
    in lockstep, and a product at each q that one of v's three keys
    reads.  Needs n = 2i + j (mod 3)."""
    m = k + 3
    (x, y, z), = _reflection_keys(k, n, [v])
    keys = {(x - 1) % m: (y, z), (y - 1) % m: (z, x), (z - 1) % m: (x, y)}
    c, total = 1, 0  # C(n, 0)
    for q, s in enumerate(_residue_sums(m, n)):
        if q:
            c = c * (n - q + 1) // q
        key = keys.get((n - q) % m)
        if key:
            total += c * (s[key[0]] - s[key[1]])
    return total


def _residue_table(k: int, n: int) -> list[list[int]]:
    """T[a][b], a, b = 0..m - 1, m = k + 3: the sum of C(n, q) S(q, b)
    over q = n - a (mod m), the number of words of length n over three
    letters whose letter counts are a, b and n - a - b mod m.

    So T is symmetric under permuting its three residues, and the one
    pass of ``_residue_sums`` builds it on the domain a <= b <= c =
    n - a - b mod m alone, about m^2 / 6 entries: at each q, row
    a = n - q (mod m) takes C(n, q) times its run of S(q), the b in
    a..(a + c0) // 2 and, where c has wrapped past 0, a + c0 + 1..
    (a + c0 + m) // 2, c0 = n - 2a mod m.  That is about n m / 6
    products in all.  The entries are then mirrored to all six orders
    of their residues."""
    m = k + 3
    runs = []  # row a's two runs of b, as slice bounds
    for a in range(m):
        c0 = (n - 2 * a) % m
        runs.append((a, (a + c0) // 2 + 1, a + c0 + 1, (a + c0 + m) // 2 + 1))
    domain = [[*range(lo, hi), *range(lo2, hi2)] for lo, hi, lo2, hi2 in runs]
    rows = [[0] * len(bs) for bs in domain]
    c = 1  # C(n, 0)
    for q, s in enumerate(_residue_sums(m, n)):
        if q:
            c = c * (n - q + 1) // q
        a = (n - q) % m
        if rows[a]:  # about a quarter of the rows hold no entry
            lo, hi, lo2, hi2 = runs[a]
            rows[a] = [*map(add, rows[a],
                            map(c.__mul__, s[lo:hi] + s[lo2:hi2]))]
    table = [[0] * m for _ in range(m)]
    for a, bs in enumerate(domain):
        for b, t in zip(bs, rows[a]):
            r = (n - a - b) % m
            table[a][b] = table[b][a] = table[a][r] = table[r][a] \
                = table[b][r] = table[r][b] = t
    return table


def _class_counts(k: int, n: int) -> dict[Vertex, int]:
    """All endpoint counts of n-step walks from the origin on the level-k
    lattice, in canonical order: 0 off grade class n mod 3, and on it
    the reflection sum of ``_reflection_keys`` read from
    ``_residue_table``: the sum over q of a key (c1, plus, minus) is
    T[c1][plus] - T[c1][minus], so a vertex (x, y, z) reads six
    entries."""
    vertices = build_lattice(k).vertices  # k is checked before n
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    # row i of the canonical order starts at i (2k - i + 3) / 2, and its
    # class-n vertices are every third one from j = n - 2i mod 3
    reached = [v for i in range(k + 1)
               for v in vertices[i * (2 * k - i + 3) // 2 + (n - 2 * i) % 3:
                                 (i + 1) * (2 * k - i + 2) // 2:3]]
    table, totals = _residue_table(k, n), []
    for x, y, z in _reflection_keys(k, n, reached):
        a, b, c = table[x - 1], table[y - 1], table[z - 1]
        totals.append(a[y] - a[z] + b[z] - b[x] + c[x] - c[y])
    counts = dict.fromkeys(vertices, 0)
    counts.update(zip(reached, totals))
    return counts


def degeneracy(k: int, n: int, v: Vertex = ORIGIN) -> int:
    """Number of n-step walks from the origin ending at v.

    0 at once off v's grade class; otherwise the reflection sum of
    ``_reflection_count``, at every level.
    """
    v = Vertex(*v)
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    check_vertex(v, k)
    if (n - 2 * v.i - v.j) % 3:
        return 0  # every step raises 2i + j by 1 (mod 3)
    return _reflection_count(k, n, v)


def origin_history(k: int, n_max: int, v: Vertex = ORIGIN) -> list[int]:
    """degeneracy(k, n, v) for every n = 0..n_max in one DP sweep; 0 at
    the steps whose class is not v's."""
    v = Vertex(*v)
    check_vertex(v, k)
    g = (2 * v.i + v.j) % 3
    r = class_offsets(k)[g][v.i] + v.j // 3
    return [counts[r] if n % 3 == g else 0
            for n, counts in enumerate(sweep(k, n_max))]


def _class_binomials(n_max: int, g: int) -> list[list[int]]:
    """The rows C(n, 0..n) of Pascal's triangle for n = g, g + 3, ..
    <= n_max, the steps of grade class g; the rows between are built and
    dropped."""
    row, rows = [1], []
    for n in range(n_max + 1):
        if n:
            row = [1, *map(add, row, row[1:]), 1]
        if n % 3 == g:
            rows.append(row)
    return rows


def _grid_history(k: int, n_max: int, v: Vertex,
                  binomials: list[list[int]] | None) -> list[int]:
    """origin_history(k, n_max, v) for one grid row: the sweep when
    binomials is None, else the reflection sum of ``_reflection_keys``
    at each step n of v's class, binomials[n // 3] = C(n, 0..n) from
    ``_class_binomials``.  S(q, r) is built for q <= n_max at this level
    and dropped with it; each key takes C(n, q) (S(q, plus) -
    S(q, minus)) over q = n - c1 (mod m), about 3n / m products."""
    if binomials is None:
        return origin_history(k, n_max, v)
    m, g = k + 3, (2 * v.i + v.j) % 3
    sums = list(_residue_sums(m, n_max))
    history = [0] * (n_max + 1)
    for n, row in zip(range(g, n_max + 1, 3), binomials):
        (x, y, z), = _reflection_keys(k, n, [v])
        for c1, plus, minus in ((x - 1, y, z), (y - 1, z, x), (z - 1, x, y)):
            q = (n - c1) % m
            history[n] += sum([c * (s[plus] - s[minus])
                               for c, s in zip(row[q::m], sums[q::m])])
    return history


def _reflects(k: int, n_max: int) -> bool:
    """Whether level k of a grid up to n_max takes its row from the
    reflection sum: n_max <= REFLECT_MAX_N, and the sweep's cost a step
    exceeds the reflection sum's.  The sweep's cost less the reflection
    sum's never falls as k grows, so the levels that pass run up to the
    top of the grid, and ``grid_rows`` builds the binomial rows once, at
    the first of them."""
    m = k + 3
    return n_max <= REFLECT_MAX_N \
        and (k + 1) * (k + 2) / 6 > m + PRODUCT_COST * n_max / (2 * m)


def growth_rate_estimate(k: int, n: int) -> float:
    """f(n)^(1/n) at the origin, from the exact count (log-domain)."""
    if n < 3:
        raise ValueError(f"step count n must be >= 3, got {n}")
    n3 = n - n % 3  # origin counts vanish off multiples of 3
    return 2.0 ** (math.log2(degeneracy(k, n3)) / n3)


def grid_rows(k_max: int, n_max: int, v: Vertex = ORIGIN,
              all_columns: bool = False) -> tuple[tuple[int, ...], Iterator]:
    """(columns, rows) of the count grid at v for k = 1..k_max,
    n = 0..n_max: the n of the columns, and a lazy iterator of
    (k, counts aligned with the columns), one ``_grid_history`` per row:
    the reflection sum at the levels that ``_reflects`` passes, a run up
    to k_max, whose first level builds v's class binomial rows, and the
    sweep below.

    At the origin only the n with 3 | n are columns (the rest vanish by
    the congruence invariant) unless all_columns is set.  v must lie in
    the level-k_max lattice; the rows of the levels below it hold 0.
    The arguments are checked here, before any level runs, so a caller
    that prints each row as it comes prints nothing for a bad one.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    v = Vertex(*v)
    check_vertex(v, k_max)
    stride3 = v == ORIGIN and not all_columns
    columns = tuple(n for n in range(n_max + 1) if not stride3 or n % 3 == 0)

    def rows():
        binomials = None  # v's class rows, from the first reflected level
        for k in range(1, k_max + 1):
            if not in_vertex_set(v, k):
                yield k, tuple(0 for _ in columns)
                continue
            if binomials is None and _reflects(k, n_max):
                binomials = _class_binomials(n_max, (2 * v.i + v.j) % 3)
            history = _grid_history(k, n_max, v, binomials)
            yield k, tuple(history[n] for n in columns)

    return columns, rows()
