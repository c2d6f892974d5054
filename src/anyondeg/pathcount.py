"""Exact counting of n-step walks from the origin on the level-k lattice.

Every step raises the grade (2i + j) mod 3 by 1, so after n steps only
the vertices of class n mod 3 can hold a nonzero count.  The endpoint
counts at one step, ``degeneracy``'s one vertex and
``records.count_paths``'s whole class, come from the affine reflection
sum of ``_reflection_counts``: one pass of about n (k + 3) additions,
which no vertex changes, and about 3 n / (k + 3) big products per
vertex, against the sweep's n (k + 1)(k + 2) / 6 additions.  The
histories and grid rows, ``origin_history`` and ``grid_rows``, read
``lattice.sweep``, the dynamic programme over the predecessor recurrence

    f[(i,j)](n) = f[(i+1,j)](n-1) + f[(i-1,j+1)](n-1) + f[(i,j-1)](n-1)

with out-of-range terms zero, one flat list per step over class n mod 3.
``growth_rate_estimate`` reads one count.
Everything but that estimate is a Python int; no floats, and no
records: the two records, ``CountTable`` and ``CountGrid``, live in
``records``, so the ``count`` and ``table`` subcommands, which print
plain ints, load neither it nor ``dataclasses``.  Only ``cli`` and
``records`` import this module; ``reproduce`` reads it through
``records``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from operator import add

from .lattice import ORIGIN, Vertex, check_vertex, class_offsets, \
    in_vertex_set, sweep


def _reflection_counts(k: int, n: int, vertices: list[Vertex]
                       ) -> list[int]:
    """Number of n-step walks from the origin ending at each of vertices,
    by the affine reflection principle (Gessel-Zeilberger; Grabiner).

    A walk is a 3-row tableau; in b = (r1 + 2, r2 + 1, r3) it starts at
    (2, 1, 0), adds 1 to one coordinate per step and stays in the alcove
    b1 > b2 > b3 > b1 - m, m = k + 3.  So the count is the signed sum
    over sigma in S3 and the translations by m of the unrestricted
    multinomials C(n, c1) C(n - c1, c2), c1 = b_sigma1 - 2 and
    c2 = b_sigma2 - 1 (mod m):  sum_sigma sgn sigma sum_c1 C(n, c1)
    S(n - c1, b_sigma2 - 1), where S(q, r) sums C(q, c) over c = r
    (mod m).  S(q) steps up from q = 0 by S(q + 1, r) = S(q, r) +
    S(q, r - 1), m additions a step, in lockstep with C(n, n - q), and
    neither depends on the vertex, so one pass serves them all.  The two
    sigma with the same sigma(1) = x have opposite signs and share one
    product: the cyclic sigma(2) = x + 1 adds, x + 2 subtracts.  The b_x
    are distinct mod m, so a vertex's three keys b_x - 2 never collide.
    Needs n = 2i + j (mod 3) at every vertex.
    """
    m = k + 3
    hits = {}  # c1 mod m -> [(vertex index, c2 mod m of + sigma, of -)]
    for t, (i, j) in enumerate(vertices):
        r3 = (n - 2 * i - j) // 3
        b = (r3 + i + j + 2, r3 + i + 1, r3)
        for x in range(3):
            hits.setdefault((b[x] - 2) % m, []).append(
                (t, (b[x - 2] - 1) % m, (b[x - 1] - 1) % m))
    s, c, totals = [1] + [0] * (m - 1), 1, [0] * len(vertices)  # S(0), C(n, n)
    for q in range(n + 1):
        if q:
            s = [s[0] + s[-1], *map(add, s[1:], s)]
            c = c * (n - q + 1) // q
        for t, plus, minus in hits.get((n - q) % m, ()):
            totals[t] += c * (s[plus] - s[minus])
    return totals


def degeneracy(k: int, n: int, v: Vertex = ORIGIN) -> int:
    """Number of n-step walks from the origin ending at v.

    0 at once off v's grade class; otherwise the reflection sum of
    ``_reflection_counts`` over [v], at every level.
    """
    v = Vertex(*v)
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    check_vertex(v, k)
    if (n - 2 * v.i - v.j) % 3:
        return 0  # every step raises 2i + j by 1 (mod 3)
    return _reflection_counts(k, n, [v])[0]


def origin_history(k: int, n_max: int, v: Vertex = ORIGIN) -> list[int]:
    """degeneracy(k, n, v) for every n = 0..n_max in one DP sweep; 0 at
    the steps whose class is not v's."""
    v = Vertex(*v)
    check_vertex(v, k)
    g = (2 * v.i + v.j) % 3
    r = class_offsets(k)[g][v.i] + v.j // 3
    return [counts[r] if n % 3 == g else 0
            for n, counts in enumerate(sweep(k, n_max))]


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
    (k, counts aligned with the columns), one level's sweep per row.

    At the origin only the n with 3 | n are columns (the rest vanish by
    the congruence invariant) unless all_columns is set.  v must lie in
    the level-k_max lattice; the rows of the levels below it hold 0.
    The arguments are checked here, before any sweep, so a caller that
    prints each row as it comes prints nothing for a bad one.
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
        for k in range(1, k_max + 1):
            if not in_vertex_set(v, k):
                yield k, tuple(0 for _ in columns)
                continue
            history = origin_history(k, n_max, v)
            yield k, tuple(history[n] for n in columns)

    return columns, rows()
