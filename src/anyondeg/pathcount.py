"""Exact counting of n-step walks from the origin on the level-k lattice.

Dynamic programming over the predecessor recurrence

    f[(i,j)](n) = f[(i+1,j)](n-1) + f[(i-1,j+1)](n-1) + f[(i,j-1)](n-1)

with out-of-range terms zero.  Every step raises the grade (2i + j) mod 3
by 1, so after n steps only the vertices of class n mod 3 can hold a
nonzero count, and every predecessor of a class-g vertex lies in class
g - 1.  The walk itself is ``lattice.sweep``, one flat list per step
over class n mod 3; this module reads it for every query but one:
``degeneracy``, which wants a single count and takes it, at every
level, from the affine reflection sum of ``_reflection_count``, about
n (k + 3) additions instead of the sweep's n (k + 1)(k + 2) / 6.
``growth_rate_estimate`` reads one count.
Everything but that estimate is a Python int; no floats.  Only ``cli``,
in its ``count`` and ``table`` subcommands, and ``reproduce`` import
this module.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import add

from .lattice import ORIGIN, Vertex, build_lattice, check_vertex, \
    class_offsets, in_vertex_set, sweep


# a dataclass: perfbench/test_bench_checks.py calls dataclasses.replace on it
@dataclass(frozen=True)
class CountTable:
    """Walk counts from the origin after n steps, one entry per vertex."""

    k: int
    n: int
    counts: dict[Vertex, int]


def count_paths(k: int, n: int) -> CountTable:
    """All endpoint counts for n-step walks from (0,0) on the level-k lattice."""
    off, g = class_offsets(k), n % 3  # k is checked before n
    last = deque(sweep(k, n), maxlen=1).pop()
    counts = {v: last[off[g][v.i] + v.j // 3] if (2 * v.i + v.j) % 3 == g
              else 0 for v in build_lattice(k).vertices}
    return CountTable(k=k, n=n, counts=counts)


# The six permutations sigma of S3 as (sign, sigma(1), sigma(2)), 0-based.
_S3 = ((1, 0, 1), (-1, 1, 0), (-1, 0, 2), (1, 1, 2), (1, 2, 0), (-1, 2, 1))


def _reflection_count(k: int, n: int, v: Vertex) -> int:
    """Number of n-step walks from the origin ending at v, by the affine
    reflection principle (Gessel-Zeilberger; Grabiner).

    A walk is a 3-row tableau; in b = (r1 + 2, r2 + 1, r3) it starts at
    (2, 1, 0), adds 1 to one coordinate per step and stays in the alcove
    b1 > b2 > b3 > b1 - m, m = k + 3.  So the count is the signed sum
    over sigma in S3 and the translations by m of the unrestricted
    multinomials C(n, c1) C(n - c1, c2), c1 = b_sigma1 - 2 and
    c2 = b_sigma2 - 1 (mod m):  sum_sigma sgn sigma sum_c1 C(n, c1)
    S(n - c1, b_sigma2 - 1), where S(q, r) sums C(q, c) over c = r
    (mod m).  S(q) steps up from q = 0 by S(q + 1, r) = S(q, r) +
    S(q, r - 1), m additions a step, in lockstep with C(n, n - q); the
    two sigma with the same sigma(1) have opposite signs and share one
    product.  Needs n = 2i + j (mod 3).
    """
    m = k + 3
    r3 = (n - 2 * v.i - v.j) // 3
    b = (r3 + v.i + v.j + 2, r3 + v.i + 1, r3)
    pairs = {}  # c1 mod m -> [c2 mod m of the + sigma, of the - sigma]
    for sign, s1, s2 in _S3:
        pairs.setdefault((b[s1] - 2) % m, [0, 0])[sign < 0] = (b[s2] - 1) % m
    s, c, total = [1] + [0] * (m - 1), 1, 0  # S(0), C(n, n)
    for q in range(n + 1):
        if q:
            s = [s[0] + s[-1], *map(add, s[1:], s)]
            c = c * (n - q + 1) // q
        pair = pairs.get((n - q) % m)
        if pair:
            total += c * (s[pair[0]] - s[pair[1]])
    return total


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


def growth_rate_estimate(k: int, n: int) -> float:
    """f(n)^(1/n) at the origin, from the exact count (log-domain)."""
    if n < 3:
        raise ValueError(f"step count n must be >= 3, got {n}")
    n3 = n - n % 3  # origin counts vanish off multiples of 3
    return 2.0 ** (math.log2(degeneracy(k, n3)) / n3)


# a dataclass: perfbench/test_bench_checks.py calls dataclasses.replace on it
@dataclass(frozen=True)
class CountGrid:
    """Rectangular grid of counts: one row per level, one column per n."""

    vertex: Vertex
    columns: tuple[int, ...]
    rows: dict[int, tuple[int, ...]]  # level -> counts, aligned with columns


def table(k_max: int, n_max: int, v: Vertex = ORIGIN,
          all_columns: bool = False) -> CountGrid:
    """Counts at v for k = 1..k_max, n = 0..n_max.

    At the origin only the n with 3 | n are emitted (the rest vanish by
    the congruence invariant) unless all_columns is set.  v must lie in
    the level-k_max lattice; the rows of the levels below it hold 0.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    v = Vertex(*v)
    check_vertex(v, k_max)  # before any sweep
    stride3 = v == ORIGIN and not all_columns
    columns = tuple(n for n in range(n_max + 1) if not stride3 or n % 3 == 0)
    rows = {}
    for k in range(1, k_max + 1):
        if not in_vertex_set(v, k):
            rows[k] = tuple(0 for _ in columns)
            continue
        history = origin_history(k, n_max, v)
        rows[k] = tuple(history[n] for n in columns)
    return CountGrid(vertex=v, columns=columns, rows=rows)
