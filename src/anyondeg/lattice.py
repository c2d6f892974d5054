"""The restricted overhang lattice: vertices, the edge rule, the walk.

A vertex (i, j) records the two row-length overhangs of a 3-row Young
diagram; level k restricts i + j <= k.  Adding one box moves the state
along a directed edge, so n-step walks from the origin count the
admissible tableaux.  The edge rule is ``_STEPS``, and ``walk_table``,
its one reader, builds the one padded per-class table from it by
position arithmetic (``class_offsets``), with no vertex object or dict:
every vertex's row, or given points' rows alone.  Every walk and the
Perron route's block B read that table, the Perron route only its orbit
representatives' rows when 3 | k, and ``step`` is the one loop that
takes a step along it.  ``sweep(k, n_max)`` is the walk: it builds the
level's table and steps from the origin one grade class at a time.
Every history of walk counts, the numerators of ``genfunc`` too, comes
from it, and so do the grid rows of ``pathcount.grid_rows`` at the
levels where the sweep costs less; the endpoint counts at one step, and
the other grid rows, come from the reflection sum of ``pathcount``,
whose module docstring states each route's cost.
The simple current J, (i, j) -> (k - i - j, i), has one rule for its
orbit representatives, ``orbit_firsts``, which the determinant's factors
and the Perron tables both read.  Pure Python; no dense adjacency matrix
is built.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from typing import NamedTuple


class Vertex(NamedTuple):
    i: int
    j: int


ORIGIN = Vertex(0, 0)

# Adding a box to row 1, 3 or 2 moves (i, j) by one of these deltas.
_STEPS = ((0, 1), (-1, 0), (1, -1))


def in_vertex_set(v: Vertex, k: int) -> bool:
    return v.i >= 0 and v.j >= 0 and v.i + v.j <= k


def check_vertex(v: Vertex, k: int) -> None:
    """ValueError if v lies outside the level-k lattice."""
    if not in_vertex_set(v, k):
        raise ValueError(f"vertex {tuple(v)} not in the level-{k} lattice")


class Lattice(NamedTuple):
    """Level-k lattice with its canonical vertex order.

    The canonical order lists (0,0),(0,1),...,(0,k),(1,0),...,(k,0);
    vertex (i, j) sits at index i*(2k - i + 3)//2 + j.  Immutable.
    """

    k: int
    vertices: tuple[Vertex, ...]

    @property
    def dim(self) -> int:
        return len(self.vertices)


def build_lattice(k: int) -> Lattice:
    """All (k+1)(k+2)/2 vertices in canonical order, each made as
    ``Vertex._make`` makes it, by ``tuple.__new__`` from a pair, with no
    Python-level call per vertex."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    vertices = tuple(map(tuple.__new__, repeat(Vertex),
                         [(i, j) for i in range(k + 1)
                          for j in range(k + 1 - i)]))
    return Lattice(k=k, vertices=vertices)


def class_offsets(k: int) -> list[list[int]]:
    """off[g][i], i = 0..k + 1: the number of vertices of grade
    g = (2i + j) mod 3 above row i.  Row i holds those with j = g + i
    (mod 3), so in class order (canonical order within the class), (i, j)
    sits at off[g][i] + j // 3, and off[g][k + 1] is the class size."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    off = [[0], [0], [0]]
    for i in range(k + 1):
        for g, row in enumerate(off):
            row.append(row[-1] + (k - i - (g + i) % 3) // 3 + 1)
    return off


def orbit_firsts(k: int) -> list[tuple[int, int]]:
    """(i, j) of the first point, in (i, j) order, of every 3-point orbit
    of J, (i, j) -> (k - i - j, i), listed in (i, j) order.  J cycles the
    labels (k - i - j, i, j), so an orbit's three i values are its three
    labels, and its first point is the one with i < k - i - j and
    i <= j: i <= j, 2i + j < k, so i < k/3.  J's fixed point (k/3, k/3),
    when 3 | k, fails 2i + j < k and comes after them all."""
    return [(i, j) for i in range(k + 1) for j in range(i, k - 2 * i)]


def walk_table(k: int, points: list[list[tuple[int, int]]] | None = None
               ) -> list[list[list[int]]]:
    """The one per-class edge table: every step raises the grade by 1, so
    pred[g][r][s] is the class-(g - 1) position (``class_offsets``) of
    v - _STEPS[s] = (i - di, j - dj) for the r-th class-g vertex v, or the
    pad |C_{g-1}|, the slot past class g - 1 where ``step`` keeps 0, where
    that point leaves the lattice: unless i >= di, dj <= j <= k-i+di+dj.
    Given points, points[g] lists class-g vertices (i, j) in class order,
    and pred[g] holds their rows alone, in that order; the positions they
    name are still whole-class ones.  Either way the bounds are taken
    once per row i."""
    (ai, aj), (bi, bj), (ci, cj) = _STEPS
    off, pred = class_offsets(k), []
    for g in range(3):
        prev, rows = off[g - 1], []
        pad = prev[-1]
        if points is not None:
            js = [[] for _ in range(k + 1)]
            for i, j in points[g]:
                js[i].append(j)
        for i in range(k + 1):
            a, b, c = prev[i - ai], prev[i - bi], prev[i - ci]
            a_hi = k - i + ai + aj if i >= ai else -1
            b_hi = k - i + bi + bj if i >= bi else -1
            c_hi = k - i + ci + cj if i >= ci else -1
            rows += [[a + (j - aj) // 3 if aj <= j <= a_hi else pad,
                      b + (j - bj) // 3 if bj <= j <= b_hi else pad,
                      c + (j - cj) // 3 if cj <= j <= c_hi else pad]
                     for j in (range((g + i) % 3, k - i + 1, 3)
                               if points is None else js[i])]
        pred.append(rows)
    return pred


def step(rows: list[list[int]], x: list) -> list:
    """One step along ``walk_table``'s rows for one class: the sum of the
    three entries of x that each row names, then the trailing 0 slot
    that the next class's pads point to."""
    y = [x[a] + x[b] + x[c] for a, b, c in rows]
    y.append(0)
    return y


def sweep(k: int, n_max: int, source: tuple[int, ...] = (1,)
          ) -> Iterator[list[int]]:
    """Counts after n = 0..n_max steps of walks from the origin on the
    level-k lattice, where source[m] walks start at step 3m; step n
    covers class n mod 3 only.

    For source the coefficients of S(s), step 3m + g holds the s^m
    coefficient of S G_v at each class-g vertex v, G_v its walk series
    in s = t^3.  It builds the level's ``walk_table`` itself.  Each list
    is flat over class n mod 3 in class order, plus the trailing 0 slot
    of ``step``.
    """
    if n_max < 0:
        raise ValueError(f"step count n must be >= 0, got {n_max}")
    pred = walk_table(k)
    counts = [source[0]] + [0] * len(pred[0])
    yield counts
    for n in range(1, n_max + 1):
        counts = step(pred[n % 3], counts)
        if n % 3 == 0 and n < 3 * len(source):
            counts[0] += source[n // 3]
        yield counts
