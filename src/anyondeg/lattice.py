"""The restricted overhang lattice: vertices, the edge rule, the walk table.

A vertex (i, j) records the two row-length overhangs of a 3-row Young
diagram; level k restricts i + j <= k.  Adding one box moves the state
along a directed edge, so n-step walks from the origin count the
admissible tableaux.  The edge rule is ``_STEPS``, and ``walk_table``,
its one reader, builds the one padded per-class table from it by
position lookup, in one pass.  Every walk, the Perron route's block B
and the numerator sweep too, reads that table, and ``step`` is the one
loop that takes a step along it.  Pure Python; no dense adjacency
matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Lattice:
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
    """All (k+1)(k+2)/2 vertices in canonical order."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    vertices = tuple(Vertex(i, j)
                     for i in range(k + 1) for j in range(k + 1 - i))
    return Lattice(k=k, vertices=vertices)


def walk_table(lat: Lattice) -> tuple[tuple[list[Vertex], ...],
                                      dict[Vertex, int],
                                      list[list[list[int]]]]:
    """The one per-class edge table, as (classes, pos, pred).

    classes[g] lists the vertices of grade g = (2i + j) mod 3 in
    canonical order, the origin first in class 0, and pos[v] is v's
    position in its class.  Every step raises the grade by 1, so every
    predecessor of a class-g vertex lies in class g - 1, and
    pred[g][r][s] is the class-(g - 1) position of v - _STEPS[s] for the
    r-th class-g vertex v, or the pad len(classes[g - 1]) where that
    point leaves the lattice: the slot just past class g - 1 where
    ``step`` keeps 0.
    """
    classes: tuple[list[Vertex], ...] = ([], [], [])
    pos = {}
    for v in lat.vertices:
        cls = classes[(2 * v.i + v.j) % 3]
        pos[v] = len(cls)
        cls.append(v)
    (ai, aj), (bi, bj), (ci, cj) = _STEPS
    get, pred = pos.get, []
    for g, cls in enumerate(classes):
        pad = len(classes[g - 1])
        pred.append([[get((i - ai, j - aj), pad), get((i - bi, j - bj), pad),
                      get((i - ci, j - cj), pad)] for i, j in cls])
    return classes, pos, pred


def step(rows: list[list[int]], x: list) -> list:
    """One step along ``walk_table``'s rows for one class: the sum of the
    three entries of x that each row names, then the trailing 0 slot
    that the next class's pads point to."""
    y = [x[a] + x[b] + x[c] for a, b, c in rows]
    y.append(0)
    return y
