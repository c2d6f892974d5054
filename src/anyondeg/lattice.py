"""The restricted overhang lattice: vertices, the edge rule, grade classes.

A vertex (i, j) records the two row-length overhangs of a 3-row Young
diagram; level k restricts i + j <= k.  Adding one box moves the state
along a directed edge, so n-step walks from the origin count the
admissible tableaux.  ``predecessors`` is the one edge rule, and
``class_predecessors`` the one padded table built from it: every walk
count, the Perron route's block B too, reads that table.  Pure Python;
no dense adjacency matrix is built.
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


def predecessors(v: Vertex, k: int) -> list[Vertex]:
    """In-range predecessors of v: (i+1,j), (i-1,j+1), (i,j-1)."""
    out = []
    for di, dj in _STEPS:
        u = Vertex(v.i - di, v.j - dj)
        if in_vertex_set(u, k):
            out.append(u)
    return out


@dataclass(frozen=True)
class Lattice:
    """Level-k lattice with its canonical vertex order.

    The canonical order lists (0,0),(0,1),...,(0,k),(1,0),...,(k,0);
    vertex (i, j) sits at index i*(2k - i + 3)//2 + j.  Immutable.
    """

    k: int
    vertices: tuple[Vertex, ...]

    def index(self, v: Vertex) -> int:
        check_vertex(v, self.k)
        return v.i * (2 * self.k - v.i + 3) // 2 + v.j

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


def grade_classes(lattice: Lattice) -> tuple[tuple[Vertex, ...], ...]:
    """The vertices of grade g = (2i + j) mod 3 for g = 0, 1, 2, each in
    canonical order.

    Every step raises the grade by 1, so every edge runs from class g to
    class g + 1 (mod 3) and the adjacency matrix is 3-cyclic in these
    blocks; the origin opens class 0.
    """
    classes: tuple[list[Vertex], ...] = ([], [], [])
    for v in lattice.vertices:
        classes[(2 * v.i + v.j) % 3].append(v)
    return tuple(tuple(c) for c in classes)


def class_predecessors(lattice: Lattice) -> list[list[list[int]]]:
    """The one per-class edge table: pred[g][r] holds the positions in
    class g - 1 of the predecessors of the r-th vertex of class g.

    Positions index the tuples of ``grade_classes``, so len(pred[g]) is
    the size of class g.  Every row has three entries: the real positions
    in ``predecessors`` order, then one pad len(pred[g - 1]) per missing
    predecessor, the slot just past class g - 1 where a reader keeps 0.
    """
    classes = grade_classes(lattice)
    pos = {v: r for cls in classes for r, v in enumerate(cls)}
    return [[([pos[u] for u in predecessors(v, lattice.k)]
              + [len(classes[g - 1])] * 3)[:3] for v in cls]
            for g, cls in enumerate(classes)]
