"""The restricted overhang lattice: vertices, edge rules, adjacency matrix.

A vertex (i, j) records the two row-length overhangs of a 3-row Young
diagram; level k restricts i + j <= k.  Adding one box moves the state
along a directed edge, so n-step walks from the origin count the
admissible tableaux.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


class Vertex(NamedTuple):
    i: int
    j: int


ORIGIN = Vertex(0, 0)

# Adding a box to row 1, 3 or 2 moves (i, j) by one of these deltas.
_STEPS = ((0, 1), (-1, 0), (1, -1))


def in_vertex_set(v: Vertex, k: int) -> bool:
    return v.i >= 0 and v.j >= 0 and v.i + v.j <= k


def is_edge(frm: Vertex, to: Vertex, k: int) -> bool:
    """Directed edge test; total (out-of-range inputs just return False)."""
    if not (in_vertex_set(frm, k) and in_vertex_set(to, k)):
        return False
    return (to.i - frm.i, to.j - frm.j) in _STEPS


def successors(v: Vertex, k: int) -> list[Vertex]:
    """In-range successors of v, at most three."""
    out = []
    for di, dj in _STEPS:
        w = Vertex(v.i + di, v.j + dj)
        if in_vertex_set(w, k):
            out.append(w)
    return out


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
    vertex (i, j) sits at index i*(2k - i + 3)//2 + j.  Immutable after
    construction; the edge set is built on first use.
    """

    k: int
    vertices: tuple[Vertex, ...]

    @cached_property
    def edges(self) -> frozenset[tuple[Vertex, Vertex]]:
        return frozenset((v, w) for v in self.vertices
                         for w in successors(v, self.k))

    def index(self, v: Vertex) -> int:
        if not in_vertex_set(v, self.k):
            raise ValueError(f"vertex {tuple(v)} not in the level-{self.k} lattice")
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


def adjacency(lattice: Lattice) -> np.ndarray:
    """0/1 adjacency matrix in the canonical vertex order (row -> column)."""
    n = lattice.dim
    mat = np.zeros((n, n), dtype=np.int64)
    for v, w in lattice.edges:
        mat[lattice.index(v), lattice.index(w)] = 1
    return mat
