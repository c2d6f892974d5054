"""Exact counting of n-step walks from the origin on the level-k lattice.

Dynamic programming over the predecessor recurrence

    f[(i,j)](n) = f[(i+1,j)](n-1) + f[(i-1,j+1)](n-1) + f[(i,j-1)](n-1)

with out-of-range terms zero.  One sweep over flat count lists in the
canonical vertex order serves every query.  Everything is a Python int;
no floats.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .lattice import ORIGIN, Lattice, Vertex, build_lattice, check_vertex, \
    in_vertex_set, predecessors


@dataclass(frozen=True)
class CountTable:
    """Walk counts from the origin after n steps, one entry per vertex."""

    k: int
    n: int
    counts: dict[Vertex, int]

    def total(self) -> int:
        return sum(self.counts.values())


def _sweep(lat: Lattice, n_max: int) -> Iterator[list[int]]:
    """Counts after n = 0..n_max steps, as flat lists in canonical order.

    A trailing slot that stays 0 stands in for missing predecessors, so
    every update sums exactly three entries.
    """
    if n_max < 0:
        raise ValueError(f"step count n must be >= 0, got {n_max}")
    zero = lat.dim  # index of the trailing slot
    preds = [[lat.index(u) for u in predecessors(v, lat.k)] for v in lat.vertices]
    preds = [p + [zero] * (3 - len(p)) for p in preds] + [[zero] * 3]
    counts = [0] * (zero + 1)
    counts[lat.index(ORIGIN)] = 1
    yield counts
    for _ in range(n_max):
        counts = [counts[a] + counts[b] + counts[c] for a, b, c in preds]
        yield counts


def count_paths(k: int, n: int) -> CountTable:
    """All endpoint counts for n-step walks from (0,0) on the level-k lattice."""
    lat = build_lattice(k)
    last = deque(_sweep(lat, n), maxlen=1).pop()
    return CountTable(k=k, n=n, counts=dict(zip(lat.vertices, last)))


def degeneracy(k: int, n: int, v: Vertex = ORIGIN) -> int:
    """Number of n-step walks from the origin ending at v."""
    v = Vertex(*v)
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    check_vertex(v, k)
    if (n - 2 * v.i - v.j) % 3:
        return 0  # every step raises 2i + j by 1 (mod 3)
    return count_paths(k, n).counts[v]


def total_dimension(k: int, n: int) -> int:
    """Total number of n-step walks from the origin, summed over endpoints."""
    return count_paths(k, n).total()


def origin_history(k: int, n_max: int, v: Vertex = ORIGIN) -> list[int]:
    """degeneracy(k, n, v) for every n = 0..n_max in one DP sweep."""
    lat = build_lattice(k)
    idx = lat.index(Vertex(*v))
    return [counts[idx] for counts in _sweep(lat, n_max)]


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
    the congruence invariant) unless all_columns is set.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    v = Vertex(*v)
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
