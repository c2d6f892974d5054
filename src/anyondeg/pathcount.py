"""Exact counting of n-step walks from the origin on the level-k lattice.

Dynamic programming over the predecessor recurrence

    f[(i,j)](n) = f[(i+1,j)](n-1) + f[(i-1,j+1)](n-1) + f[(i,j-1)](n-1)

with out-of-range terms zero.  Everything is a Python int; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ORIGIN, Vertex, build_lattice, in_vertex_set, predecessors


@dataclass(frozen=True)
class CountTable:
    """Walk counts from the origin after n steps, one entry per vertex."""

    k: int
    n: int
    counts: dict[Vertex, int]

    def total(self) -> int:
        return sum(self.counts.values())


def _step(prev: dict[Vertex, int], pred_lists) -> dict[Vertex, int]:
    return {v: sum(prev[u] for u in preds) for v, preds in pred_lists.items()}


def _predecessor_lists(k: int) -> dict[Vertex, list[Vertex]]:
    lat = build_lattice(k)
    return {v: predecessors(v, k) for v in lat.vertices}


def count_paths(k: int, n: int) -> CountTable:
    """All endpoint counts for n-step walks from (0,0) on the level-k lattice."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    pred_lists = _predecessor_lists(k)
    counts = {v: 0 for v in pred_lists}
    counts[ORIGIN] = 1
    for _ in range(n):
        counts = _step(counts, pred_lists)
    return CountTable(k=k, n=n, counts=counts)


def degeneracy(k: int, n: int, v: Vertex = ORIGIN) -> int:
    """Number of n-step walks from the origin ending at v."""
    v = Vertex(*v)
    if not in_vertex_set(v, k):
        raise ValueError(f"vertex {tuple(v)} not in the level-{k} lattice")
    return count_paths(k, n).counts[v]


def total_dimension(k: int, n: int) -> int:
    """Total number of n-step walks from the origin, summed over endpoints."""
    return count_paths(k, n).total()


def origin_history(k: int, n_max: int, v: Vertex = ORIGIN) -> list[int]:
    """degeneracy(k, n, v) for every n = 0..n_max in one DP sweep."""
    v = Vertex(*v)
    if not in_vertex_set(v, k):
        raise ValueError(f"vertex {tuple(v)} not in the level-{k} lattice")
    pred_lists = _predecessor_lists(k)
    counts = {u: 0 for u in pred_lists}
    counts[ORIGIN] = 1
    history = [counts[v]]
    for _ in range(n_max):
        counts = _step(counts, pred_lists)
        history.append(counts[v])
    return history


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
