"""The two count records and the queries that build them.

``count_paths`` gives a ``CountTable``, the endpoint counts of one step
over the whole lattice, and ``table`` a ``CountGrid``, the counts at one
vertex for every level and step up to a bound.  Each wraps one
``pathcount`` query, which picks the route and counts in plain ints;
``pathcount``'s module docstring states the routes and their costs.
This is the one library module that imports ``dataclasses``, which
costs a process about 10 ms to load, so the ``count`` and ``table``
subcommands, which print ``pathcount``'s ints and rows directly, load
neither it nor this module; ``reproduce`` and library callers of these
four names do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ORIGIN, Vertex
from .pathcount import _class_counts, grid_rows


# a dataclass: perfbench/test_bench_checks.py calls dataclasses.replace on it
@dataclass(frozen=True)
class CountTable:
    """Walk counts from the origin after n steps, one entry per vertex."""

    k: int
    n: int
    counts: dict[Vertex, int]


def count_paths(k: int, n: int) -> CountTable:
    """All endpoint counts for n-step walks from (0,0) on the level-k
    lattice, in canonical order, from ``pathcount._class_counts``, whose
    route and cost ``pathcount``'s module docstring states."""
    return CountTable(k=k, n=n, counts=_class_counts(k, n))


# a dataclass: perfbench/test_bench_checks.py calls dataclasses.replace on it
@dataclass(frozen=True)
class CountGrid:
    """Rectangular grid of counts: one row per level, one column per n."""

    vertex: Vertex
    columns: tuple[int, ...]
    rows: dict[int, tuple[int, ...]]  # level -> counts, aligned with columns


def table(k_max: int, n_max: int, v: Vertex = ORIGIN,
          all_columns: bool = False) -> CountGrid:
    """Counts at v for k = 1..k_max, n = 0..n_max, as one grid: the rows
    of ``pathcount.grid_rows``, which checks the arguments and holds its
    rules (the origin's stride-3 columns, zero rows below v's level, and
    each row's route)."""
    columns, rows = grid_rows(k_max, n_max, v, all_columns)
    return CountGrid(vertex=Vertex(*v), columns=columns, rows=dict(rows))
