"""The two count records and the queries that build them.

``count_paths`` gives a ``CountTable``, the endpoint counts of one step
over the whole lattice, from the reflection sum, and ``table`` a
``CountGrid``, the counts at one vertex for every level and step up to
a bound, each level's row from the reflection sum or the sweep,
whichever ``pathcount`` reckons cheaper.  Both read ``pathcount``,
which counts in plain ints.  This is the one library module that imports
``dataclasses``, which costs a process about 10 ms to load, so the
``count`` and ``table`` subcommands, which print ``pathcount``'s ints
and rows directly, load neither it nor this module; ``reproduce`` and
library callers of these four names do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ORIGIN, Vertex, build_lattice
from .pathcount import _reflection_counts, grid_rows


# a dataclass: perfbench/test_bench_checks.py calls dataclasses.replace on it
@dataclass(frozen=True)
class CountTable:
    """Walk counts from the origin after n steps, one entry per vertex."""

    k: int
    n: int
    counts: dict[Vertex, int]


def count_paths(k: int, n: int) -> CountTable:
    """All endpoint counts for n-step walks from (0,0) on the level-k
    lattice, in canonical order: 0 off grade class n mod 3, and on it
    one reflection sum of ``pathcount._reflection_counts`` over the whole
    class.

    The sum is cheaper than ``lattice.sweep`` up to about n = 40 (k + 3)
    at k >= 16 and n = 8 (k + 3) at k <= 4; past that its products cost
    more than the sweep's additions.  No caller in the package goes
    there (README, Walk counts)."""
    vertices = build_lattice(k).vertices  # k is checked before n
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    reached = [v for v in vertices if (n - 2 * v.i - v.j) % 3 == 0]
    counts = dict.fromkeys(vertices, 0)
    counts.update(zip(reached, _reflection_counts(k, n, reached)))
    return CountTable(k=k, n=n, counts=counts)


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
    each row's route, the reflection sum or the sweep, by their costs)."""
    columns, rows = grid_rows(k_max, n_max, v, all_columns)
    return CountGrid(vertex=Vertex(*v), columns=columns, rows=dict(rows))
