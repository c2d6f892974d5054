"""The two count records and the queries that build them.

``count_paths`` gives a ``CountTable``, the endpoint counts of one step
over the whole lattice, from the reflection sum's residue table, and
``table`` a ``CountGrid``, the counts at one vertex for every level and
step up to a bound, each level's row from the reflection sum or the
sweep, whichever ``pathcount`` reckons cheaper.  Both read ``pathcount``,
which counts in plain ints.  This is the one library module that imports
``dataclasses``, which costs a process about 10 ms to load, so the
``count`` and ``table`` subcommands, which print ``pathcount``'s ints
and rows directly, load neither it nor this module; ``reproduce`` and
library callers of these four names do.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ORIGIN, Vertex, build_lattice
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
    lattice, in canonical order: 0 off grade class n mod 3, and on it
    the reflection sum over the whole class, read from the trinomial
    residue table of ``pathcount._class_counts``.

    The table costs about n (k + 3) additions and n (k + 3) / 6
    products, against ``lattice.sweep``'s n (k + 1)(k + 2) / 6
    additions.  It is the cheaper route from k = 16 up, to about
    n = 100 (k + 3) at k = 16 and past n = 3000 at k = 28 and 64.
    Small levels pay for it: at k <= 8 the sweep is cheaper at every n,
    by 1.2x at (8, 60) up to 6x at (4, 3000) (README, Walk counts).
    The package's one caller there, ``reproduce``'s hooks item at
    k = n <= 12, takes about 0.1 ms more in all; no size rule sends
    those calls to the sweep."""
    vertices = build_lattice(k).vertices  # k is checked before n
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    # row i of the canonical order starts at i (2k - i + 3) / 2, and its
    # class-n vertices are every third one from j = n - 2i mod 3
    reached = [v for i in range(k + 1)
               for v in vertices[i * (2 * k - i + 3) // 2 + (n - 2 * i) % 3:
                                 (i + 1) * (2 * k - i + 2) // 2:3]]
    counts = dict.fromkeys(vertices, 0)
    counts.update(zip(reached, _class_counts(k, n, reached)))
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
