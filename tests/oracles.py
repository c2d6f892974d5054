"""Independent brute-force oracles shared by the tests.

These deliberately avoid the library's DP / elimination code paths:
walks are enumerated one at a time by depth-first search, or counted
by powers of the adjacency matrix.
"""

from collections import Counter

from anyondeg.lattice import ORIGIN, Vertex, adjacency, build_lattice, \
    successors


def dfs_walk_counts(k: int, n: int) -> Counter:
    """Endpoint histogram of all n-step walks from the origin."""
    counts = Counter()

    def go(v: Vertex, steps: int) -> None:
        if steps == n:
            counts[v] += 1
            return
        for w in successors(v, k):
            go(w, steps + 1)

    go(ORIGIN, 0)
    return counts


def counts_by_matrix_power(k: int, n: int) -> dict[Vertex, int]:
    """Origin row of the n-th adjacency-matrix power, exact."""
    lat = build_lattice(k)
    mat = adjacency(lat).tolist()
    row = [0] * lat.dim
    row[lat.index(ORIGIN)] = 1
    for _ in range(n):
        row = [sum(row[r] * mat[r][c] for r in range(lat.dim) if row[r])
               for c in range(lat.dim)]
    return {v: row[lat.index(v)] for v in lat.vertices}
