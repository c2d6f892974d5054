"""Walk counting on the restricted overhang lattice.

The level-k lattice has one vertex per overhang pair (i, j) with
i + j <= k; an n-step walk from the origin is a growth history of a
3-row standard tableau whose overhangs never exceed k.  This script
reproduces the headline count table and a couple of its embedded
integer sequences.
"""

from anyondeg import Vertex, build_lattice, count_paths, degeneracy, table
from anyondeg.lattice import walk_table

# The lattice itself: level 3 has binom(5, 2) = 10 vertices.  Each edge
# is counted once, at its head, from the walk table, pads (positions
# past the previous class) left out.
lat = build_lattice(3)
pred = walk_table(3)
edges = sum(u < len(pred[g - 1])
            for g, rows in enumerate(pred) for row in rows for u in row)
print(f"level 3: {lat.dim} vertices, {edges} edges")
print("successor structure is at most 3-regular:",
      sorted(lat.vertices)[:4], "...")

# Origin counts for k <= 8, n <= 27 (all counts off multiples of 3 vanish).
grid = table(8, 27)
header = "k\\n " + "".join(f"{n:>11}" for n in grid.columns)
print()
print(header)
for k, row in sorted(grid.rows.items()):
    print(f"{k:>3} " + "".join(f"{c:>11}" for c in row))

# Two sequences hide in this grid: the level-2 row is every third
# Fibonacci number, and the saturated diagonal is the 3-dimensional
# Catalan sequence.
print()
print("level-2 row:   ", [degeneracy(2, n) for n in range(3, 22, 3)])
print("saturated diag:", [degeneracy(n, n) for n in range(3, 22, 3)])

# The total dimension (summed over endpoints) is exact at any size.
print()
n = 120
print(f"total dimension at level 4, n={n}:",
      sum(count_paths(4, n).counts.values()))
print("endpoint (1, 1) share:          ", degeneracy(4, n, Vertex(1, 1)))
