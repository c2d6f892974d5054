"""Exact rational generating functions from the polynomial linear system.

The walk recurrence packs into M_k x = e_1 over Z[t] with
M_k = I - t A^T; it is solved exactly, on the origin's grade class and
without building M_k, and det(M_k) is the common denominator of every
generating function.
"""

from anyondeg import (
    Vertex, poly_to_text, solve_system, system_det, verify_series,
)

# The level-1 system is 3x3 and its solution is the plain period-3 cycle.
sol1 = solve_system(1)
for v, fn in sol1.items():
    print(f"level 1, F[{v.i},{v.j}] =",
          f"({poly_to_text(fn.num)}) / ({poly_to_text(fn.den)})")

# Level 2: six generating functions over the common denominator
# 1 - 4t^3 - t^6; the origin series is every third Fibonacci number.
print()
sol2 = solve_system(2)
origin = sol2[Vertex(0, 0)]
print("level 2, origin:",
      f"({poly_to_text(origin.num)}) / ({poly_to_text(origin.den)})")
print("series:", [int(c) for c in origin.series_coeffs(21)][::3])

# Determinants grow quickly in degree; the constant term is always 1 and
# the t^3 coefficient is -k^2.
print()
for k in range(1, 7):
    det = system_det(k)
    print(f"det, level {k} (degree {det.degree}): {poly_to_text(det)}")

# Cross-validation: Taylor coefficients of every solved generating
# function equal the independent dynamic-programming walk counts.
print()
for k in (3, 5):
    mismatches = verify_series(k, 24)
    print(f"level {k}: series vs DP mismatches up to n=24 ->", mismatches)
