"""The growth factor of the walk counts, three independent ways.

For large n the counts scale like lambda_k^n, where lambda_k is the
total quantum dimension.  It can be computed from a closed trig
formula, as the Perron eigenvalue of the adjacency matrix, or as the
reciprocal smallest positive root of the system determinant -- and the
three must agree.
"""

from anyondeg import (
    growth_rate_estimate, lambda_perron, lambda_trig, spectral_report,
)

print(f"{'k':>3} {'trig':>12} {'eigenvalue':>12} {'1/root':>12} {'gap':>10}")
for k in range(1, 9):
    rep = spectral_report(k)
    print(f"{k:>3} {rep.lambda_trig:>12.8f} {rep.lambda_perron:>12.8f} "
          f"{rep.lambda_from_root:>12.8f} {rep.agreement_gap:>10.2e}")

# Notable exact values: lambda_1 = 1, lambda_2 is the golden ratio,
# lambda_3 = 2, and lambda_k -> 3 as k grows.
print()
print("level 2 vs golden ratio:", lambda_trig(2), (1 + 5 ** 0.5) / 2)
print("level 100:", lambda_trig(100))

# Desk-scale version of the limit law count(n)^(1/n) -> lambda_k,
# straight from exact big-integer counts.
print()
for k in (2, 4):
    lam = lambda_trig(k)
    for n in (60, 300, 600):
        est = growth_rate_estimate(k, n)
        print(f"level {k}, n={n:>4}: count^(1/n) = {est:.6f} "
              f"(target {lam:.6f}, rel err {abs(est - lam) / lam:.2e})")

print()
print("adjacency eigenvalue alone, level 6:", lambda_perron(6))
