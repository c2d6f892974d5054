"""Growth rate of the walk counts, computed three independent ways.

The asymptotic growth factor (the total quantum dimension) is

  * the closed trig form sin(pi*N/(N+k)) / sin(pi/(N+k)) with N = 3,
    the row count of the tableaux and the only N the library counts,
  * the dominant eigenvalue of the lattice adjacency matrix,
  * the reciprocal of the smallest positive root of the system
    determinant.

This is the only module that touches floating point.  Only the Perron
route needs numpy, so it is imported inside ``lambda_perron`` alone: a
process that never asks for the eigenvalue never loads it.  Numerical
limits are module constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .genfunc import system_det
from .lattice import build_lattice, class_predecessors
from .pathcount import degeneracy
from .poly import IntPoly


# smallest_positive_root scans (0, SEARCH_LIMIT] in steps of 1/GRID for
# the first sign change.
SEARCH_LIMIT = 1.5
GRID = 1024
PERRON_MAX_ITER = 100_000  # power-iteration steps before giving up
ROWS = 3  # the N of SU(N): tableaux have three rows


class NonConvergenceError(RuntimeError):
    pass


class NoRootError(RuntimeError):
    pass


def lambda_trig(k: int) -> float:
    """Closed-form growth factor sin(pi*N/(N+k)) / sin(pi/(N+k)), N = ROWS."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    m = ROWS + k
    return math.sin(math.pi * ROWS / m) / math.sin(math.pi / m)


def _perron_block(np, pred):
    """B = A[C0,C1] A[C1,C2] A[C2,C0] in float64: B[z, r] counts the
    walks z -> C1 -> C2 -> r, chained through the rows of the padded
    ``class_predecessors`` table ``pred``.  An all-pad row appended to
    classes 2 and 1 carries a walk through a pad on to row n0, dropped.
    """
    n0, n1 = len(pred[0]), len(pred[1])
    p2 = np.array(pred[2] + [[n1] * 3])  # row n2: the pad of class 0's rows
    p1 = np.array(pred[1] + [[n0] * 3])  # row n1: the pad of class 2's rows
    starts = p1[p2[np.array(pred[0])]]  # [r, a, b, c]: z of one walk to r
    block = np.zeros((n0 + 1, n0))
    np.add.at(block, (starts, np.arange(n0)[:, None, None, None]), 1)
    return block[:n0]


def lambda_perron(k: int, tol: float = 1e-12) -> float:
    """Dominant adjacency eigenvalue by power iteration.

    Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic
    in the grade classes and its raw spectrum carries a period-3 phase.
    The cube of A is block diagonal; its origin block
    B = A[C0,C1] A[C1,C2] A[C2,C0] has the cube of the dominant
    eigenvalue as its own, and plain power iteration on B converges.
    The cube root of that eigenvalue is returned.  B is filled from the
    lattice's one edge table, ``class_predecessors``, without the dense
    N x N matrix A.  tol must be positive and finite.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    import numpy as np

    cubed = _perron_block(np, class_predecessors(build_lattice(k)))
    vec = np.ones(cubed.shape[0])
    vec /= np.linalg.norm(vec)
    mu_prev = math.inf
    for _ in range(PERRON_MAX_ITER):
        nxt = cubed @ vec
        mu = float(vec @ nxt)
        vec = nxt / np.linalg.norm(nxt)
        if abs(mu - mu_prev) < tol:
            return mu ** (1.0 / 3.0)
        mu_prev = mu
    raise NonConvergenceError(
        f"power iteration did not converge in {PERRON_MAX_ITER} steps (k={k})")


def smallest_positive_root(p: IntPoly, tol: float = 1e-12) -> float:
    """Smallest positive real root by exact sign bracketing plus bisection.

    Signs are evaluated with integer arithmetic at rational points, so a
    bracket is never produced by rounding error.  Requires p(0) > 0 and
    a positive, finite tol.  Bisection stops at width tol, or once both
    ends round to one float, which every later midpoint rounds to too.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if p.sign_at(0, 1) <= 0:
        raise ValueError("polynomial must be positive at 0")
    steps = int(math.ceil(SEARCH_LIMIT * GRID))
    lo_num = 0
    for m in range(1, steps + 1):
        s = p.sign_at(m, GRID)
        if s == 0:
            return m / GRID
        if s < 0:
            lo_num, hi_num, den = m - 1, m, GRID
            break
        lo_num = m
    else:
        raise NoRootError(
            f"no sign change in (0, {SEARCH_LIMIT}] at grid step 1/{GRID}")
    while (hi_num - lo_num) / den > tol and lo_num / den != hi_num / den:
        mid = lo_num + hi_num
        lo_num, hi_num, den = 2 * lo_num, 2 * hi_num, 2 * den
        s = p.sign_at(mid, den)
        if s == 0:
            return mid / den
        if s < 0:
            hi_num = mid
        else:
            lo_num = mid
    return (lo_num + hi_num) / (2 * den)


@dataclass(frozen=True)
class SpectralReport:
    k: int
    lambda_trig: float
    lambda_perron: float
    rho_root: float
    lambda_from_root: float
    agreement_gap: float
    rho_scaled: float  # rho * k^(2/3), diagnostic for the k^(-2/3) law

    def to_dict(self) -> dict:
        return asdict(self)


def spectral_report(k: int, tol: float = 1e-12) -> SpectralReport:
    """All three growth-factor routes plus their maximum pairwise gap."""
    trig = lambda_trig(k)
    perron = lambda_perron(k, tol=tol)
    rho = smallest_positive_root(system_det(k), tol=tol)
    from_root = 1.0 / rho
    values = (trig, perron, from_root)
    gap = max(abs(a - b) for a in values for b in values)
    return SpectralReport(
        k=k,
        lambda_trig=trig,
        lambda_perron=perron,
        rho_root=rho,
        lambda_from_root=from_root,
        agreement_gap=gap,
        rho_scaled=rho * k ** (2.0 / 3.0),
    )


def growth_rate_estimate(k: int, n: int) -> float:
    """f(n)^(1/n) at the origin, from the exact count (log-domain)."""
    if n < 3:
        raise ValueError(f"step count n must be >= 3, got {n}")
    n3 = n - n % 3  # origin counts vanish off multiples of 3
    count = degeneracy(k, n3)
    if count <= 0:
        raise ValueError(f"no walks of length {n3} at level {k}")
    return 2.0 ** (math.log2(count) / n3)
