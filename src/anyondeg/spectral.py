"""Growth rate of the walk counts, computed three independent ways.

The asymptotic growth factor (the total quantum dimension) is

  * the closed trig form sin(pi*N/(N+k)) / sin(pi/(N+k)) with N = 3,
    the row count of the tableaux and the only N the library counts,
  * the dominant eigenvalue of the lattice adjacency matrix,
  * the reciprocal of the smallest positive root of the system
    determinant.

This is the only module that touches floating point, and it needs only
the standard library.  Numerical limits are module constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import mul

from .genfunc import system_det
from .lattice import Lattice, Vertex, build_lattice, class_predecessors, \
    grade_classes
from .pathcount import degeneracy
from .poly import IntPoly


# smallest_positive_root scans (0, SEARCH_LIMIT] in steps of 1/GRID for
# the first sign change.
SEARCH_LIMIT = 1.5
GRID = 1024
PERRON_MAX_ITER = 1_000  # Lanczos steps before giving up
PERRON_THETA_MAX = 54.0  # B + B^T >= 0 has row sums <= 2 * 3^3
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


def _mirror_positions(lat: Lattice) -> list[int]:
    """mirror[r]: the class-0 position of (j, i) for the r-th class-0
    vertex (i, j).  The mirror P keeps class 0 and reverses every edge,
    so B^T = P B P."""
    c0 = grade_classes(lat)[0]
    pos = {v: r for r, v in enumerate(c0)}
    return [pos[Vertex(v.j, v.i)] for v in c0]


def _three_steps(pred: list[list[list[int]]], x: list[float]) -> list[float]:
    """B^T x, plus the trailing zero slot: x carried three steps along
    the padded edge table, as ``pathcount._sweep`` carries walk counts."""
    x = x + [0.0]  # the slot the table's pads point to
    for g in (1, 2, 0):
        x = [x[a] + x[b] + x[c] for a, b, c in pred[g]]
        x.append(0.0)
    return x


def _perron_apply(pred: list[list[list[int]]], mirror: list[int],
                  x: list[float]) -> list[float]:
    """(B + B^T) x over class 0, with B x = P B^T P x."""
    back = _three_steps(pred, x)
    fwd = _three_steps(pred, [x[m] for m in mirror])
    return [b + fwd[m] for b, m in zip(back, mirror)]


def _top_at_least(alphas: list[float], sq_betas: list[float],
                  x: float) -> bool:
    """Whether the symmetric tridiagonal T (diagonal alphas, squared
    off-diagonal sq_betas) has an eigenvalue >= x: not every LDL^T pivot
    of T - x is negative (Sturm count)."""
    d = alphas[0] - x
    for a, b2 in zip(alphas[1:], sq_betas):
        if d >= 0:
            return True
        d = a - x - b2 / d
    return d >= 0


def lambda_perron(k: int, tol: float = 1e-12) -> float:
    """Dominant adjacency eigenvalue by Lanczos on B + B^T.

    Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic
    in the grade classes, and the origin block
    B = A[C0,C1] A[C1,C2] A[C2,C0] of A^3 has the cube of the dominant
    eigenvalue as its own.  A is the SU(3)_k fusion matrix, which is
    normal, and so is B, so the top eigenvalue theta of B + B^T is twice
    that cube.  theta is the top Ritz value of the Lanczos tridiagonal,
    bisected up from the previous one.  The loop stops once
    (theta / 2)^(1/3) moves by less than tol, which must be positive and
    finite, or when the Krylov space runs out: a zero residual, or as
    many steps as class 0 has vertices.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    lat = build_lattice(k)
    pred, mirror = class_predecessors(lat), _mirror_positions(lat)
    n0 = len(mirror)
    q, q_prev = [n0 ** -0.5] * n0, [0.0] * n0
    alphas, sq_betas = [], []  # T's diagonal and squared off-diagonal
    beta, theta, lam_prev = 0.0, 0.0, math.inf
    for step in range(1, PERRON_MAX_ITER + 1):
        w = _perron_apply(pred, mirror, q)
        alpha = sum(map(mul, w, q))
        alphas.append(alpha)
        lo, hi = theta, PERRON_THETA_MAX
        while lo < (mid := (lo + hi) / 2) < hi:
            if _top_at_least(alphas, sq_betas, mid):
                lo = mid
            else:
                hi = mid
        theta = lo
        lam = (theta / 2) ** (1.0 / 3.0)
        w = [a - alpha * b - beta * c for a, b, c in zip(w, q, q_prev)]
        beta = math.hypot(*w)
        if abs(lam - lam_prev) < tol or beta == 0 or step == n0:
            return lam
        sq_betas.append(beta * beta)
        q_prev, q = q, [a / beta for a in w]
        lam_prev = lam
    raise NonConvergenceError(
        f"Lanczos did not converge in {PERRON_MAX_ITER} steps (k={k})")


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
