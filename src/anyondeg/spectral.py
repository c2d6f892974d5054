"""Growth rate of the walk counts, computed three independent ways.

The asymptotic growth factor (the total quantum dimension) is

  * the closed trig form sin(pi*N/(N+k)) / sin(pi/(N+k)) with N = 3,
    the row count of the tableaux and the only N the library counts,
  * the dominant eigenvalue of the lattice adjacency matrix, by Lanczos
    on B + B^T, B the origin block of A^3.  Started from the uniform
    vector, every Krylov vector is constant on the rotation orbits that
    Lanczos runs on and symmetric under the mirror P, (i, j) -> (j, i),
    so it applies (I + P) B^T: one pass of ``lattice.step`` per step,
    and it ends within as many steps as there are orbits, the Krylov
    dimension; each step's top Ritz value is the float a full-width
    bisection of the Sturm count ends on, found in two phases, about
    five passes a step: Newton's method on the LDL^T pivots of T - x
    brackets it, stopping at the previous Ritz value at the lowest (one
    pivot pass, one count, so Newton's own passes bound the bracket),
    and a bisection of that bracket closes it (the count is monotone in
    x under IEEE rounding, so the float where it changes is unique, and
    any bisection of a bracket that holds it ends on it, bit for bit),
  * the reciprocal of the smallest positive root of the system
    determinant, 1/lambda^3 in s = t^3, a root of the trivial weight's
    Galois-orbit factor alone, isolated on it from a float Newton
    guess that exact signs and one Descartes count accept or turn down
    (then a grid scan), and certified by Descartes' rule of signs on
    every other factor.  In exact arithmetic this route's rho is
    1/lambda_trig: that factor is the product of the
    1 - s (1 + 2cos(2 pi a/(k + 3)))^3 over the units a mod k + 3 up to
    sign, whose smallest positive root is at a = 1.

Beside the counts' own f(n)^(1/n), ``pathcount.growth_rate_estimate``,
this is the only module that touches floating point, and it needs only
the standard library; it counts no walk.  Its numerical limits are
module constants: the tolerance TOL on lambda of the Perron and root
routes, the root grid's GRID, the guess's NEWTON_STEPS and NEWTON_STOP,
and the Ritz values' cap PERRON_THETA_MAX.  Lanczos has no step cap:
its dimension bounds it.
"""

from __future__ import annotations

import math
from itertools import count
from operator import mul
from typing import NamedTuple

from .genfunc import _label, _orbit_factors
from .lattice import ORIGIN, class_offsets, orbit_firsts, step, walk_table
from .poly import IntPoly


# Lanczos stops once lambda moves by less than TOL, and the root is
# bracketed so that 1/rho lies within TOL of lambda
TOL = 1e-12
# The root's grid: steps of 1/GRID in u = t^g up to u = 1, where the
# root 1/lambda^3 <= 1 of det(M_k) lies.  The steps are scanned in order
# for the first sign change only where exact signs turn the float guess
# down; the guess takes at most NEWTON_STEPS Newton steps.
GRID = 1024
NEWTON_STEPS = 64
# Newton stops after a step below sqrt(float epsilon) times x: where it
# converges quadratically, the error left is at float resolution
NEWTON_STOP = math.ulp(1.0) ** 0.5
PERRON_THETA_MAX = 54.0  # B + B^T >= 0 has row sums <= 2 * 3^3
ROWS = 3  # the N of SU(N): tableaux have three rows


class NoRootError(ArithmeticError):
    pass


def lambda_trig(k: int) -> float:
    """Closed-form growth factor sin(pi*N/(N+k)) / sin(pi/(N+k)), N = ROWS."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    m = ROWS + k
    return math.sin(math.pi * ROWS / m) / math.sin(math.pi / m)


def _perron_tables(k: int) -> tuple[list, list[int], list[int]]:
    """(rows, mirror, weight): ``walk_table`` on one representative per
    orbit of the rotations that keep the grade classes: J,
    (i, j) -> (k - i - j, i), which maps each step onto the next and
    adds 2k to the grade, when 3 | k, else the identity, whose tables
    are the walk table itself.  When 3 | k the representatives are
    ``lattice.orbit_firsts`` split by class, then J's fixed point
    (k/3, k/3) in class 0; each orbit's index is written at J's three
    images of its representative, ``walk_table`` builds the
    representatives' rows alone, never the whole table, and their
    positions are replaced by their orbits' indices, the pad by the
    pad.  mirror[r] is the orbit of the r-th class-0 orbit's mirror
    image (P J P = J^-1) and weight[r] its size: 3, and 1 for the fixed
    point."""
    off = class_offsets(k)
    if k % 3:
        flip = [off[0][j] + i // 3 for i in range(k + 1)  # (j, i) in C0
                for j in range(i % 3, k - i + 1, 3)]
        return walk_table(k), flip, [1] * len(flip)
    reps = [[], [], []]
    for i, j in orbit_firsts(k) + [(k // 3, k // 3)]:
        reps[(2 * i + j) % 3].append((i, j))
    index = [[len(rep)] * (at[-1] + 1) for at, rep in zip(off, reps)]
    for at, rep, idx in zip(off, reps, index):
        for r, (i, j) in enumerate(rep):
            h = k - i - j
            idx[at[i] + j // 3] = idx[at[h] + i // 3] = r
            idx[at[j] + h // 3] = r
    rows = [[[u[a], u[b], u[c]] for a, b, c in table]
            for table, u in zip(walk_table(k, reps), index[-1:] + index[:-1])]
    mirror = [index[0][off[0][j] + i // 3] for i, j in reps[0]]
    return rows, mirror, [3] * (len(mirror) - 1) + [1]


def _three_steps(pred: list[list[list[int]]], x: list[float]) -> list[float]:
    """B^T x, plus the trailing zero slot: x carried three steps along a
    walk table's rows by ``step``, as ``lattice.sweep`` carries counts."""
    x = x + [0.0]  # the slot the table's pads point to
    for g in (1, 2, 0):
        x = step(pred[g], x)
    return x


def _perron_apply(pred: list[list[list[int]]], mirror: list[int],
                  x: list[float]) -> list[float]:
    """(I + P) B^T x over class 0, in one pass: mirror[r] indexes the
    mirror image of entry r.  P keeps class 0 and reverses every edge, so
    B = P B^T P, and on a P-symmetric x (x == P x) this is (B + B^T) x.
    Lanczos passes only such x, bit for bit (see ``lambda_perron``)."""
    y = _three_steps(pred, x)
    return [a + y[m] for a, m in zip(y, mirror)]


def _newton_step(alphas: list[float], sq_betas: list[float],
                 x: float) -> float | None:
    """det(T - x) / det(T - x)' = 1 / sum d_i' / d_i over the LDL^T pivots
    d_i of T - x, T the symmetric tridiagonal with diagonal alphas and
    squared off-diagonal sq_betas; or None once a pivot is nonnegative,
    where T has an eigenvalue >= x (the Sturm count).  A step of 0.0,
    where s overflows, is no such eigenvalue."""
    d, dd = alphas[0] - x, -1.0  # d_0 and its derivative in x
    if d >= 0:
        return None
    s = dd / d
    for a, b2 in zip(alphas[1:], sq_betas):
        t = b2 / d
        dd = t / d * dd - 1.0
        d = a - x - t
        if d >= 0:
            return None
        s += dd / d
    return 1.0 / s


def _top_ritz(alphas: list[float], sq_betas: list[float], floor: float,
              guess: float) -> float:
    """The float that bisecting the Sturm count (``_newton_step`` is
    None) from (floor, PERRON_THETA_MAX) to float resolution ends on,
    with few LDL^T pivot passes: one pivot pass, one count.

    Newton on det(T - x) runs down from guess, if that lies strictly
    between floor and the bound max(floor, alpha_n) + beta_{n-1}
    (Lanczos's Ritz values rise by shrinking amounts, so the last rise
    added to floor is mostly just above the top root), else from the
    bound, which is kept strictly below the cap, and stops at or next
    to the top eigenvalue, or at its lower stop, which the float cannot
    lie below: floor, or guess once the count there exits early, after
    which Newton runs again from the bound.  Every x it passes down
    from has no eigenvalue >= x.  If its last pass exited early, or it
    stopped at its lower stop, the x it stopped at is the bracket's lo,
    else that x is hi.  Counts then gallop away from it, 1, 2, 4, ...
    ulps at a time, and the near end moves with each count on its side,
    so no float is counted twice; the first count on the far side is
    the far end, else the lower stop or the last x Newton passed down
    from (or the cap), where the gallop stops.  A bisection of (lo, hi)
    then closes the bracket.  Under monotone rounding each pivot of
    T - x is non-increasing in x, so the count is monotone in x (Kahan;
    Demmel, Dhillon and Ren, ETNA 3 (1995) 116): the float where it
    changes is unique, and any bisection of a bracket that holds it
    ends on it, the full-width one included.  Every count lies strictly
    inside (floor, PERRON_THETA_MAX), as the full-width bisection's do,
    so a top eigenvalue at or above the cap gives the float below it.

    The bound is Weyl's, above the top eigenvalue of T, only when floor
    is at least the top eigenvalue of T's leading block, as Lanczos's
    previous Ritz value always is.  Otherwise the float is still the
    count's, but Newton may start below the top eigenvalue, and the
    gallop then climbs from the bound 1 ulp at first: about 1100 passes
    from a bound of 0."""
    beta = math.sqrt(sq_betas[-1]) if sq_betas else 0.0
    bound = min(max(floor, alphas[-1]) + beta,
                math.nextafter(PERRON_THETA_MAX, 0.0))
    # lo: floor, then a guess with an eigenvalue >= it; hi: the cap, then
    # each x Newton passes down from
    lo, hi, step = floor, PERRON_THETA_MAX, None
    for start in (guess, bound) if floor < guess < bound else (bound,):
        x = start
        while x > lo and (step := _newton_step(alphas, sq_betas, x)) \
                is not None and x - step < x:
            x, hi = max(x - step, lo), x
        if x < start or step is not None:
            break
        lo = start
    up = x == lo or step is None  # x is lo: move hi, else x is hi: move lo
    w = math.ulp(x) if up else -math.ulp(x)
    while lo < (end := min(max(x + w, lo), hi)) < hi \
            and (_newton_step(alphas, sq_betas, end) is None) == up:
        x, w = end, 2 * w
    lo, hi = (x, end) if up else (end, x)
    while lo < (mid := (lo + hi) / 2) < hi:
        if _newton_step(alphas, sq_betas, mid) is None:
            lo = mid
        else:
            hi = mid
    return lo


def lambda_perron(k: int) -> float:
    """Dominant adjacency eigenvalue by Lanczos on B + B^T.

    Every step raises the grade (2i + j) mod 3 by 1, so A is 3-cyclic
    in the grade classes, and the origin block
    B = A[C0,C1] A[C1,C2] A[C2,C0] of A^3 has the cube of the dominant
    eigenvalue as its own.  A is the SU(3)_k fusion matrix, which is
    normal, and so is B, so the top eigenvalue theta of B + B^T is twice
    that cube.  theta is the top Ritz value of the Lanczos tridiagonal
    T: the float that bisecting the Sturm count (``_newton_step`` is
    None) from (previous theta, PERRON_THETA_MAX) to float resolution
    ends on.  ``_top_ritz`` finds that float, bit for bit, by bisecting
    a bracket that Newton's method finds: one pivot pass, one count, so
    about five LDL^T passes a step; Newton first tries theta plus its
    last rise.  The loop stops once (theta / 2)^(1/3) moves by less
    than TOL, or when the Krylov space runs out: a zero residual, or
    as many steps as it has dimensions, one per orbit.  That dimension
    bounds Lanczos, so it has no step cap of its own.

    The rotations that keep the classes commute with A, so Lanczos runs
    on one entry per orbit (``_perron_tables``), inner products weighted
    by orbit size relative to the largest; only J's fixed point weighs
    less, so if 3 does not divide k, the floats are class 0's, bit for bit.

    The mirror P, (i, j) -> (j, i), has P A P = A^T, and the Krylov space
    is P-symmetric bit for bit (the updates are elementwise, and
    ``_perron_apply``'s y[r] + y[P r] is one float at r and P r), so
    (B + B^T) q = P B^T P q + B^T q is (I + P) B^T q: one B^T pass.
    """
    rows, mirror, weight = _perron_tables(k)
    n, top = len(weight), max(weight)
    light = [(r, s / top - 1) for r, s in enumerate(weight) if s < top]
    q, q_prev = [(sum(weight) / top) ** -0.5] * n, [0.0] * n
    alphas, sq_betas = [], []  # T's diagonal and squared off-diagonal
    beta, theta, theta_prev, lam_prev = 0.0, 0.0, math.inf, math.inf
    for step in count(1):
        w = _perron_apply(rows, mirror, q)
        alpha = sum(map(mul, w, q)) + sum(c * w[r] * q[r] for r, c in light)
        alphas.append(alpha)
        theta_prev, theta = theta, _top_ritz(alphas, sq_betas, theta,
                                             2 * theta - theta_prev)
        lam = (theta / 2) ** (1.0 / 3.0)
        w = [a - alpha * b - beta * c for a, b, c in zip(w, q, q_prev)]
        beta = math.hypot(*w)
        for r, c in light:
            beta = math.sqrt(beta * beta + c * w[r] * w[r])
        if abs(lam - lam_prev) < TOL or beta == 0 or step == n:
            return lam
        sq_betas.append(beta * beta)
        q_prev, q = q, [a / beta for a in w]
        lam_prev = lam


def _iroot(n: int, g: int) -> int:
    """floor(n^(1/g)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // g)  # above the root
    while (y := ((g - 1) * x + n // x ** (g - 1)) // g) < x:
        x = y
    return x


def _exact_root(num: int, den: int, g: int) -> float:
    """(num / den)^(1/g) for num, den >= 1, exact when it is rational:
    the float power of 1/27 is not 1/3."""
    d = math.gcd(num, den)
    num, den = num // d, den // d
    a, b = _iroot(num, g), _iroot(den, g)
    if a ** g == num and b ** g == den:
        return a / b
    return (num / den) ** (1 / g)


def _taylor_shift(c: list[int]) -> None:
    """Replace the coefficients c of f(x) by those of f(x + 1), by
    additions alone."""
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]


def _descartes(q: tuple[int, ...], b: int, den: int) -> int:
    """Sign variations of (1 + x)^d q(b / (den (1 + x))), d = deg q:
    a bound of the same parity on the roots of q in (0, b / den), so 0
    proves none and 1 exactly one (Collins-Akritas)."""
    d = len(q) - 1
    c = [x * den ** (d - i) * b ** i for i, x in enumerate(q)][::-1]
    _taylor_shift(c)
    signs = [x > 0 for x in c if x]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _newton_guess(q: tuple[int, ...]) -> float:
    """A float guess at the smallest positive root of q, given by its
    coefficients: Newton's method from 0 in floats, up to NEWTON_STEPS
    steps, stopping after a step below NEWTON_STOP times x; nan where a
    coefficient overflows or the derivative vanishes.  It never reads
    the trig or Perron routes, and only exact checks decide its use."""
    try:
        coeffs = [float(c) for c in reversed(q)]
        x = 0.0
        for _ in range(NEWTON_STEPS):
            f = df = 0.0
            for c in coeffs:
                f, df = f * x + c, df * x + f
            step = f / df
            x -= step
            if abs(step) <= x * NEWTON_STOP:
                break
    except (OverflowError, ZeroDivisionError):
        return math.nan
    return x


def _root_bracket(q: IntPoly, g: int, tol: float) -> tuple[int, int, int]:
    """(lo, hi, den): the smallest positive root of q lies in
    [lo / den, hi / den], lo == hi on an exact zero, in u = t^g, the
    bracket in t at most tol wide or at float resolution; q must be
    positive at 0.

    q is D(s) = det(M_k) in u = t^g or one of its Galois-orbit factors,
    whose smallest positive root rho_s = 1/lambda^3 is at most 1, as
    lambda >= 1.  The bracket is the scan's: the first grid step
    (m - 1, m] / GRID, m <= GRID, whose top sign is not positive,
    bisected with exact signs at rational points; NoRootError if q keeps
    its sign up to u = 1.  A float Newton guess (``_newton_guess``) in
    (0, 1] names a step first.  If q is positive at its bottom and
    negative at its top, and Descartes counts one root of q in (0, top),
    that root is the only one up to the top, so the scan stops at this
    step and the bisection follows the root down; if q vanishes at the
    top and the count is 0, the scan stops there.  The bisection is then
    replayed along the guess with no sign taken, and the leaf it ends on,
    if q is positive at its bottom and negative at its top, holds the
    root and is the bisection's.  A step the checks turn down is scanned
    for from 0, a leaf they turn down is bisected from its step.

    Below a scanned bracket Descartes' rule proves that no root hides in
    (0, lo), as two in one grid step would.  For D(s) that count is
    always 0: by Perron-Frobenius every root has modulus at least
    rho_s > lo.  Any other count raises ArithmeticError.  Below a
    guessed bracket the count is 0 with no second count: it is at most
    the step's (subdividing an interval does not add sign variations)
    and even, as (0, lo) holds no root, so the float is the scan's in
    every case.
    """
    if q.sign_at(0, 1) <= 0:
        raise ValueError("polynomial must be positive at 0")

    def resolved(lo: int, hi: int, den: int) -> bool:
        t_lo, t_hi = ((x / den) ** (1 / g) for x in (lo, hi))
        return t_hi - t_lo <= tol or t_lo == t_hi

    def bisect(lo: int, hi: int, den: int,
               sign_at=q.sign_at) -> tuple[int, int, int]:
        """Narrow (lo, hi) / den, q(lo) > 0 and q < 0 just below hi,
        to tol in t; lo == hi on an exact zero."""
        while lo < hi and not resolved(lo, hi, den):
            lo, hi, den, mid = 2 * lo, 2 * hi, 2 * den, lo + hi
            sign = sign_at(mid, den)
            if sign == 0:
                return mid, mid, den
            lo, hi = (mid, hi) if sign > 0 else (lo, mid)
        return lo, hi, den

    def guessed() -> tuple[int, int, int] | None:
        """The scan's bracket, from the grid step and leaf the float guess
        names, or None where the exact checks turn the step down."""
        guess = _newton_guess(q.coeffs)
        if not 0 < guess <= 1:
            return None
        m = math.ceil(guess * GRID)
        sign = q.sign_at(m, GRID)
        if sign > 0 or sign and q.sign_at(m - 1, GRID) <= 0 \
                or _descartes(q.coeffs, m, GRID) != (1 if sign else 0):
            return None
        if not sign:
            return m, m, GRID
        num, div = guess.as_integer_ratio()  # compared exactly
        a, b, d = bisect(m - 1, m, GRID,
                         lambda mid, d: 1 if mid * div < num * d else -1)
        if q.sign_at(a, d) > 0 > q.sign_at(b, d):
            return a, b, d
        return bisect(m - 1, m, GRID)

    if (bracket := guessed()) is not None:
        return bracket
    for m in range(1, GRID + 1):
        if (sign := q.sign_at(m, GRID)) <= 0:
            break
    else:
        raise NoRootError(f"no sign change in (0, 1] at grid step 1/{GRID}")
    lo, hi, den = bracket = bisect(m if sign == 0 else m - 1, m, GRID)
    if _descartes(q.coeffs, lo, den):
        raise ArithmeticError("a root may lie below the scanned bracket")
    return bracket


def smallest_positive_root(p: IntPoly) -> float:
    """Smallest positive root of p = det(M_k), or of p(t) = F(t^3) for a
    Galois-orbit factor F of D(s): p must be positive at 0, and its
    smallest positive root at most 1, where every other root is at
    least as large in modulus (Perron-Frobenius).

    p(t) = q(t^g), g the gcd of its exponents (3 for det(M_k)), and the
    root is isolated in u = t^g by ``_root_bracket``: a float Newton
    guess of its grid step and of its bisection's leaf, each checked by
    two exact signs and the step by one Descartes count, else a scan of
    the grid and bisection, with exact signs at rational points, until
    the bracket in t is at most TOL or at float resolution; an exact
    zero gives the exact float.  Either way the bracket, and so the
    float, is the scan's, and Descartes' rule proves that no root hides
    below it.  Outside that domain it raises
    NoRootError where p keeps its sign on (0, 1], and ArithmeticError
    where Descartes' rule cannot rule out a root below the bracket.
    """
    g = math.gcd(*(e for e, c in enumerate(p.coeffs) if c)) or 1
    lo, hi, den = _root_bracket(IntPoly(p.coeffs[::g]), g, TOL)
    return _exact_root(lo + hi, 2 * den, g)


def root_rho(k: int) -> float:
    """Smallest positive root rho of det(M_k), bracketed to 2 TOL / ROWS^2
    so that 1/rho is within TOL of lambda < ROWS: d lambda = lambda^2 d rho.

    D(s) = det(M_k) at s = t^3 is the product of its Galois-orbit factors
    (``genfunc._orbit_factors``), and rho^3 = 1/lambda^3 is a root of the
    trivial weight's alone, the orbit of the origin's label, whose chi is
    lambda; it comes first, as ``orbit_firsts`` starts at the origin.
    The root is isolated in s on that factor, and Descartes' rule proves
    every other factor free of roots in (0, lo) below the bracket:
    ArithmeticError if the first factor is not the origin's or any count
    is not 0, rather than another root.
    """
    *_, ((trivial, label), *others) = _orbit_factors(k)
    if label != _label(*ORIGIN):
        raise ArithmeticError("the first Galois-orbit factor is not the "
                              "trivial weight's")
    lo, hi, den = _root_bracket(trivial, 3, TOL / ROWS ** 2 * 2)
    if any(_descartes(f.coeffs, lo, den) for f, _ in others):
        raise ArithmeticError("a Galois-orbit factor may have a root below "
                              "the trivial weight's")
    return _exact_root(lo + hi, 2 * den, 3)


class SpectralReport(NamedTuple):
    k: int
    lambda_trig: float
    lambda_perron: float
    rho_root: float
    lambda_from_root: float
    agreement_gap: float


def spectral_report(k: int) -> SpectralReport:
    """All three growth-factor routes plus their maximum pairwise gap."""
    trig = lambda_trig(k)
    perron = lambda_perron(k)
    rho = root_rho(k)
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
    )
