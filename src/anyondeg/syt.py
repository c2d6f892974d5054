"""Counting 3-row standard Young tableaux by hook lengths and by brute force.

A 3-row shape (r1, r2, r3) corresponds to the lattice vertex
(i, j) = (r2 - r3, r1 - r2); for k >= n the level restriction is inert
and walk counts reduce to plain tableau counts.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import factorial, prod
from typing import NamedTuple

from .lattice import Vertex

BRUTE_FORCE_CAP = 18  # most boxes brute_force_count enumerates
AUDIT_SCAN_N_MAX = 9  # most boxes of a shape the formula audit scans


class Shape3(NamedTuple):
    r1: int
    r2: int
    r3: int

    @property
    def n(self) -> int:
        return self.r1 + self.r2 + self.r3

    @property
    def vertex(self) -> Vertex:
        return Vertex(self.r2 - self.r3, self.r1 - self.r2)


def _check_shape(shape: Shape3) -> Shape3:
    shape = Shape3(*shape)
    if not (shape.r1 >= shape.r2 >= shape.r3 >= 0):
        raise ValueError(f"not a valid 3-row shape: {tuple(shape)}")
    return shape


def shapes(n_max: int) -> Iterator[Shape3]:
    """Every 3-row shape with at most n_max boxes, the empty one
    included, in (r1, r2, r3) order."""
    for r1 in range(n_max + 1):
        for r2 in range(min(r1, n_max - r1) + 1):
            for r3 in range(min(r2, n_max - r1 - r2) + 1):
                yield Shape3(r1, r2, r3)


def hook_count(shape: Shape3) -> int:
    """Number of standard tableaux of the shape, via hook lengths.

    For three rows the hook-length product collapses to
    n! * (r1-r2+1)(r2-r3+1)(r1-r3+2) / ((r1+2)! (r2+1)! r3!).
    """
    r1, r2, r3 = _check_shape(shape)
    n = r1 + r2 + r3
    if n == 0:
        return 1
    num = factorial(n) * (r1 - r2 + 1) * (r2 - r3 + 1) * (r1 - r3 + 2)
    den = factorial(r1 + 2) * factorial(r2 + 1) * factorial(r3)
    if num % den:
        raise ArithmeticError(f"hook quotient not exact at {r1, r2, r3}")
    return num // den


def brute_force_count(shape: Shape3) -> int:
    """Exhaustive count of box-addition orders; oracle for hook_count.

    Recursively removes the last-added box, keeping a valid diagram at
    every step.  Exponential, hence the size cap.
    """
    shape = _check_shape(shape)
    if shape.n > BRUTE_FORCE_CAP:
        raise ValueError(f"shape has {shape.n} boxes, above the cap "
                         f"{BRUTE_FORCE_CAP}")

    def ways(r1: int, r2: int, r3: int) -> int:
        if r1 == 0:
            return 1
        total = 0
        if r1 > r2:
            total += ways(r1 - 1, r2, r3)
        if r2 > r3:
            total += ways(r1, r2 - 1, r3)
        if r3 > 0:
            total += ways(r1, r2, r3 - 1)
        return total

    return ways(*shape)


def shape_for_vertex(n: int, v: Vertex) -> Shape3 | None:
    """The unique n-box shape whose walk ends at v, or None.

    Needs n = 2i + j (mod 3) and a nonnegative bottom row."""
    v = Vertex(*v)
    if n < 0 or v.i < 0 or v.j < 0:
        return None
    rem = n - 2 * v.i - v.j
    if rem < 0 or rem % 3:
        return None
    r3 = rem // 3
    return Shape3(r3 + v.i + v.j, r3 + v.i, r3)


def unrestricted_count(n: int, v: Vertex) -> int:
    """Walks of length n from the origin to v when the level is >= n.

    With no level, any v with i, j >= 0 is a vertex (else ValueError)."""
    if n < 0:
        raise ValueError(f"step count n must be >= 0, got {n}")
    if min(v) < 0:
        raise ValueError(f"vertex {tuple(v)} lies in no lattice: "
                         f"i, j must be >= 0")
    shape = shape_for_vertex(n, v)
    if shape is None:
        return 0
    return hook_count(shape)


def published_formula_count(n: int, i: int, j: int) -> int | None:
    """The closed-form expression as printed in the original derivation.

    Audit-only: evaluated verbatim so its output can be compared with
    the hook-length route.  Returns None where a factorial argument is
    not a nonnegative integer, and may disagree with the true count
    (see audit_published_formula).
    """
    args3 = (n - i + 2 * j + 6, n + 2 * i - j + 3, n - i - j)
    if any(a % 3 or a < 0 for a in args3):
        return None
    num = (i + 1) * (j + 2) * (j - i + 1) * factorial(n)
    den = prod(factorial(a // 3) for a in args3)
    if num % den:
        return None
    return num // den


def audit_published_formula(n_max: int = 27) -> dict:
    """Machine-generated comparison of the printed formula vs hook lengths.

    Checks agreement at the origin for every multiple of 3 up to n_max,
    then scans all shapes with at most AUDIT_SCAN_N_MAX boxes and records
    every endpoint where the printed expression and the true count differ.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    origin = []
    for n in range(0, n_max + 1, 3):
        printed = published_formula_count(n, 0, 0)
        true = unrestricted_count(n, Vertex(0, 0))
        origin.append({"n": n, "printed": printed, "hook": true,
                       "agree": printed == true})
    disagreements = []
    checked = 0
    for shape in shapes(AUDIT_SCAN_N_MAX):
        if shape.n == 0:
            continue
        checked += 1
        v = shape.vertex
        printed = published_formula_count(shape.n, v.i, v.j)
        true = hook_count(shape)
        if printed != true:
            disagreements.append({
                "shape": list(shape), "n": shape.n, "vertex": [v.i, v.j],
                "printed": printed, "hook": true,
            })
    return {
        "origin": origin,
        "origin_all_agree": all(row["agree"] for row in origin),
        "shapes_checked": checked,
        "disagreements": disagreements,
    }
