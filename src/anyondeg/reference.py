"""Known reference values used by the golden regression suite.

Origin walk counts for k <= 8, the system determinants for k = 1..8,
and the low-level generating functions in lowest terms.  Polynomials
are stored as {power: coefficient} dicts over t.
"""

from __future__ import annotations

from .lattice import Vertex
from .poly import IntPoly, RationalFn

# f(n, k) at the origin, n = 0, 3, ..., 27 per row.
ORIGIN_COUNT_COLUMNS = tuple(range(0, 28, 3))

ORIGIN_COUNTS = {
    1: (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    2: (1, 1, 5, 21, 89, 377, 1597, 6765, 28657, 121393),
    3: (1, 1, 5, 42, 341, 2731, 21846, 174763, 1398101, 11184810),
    4: (1, 1, 5, 42, 462, 5278, 60181, 683962, 7763097, 88079511),
    5: (1, 1, 5, 42, 462, 6006, 83028, 1166677, 16440171, 231612211),
    6: (1, 1, 5, 42, 462, 6006, 87516, 1357569, 21669957, 349920000),
    7: (1, 1, 5, 42, 462, 6006, 87516, 1385670, 23193775, 401389561),
    8: (1, 1, 5, 42, 462, 6006, 87516, 1385670, 23371634, 413180625),
}

DETERMINANTS = {
    1: {0: 1, 3: -1},
    2: {0: 1, 3: -4, 6: -1},
    3: {0: 1, 3: -9, 6: 9, 9: -8},
    4: {0: 1, 3: -16, 6: 59, 9: -67, 12: -37, 15: 8},
    5: {0: 1, 3: -25, 6: 191, 9: -559, 12: 531, 15: -507, 18: 341, 21: 27},
    6: {0: 1, 3: -36, 6: 459, 9: -2655, 12: 7290, 15: -9801, 18: 3429,
        21: 6075, 24: -1458, 27: 729},
    7: {0: 1, 3: -49, 6: 929, 9: -8865, 12: 46315, 15: -136058, 18: 219202,
        21: -198802, 24: 189535, 27: -152085, 30: 62341, 33: 20851,
        36: -1331},
    8: {0: 1, 3: -64, 6: 1679, 9: -23699, 12: 198636, 15: -1031272,
        18: 3360456, 21: -6855112, 24: 8542281, 27: -5062167, 30: -1959023,
        33: 4912958, 36: -1335971, 39: 1092507, 42: -375746, 45: -12167},
}

# Origin generating functions for k = 1..4, lowest terms.
ORIGIN_GENFUNCS = {
    1: ({0: 1}, {0: 1, 3: -1}),
    2: ({0: 1, 3: -3}, {0: 1, 3: -4, 6: -1}),
    3: ({0: 1, 3: -8, 6: 5, 9: -2}, {0: 1, 3: -9, 6: 9, 9: -8}),
    4: ({0: 1, 3: -15, 6: 48, 9: -46, 12: -19},
        {0: 1, 3: -16, 6: 59, 9: -67, 12: -37, 15: 8}),
}

# The three level-1 generating functions.
LEVEL1_GENFUNCS = {
    Vertex(0, 0): ({0: 1}, {0: 1, 3: -1}),
    Vertex(0, 1): ({1: 1}, {0: 1, 3: -1}),
    Vertex(1, 0): ({2: 1}, {0: 1, 3: -1}),
}

# The six level-2 generating functions over 1 - 4t^3 - t^6.  The (1,0)
# numerator is t^2*(1 + t^3): the inverse-matrix display and the walk
# counts force the t^2, although one printed transcription drops it.
_DEN2 = {0: 1, 3: -4, 6: -1}
LEVEL2_GENFUNCS = {
    Vertex(0, 0): ({0: 1, 3: -3}, _DEN2),
    Vertex(0, 1): ({1: 1, 4: -1}, _DEN2),
    Vertex(0, 2): ({2: 1, 5: -1}, _DEN2),
    Vertex(1, 0): ({2: 1, 5: 1}, _DEN2),
    Vertex(1, 1): ({3: 2}, _DEN2),
    Vertex(2, 0): ({4: 2}, _DEN2),
}


def determinant_poly(k: int) -> IntPoly:
    return IntPoly.from_terms(DETERMINANTS[k])


def genfunc_rational(spec: tuple[dict, dict]) -> RationalFn:
    num, den = spec
    return RationalFn(IntPoly.from_terms(num), IntPoly.from_terms(den))

