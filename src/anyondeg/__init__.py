"""Exact enumeration of level-restricted 3-row tableau walks.

Counts n-step lattice walks with arbitrary-precision integers, derives
their rational generating functions from the polynomial system
M_k x = e_1 without building M_k, on the origin's grade class in
s = t^3: the determinant as the product of its Galois-orbit factors,
read off the fusion spectrum mod primes, each numerator from the
determinant and one walk-count sweep, and lowest terms by dividing out
the factors whose modular S-matrix entry at the vertex vanishes, with no
polynomial gcd.  It cross-validates the growth rate (total quantum
dimension) three independent ways.
"""

from .lattice import Lattice, ORIGIN, Vertex, build_lattice
from .pathcount import CountGrid, CountTable, count_paths, degeneracy, table
from .poly import IntPoly, RationalFn, poly_from_text, poly_to_text
from .genfunc import generating_function, solve_system, system_det, \
    verify_series
from .spectral import SpectralReport, growth_rate_estimate, lambda_perron, \
    lambda_trig, smallest_positive_root, spectral_report
from .syt import Shape3, audit_published_formula, brute_force_count, \
    hook_count, shape_for_vertex, unrestricted_count

__version__ = "0.1.0"

__all__ = [
    "Lattice", "ORIGIN", "Vertex", "build_lattice",
    "CountGrid", "CountTable", "count_paths", "degeneracy", "table",
    "IntPoly", "RationalFn", "poly_from_text", "poly_to_text",
    "generating_function", "solve_system", "system_det", "verify_series",
    "SpectralReport", "growth_rate_estimate", "lambda_perron", "lambda_trig",
    "smallest_positive_root", "spectral_report",
    "Shape3", "audit_published_formula", "brute_force_count", "hook_count",
    "shape_for_vertex", "unrestricted_count",
]
