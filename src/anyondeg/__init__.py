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

__version__ = "0.1.0"

__all__ = [
    "Lattice", "ORIGIN", "Vertex", "build_lattice",
    "CountGrid", "CountTable", "count_paths", "degeneracy",
    "growth_rate_estimate", "table",
    "IntPoly", "RationalFn", "poly_from_text", "poly_to_text",
    "generating_function", "solve_system", "system_det", "verify_series",
    "SpectralReport", "lambda_perron", "lambda_trig",
    "smallest_positive_root", "spectral_report",
    "Shape3", "audit_published_formula", "brute_force_count", "hook_count",
    "shape_for_vertex", "unrestricted_count",
]

# public name -> the module that defines it, imported on first read, so
# `import anyondeg` loads no submodule and a CLI process loads only its
# subcommand's route
_HOMES = {
    "Lattice": "lattice", "ORIGIN": "lattice", "Vertex": "lattice",
    "build_lattice": "lattice",
    "CountGrid": "pathcount", "CountTable": "pathcount",
    "count_paths": "pathcount", "degeneracy": "pathcount",
    "growth_rate_estimate": "pathcount", "table": "pathcount",
    "IntPoly": "poly", "RationalFn": "poly", "poly_from_text": "poly",
    "poly_to_text": "poly",
    "generating_function": "genfunc", "solve_system": "genfunc",
    "system_det": "genfunc", "verify_series": "genfunc",
    "SpectralReport": "spectral", "lambda_perron": "spectral",
    "lambda_trig": "spectral", "smallest_positive_root": "spectral",
    "spectral_report": "spectral",
    "Shape3": "syt", "audit_published_formula": "syt",
    "brute_force_count": "syt", "hook_count": "syt",
    "shape_for_vertex": "syt", "unrestricted_count": "syt",
}


def __getattr__(name: str):
    """A public name from its home module, or a submodule by its name
    (``anyondeg.syt``), imported on first read and then bound here."""
    from importlib import import_module, util

    home = _HOMES.get(name)
    if home is None and not (name.isidentifier()
                             and util.find_spec(f"{__name__}.{name}")):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home or name}", __name__)
    value = getattr(module, name) if home else module
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
