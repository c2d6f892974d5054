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

# submodule -> the public names it defines, in `__all__`'s order.  A
# submodule or a name is imported on first read and then bound here, so
# `import anyondeg` loads no submodule and a CLI process loads only its
# subcommand's route; no other attribute resolves
_HOMES = {
    "lattice": ("Lattice", "ORIGIN", "Vertex", "build_lattice"),
    "pathcount": ("degeneracy", "growth_rate_estimate"),
    "records": ("CountGrid", "CountTable", "count_paths", "table"),
    "poly": ("IntPoly", "RationalFn", "poly_from_text", "poly_to_text"),
    "genfunc": ("generating_function", "solve_system", "system_det",
                "verify_series"),
    "spectral": ("SpectralReport", "lambda_perron", "lambda_trig",
                 "smallest_positive_root", "spectral_report"),
    "syt": ("Shape3", "audit_published_formula", "brute_force_count",
            "hook_count", "shape_for_vertex", "unrestricted_count"),
    "reference": (), "reproduce": (), "cli": (),
}

__all__ = [name for names in _HOMES.values() for name in names]


def __getattr__(name: str):
    """A listed submodule by its name (``anyondeg.syt``) or a public name
    from its submodule, imported on first read and then bound here."""
    from importlib import import_module

    for home, names in _HOMES.items():
        if name == home or name in names:
            module = import_module(f".{home}", __name__)
            value = module if name == home else getattr(module, name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
