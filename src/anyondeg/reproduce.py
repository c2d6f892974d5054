"""One-shot golden-suite harness: recompute every headline result and diff
it against the reference values.  Each item is independent and pure, and
runs on its own with ``reproduce(only=name)``."""

from __future__ import annotations

from collections.abc import Iterator

from . import reference
from .genfunc import solve_system, system_det, verify_series
from .lattice import Vertex
from .poly import poly_to_text
from .records import count_paths, table
from .spectral import lambda_trig, spectral_report
from .syt import audit_published_formula, unrestricted_count


def _check_table1() -> Iterator[dict]:
    grid = table(8, reference.ORIGIN_COUNT_COLUMNS[-1])
    for k, expected in reference.ORIGIN_COUNTS.items():
        got = grid.rows[k]
        if got != expected:
            yield {"k": k, "got": [str(c) for c in got],
                   "expected": [str(c) for c in expected]}


def _check_table2() -> Iterator[dict]:
    for k in range(1, 9):
        det = system_det(k)
        if det != reference.determinant_poly(k):
            yield {"k": k, "got": poly_to_text(det)}


def _check_corollary() -> Iterator[dict]:
    for k, spec in reference.ORIGIN_GENFUNCS.items():
        got = solve_system(k)[Vertex(0, 0)]
        if got != reference.genfunc_rational(spec):
            yield {"k": k, "vertex": [0, 0]}
    for k, table_ in ((1, reference.LEVEL1_GENFUNCS),
                      (2, reference.LEVEL2_GENFUNCS)):
        sol = solve_system(k)
        for v, spec in table_.items():
            if sol[v] != reference.genfunc_rational(spec):
                yield {"k": k, "vertex": [v.i, v.j]}


# The series item's n_max.  verify_series stops at its proof length
# (step 5 to 57 for k = 1..6), where a match holds at every n, or at
# n_max if that comes first; after a mismatch it runs on to n_max.  At
# 57 every level reaches its proof length.
SERIES_N_MAX = 57


def _check_series() -> Iterator[dict]:
    for k in range(1, 7):
        for v, n, series, dp in verify_series(k, SERIES_N_MAX):
            yield {"k": k, "vertex": [v.i, v.j], "n": n,
                   "series": str(series), "dp": str(dp)}


def _check_qdim() -> Iterator[dict]:
    reports = [spectral_report(k) for k in range(1, 9)]
    for rep in reports:
        if rep.agreement_gap >= 1e-6:
            yield rep._asdict()
    # exact anchors: det(M_1) and det(M_3) have smallest roots 1 and 1/2,
    # so the growth factors at levels 1 and 3 are exactly 1 and 2
    for k, den in ((1, 1), (3, 2)):
        if system_det(k).sign_at(1, den) != 0 \
                or reports[k - 1].rho_root != 1 / den:
            yield {"k": k, "reason": f"determinant root is not 1/{den}"}
        if abs(lambda_trig(k) - den) >= 1e-12:
            yield {"k": k, "reason": "trig anchor"}


def _check_hooks() -> Iterator[dict]:
    # at level max(n, 1) >= n the walk counts are the hook-length counts
    # of every shape with at most 12 boxes
    for n in range(13):
        for v, count in count_paths(max(n, 1), n).counts.items():
            if unrestricted_count(n, v) != count:
                yield {"n": n, "vertex": [v.i, v.j]}


def _check_audit() -> dict:
    report = audit_published_formula()
    ok = report["origin_all_agree"] and len(report["disagreements"]) >= 1
    return {"ok": ok, "report": report}


_ITEMS = {
    "table1": _check_table1,
    "table2": _check_table2,
    "corollary": _check_corollary,
    "series": _check_series,
    "qdim": _check_qdim,
    "hooks": _check_hooks,
    "audit": _check_audit,
}


def reproduce(only: str | None = None) -> dict:
    """Run the golden suite (or a single named item); JSON-ready report."""
    if only is not None and only not in _ITEMS:
        raise ValueError(f"unknown item {only!r}; choose from {sorted(_ITEMS)}")
    names = [only] if only else list(_ITEMS)
    items = []
    for nm in names:
        out = _ITEMS[nm]()
        if not isinstance(out, dict):  # a check's mismatches
            bad = list(out)
            out = {"ok": not bad, "mismatches": bad}
        items.append({"name": nm, **out})
    return {"ok": all(item["ok"] for item in items), "items": items}
