"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
live).  All integer comparisons are exact.  Criteria 2, 3, 4, 7 and 8
run the matching ``reproduce`` item, the one implementation of the golden
checks; runtime bounds and the remaining tolerances are pinned in the
individual tests.
"""

import json
import time
from contextlib import contextmanager

from anyondeg.cli import main as cli_main
from anyondeg.genfunc import solve_system, system_det
from anyondeg.pathcount import degeneracy, growth_rate_estimate
from anyondeg.reference import ORIGIN_COUNTS
from anyondeg.reproduce import reproduce
from anyondeg.spectral import lambda_trig

from oracles import catalan3d, determinant_degree, fibonacci


@contextmanager
def criterion(number, name, budget_seconds=None):
    start = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if outcome["ok"] else "FAIL"
        print(f"criterion {number:2d} [{name}]: {status} ({elapsed:.2f}s)",
              flush=True)
    if budget_seconds is not None:
        assert elapsed < budget_seconds, \
            f"criterion {number} exceeded {budget_seconds}s ({elapsed:.2f}s)"


def assert_reproduces(item):
    report = reproduce(only=item)
    assert report["ok"], json.dumps(report["items"], indent=2)


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_01_count_table_reproduction(capsys):
    with criterion(1, "origin count table via CLI", budget_seconds=1.0):
        code, out = run_cli(capsys, "table", "--max-k", "8", "--max-n", "27")
        assert code == 0
        lines = out.splitlines()
        cells = 0
        for k, expected in ORIGIN_COUNTS.items():
            got = tuple(int(c) for c in lines[k].split(",")[1:])
            assert got == expected
            cells += len(got)
        assert cells == 80


def test_criterion_02_determinant_table_reproduction():
    system_det.cache_clear()
    solve_system.cache_clear()
    with criterion(2, "determinants k=1..8", budget_seconds=60.0):
        assert_reproduces("table2")


def test_criterion_03_closed_form_generating_functions():
    with criterion(3, "displayed generating functions"):
        assert_reproduces("corollary")


def test_criterion_04_series_dp_equivalence():
    solve_system.cache_clear()
    with criterion(4, "series vs DP, k<=6 n<=24", budget_seconds=30.0):
        assert_reproduces("series")


def test_criterion_05_fibonacci_identity():
    with criterion(5, "Fibonacci identity at level 2"):
        expected = [1, 5, 21, 89, 377, 1597, 6765, 28657, 121393]
        for m, value in enumerate(expected, start=1):
            assert degeneracy(2, 3 * m) == value
            assert value == fibonacci(3 * m - 1)


def test_criterion_06_catalan_diagonal():
    with criterion(6, "3-dimensional Catalan diagonal"):
        for n in range(0, 28, 3):
            assert degeneracy(max(n, 1), n) == catalan3d(n)
            assert degeneracy(max(n, 1) + 1, n) == catalan3d(n)


def test_criterion_07_hook_length_oracle():
    with criterion(7, "hook lengths vs walk counts", budget_seconds=60.0):
        assert_reproduces("hooks")


def test_criterion_08_quantum_dimension_triple_agreement():
    with criterion(8, "growth factor, three routes", budget_seconds=10.0):
        assert_reproduces("qdim")


def test_criterion_09_determinant_structure_laws():
    with criterion(9, "determinant degree and low-order structure"):
        for k in range(1, 9):
            det = system_det(k)
            assert det.degree == determinant_degree(k), f"k={k}"
            assert det[0] == 1, f"k={k}"
            assert det[3] == -k * k, f"k={k}"
            assert all(c == 0 for e, c in enumerate(det.coeffs) if e % 3), \
                f"k={k}"


def test_criterion_10_growth_rate_limit():
    with criterion(10, "empirical growth at n=600", budget_seconds=30.0):
        for k in range(2, 6):
            lam = lambda_trig(k)
            estimate = growth_rate_estimate(k, 600)
            assert abs(estimate - lam) / lam < 0.02, f"k={k}"


def test_criterion_11_published_formula_audit(capsys):
    with criterion(11, "printed tableau formula audit"):
        code, out = run_cli(capsys, "syt", "--n", "27", "--paper-formula")
        assert code == 0
        report = json.loads(out)
        origin = {row["n"]: row["agree"] for row in report["origin"]}
        assert sorted(origin) == list(range(0, 28, 3))
        assert all(origin.values())
        assert len(report["disagreements"]) >= 1
        assert any(d["shape"] == [1, 1, 0] for d in report["disagreements"])
