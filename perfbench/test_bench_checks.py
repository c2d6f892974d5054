"""The benchmark's correctness checks pass on true results and trip on
corrupted ones; exact_algebra jobs refuse to run on a warm cache; job
times are scaled by the reference runs on both sides of the job."""

import dataclasses
import json

import pytest

from anyondeg import solve_system, system_det
from anyondeg.poly import IntPoly

import calibrate
import checks
from run import NoTracer, run_library_job
from workloads import Job


def _bump_count(table):
    v = next(iter(table.counts))
    return dataclasses.replace(table, counts={**table.counts, v: table.counts[v] + 1})


def _bump_grid(grid):
    return dataclasses.replace(grid, rows={**grid.rows, 6: (grid.rows[6][0] + 1,) + grid.rows[6][1:]})


def _bump_series(result):
    fn, coeffs = result
    return fn, coeffs[:5] + [coeffs[5] + 1] + coeffs[6:]


LIBRARY_CASES = [
    (Job("degeneracy", "A", 16, 21, (1, 2)), lambda r: r + 1),            # mod-p recurrence
    (Job("degeneracy", "A", 8, 6, (0, 0)), lambda r: r + checks.P),       # hook length, golden
    (Job("count_paths", "A", 16, 30), _bump_count),
    (Job("table", "A", 6, 20, (0, 1)), _bump_grid),
    (Job("perron", "B", 12), lambda r: r + 1e-4),
    (Job("det", "A", 5), lambda d: d + IntPoly.monomial(1, 6)),           # golden
    (Job("det", "D", 9), lambda d: d + IntPoly.monomial(1, 6)),           # det(I - tA) mod p
    (Job("solve", "A", 4, 20, (1, 1)), _bump_series),
    (Job("root", "A", 4), lambda r: (r[0], r[1] * 1.001)),
]


@pytest.mark.parametrize("job, corrupt", LIBRARY_CASES,
                         ids=[f"{j.kind}-k{j.k}" for j, _ in LIBRARY_CASES])
def test_check_trips_on_corrupted_result(job, corrupt):
    system_det.cache_clear()
    solve_system.cache_clear()
    result = run_library_job(job, NoTracer())
    checks.check(job, result)
    with pytest.raises(checks.Mismatch):
        checks.check(job, corrupt(result))


def test_cli_check_trips_on_wrong_output_or_exit_code():
    count = Job("count", "A", 8, 24, (0, 0), ("count", "--k", "8", "--n", "24"))
    checks.check(count, (0, "23371634\n"))
    for bad in ((0, "23371635\n"), (1, "23371634\n")):
        with pytest.raises(checks.Mismatch):
            checks.check(count, bad)
    suite = Job("reproduce", "D", argv=("reproduce",))
    with pytest.raises(checks.Mismatch):
        checks.check(suite, (0, json.dumps({"ok": False, "items": []})))


def test_exact_algebra_job_refuses_a_warm_cache():
    solve_system.cache_clear()
    system_det(3)
    with pytest.raises(RuntimeError, match="cache is warm"):
        run_library_job(Job("det", "A", 3), NoTracer())
    system_det.cache_clear()


def test_calibrator_scales_by_the_reference_runs_on_both_sides(monkeypatch):
    runs = iter([2.0, 4.0, 2.0, 1.0, 3.0])
    monkeypatch.setattr(calibrate, "seconds", lambda kind, env, cwd: next(runs))
    ref = calibrate.REF_S["py"]
    cal = calibrate.Calibrator()
    cal.before("py")                                   # runs 2.0
    assert cal.after("py", 3.0) == pytest.approx(ref)  # runs 4.0; mean 3.0
    cal.before("py")                                   # reuses 4.0
    assert cal.after("py", 3.0) == pytest.approx(ref)  # runs 2.0; mean 3.0
    cal.forget()
    cal.before("py")                                   # runs 1.0
    assert cal.after("py", 1.0) == pytest.approx(ref / 2)  # runs 3.0; mean 2.0
