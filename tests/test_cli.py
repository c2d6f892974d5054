import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import anyondeg.cli
import anyondeg.genfunc
import anyondeg.pathcount
import anyondeg.records
import anyondeg.reproduce
import anyondeg.spectral
import anyondeg.syt
from anyondeg import reference
from anyondeg.cli import CAP_K_VERIFY, CAP_N_TABLE, DEFAULT_CAP_K, \
    DEFAULT_CAP_N, build_parser, main
from anyondeg.genfunc import solve_system
from anyondeg.lattice import Vertex, build_lattice
from anyondeg.poly import IntPoly, RationalFn, poly_to_json, poly_to_text
from anyondeg.reference import ORIGIN_COUNTS
from anyondeg.reproduce import SERIES_N_MAX, _ITEMS, reproduce
from anyondeg.spectral import TOL, NoRootError, SpectralReport, lambda_trig
from anyondeg.syt import shapes

from oracles import class_positions, full_length_mismatches, \
    primes_1_mod, verlinde_counts

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child_env() -> dict:
    """This environment, with this checkout's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def cli_process(argv: str) -> subprocess.Popen:
    """An ``anyondeg`` process on this checkout's sources, with pipes."""
    return subprocess.Popen(
        [sys.executable, "-m", "anyondeg.cli", *argv.split()],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)


class TestCount:
    def test_prints_decimal_integer(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "8", "--n", "27")
        assert code == 0 and out == "413180625\n"

    def test_vertex_flag(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "4", "--n", "12",
                           "--vertex", "0,0")
        assert code == 0 and out == "462\n"

    def test_cap_enforced(self, capsys):
        code, _, err = run(capsys, "count", "--k", "100", "--n", "3")
        assert code == 2 and "cap" in err

    def test_prints_more_than_4300_digits(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "12", "--n", "9999")
        assert code == 0
        assert out.strip().isdigit() and len(out.strip()) > 4300

    def test_congruence_zero_at_the_caps(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "64", "--n", "10000")
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize("vertex,reached", [("10,13", False),
                                                ("10,14", True)])
    def test_process_at_the_caps_agrees_mod_p(self, vertex, reached):
        # at n = 10000 the congruence forces 0 at (10, 13), and (10, 14)
        # runs the reflection sum; the Verlinde formula checks both
        proc = cli_process(f"count --k 64 --n 10000 --vertex {vertex}")
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0 and err == b""
        count, v = int(out), Vertex(*map(int, vertex.split(",")))
        assert (count.bit_length() > 15000) == reached
        for p in primes_1_mod(6 * 67, 2):
            assert verlinde_counts(64, [10000], p, v) == [count % p]


class TestTable:
    def test_csv_matches_reference(self, capsys):
        code, out, _ = run(capsys, "table", "--max-k", "8", "--max-n", "27")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k\\n," + ",".join(str(n) for n in range(0, 28, 3))
        for k, row in ORIGIN_COUNTS.items():
            assert lines[k] == f"{k}," + ",".join(str(c) for c in row)

    def test_json_uses_decimal_strings(self, capsys):
        code, out, _ = run(capsys, "table", "--max-k", "2", "--max-n", "6",
                           "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["columns"] == [0, 3, 6]
        assert obj["rows"][1] == {"k": 2, "counts": ["1", "1", "5"]}

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "table", "--max-k", "4", "--max-n", "12")
        _, second, _ = run(capsys, "table", "--max-k", "4", "--max-n", "12")
        assert first == second

    @pytest.mark.parametrize("vertex", ["-1,0", "9,9"])
    def test_rejects_vertex_outside_the_lattice(self, capsys, vertex):
        # count exits 2 for the same vertex; zeros would hide the typo
        code, out, err = run(capsys, "table", "--max-k", "3", "--max-n", "6",
                             f"--vertex={vertex}")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv,message", [
        ("--max-k 3 --max-n 6 --vertex 9,9", "not in the level-3 lattice"),
        ("--max-k 3 --max-n -1", "n_max must be >= 0")])
    def test_bad_arguments_print_no_header(self, capsys, monkeypatch, fmt,
                                           argv, message):
        # the rows stream, so the arguments are checked before the header
        def no_sweep(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(anyondeg.pathcount, "_grid_history", no_sweep)
        code, out, err = run(capsys, "table", *argv.split(), "--format", fmt)
        assert code == 2 and out == "" and message in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        "--max-k 8 --max-n 27",
        "--max-k 6 --max-n 20 --all-columns",
        "--max-k 7 --max-n 21 --vertex 2,3",  # rows of 0 to level 4
        "--max-k 24 --max-n 200",  # levels 1-12 sweep, 13 and up reflect
        # rows of 0 to level 4, levels 5-9 sweep, 10-12 reflect
        "--max-k 12 --max-n 61 --vertex 2,3"])
    def test_streamed_output_matches_the_collected_grid(self, capsys, fmt,
                                                        argv):
        # the rendering of the whole grid at once, each row one
        # origin_history sweep, whatever route the streamed rows took
        args = build_parser().parse_args(["table", *argv.split()])
        v = Vertex(*map(int, args.vertex.split(",")))
        columns = [n for n in range(args.max_n + 1)
                   if args.all_columns or v != (0, 0) or n % 3 == 0]
        rows = {k: [anyondeg.pathcount.origin_history(k, args.max_n, v)[n]
                    if sum(v) <= k else 0 for n in columns]
                for k in range(1, args.max_k + 1)}
        if fmt == "csv":
            expected = "".join(
                [f"k\\n,{','.join(map(str, columns))}\n"]
                + [f"{k},{','.join(map(str, row))}\n"
                   for k, row in rows.items()])
        else:
            expected = json.dumps({
                "vertex": list(v), "columns": columns,
                "rows": [{"k": k, "counts": [str(c) for c in row]}
                         for k, row in rows.items()]}) + "\n"
        assert (not any(rows[1])) == ("--vertex" in argv)
        code, out, _ = run(capsys, "table", *argv.split(), "--format", fmt)
        assert code == 0 and out == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_at_the_last_level_keeps_the_rows_printed(
            self, capsys, monkeypatch, fmt):
        # every row, swept or reflected, passes through _grid_history
        real = anyondeg.pathcount._grid_history

        def fails_at_four(k, *args):
            if k == 4:
                raise ValueError("level 4 failed")
            return real(k, *args)

        monkeypatch.setattr(anyondeg.pathcount, "_grid_history",
                            fails_at_four)
        code, out, err = run(capsys, "table", "--max-k", "4", "--max-n", "9",
                             "--format", fmt)
        assert code == 2 and err == "error: level 4 failed\n"
        rows = {k: ORIGIN_COUNTS[k][:4] for k in (1, 2, 3)}
        if fmt == "csv":
            assert out.splitlines() == ["k\\n,0,3,6,9", *(
                f"{k},{','.join(map(str, row))}" for k, row in rows.items())]
        else:  # the whole document but its closing "]}"
            assert out == json.dumps({
                "vertex": [0, 0], "columns": [0, 3, 6, 9],
                "rows": [{"k": k, "counts": [str(c) for c in row]}
                         for k, row in rows.items()]})[:-2]


class TestGenfunc:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "genfunc", "--k", "2", "--vertex", "0,0")
        assert code == 0
        assert out == "F[0,0] = (1 - 3*t^3) / (1 - 4*t^3 - 1*t^6)\n"

    def test_json_all_vertices(self, capsys):
        code, out, _ = run(capsys, "genfunc", "--k", "1", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["k"] == 1
        assert len(obj["genfuncs"]) == 3
        assert obj["genfuncs"][0] == {
            "vertex": [0, 0],
            "num": {"coeffs": ["1"]},
            "den": {"coeffs": ["1", "0", "0", "-1"]},
        }

    @pytest.mark.parametrize("vertex", [None, "last"])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_streamed_output_matches_the_collected_document(
            self, capsys, k, vertex):
        # json is printed item by item, and each distinct denominator is
        # formatted once; both must print what formatting every item would
        sol = solve_system(k)
        flags = []
        vertices = sorted(sol)
        if vertex:
            vertices = vertices[-1:]
            flags = ["--vertex", f"{vertices[0].i},{vertices[0].j}"]
        code, out, _ = run(capsys, "genfunc", "--k", str(k), "--format",
                           "json", *flags)
        assert code == 0 and out == json.dumps({"k": k, "genfuncs": [
            {"vertex": [v.i, v.j], "num": poly_to_json(sol[v].num),
             "den": poly_to_json(sol[v].den)} for v in vertices]}) + "\n"
        code, out, _ = run(capsys, "genfunc", "--k", str(k), *flags)
        assert code == 0 and out == "".join(
            f"F[{v.i},{v.j}] = ({poly_to_text(sol[v].num)})"
            f" / ({poly_to_text(sol[v].den)})\n" for v in vertices)

    def test_failed_self_check_exits_3(self, capsys, monkeypatch):
        # doubled sweep lists double every numerator, which breaks "the
        # origin series starts at 1"
        real = anyondeg.genfunc.sweep

        def doubled(*args):
            return ([2 * c for c in counts] for counts in real(*args))

        monkeypatch.setattr(anyondeg.genfunc, "sweep", doubled)
        anyondeg.genfunc.solve_system.cache_clear()
        try:
            code, out, err = run(capsys, "genfunc", "--k", "2")
        finally:
            anyondeg.genfunc.solve_system.cache_clear()
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: origin series must start at 1"]

    def test_failed_class2_series_check_exits_3(self, capsys, monkeypatch):
        # one walk too many to the last class-2 vertex at the last step of
        # the prefix leaves D G_v with a nonzero s^|C0| coefficient; that
        # step's list covers class 2, so the vertex sits at its position
        # in the class
        classes = class_positions(build_lattice(4))[0]
        last, pos = 3 * len(classes[0]) + 2, len(classes[2]) - 1
        real = anyondeg.genfunc.sweep

        def bumped(k, n_max, source=(1,)):
            for n, counts in enumerate(real(k, n_max, source)):
                if n == last:
                    counts = counts.copy()
                    counts[pos] += 1
                yield counts

        monkeypatch.setattr(anyondeg.genfunc, "sweep", bumped)
        anyondeg.genfunc.solve_system.cache_clear()
        try:
            code, out, err = run(capsys, "genfunc", "--k", "4")
        finally:
            anyondeg.genfunc.solve_system.cache_clear()
        assert code == 3 and out == ""
        assert err.splitlines() == [f"error: a numerator has a nonzero "
                                    f"s^{len(classes[0])} coefficient"]


class TestDet:
    def test_level_six_golden_line(self, capsys):
        code, out, _ = run(capsys, "det", "--k", "6")
        assert code == 0
        assert out.strip() == (
            "1 - 36*t^3 + 459*t^6 - 2655*t^9 + 7290*t^12 - 9801*t^15 "
            "+ 3429*t^18 + 6075*t^21 - 1458*t^24 + 729*t^27")

    def test_failed_self_check_exits_3(self, capsys, monkeypatch):
        # wrong zeta powers mod the check prime, which k = 3 reaches after
        # lifting with the first prime alone, fail the factors' re-check;
        # two pairs drawn show that premise
        def corrupted(order):
            for n, (p, powers) in enumerate(real(order)):
                drawn.append(p)
                yield p, powers if n == 0 else [(x + 1) % p for x in powers]

        real, drawn = anyondeg.genfunc._unit_roots, []
        monkeypatch.setattr(anyondeg.genfunc, "_unit_roots", corrupted)
        anyondeg.genfunc.system_det.cache_clear()
        try:
            code, out, err = run(capsys, "det", "--k", "3")
        finally:
            anyondeg.genfunc.system_det.cache_clear()
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: a Galois-orbit factor fails the check")
        assert len(drawn) == 2


class TestVerify:
    def test_match_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--k", "4", "--n", "21")
        assert code == 0 and out.startswith("ok")

    @pytest.mark.parametrize("planted", [False, True])
    @pytest.mark.parametrize("k", [3, 5, 9, 12])
    def test_output_is_the_full_length_routes(self, capsys, monkeypatch, k,
                                              planted):
        # n = 200 lies past the proof length of every k here (183 at
        # k = 12); the planted faults double three numerators, and every
        # mismatch of the route run to n, past the proof length too, is
        # printed
        n_max = 200
        wrong = {Vertex(0, 1), Vertex(0, 2), Vertex(1, 1)} if planted \
            else set()
        solutions = {v: RationalFn(fn.num + fn.num, fn.den) if v in wrong
                     else fn for v, fn in solve_system(k).items()}
        monkeypatch.setattr(anyondeg.genfunc, "solve_system",
                            lambda k: solutions)
        mismatches = full_length_mismatches(k, n_max, solutions)
        assert bool(mismatches) == planted
        expected = (1, "", "".join(
            f"MISMATCH vertex=({v.i},{v.j}) n={n} series={c} dp={dp}\n"
            for v, n, c, dp in mismatches)) if planted else (
            0, f"ok: series coefficients match walk counts for k={k}, "
               f"n<={n_max}\n", "")
        assert run(capsys, "verify", "--k", str(k), "--n", str(n_max)) \
            == expected


    def test_negative_n_exits_2_before_solving(self, capsys, monkeypatch):
        def no_solve(k):
            raise AssertionError("solve_system ran")

        monkeypatch.setattr(anyondeg.genfunc, "solve_system", no_solve)
        code, out, err = run(capsys, "verify", "--k", "14", "--n", "-1")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestQdim:
    def test_all_method_json(self, capsys):
        code, out, _ = run(capsys, "qdim", "--k", "3")
        obj = json.loads(out)
        assert code == 0
        assert obj["lambda_from_root"] == pytest.approx(2.0, abs=1e-9)
        assert obj["agreement_gap"] < 1e-6

    def test_single_methods(self, capsys):
        for method in ("trig", "eig", "root"):
            code, out, _ = run(capsys, "qdim", "--k", "2",
                               "--method", method)
            assert code == 0
            assert float(out) == pytest.approx(1.618033988749895, abs=1e-6)

    def test_numeric_failure_exits_3(self, capsys, monkeypatch):
        def no_root(k):
            raise NoRootError("no sign change in (0, 1]")

        monkeypatch.setattr(anyondeg.spectral, "root_rho", no_root)
        code, out, err = run(capsys, "qdim", "--k", "2", "--method", "root")
        assert code == 3 and out == ""
        assert err.splitlines() == ["error: no sign change in (0, 1]"]

    def test_n_flag_is_gone(self, capsys):
        assert run(capsys, "qdim", "--k", "2", "--N", "5")[0] == 2

    @staticmethod
    def _refuses_tol(capsys, monkeypatch, method, tol):
        # the tolerance is spectral.TOL: --tol is refused before the
        # determinant or the factors root_rho reads are built
        def no_det(k):
            raise AssertionError("system_det or _orbit_factors ran")

        monkeypatch.setattr(anyondeg.genfunc, "system_det", no_det)
        monkeypatch.setattr(anyondeg.spectral, "_orbit_factors", no_det)
        code, out, err = run(capsys, "qdim", "--k", "2", "--method", method,
                             "--tol", tol)
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("method", ["trig", "eig", "root", "all"])
    def test_tol_flag_is_gone(self, capsys, monkeypatch, method):
        self._refuses_tol(capsys, monkeypatch, method, "1e-6")

    @pytest.mark.parametrize("method,tol", [
        (method, tol) for method in ("trig", "eig", "root", "all")
        for tol in ("0", "-1e-6", "nan", "inf")])
    def test_rejects_non_positive_tol(self, capsys, monkeypatch, method, tol):
        self._refuses_tol(capsys, monkeypatch, method, tol)

    def test_all_method_honours_tol(self, capsys, monkeypatch):
        default = run(capsys, "qdim", "--k", "5")
        monkeypatch.setattr(anyondeg.spectral, "TOL", 1e-12)
        assert run(capsys, "qdim", "--k", "5") == default
        monkeypatch.setattr(anyondeg.spectral, "TOL", 0.1)
        coarse = run(capsys, "qdim", "--k", "5")
        assert coarse[0] == 0 and coarse[1] != default[1]

    @pytest.mark.parametrize("method", ["root", "all"])
    @pytest.mark.parametrize("tol", ["1e308", "1.7976931348623157e308",
                                     "5e-324"])
    def test_tol_at_the_float_limits(self, capsys, monkeypatch, method, tol):
        # root_rho's bracket TOL / ROWS^2 * 2 neither overflows nor, where
        # it is 0, stops the bisection short of float resolution, where
        # the output is the same as at 1e-300
        monkeypatch.setattr(anyondeg.spectral, "TOL", float(tol))
        code, out, err = run(capsys, "qdim", "--k", "2", "--method", method)
        assert code == 0 and err == ""
        if tol == "5e-324":
            monkeypatch.setattr(anyondeg.spectral, "TOL", 1e-300)
            assert out == run(capsys, "qdim", "--k", "2",
                              "--method", method)[1]

    @pytest.mark.parametrize("k", [*range(1, 9), 33, 64])
    def test_single_methods_print_the_report_fields(self, capsys, k):
        # one tolerance: eig and root print the floats of --method all
        report = json.loads(run(capsys, "qdim", "--k", str(k))[1])
        for method, field in (("eig", "lambda_perron"),
                              ("root", "lambda_from_root")):
            assert run(capsys, "qdim", "--k", str(k), "--method", method) \
                == (0, f"{report[field]!r}\n", "")

    @pytest.mark.parametrize("k", range(1, 65))
    def test_root_tol_bounds_lambda(self, capsys, k):
        # TOL bounds the printed lambda = 1/rho, not the bracket on rho
        code, out, _ = run(capsys, "qdim", "--k", str(k), "--method", "root")
        assert code == 0 and abs(float(out) - lambda_trig(k)) <= TOL


class TestSyt:
    def test_vertex_query(self, capsys):
        code, out, _ = run(capsys, "syt", "--n", "9", "--vertex", "0,0")
        assert code == 0 and out == "42\n"

    def test_shape_query_with_oracle(self, capsys):
        code, out, _ = run(capsys, "syt", "--shape", "2,2,2", "--oracle")
        assert code == 0 and out == "5\n"

    def test_shape_query_ignores_n_cap(self, capsys):
        code, out, _ = run(capsys, "syt", "--shape", "2,2,2", "--n", "20000")
        assert code == 0 and out == "5\n"
        assert run(capsys, "syt", "--shape", "2,2,2", "--n", "-1")[:2] == \
            (0, "5\n")

    def test_shape_query_honours_n_cap(self, capsys):
        code, out, err = run(capsys, "syt", "--shape", "10001,0,0")
        assert code == 2 and out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == \
            ["error: n=10001 exceeds the cap 10000"]

    @pytest.mark.parametrize("argv", [
        "syt --n -1 --vertex 0,0", "syt --n -3 --paper-formula"])
    def test_negative_n_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_negative_vertex_exits_2(self, capsys):
        code, out, err = run(capsys, "syt", "--n", "9", "--vertex=-1,0")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("flags", [
        "--shape 1,1,1", "--vertex 0,0", "--oracle"])
    def test_formula_audit_refuses_the_query_flags(self, capsys, flags):
        code, out, err = run(capsys, "syt", "--paper-formula", *flags.split())
        assert code == 2 and out == "" and "error:" in err

    def test_formula_audit_mode(self, capsys):
        code, out, _ = run(capsys, "syt", "--n", "27", "--paper-formula")
        obj = json.loads(out)
        assert code == 0
        assert obj["origin_all_agree"]
        assert obj["disagreements"]


def _wrap(monkeypatch, module, name, change):
    """Replace module.name by change(real result, *args)."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: change(real(*args, **kw), *args))


# One corrupted input per golden check: a reference value it compares
# against, or one of the routes whose results it compares.
CORRUPTIONS = {
    "table1": lambda mp: mp.setitem(
        reference.ORIGIN_COUNTS, 4, reference.ORIGIN_COUNTS[4][:-1] + (0,)),
    "table2": lambda mp: mp.setitem(
        reference.DETERMINANTS, 5, {**reference.DETERMINANTS[5], 6: 192}),
    "corollary": lambda mp: mp.setitem(
        reference.ORIGIN_GENFUNCS, 3,
        ({0: 1, 3: -8, 6: 5, 9: -1}, reference.ORIGIN_GENFUNCS[3][1])),
    # only the last coefficient the item compares
    "series": lambda mp: _wrap(
        mp, RationalFn, "series",
        lambda c, *args: (x + (n == SERIES_N_MAX) for n, x in enumerate(c))),
    "qdim": lambda mp: _wrap(mp, anyondeg.spectral, "lambda_perron",
                             lambda lam, *args: lam + 1e-3),
    "hooks": lambda mp: _wrap(mp, anyondeg.syt, "hook_count",
                              lambda c, shape: c + (shape == (2, 2, 2))),
    "audit": lambda mp: _wrap(mp, anyondeg.syt, "hook_count",
                              lambda c, shape: c + (shape == (3, 3, 3))),
}


class TestReproduce:
    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        obj = json.loads(out)
        assert code == 0 and obj["ok"]
        assert {item["name"] for item in obj["items"]} >= {
            "table1", "table2", "corollary", "qdim"}

    def test_only_filter(self, capsys):
        code, out, _ = run(capsys, "reproduce", "--only", "table1")
        obj = json.loads(out)
        assert code == 0
        assert [item["name"] for item in obj["items"]] == ["table1"]

    def test_hooks_item_covers_every_shape_to_twelve_boxes(self,
                                                           monkeypatch):
        seen = []
        _wrap(monkeypatch, anyondeg.syt, "hook_count",
              lambda c, shape: seen.append(shape) or c)
        assert reproduce(only="hooks")["ok"] is True
        assert len(set(shapes(12))) == 102
        assert set(seen) == set(shapes(12))

    @pytest.mark.parametrize("item", list(_ITEMS))
    def test_corrupted_input_fails(self, capsys, monkeypatch, item):
        CORRUPTIONS[item](monkeypatch)
        report = reproduce(only=item)
        assert report["ok"] is False
        if item == "series":
            assert {m["n"] for m in report["items"][0]["mismatches"]} \
                == {SERIES_N_MAX}
        if item == "table2":
            code, out, _ = run(capsys, "reproduce", "--only", "table2")
            assert code == 1 and json.loads(out)["ok"] is False


# (command with the capped value left open, its fixed cap, the cap flag
# that the command refuses: no cap can be raised)
CAP_CORNERS = [
    ("det --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("qdim --method root --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("qdim --method all --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("genfunc --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("verify --n 3 --k {}", CAP_K_VERIFY, "--cap-k"),
    ("verify --k 2 --n {}", DEFAULT_CAP_N, "--cap-n"),
    ("qdim --method eig --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("qdim --method trig --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("count --n 3 --k {}", DEFAULT_CAP_K, "--cap-k"),
    ("table --max-n 3 --max-k {}", DEFAULT_CAP_K, "--cap-k"),
    ("table --max-k 1 --max-n {}", CAP_N_TABLE, "--cap-n"),
    ("syt --paper-formula --n {}", CAP_N_TABLE, "--cap-n"),
]


class TestCaps:
    @pytest.fixture
    def stub_heavy_routes(self, monkeypatch):
        """Replace the exact-algebra and Perron routes by instant stubs, so
        a call at the cap runs only the cap check and the printing."""
        monkeypatch.setattr(anyondeg.genfunc, "system_det",
                            lambda k: IntPoly((1, -1)))
        monkeypatch.setattr(anyondeg.genfunc, "solve_system",
                            lambda k: {})
        monkeypatch.setattr(anyondeg.genfunc, "verify_series",
                            lambda k, n: [])
        monkeypatch.setattr(anyondeg.spectral, "lambda_perron",
                            lambda k: 1.0)
        monkeypatch.setattr(anyondeg.spectral, "root_rho",
                            lambda k: 1.0)
        monkeypatch.setattr(anyondeg.spectral, "spectral_report",
                            lambda k:
                            SpectralReport(k, 1.0, 1.0, 1.0, 1.0, 0.0))
        monkeypatch.setattr(anyondeg.syt, "audit_published_formula",
                            lambda n_max: {})

    @pytest.mark.parametrize("command,cap,flag", CAP_CORNERS)
    def test_cap_corner(self, capsys, stub_heavy_routes, command, cap, flag):
        assert run(capsys, *command.format(cap).split())[0] == 0
        over = command.format(cap + 1).split()
        code, _, err = run(capsys, *over)
        assert code == 2 and f"={cap + 1} exceeds the cap {cap}" in err
        code, out, err = run(capsys, *command.format(cap).split(), flag,
                             str(cap + 1))
        assert code == 2 and out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("command", sorted({
        command for command, _, _ in CAP_CORNERS} | {
        "count --k 3 --n {}", "syt --n {}", "syt --shape {},0,0"}))
    def test_huge_values_exit_2(self, capsys, stub_heavy_routes, command):
        code, out, err = run(capsys, *command.format(10 ** 20).split())
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"={10 ** 20} exceeds the cap " in err

    def test_genfunc_rejects_foreign_vertex_before_solving(
            self, capsys, monkeypatch):
        def no_solve(k):
            raise AssertionError("solve_system ran")

        monkeypatch.setattr(anyondeg.genfunc, "solve_system", no_solve)
        code, out, err = run(capsys, "genfunc", "--k", "2", "--vertex", "3,0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not in the level-2 lattice" in err


# Every flag of every subcommand (without --help).  No flag raises a cap.
FLAGS = {
    "count": {"--k", "--n", "--vertex"},
    "table": {"--max-k", "--max-n", "--vertex", "--all-columns", "--format"},
    "genfunc": {"--k", "--vertex", "--format"},
    "det": {"--k"},
    "verify": {"--k", "--n"},
    "qdim": {"--k", "--method"},
    "syt": {"--n", "--vertex", "--shape", "--oracle", "--paper-formula"},
    "reproduce": {"--only"},
}
# A valid call of each subcommand, to which an unknown flag is appended.
SMALL_CALLS = ["count --k 1 --n 3", "table --max-k 1 --max-n 3",
               "genfunc --k 1", "det --k 1", "verify --k 1 --n 3",
               "qdim --k 1", "syt --n 3", "reproduce"]


class TestSurface:
    def test_flag_sets(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        flags = {name: [opt for action in p._actions
                        for opt in action.option_strings
                        if opt not in ("-h", "--help")]
                 for name, p in sub.choices.items()}
        assert {name: set(opts) for name, opts in flags.items()} == FLAGS
        assert sum(len(opts) for opts in flags.values()) == 22

    @pytest.mark.parametrize("argv", [
        f"{call} {flag} 1" for call in SMALL_CALLS
        for flag in ("--cap-k", "--cap-n")])
    def test_removed_cap_flags_exit_2(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == "" and "unrecognized arguments" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "det")[0] == 2

    def test_bad_vertex_string(self, capsys):
        code, _, err = run(capsys, "count", "--k", "2", "--n", "3",
                           "--vertex", "nope")
        assert code == 2 and "vertex" in err

    def test_bad_level_value(self, capsys):
        assert run(capsys, "det", "--k", "0")[0] == 2

    @pytest.mark.parametrize("argv", [
        "count --k 3 --n 3 --vertex 1,1,1", "count --k 100 --n 3"])
    def test_usage_line_is_the_subcommand_s(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert code == 2 and out == ""
        assert err.splitlines()[1].startswith("usage: anyondeg count")

    @pytest.mark.parametrize("shape", ["1,2", "1,x,0"])
    def test_bad_shape_string(self, capsys, shape):
        code, out, err = run(capsys, "syt", "--shape", shape)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert lines[0] == f"error: bad shape {shape!r}; expected R1,R2,R3"
        assert lines[1].startswith("usage: anyondeg syt")


def python_run(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """A finished ``python args`` child on this checkout's sources."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          stderr=subprocess.PIPE, timeout=120, **kwargs)


class TestOutputFailure:
    # each exits 3 with one error line on stderr and no traceback
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [
        "table --max-k 8 --max-n 27",  # one buffer: fails at the flush
        "table --max-k 20 --max-n 600 --format json",  # fails mid-table
        "count --k 3 --n 3", "reproduce"])
    def test_full_disk_exits_3(self, argv):
        with open("/dev/full", "w") as full:
            proc = python_run(["-m", "anyondeg.cli", *argv.split()],
                              stdout=full)
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"error: cannot write the output: ")
        assert proc.stderr.count(b"\n") == 1
        assert b"No space left on device" in proc.stderr

    def test_memory_failure_exits_3(self):
        code = ("import sys, anyondeg.pathcount as p\n"
                "def fail(*args): raise MemoryError\n"
                "p.degeneracy = fail\n"
                "from anyondeg.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = python_run(["-c", code, "count", "--k", "3", "--n", "3"],
                          stdout=subprocess.PIPE)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr == b"error: out of memory\n"

    @pytest.mark.parametrize("argv", [
        "count --k 3 --n 3",
        "count --k 999 --n 3"])  # past the cap: exits 3, before parsing
    def test_closed_stdout_exits_3_before_any_work(self, argv):
        # fd 1 is closed before the interpreter starts
        code = ("import os, sys\nos.close(1)\n"
                "os.execv(sys.executable, [sys.executable, '-m', "
                "'anyondeg.cli', *sys.argv[1:]])\n")
        proc = python_run(["-c", code, *argv.split()])
        assert proc.returncode == 3
        assert proc.stderr == b"error: no standard output\n"


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        "reproduce", "table --max-k 8 --max-n 3000"])
    def test_reader_closing_early_leaves_stderr_empty(self, argv):
        proc = cli_process(argv)
        assert proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert err == b""
        assert proc.returncode in (0, -signal.SIGPIPE)
