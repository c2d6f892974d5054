from collections import deque
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import anyondeg.pathcount
from anyondeg.genfunc import system_det
from anyondeg.lattice import ORIGIN, Vertex, build_lattice, \
    class_offsets, in_vertex_set, sweep
from anyondeg.pathcount import REFLECT_MAX_N, _class_binomials, \
    _class_counts, _first_reflected_level, _grid_history, \
    _reflection_count, _residue_table, degeneracy, grid_rows, \
    origin_history
from anyondeg.records import count_paths, table
from anyondeg.reference import ORIGIN_COUNTS
from anyondeg.syt import unrestricted_count

from oracles import catalan3d, class_positions, counts_by_matrix_power, \
    dense_perron_block, dfs_walk_counts, fibonacci, primes_1_mod, \
    verlinde_counts


class TestCountPaths:
    def test_known_values(self):
        assert count_paths(3, 9).counts[ORIGIN] == 42
        assert count_paths(2, 15).counts[ORIGIN] == 377
        assert count_paths(8, 27).counts[ORIGIN] == 413180625

    def test_empty_path(self):
        tbl = count_paths(5, 0)
        assert tbl.counts[ORIGIN] == 1
        assert all(c == 0 for v, c in tbl.counts.items() if v != ORIGIN)

    def test_three_cycle_walk(self):
        tbl = count_paths(1, 4)
        assert tbl.counts[Vertex(0, 1)] == 1
        assert sum(tbl.counts.values()) == 1

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            count_paths(0, 3)

    @pytest.mark.parametrize("k", range(1, 5))
    @pytest.mark.parametrize("n", range(0, 11))
    def test_matches_dfs_oracle(self, k, n):
        oracle = dfs_walk_counts(k, n)
        got = count_paths(k, n).counts
        for v in build_lattice(k).vertices:
            assert got[v] == oracle.get(v, 0)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_matches_matrix_power(self, k):
        for n in (0, 1, 7, 15):
            assert count_paths(k, n).counts == counts_by_matrix_power(k, n)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_counts_in_canonical_order(self, k):
        # the sum runs over one class; the dict is canonical again
        for n in (0, 1, 2, 9, 31):
            assert list(count_paths(k, n).counts) == list(build_lattice(k).vertices)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_the_sweep_at_every_vertex(self, k):
        # values and key order, every step to n = 60
        for n, counts in enumerate(sweep(k, 60)):
            assert list(count_paths(k, n).counts.items()) \
                == _sweep_items(k, n, counts)

    @pytest.mark.parametrize("k,n", [(16, 210), (28, 280), (64, 300)])
    def test_matches_the_sweep_at_benchmark_sizes(self, k, n):
        counts = deque(sweep(k, n), maxlen=1).pop()
        assert list(count_paths(k, n).counts.items()) \
            == _sweep_items(k, n, counts)

    def test_matches_verlinde_past_the_sweep_sizes(self):
        # class 2000 mod 3 = 2, the corners (0, 62) and (64, 0) too
        counts = count_paths(64, 2000).counts
        vertices = list(map(Vertex._make, [
            (0, 2), (1, 0), (10, 12), (20, 22), (0, 62), (64, 0)]))
        for p in primes_1_mod(6 * 67, 2):
            for v in vertices:
                assert counts[v].bit_length() > 1000
                assert verlinde_counts(64, [2000], p, v) == [counts[v] % p]

    def test_runs_no_sweep(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(anyondeg.pathcount, "sweep", no_sweep)
        assert count_paths(3, 9).counts[ORIGIN] == 42
        # the histories do sweep, and the patch catches them
        with pytest.raises(AssertionError, match="a sweep ran"):
            origin_history(3, 9)


def _sweep_items(k, n, counts):
    """(vertex, count) in canonical order from the sweep's step-n list
    ``counts``, read at ``class_offsets`` positions; 0 off class n mod 3."""
    off, g = class_offsets(k), n % 3
    return [(v, counts[off[g][v.i] + v.j // 3]
             if (2 * v.i + v.j) % 3 == g else 0)
            for v in build_lattice(k).vertices]


class TestSweep:
    @pytest.mark.parametrize("k", range(1, 13))
    def test_step_covers_one_class_plus_zero_slot(self, k):
        sizes = [len(c) for c in class_positions(build_lattice(k))[0]]
        for n, counts in enumerate(sweep(k, 20)):
            assert len(counts) == sizes[n % 3] + 1 and counts[-1] == 0

    @pytest.mark.parametrize("k", range(1, 9))
    def test_start_position_matches_perron_block_power(self, k):
        # fed D_j walks at the origin at step 3j, the sweep holds
        # sum_j D_j (row 0 of B^(m - j)) at step 3m; B is sliced out of
        # the dense adjacency matrix, not counted, and from m = |C0| on
        # the sum is 0 (Cayley-Hamilton)
        det = system_det(k).coeffs[::3]
        block = [[round(x) for x in row] for row in dense_perron_block(k)]
        n0 = len(block)
        rows = [[int(c == 0) for c in range(n0)]]  # row 0 of B^m
        for _ in range(n0 + 1):
            rows.append([sum(x * block[z][c] for z, x in enumerate(rows[-1]))
                         for c in range(n0)])
        steps = list(sweep(k, 3 * n0 + 3, det))
        for m in range(n0 + 2):
            expected = [sum(d * rows[m - j][c]
                            for j, d in enumerate(det[:m + 1]))
                        for c in range(n0)]
            assert steps[3 * m][:-1] == expected
            assert m < n0 or not any(expected)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_origin_history_matches_matrix_power(self, k):
        # every vertex, every n <= 30: the zeros off v's grade come from
        # the matrix power too, not from the congruence rule
        rows = [counts_by_matrix_power(k, n) for n in range(31)]
        for v in build_lattice(k).vertices:
            assert origin_history(k, 30, v) == [row[v] for row in rows]


@st.composite
def level_step_vertex(draw):
    k = draw(st.integers(1, 24))  # the sum against two sweeps
    i = draw(st.integers(0, k))
    return k, draw(st.integers(0, 60)), Vertex(i, draw(st.integers(0, k - i)))


@settings(max_examples=60, deadline=None)
@given(level_step_vertex())
def test_count_routes_agree(case):
    k, n, v = case
    expected = degeneracy(k, n, v)
    assert origin_history(k, n, v)[n] == expected
    assert count_paths(k, n).counts[v] == expected


class TestDegeneracy:
    def test_known_values(self):
        assert degeneracy(4, 12, Vertex(0, 0)) == 462
        assert degeneracy(2, 1, Vertex(0, 1)) == 1
        assert degeneracy(2, 2, Vertex(0, 0)) == 0

    def test_rejects_foreign_vertex(self):
        with pytest.raises(ValueError):
            degeneracy(2, 3, Vertex(2, 1))

    def test_rejects_bad_level_before_congruence(self):
        with pytest.raises(ValueError):
            degeneracy(0, 1)

    def test_congruence_zero_skips_the_dp(self, monkeypatch):
        # neither the sweep nor the reflection sum runs
        def no_route(*args):
            raise AssertionError("a count forced to 0 ran a route")

        monkeypatch.setattr(anyondeg.pathcount, "sweep", no_route)
        monkeypatch.setattr(anyondeg.pathcount, "_reflection_count", no_route)
        assert degeneracy(64, 10000) == 0
        assert degeneracy(5, 4, (1, 1)) == 0
        # one step on, the reflection sum runs and the patch catches it
        for k, n, v in [(64, 9999, ORIGIN), (5, 3, (1, 1))]:
            with pytest.raises(AssertionError, match="ran a route"):
                degeneracy(k, n, v)

    @pytest.mark.parametrize("k", [1, 10, 11, 64])
    def test_level_picks_the_route(self, monkeypatch, k):
        # one reflection sum and no sweep, below level 11 and from it up
        expected, calls = origin_history(k, 30)[30], []
        for route in ("sweep", "_reflection_count"):
            real = getattr(anyondeg.pathcount, route)
            monkeypatch.setattr(
                anyondeg.pathcount, route, lambda *args, route=route,
                real=real: calls.append(route) or real(*args))
        assert degeneracy(k, 30) == expected
        assert calls == ["_reflection_count"]

    @pytest.mark.parametrize("k", range(1, 6))
    def test_congruence(self, k):
        # the zeros that degeneracy returns at once come from the matrix
        # power too, which knows no grade rule; the sweep and the reflection
        # sum hold class n mod 3 alone, so their zeros would hold by design
        for n in range(12):
            walks = counts_by_matrix_power(k, n)
            for v in build_lattice(k).vertices:
                if (2 * v.i + v.j) % 3 != n % 3:
                    assert walks[v] == degeneracy(k, n, v) == 0

    def test_monotone_in_level(self):
        # the reflection sum at level k against level k + 1, at every
        # vertex, to n = 12 at k <= 6 and to n = 36 at k = 9..11; the
        # level bites once n >= k + 2
        for k, n_max in [*((k, 12) for k in range(1, 7)),
                         *((k, 36) for k in range(9, 12))]:
            grew = False
            for n in range(0, n_max + 1):
                for v in build_lattice(k).vertices:
                    low, high = degeneracy(k, n, v), degeneracy(k + 1, n, v)
                    assert low <= high
                    grew |= low < high
            assert grew, k

    def test_saturation_at_high_level(self):
        for n in range(0, 10):
            k = max(n, 1)
            for v in build_lattice(k).vertices:
                assert degeneracy(k, n, v) == degeneracy(k + 1, n, v)


class TestReflectionCount:
    @pytest.mark.parametrize("k", [*range(1, 41), 48, 64])
    def test_matches_the_sweep_at_every_vertex(self, k):
        # every vertex of class n mod 3, those with no n-box shape too: the
        # whole class from the residue table, and each vertex alone, at
        # every n <= 45 up to k = 20 and where the level starts to bite
        # from k = 21 up; at samples up to n = 40 (k + 3) the class from
        # the table, and the corners and the middle of the class alone
        m, off = k + 3, class_offsets(k)
        small = set(range(46)) if k <= 20 else {0, 1, 2, k + 2, k + 3, k + 4}
        steps = small | {7 * m + 1, 20 * m + 2, 40 * m}
        for n, counts in enumerate(sweep(k, max(steps))):
            if n not in steps:
                continue
            cls = [v for v in build_lattice(k).vertices
                   if (n - 2 * v.i - v.j) % 3 == 0]
            expected = [counts[off[n % 3][v.i] + v.j // 3] for v in cls]
            assert _class_counts(k, n, cls) == expected
            alone = range(len(cls)) if n in small \
                else (0, len(cls) // 2, len(cls) - 1)
            for t in alone:
                assert _reflection_count(k, n, cls[t]) == expected[t]

    @pytest.mark.parametrize("k", [20, 45, 64])
    def test_hook_lengths_where_the_level_is_inert(self, k):
        for n in range(k - 8, k + 1):
            for v in build_lattice(k).vertices:
                if (n - 2 * v.i - v.j) % 3 == 0:
                    assert _reflection_count(k, n, v) \
                        == unrestricted_count(n, v)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_residue_table_counts_words_by_residue(self, k):
        # T[a][b] against the trinomials C(n, c1) C(n - c1, c2) summed by
        # (c1, c2) mod m, and T's symmetry under permuting its residues
        m = k + 3
        for n in range(21):
            words = [[0] * m for _ in range(m)]
            for c1 in range(n + 1):
                for c2 in range(n - c1 + 1):
                    words[c1 % m][c2 % m] += comb(n, c1) * comb(n - c1, c2)
            table = _residue_table(k, n)
            assert table == words
            for a in range(m):
                for b in range(m):
                    assert table[a][b] == table[b][a] \
                        == table[a][(n - a - b) % m]


class TestVerlindeOracle:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_golden_counts(self, k):
        p = primes_1_mod(6 * (k + 3), 1)[0]
        for n, count in zip(range(0, 28, 3), ORIGIN_COUNTS[k]):
            assert verlinde_counts(k, [n], p) == [count % p]

    @pytest.mark.parametrize("k,n", [(7, 2997), (20, 3000), (64, 3000)])
    def test_counts_past_the_golden_tables(self, k, n):
        count = degeneracy(k, n)
        assert count.bit_length() > 1000
        for p in primes_1_mod(6 * (k + 3), 2):
            assert verlinde_counts(k, [n], p) == [count % p]

    @pytest.mark.parametrize("k", [5, 12, 30])
    def test_endpoint_counts(self, k):
        # the middle vertex of each grade class, which the walks reach at
        # n = g mod 3 only: weights S_{0 mu} conj(S_{v mu}) from Schur
        # polynomials against the walk DP, so a wrong S convention fails
        # against the walks
        p = primes_1_mod(6 * (k + 3), 1)[0]
        for g, cls in enumerate(class_positions(build_lattice(k))[0]):
            v = cls[len(cls) // 2]
            history = origin_history(k, 72, v)
            ns = [*range(g, 73, 3), (g + 1) % 3]
            assert verlinde_counts(k, ns, p, v) == [history[n] % p for n in ns]

    @pytest.mark.parametrize("k", [2, 5, 11, 64])
    @pytest.mark.parametrize("n", [9999, 10000])
    def test_counts_at_the_step_cap(self, k, n):
        # the reflection sum at the CLI's step cap, at small and large
        # level, at the vertices of the level in n's grade class, the
        # lattice's corners too; at k = 2 the counts grow as the
        # Fibonacci numbers, by log2 of the golden ratio, 0.694 bits a step
        vertices = [v for v in map(Vertex._make, [
            (0, 0), (1, 1), (5, 5), (0, 1), (4, 5), (0, k), (k, 0)])
            if in_vertex_set(v, k) and (n - 2 * v.i - v.j) % 3 == 0]
        assert len(vertices) >= 2
        primes = primes_1_mod(6 * (k + 3), 2)
        for v in vertices:
            count = degeneracy(k, n, v)
            assert count.bit_length() > (6900 if k == 2 else 10000)
            for p in primes:
                assert verlinde_counts(k, [n], p, v) == [count % p]

    def test_endpoint_counts_past_the_golden_tables(self):
        v = Vertex(10, 13)
        count = degeneracy(64, 3000, v)
        assert count.bit_length() > 1000
        for p in primes_1_mod(6 * 67, 2):
            assert verlinde_counts(64, [3000], p, v) == [count % p]


@pytest.mark.parametrize("route", [count_paths, degeneracy, origin_history])
def test_rejects_negative_step_count(route):
    with pytest.raises(ValueError):
        route(2, -1)


class TestSequenceIdentities:
    def test_catalan_diagonal(self):
        for n in range(0, 28, 3):
            assert degeneracy(max(n, 1), n) == catalan3d(n)

    def test_fibonacci_row(self):
        for n in range(3, 28, 3):
            assert degeneracy(2, n) == fibonacci(n - 1)


class TestTotalDimension:
    def test_three_cycle(self):
        assert sum(count_paths(1, 0).counts.values()) == 1
        assert sum(count_paths(1, 5).counts.values()) == 1

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 6), (4, 5)])
    def test_matches_dfs_total(self, k, n):
        assert sum(count_paths(k, n).counts.values()) \
            == sum(dfs_walk_counts(k, n).values())


class TestTable:
    def test_reference_grid(self):
        grid = table(8, 27)
        assert grid.columns == tuple(range(0, 28, 3))
        for k, row in ORIGIN_COUNTS.items():
            assert grid.rows[k] == row

    def test_row_of_ones(self):
        assert table(1, 27).rows[1] == (1,) * 10

    def test_off_origin_vertex_against_dfs(self):
        grid = table(2, 9, Vertex(1, 1))
        assert grid.columns == tuple(range(10))
        for k in (1, 2):
            for ci, n in enumerate(grid.columns):
                expected = dfs_walk_counts(k, n).get(Vertex(1, 1), 0) \
                    if k >= 2 else 0
                assert grid.rows[k][ci] == expected

    @pytest.mark.parametrize("v", [Vertex(-1, 0), Vertex(9, 9)])
    def test_rejects_vertex_outside_the_top_level(self, monkeypatch, v):
        def no_sweep(*args):
            raise AssertionError("a level ran")

        # every row, swept or reflected, passes through _grid_history
        monkeypatch.setattr(anyondeg.pathcount, "_grid_history", no_sweep)
        for route in (grid_rows, table):
            with pytest.raises(ValueError, match="not in the level-3 lattice"):
                route(3, 6, v)

    @pytest.mark.parametrize("args,message", [
        ((0, -1, Vertex(9, 9)), "k_max must be >= 1"),
        ((3, -1, Vertex(9, 9)), "n_max must be >= 0")])
    def test_rows_check_their_arguments_in_order_before_any_sweep(
            self, monkeypatch, args, message):
        def no_sweep(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(anyondeg.pathcount, "_grid_history", no_sweep)
        for route in (grid_rows, table):
            with pytest.raises(ValueError, match=message):
                route(*args)

    def test_rows_sweep_one_level_per_row(self, monkeypatch):
        # nothing runs until a row is read, and each row is one call of
        # _grid_history, the seam of both routes; the levels below v's
        # hold 0 and run none.  At (12, 27) levels 2-7 sweep (binomials
        # None) and levels 8-12 reflect
        swept, n_max = [], 27
        real = anyondeg.pathcount._grid_history
        monkeypatch.setattr(
            anyondeg.pathcount, "_grid_history", lambda k, n, v, binomials:
            swept.append((k, binomials is None)) or real(k, n, v, binomials))
        columns, rows = grid_rows(12, n_max, Vertex(1, 1))
        assert columns == tuple(range(n_max + 1)) and swept == []
        assert next(rows) == (1, (0,) * (n_max + 1)) and swept == []
        assert next(rows)[0] == 2 and swept == [(2, True)]
        rest = dict(rows)
        assert swept == [(k, k < 8) for k in range(2, 13)]
        assert rest == {k: tuple(origin_history(k, n_max, Vertex(1, 1)))
                        for k in range(3, 13)}

    @pytest.mark.parametrize("i", range(13))
    def test_reflected_rows_match_the_sweep_at_every_vertex(self, i):
        # every vertex of level 12, row i of the lattice, at every level
        # that holds it, whichever route the rule picks there: the
        # reflection sum's history equals the sweep's, 0 off v's class
        n_max = 40
        for j in range(13 - i):
            v = Vertex(i, j)
            binomials = _class_binomials(n_max, (2 * i + j) % 3)
            for k in range(max(i + j, 1), 13):
                assert _grid_history(k, n_max, v, binomials) \
                    == origin_history(k, n_max, v), (k, v)

    @pytest.mark.parametrize("v", [(0, 0), (1, 0), (0, 1), (5, 7), (21, 0),
                                   (0, 64), (64, 0), (20, 21)])
    def test_reflected_rows_match_the_sweep_up_to_level_64(self, v):
        # sampled vertices of each class, corners too, on a level-64 grid
        # at n_max = 150: levels 12 and up reflect, the rest sweep; the
        # sweep's history is the oracle at every seventh level and the top
        n_max, v = 150, Vertex(*v)
        assert _first_reflected_level(max(sum(v), 1), 64, n_max) \
            == max(sum(v), 12)
        for k, row in grid_rows(64, n_max, v, all_columns=True)[1]:
            if k % 7 == 0 or k >= 63:
                assert row == (tuple(origin_history(k, n_max, v))
                               if sum(v) <= k else (0,) * (n_max + 1)), k

    @pytest.mark.parametrize("k_max,n_max,v,first", [
        (6, 21, (0, 0), None),  # the largest table grid of cli_golden
        (8, 27, (0, 0), None),  # reproduce's Table 1
        (15, 200, (0, 0), None),  # 13-15 gain less than the binomials cost
        (24, 200, (0, 0), 13),  # large_k's table job
        (12, 61, (2, 3), 10),
        (17, 100, (0, 17), 17),  # a corner runs its own level alone
        (64, REFLECT_MAX_N, (0, 64), 64),  # the memory bound, and one past
        (64, REFLECT_MAX_N + 1, (0, 64), None)])
    def test_the_rule_picks_the_route(self, monkeypatch, k_max, n_max, v,
                                      first):
        # the levels from first up reflect, those below sweep, read at the
        # seam; every row equals the sweep's
        v, routes = Vertex(*v), {}
        real = anyondeg.pathcount._grid_history

        def seam(k, n, v, binomials):
            routes[k] = binomials is None
            return real(k, n, v, binomials)

        monkeypatch.setattr(anyondeg.pathcount, "_grid_history", seam)
        rows = dict(grid_rows(k_max, n_max, v, all_columns=True)[1])
        low = max(sum(v), 1)
        assert routes == {k: first is None or k < first
                          for k in range(low, k_max + 1)}
        assert rows == {k: tuple(origin_history(k, n_max, v)) if k >= low
                        else (0,) * (n_max + 1) for k in range(1, k_max + 1)}

    def test_the_capped_grid_sweeps(self):
        # table --max-k 64 --max-n 3000, the CLI's largest grid
        assert _first_reflected_level(1, 64, 3000) == 65

    def test_all_columns_flag(self):
        grid = table(2, 6, all_columns=True)
        assert grid.columns == tuple(range(7))
        assert grid.rows[2] == (1, 0, 0, 1, 0, 0, 5)

    def test_origin_history_consistency(self):
        history = origin_history(3, 12)
        for n in (0, 3, 6, 9, 12):
            assert history[n] == degeneracy(3, n)
