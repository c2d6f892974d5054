import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import anyondeg.spectral
from anyondeg.genfunc import _orbit_factors, system_det
from anyondeg.lattice import Vertex, build_lattice, walk_table
from anyondeg.pathcount import growth_rate_estimate
from anyondeg.poly import IntPoly
from anyondeg.spectral import (
    GRID, PERRON_THETA_MAX, NoRootError, SpectralReport, _descartes,
    _newton_step, _perron_apply, _perron_tables, _root_bracket,
    _three_steps, _top_ritz, lambda_perron, lambda_trig, root_rho,
    smallest_positive_root, spectral_report,
)

from oracles import _bisection, _descartes_count, _scanned_step, adjacency, \
    bisected_top_ritz, canonical_positions, class_positions, \
    dense_lambda_perron, dense_perron_block, eigenvalue_at_least, rotate, \
    scanned_smallest_positive_root, scanned_smallest_positive_roots, \
    whole_table_orbit_tables

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2
REPORT_FIELDS = ("k", "lambda_trig", "lambda_perron", "rho_root",
                 "lambda_from_root", "agreement_gap")


def P(terms):
    return IntPoly.from_terms(terms)


class TestTrig:
    def test_level_one_is_unity(self):
        assert lambda_trig(1) == pytest.approx(1.0, abs=1e-12)

    def test_level_two_is_golden_ratio(self):
        assert lambda_trig(2) == pytest.approx(GOLDEN_RATIO, abs=1e-12)
        assert lambda_trig(2) == pytest.approx(2 * math.cos(math.pi / 5),
                                               abs=1e-12)

    def test_level_three_is_two(self):
        assert lambda_trig(3) == pytest.approx(2.0, abs=1e-12)

    def test_large_level_approaches_three(self):
        assert 2.99 < lambda_trig(100) < 3.0

    def test_strictly_increasing(self):
        values = [lambda_trig(k) for k in range(1, 13)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lambda_trig(0)


def _unit(r: int, n: int) -> list[float]:
    return [float(c == r) for c in range(n)]


def _mirror_and_table(k: int) -> tuple[list[int], list[list[list[int]]]]:
    """The class-0 mirror positions and the walk table over whole classes,
    which are ``lambda_perron``'s tables when 3 does not divide k."""
    classes, pos = class_positions(build_lattice(k))
    return [pos[Vertex(v.j, v.i)] for v in classes[0]], walk_table(k)


def _orbit_index(k: int, cls: list[Vertex]) -> dict[Vertex, int]:
    """Each vertex of one grade class mapped to the number of its orbit
    under the rotations that keep the classes (J when 3 | k, else none),
    orbits numbered in the class order of their first vertex."""
    index, count = {}, 0
    for v in cls:
        if v not in index:
            orbit = [v, rotate(v, k), rotate(rotate(v, k), k)]
            index.update(dict.fromkeys(orbit[:3 if k % 3 == 0 else 1], count))
            count += 1
    return index


def _two_pass_apply(pred, mirror, x):
    """(B + B^T) x by two B^T passes, B x = P B^T P x: the operator
    before the one-pass form, kept to pin that form's floats."""
    back = _three_steps(pred, x)
    fwd = _three_steps(pred, [x[m] for m in mirror])
    return [b + fwd[m] for b, m in zip(back, mirror)]


class TestPerron:
    def test_permutation_matrix(self):
        assert lambda_perron(1) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8, 16, 32, 64])
    def test_matches_trig(self, k):
        assert lambda_perron(k) == pytest.approx(lambda_trig(k), abs=1e-9)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_walk_counts_are_the_dense_block(self, k):
        # three padded steps from each class-0 vertex, against B sliced
        # out of the dense adjacency matrix and multiplied
        pred = walk_table(k)
        n0 = len(pred[0])
        rows = [_three_steps(pred, _unit(r, n0))[:n0] for r in range(n0)]
        assert rows == dense_perron_block(k).tolist()

    @pytest.mark.parametrize("k", [*range(1, 31), 48, 64])
    def test_bit_identical_to_dense_route(self, k):
        # on its domain, the mirror-symmetric vectors e_c + e_{P c}
        # (c <= P c), the operator Lanczos runs on is bit for bit the
        # dense B + B^T
        mirror, pred = _mirror_and_table(k)
        n0 = len(mirror)
        block = dense_perron_block(k)
        dense = block + block.T
        for c, m in enumerate(mirror):
            if c <= m:
                x = [float(r in (c, m)) for r in range(n0)]
                assert _perron_apply(pred, mirror, x) == (dense @ x).tolist()

    @pytest.mark.parametrize("k", [3, 5, 12])
    def test_off_the_domain_it_is_one_transpose_pass(self, k):
        # on a unit vector e_c with c != P c the result is (I + P) B^T e_c,
        # not (B + B^T) e_c
        mirror, pred = _mirror_and_table(k)
        n0 = len(mirror)
        bt = dense_perron_block(k).T
        perm = np.eye(n0)[mirror]
        asymmetric = [c for c, m in enumerate(mirror) if c != m]
        assert asymmetric
        for c in asymmetric:
            x = _unit(c, n0)
            got = _perron_apply(pred, mirror, x)
            assert got == ((np.eye(n0) + perm) @ bt @ x).tolist()
        assert any(_perron_apply(pred, mirror, _unit(c, n0))
                   != ((bt + bt.T) @ _unit(c, n0)).tolist()
                   for c in asymmetric)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_mirror_transposes_adjacency(self, k):
        # (i, j) -> (j, i) reverses every edge: P A P = A^T exactly
        lat = build_lattice(k)
        adj, pos = adjacency(lat), canonical_positions(lat)
        perm = [pos[Vertex(v.j, v.i)] for v in lat.vertices]
        assert np.array_equal(adj[np.ix_(perm, perm)], adj.T)

    @pytest.mark.parametrize("k", range(1, 65))
    def test_within_1e13_of_trig(self, k):
        assert abs(lambda_perron(k) - lambda_trig(k)) < 1e-13

    @pytest.mark.parametrize("k", [*range(1, 31), 48, 64])
    def test_within_1e12_of_dense_route(self, k):
        assert abs(lambda_perron(k) - dense_lambda_perron(k)) < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3, 63, 64])
    def test_stops_at_float_resolution(self, k, monkeypatch):
        # tol below float resolution: the value stops moving, or the
        # Krylov space runs out (k = 1, 2, 3), within as many Lanczos
        # steps as there are orbit representatives
        steps = 0

        def counted(*args):
            nonlocal steps
            steps += 1
            return _perron_apply(*args)

        monkeypatch.setattr(anyondeg.spectral, "_perron_apply", counted)
        lam = lambda_perron(k, tol=1e-300)
        assert abs(lam - lambda_trig(k)) < 1e-13
        assert steps <= len(_perron_tables(k)[2])

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-300])
    @pytest.mark.parametrize("k", [*range(1, 31), 48, 56, 64])
    def test_bit_identical_to_two_passes(self, k, tol, monkeypatch):
        # every Lanczos vector is mirror-symmetric, so one B^T pass
        # gives the floats of two, and the same value to the last bit
        lam = lambda_perron(k, tol)
        monkeypatch.setattr(anyondeg.spectral, "_perron_apply",
                            _two_pass_apply)
        assert lambda_perron(k, tol) == lam

    @pytest.mark.parametrize("k", [2, 12, 33, 64])
    def test_lanczos_vectors_are_mirror_symmetric(self, k, monkeypatch):
        # the quotient's own mirror: the vectors live on orbits
        mirror = _perron_tables(k)[1]
        seen = []

        def recorded(*args):
            seen.append(args[-1])
            return _perron_apply(*args)

        monkeypatch.setattr(anyondeg.spectral, "_perron_apply", recorded)
        lambda_perron(k, tol=1e-300)
        assert seen
        assert all(x == [x[m] for m in mirror] for x in seen)

    @pytest.mark.parametrize("k", [2, 12, 48])
    def test_one_transpose_pass_per_step(self, k, monkeypatch):
        # a second pass per operator call would double the Perron time
        applies = passes = 0

        def counted_apply(*args):
            nonlocal applies
            applies += 1
            return _perron_apply(*args)

        def counted_steps(*args):
            nonlocal passes
            passes += 1
            return _three_steps(*args)

        monkeypatch.setattr(anyondeg.spectral, "_perron_apply", counted_apply)
        monkeypatch.setattr(anyondeg.spectral, "_three_steps", counted_steps)
        lambda_perron(k)
        assert applies > 0
        assert passes == applies

    @pytest.mark.parametrize("k", range(1, 65))
    def test_steps_bounded_by_the_krylov_dimension(self, k, monkeypatch):
        # one B^T pass a step, and at most one step per orbit
        # representative, the dimension of the Krylov space
        applies = 0

        def counted(*args):
            nonlocal applies
            applies += 1
            return _perron_apply(*args)

        monkeypatch.setattr(anyondeg.spectral, "_perron_apply", counted)
        n = len(_perron_tables(k)[2])
        for tol in (1e-12, 1e-6, 1e-300):
            applies = 0
            lambda_perron(k, tol)
            assert 0 < applies <= n

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError):
            lambda_perron(2, tol=tol)


class TestOrbits:
    """``_perron_tables``: the walk table on the orbits of the rotations
    that keep the grade classes, checked against whole-class tables and
    orbits numbered here from ``oracles.rotate``."""

    @pytest.mark.parametrize("k", range(1, 65))
    def test_class0_weights_sum_to_its_size(self, k):
        _, mirror, weight = _perron_tables(k)
        n0 = len(class_positions(build_lattice(k))[0][0])
        assert len(mirror) == len(weight) and sum(weight) == n0
        assert set(weight) == ({3, 1} if k % 3 == 0 else {1})

    @pytest.mark.parametrize("k", range(3, 65, 3))
    def test_fixed_point_weighs_last(self, k):
        # representatives are their orbits' first points in class order,
        # lattice.orbit_firsts, which the factors of D read too; every
        # 3-point orbit's first has i < k/3, so J's fixed point (k/3, k/3)
        # comes last
        weight = _perron_tables(k)[2]
        assert weight[-1] == 1 and set(weight[:-1]) == {3}

    @pytest.mark.parametrize("k", [k for k in range(1, 65) if k % 3])
    def test_whole_classes_when_3_does_not_divide_k(self, k):
        rows, mirror, weight = _perron_tables(k)
        assert (mirror, rows) == _mirror_and_table(k)
        assert weight == [1] * len(mirror)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 9, 12, 33, 48, 63])
    def test_orbit_indices_and_weights(self, k):
        # rows, mirror and weight against orbits numbered here
        classes = class_positions(build_lattice(k))[0]
        index = [_orbit_index(k, cls) for cls in classes]
        rows, mirror, weight = _perron_tables(k)
        # each orbit's first vertex, in orbit order
        firsts = [[v for _, v in sorted({i[v]: v for v in cls[::-1]}.items())]
                  for cls, i in zip(classes, index)]
        assert [len(f) for f in firsts] == [len(r) for r in rows]
        for g, (table, first) in enumerate(zip(rows, firsts)):
            prev, pad = index[g - 1], len(firsts[g - 1])
            for row, v in zip(table, first):
                preds = (Vertex(v.i - di, v.j - dj)
                         for di, dj in ((0, 1), (-1, 0), (1, -1)))
                assert row == [prev.get(w, pad) for w in preds]
        assert mirror == [index[0][Vertex(v.j, v.i)] for v in firsts[0]]
        assert weight == [list(index[0].values()).count(r)
                          for r in range(len(weight))]

    @pytest.mark.parametrize("k", [3, 6, 12, 33, 48])
    def test_rows_carry_rotation_invariant_vectors(self, k):
        # B^T on the orbits, lifted, is B^T on whole classes of the
        # lifted vector, exactly (small integers as floats)
        cls = class_positions(build_lattice(k))[0][0]
        index = _orbit_index(k, cls)
        rows = _perron_tables(k)[0]
        full = walk_table(k)
        x = [float((7 * r) % 11 - 5) for r in range(len(rows[0]))]
        lifted = [x[index[v]] for v in cls]
        y = _three_steps(rows, x)
        assert _three_steps(full, lifted) == [y[index[v]] for v in cls] + [0]

    @pytest.mark.parametrize("k,bits", [
        (2, "0x1.9e3779b97f4a8p+0"), (5, "0x1.3504f333f9de6p+1"),
        (56, "0x1.7e8cb9b82d5eep+1"), (64, "0x1.7ee0089c7c6b2p+1")])
    def test_floats_of_the_whole_class_route(self, k, bits):
        # recorded from the route before the orbit tables, which
        # Lanczos-ran over all of class 0
        assert lambda_perron(k).hex() == bits

    @pytest.mark.parametrize("k,bits", [
        (3, "0x1.fffffffffffffp+0"), (48, "0x1.7e0f4540ebad8p+1"),
        (63, "0x1.7ed73f7789a32p+1")])
    def test_floats_of_the_orbit_route(self, k, bits):
        # recorded from the orbit route while it still bisected each top
        # Ritz value over the whole bracket (theta_prev, PERRON_THETA_MAX)
        assert lambda_perron(k).hex() == bits

    def test_float_of_the_whole_table_route(self):
        # recorded from the orbit route while it still cut its rows out of
        # the whole walk table
        assert lambda_perron(99).hex() == "0x1.7f83b322f44ebp+1"

    @pytest.mark.parametrize("k", range(1, 100))
    def test_tables_are_the_whole_table_cut_to_orbits(self, k):
        assert _perron_tables(k) == whole_table_orbit_tables(k)

    @pytest.mark.parametrize("k", [3, 48, 63])
    def test_never_builds_the_whole_table(self, k, monkeypatch):
        # when 3 | k only the representatives' rows are built
        lam = lambda_perron(k)

        def rows_only(k, points=None):
            if points is None:
                raise AssertionError(f"whole walk_table({k}) built")
            return walk_table(k, points)

        monkeypatch.setattr(anyondeg.spectral, "walk_table", rows_only)
        assert lambda_perron(k) == lam


def _ritz_calls(k: int, tol: float, monkeypatch) -> list[tuple]:
    """(alphas, sq_betas, theta_prev, theta) of every Lanczos step of
    ``lambda_perron(k, tol)``, as ``_top_ritz`` was called and answered."""
    seen = []

    def recorded(alphas, sq_betas, floor, guess):
        theta = _top_ritz(alphas, sq_betas, floor, guess)
        seen.append((list(alphas), list(sq_betas), floor, theta))
        return theta

    monkeypatch.setattr(anyondeg.spectral, "_top_ritz", recorded)
    lambda_perron(k, tol)
    return seen


def _counted_passes(monkeypatch) -> list[float]:
    """The x of every ``_newton_step`` pass from here on, in order."""
    passes = []

    def counted(alphas, sq_betas, x):
        passes.append(x)
        return _newton_step(alphas, sq_betas, x)

    monkeypatch.setattr(anyondeg.spectral, "_newton_step", counted)
    return passes


@st.composite
def tridiagonals(draw):
    """(alphas, sq_betas, floor, guess): diagonals clustered round one
    centre, couplings that may be 0 or 1e-300, a floor that is 0, any
    float below the cap, or the top of the leading block, as in Lanczos,
    and any guess, next to the floor or not."""
    n = draw(st.integers(1, 24))
    centre = draw(st.floats(-54, 54))
    spread = draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-6, 1.0, 30.0]))
    alphas = [centre + spread * draw(st.floats(-1, 1)) for _ in range(n)]
    sq_betas = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1e-300, 1e-24]), st.floats(0, 400)),
        min_size=n - 1, max_size=n - 1))
    floor = draw(st.one_of(
        st.just(0.0), st.floats(0, PERRON_THETA_MAX, exclude_max=True),
        st.just(None)))
    if floor is None:
        floor = bisected_top_ritz(alphas[:-1], sq_betas[:-1], 0.0) \
            if n > 1 else 0.0
    guess = draw(st.one_of(st.floats(), st.floats(0, 1e-6).map(
        lambda rise: floor + rise)))
    return alphas, sq_betas, floor, guess


class TestTopRitz:
    """``_top_ritz`` against ``oracles.bisected_top_ritz``, the plain
    full-width bisection of the Sturm count: the same float, from a few
    counts per Lanczos step."""

    @pytest.mark.parametrize("tol", [1e-12, 1e-6, 1e-300])
    @pytest.mark.parametrize("k", range(1, 65))
    def test_every_step_is_the_plain_bisection(self, k, tol, monkeypatch):
        seen = _ritz_calls(k, tol, monkeypatch)
        assert seen
        for alphas, sq_betas, floor, theta in seen:
            expected = bisected_top_ritz(alphas, sq_betas, floor)
            assert theta.hex() == expected.hex()

    @settings(max_examples=400, deadline=None)
    @given(tridiagonals())
    # Newton stops next to the float, not on it: an ulp below, where hi
    # takes a count; 2 ulps above, where lo does; an ulp above, where
    # its stop is hi, not lo
    @example(([-0.5, -0.5], [4.0], 0.0, 0.0))
    @example(([-0.5, -2.0, -1.0], [4.0, 1.0], 0.5, 1.0))
    @example(([2.0, 3.0], [1.0], 0.5, 0.501))
    # the top eigenvalue at the cap: the full-width bisection never
    # counts there, so its float is the one below 54
    @example(([54.0], [], 0.0, 0.0))
    def test_fuzzed_tridiagonals(self, case):
        # the guess moves where Newton starts, never the float
        alphas, sq_betas, floor, guess = case
        assert _top_ritz(alphas, sq_betas, floor, guess).hex() \
            == bisected_top_ritz(alphas, sq_betas, floor).hex()

    @pytest.mark.parametrize("tol,budget", [
        (1e-12, 3777), (1e-6, 3303), (1e-300, 3888)])
    def test_pass_budget(self, tol, budget, monkeypatch):
        # LDL^T passes over every Lanczos step of k = 1..64: at most the
        # totals made while the bracket replayed the full-width bisection
        passes = _counted_passes(monkeypatch)
        for k in range(1, 65):
            lambda_perron(k, tol)
        assert len(passes) <= budget

    def test_newton_stops_at_floor(self, monkeypatch):
        # T = 0 has the triple eigenvalue 0 below floor, where Newton
        # only cuts x by a third a pass; it took 1748 passes down to 0
        passes = _counted_passes(monkeypatch)
        case = ([0.0] * 3, [0.0] * 2, 0.5)
        assert _top_ritz(*case, 0.5) == 0.5 == bisected_top_ritz(*case)
        assert len(passes) <= 2

    def test_no_float_counted_twice(self, monkeypatch):
        # the gallop moves its near end, so the bisection of its bracket
        # cannot count again a float the gallop already counted
        passes = _counted_passes(monkeypatch)
        case = ([-0.5, -2.0, -1.0], [4.0, 1.0], 0.5)
        assert _top_ritz(*case, 1.0).hex() == bisected_top_ritz(*case).hex()
        assert passes
        assert len(set(passes)) == len(passes)

    def test_a_failed_guess_is_newtons_lower_stop(self, monkeypatch):
        # T has the eigenvalue 1.0 = guess: the count there exits early,
        # and Newton, run again from the bound, stops at the guess
        # rather than counting it a second time
        passes = _counted_passes(monkeypatch)
        case = ([1.0, 0.999999, 1.0], [0.0, 1e-24], 0.0)
        assert _top_ritz(*case, 1.0).hex() == bisected_top_ritz(*case).hex()
        assert passes[0] == 1.0
        assert len(set(passes)) == len(passes)

    def test_floor_below_the_leading_block(self):
        # floor 0 < 5, the leading block's top eigenvalue, so the bound
        # max(floor, alpha_n) + beta = 0 is no Weyl bound: Newton starts
        # below the top eigenvalue and the gallop climbs from 0, one ulp
        # at first (about 1100 passes), to the count's float all the same
        case = ([5.0, -1.0], [0.0], 0.0)
        assert _top_ritz(*case, 0.5).hex() == bisected_top_ritz(*case).hex()

    @pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0, 3.0, 4.0])
    def test_newton_step_is_det_over_its_derivative(self, x):
        # T = [[2, 1], [1, 2]]: det(T - x) = (x - 1)(x - 3), a pivot
        # turns nonnegative at or below the top eigenvalue 3
        step = _newton_step([2.0, 2.0], [1.0], x)
        if x > 3:
            assert step == pytest.approx((x - 1) * (x - 3) / (2 * x - 4))
        else:
            assert step is None and eigenvalue_at_least([2.0, 2.0], [1.0], x)

    @settings(max_examples=400, deadline=None)
    @given(tridiagonals(), st.integers(-64, 64), st.floats(-1, 1))
    # pivots of -5e-324 overflow s, and the step 0.0 is no early exit
    @example(([0.0], [], 0.0, 0.0), 1, 0.0)
    @example(([0.0, 0.0], [0.0], 0.0, 0.0), 1, 0.0)
    def test_newton_step_exits_early_just_where_the_count_is_set(
            self, case, ulps, shift):
        # x a few ulps from, or within 1 of, the top eigenvalue
        alphas, sq_betas, _, _ = case
        top = float(np.linalg.eigvalsh(
            np.diag(alphas) + np.diag(np.sqrt(sq_betas), 1)
            + np.diag(np.sqrt(sq_betas), -1))[-1])
        for x in (top + ulps * math.ulp(top), top + shift):
            assert (_newton_step(alphas, sq_betas, x) is None) \
                == eigenvalue_at_least(alphas, sq_betas, x)

    @pytest.mark.parametrize("k", [48, 64])
    def test_few_counts_per_lanczos_step(self, k, monkeypatch):
        # the full-width bisection made about 47 Sturm counts a step at
        # these levels; one LDL^T pass is one count, and measured here:
        # 4.94 passes a step on average and at most 8 in any step of
        # k = 1..64 at tol 1e-12, 1e-6 and 1e-300 (at most 6 at 48, 64)
        steps = []

        def counted_apply(*args):
            steps.append(0)
            return _perron_apply(*args)

        def counted_pass(*args):
            steps[-1] += 1
            return _newton_step(*args)

        monkeypatch.setattr(anyondeg.spectral, "_perron_apply", counted_apply)
        monkeypatch.setattr(anyondeg.spectral, "_newton_step", counted_pass)
        lambda_perron(k)
        assert len(steps) > 10
        assert max(steps) <= 8


class TestRootFinding:
    def test_exact_root_at_one(self):
        p = IntPoly.from_terms({0: 1, 3: -1})
        assert smallest_positive_root(p) == 1.0

    def test_level_two_radical(self):
        rho = smallest_positive_root(system_det(2))
        assert 1.0 / rho == pytest.approx(GOLDEN_RATIO, abs=1e-9)
        assert rho ** 3 == pytest.approx(math.sqrt(5) - 2, abs=1e-9)

    def test_level_three_exact_half(self):
        det = system_det(3)
        assert det.sign_at(1, 2) == 0  # vanishes exactly at 1/2
        assert smallest_positive_root(det) == 0.5

    def test_no_root_error(self):
        with pytest.raises(NoRootError):
            smallest_positive_root(IntPoly.from_terms({0: 1, 2: 1}))

    def test_requires_positive_at_zero(self):
        with pytest.raises(ValueError):
            smallest_positive_root(IntPoly.from_terms({0: -1, 1: 1}))

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError):
            smallest_positive_root(IntPoly.from_terms({0: 1, 3: -1}), tol=tol)

    def test_bisection_stops_at_float_resolution(self, monkeypatch):
        # below float resolution the returned value cannot change, so a
        # tiny tol costs no more steps than the float needs
        calls = 0
        real = IntPoly.sign_at

        def counted(self, num, den):
            nonlocal calls
            calls += 1
            return real(self, num, den)

        monkeypatch.setattr(IntPoly, "sign_at", counted)
        rho = smallest_positive_root(IntPoly.from_terms({0: 1, 2: -2}),
                                     tol=1e-300)
        grid_scan = 1 + math.ceil(GRID / math.sqrt(2))  # p(0), then m/GRID
        assert calls <= grid_scan + 64
        assert abs(rho - 1 / math.sqrt(2)) <= math.ulp(1 / math.sqrt(2))

    def test_two_roots_in_one_grid_step(self):
        # 0.0997 and 0.1003 share the step (102/1024, 103/1024], so the
        # sign stays positive at every grid point below the root 1/2;
        # Descartes counts both below that bracket, which no root of
        # det(M_k) allows
        p = -(P({0: -997, 1: 10000}) * P({0: -1003, 1: 10000})
              * P({0: -1, 1: 2}))
        assert all(p.sign_at(m, GRID) > 0 for m in range(GRID // 2))
        with pytest.raises(ArithmeticError, match="below the scanned"):
            smallest_positive_root(p)

    def test_three_roots_in_one_grid_step(self):
        # the scan's sign change holds all three, and the bisection ends
        # above the first: Descartes counts it below the bracket
        roots = [P({0: -r, 1: 10000}) for r in (9971, 9973, 9975)]
        p = -(roots[0] * roots[1] * roots[2])
        with pytest.raises(ArithmeticError, match="below the scanned"):
            smallest_positive_root(p, tol=1e-14)

    @pytest.mark.parametrize("p", [
        system_det(2), system_det(5), system_det(9),
        P({0: 1, 2: -5, 4: 3}), P({0: 7, 6: -2, 12: -1})])
    def test_power_substitution_keeps_the_root(self, p):
        # p(t) = q(t^g) is solved in u = t^g; times 1 + t, which adds no
        # positive root, it has g = 1 and is solved in t.  The last p has
        # its root (2^(3/2) - 1)^(1/6) = 1.106 past 1, in t and in u:
        # NoRootError either way
        expanded = p * P({0: 1, 1: 1})
        got, want = (_outcome(smallest_positive_root, x, 1e-12)
                     for x in (p, expanded))
        if scanned_smallest_positive_root(p) > 1:
            assert got == want == NoRootError
        else:
            assert abs(got - want) <= 1e-12

    @pytest.mark.parametrize("p,root", [
        (P({0: 3, 2: -2}), 1.5 ** 0.5), (P({0: 2 ** 58, 100: -1}), 2 ** 0.58)])
    def test_roots_past_one_are_scanned_in_t(self, p, root, monkeypatch):
        # the root of det(M_k) is at most 1, so the scan stops at u = 1,
        # however large g is: a root past it, which the oracle's scan in
        # t finds, is NoRootError after p(0) and at most GRID signs
        assert abs(scanned_smallest_positive_root(p) - root) <= 1e-12
        calls = _sign_calls(monkeypatch)
        for q in (p, P({0: 1, 100: 1})):
            with pytest.raises(NoRootError, match=r"\(0, 1\]"):
                smallest_positive_root(q)
        assert len(calls) <= 2 * (1 + GRID)

    @pytest.mark.parametrize("p,root", [
        (system_det(1), 1.0), (system_det(3), 0.5),
        (P({0: 1, 3: -512}), 0.125), (P({0: 1, 3: -2 ** 30}), 2 ** -10)])
    def test_exact_zeros_return_the_exact_float(self, p, root):
        # the float cube root of 1/512 is 0.12500000000000003
        assert smallest_positive_root(p) == root

    @pytest.mark.parametrize("k", range(1, 31))
    def test_determinant_certificate_is_one_count(self, k, monkeypatch):
        # every root of D(s) has modulus at least rho_s, so the count
        # below the bracket is 0 and nothing raises.  One count is made:
        # 0 below the scan's bracket, or 1 on (0, top) of the grid step
        # the guess names, which bounds the count below the bracket from
        # above; that count is even, as no root lies there, so 0 too
        q = IntPoly(system_det(k).coeffs[::3])
        lo, _, den = _root_bracket(q, 3, 1e-12)
        assert _descartes(q.coeffs, lo, den) \
            == _descartes_count(q.coeffs, 0, lo, den) == 0
        counts = []

        def counted(*args):
            counts.append(_descartes(*args))
            return counts[-1]

        monkeypatch.setattr(anyondeg.spectral, "_descartes", counted)
        rho = smallest_positive_root(system_det(k))
        assert counts in ([0], [1])
        assert abs(1 / rho - lambda_trig(k)) < 1e-10

    def test_double_root_below_the_bracket_raises(self):
        # the scan steps over the double root 1/10 and stops at the zero
        # 1/2, below which Descartes counts 2
        p = P({0: -1, 1: 10}) * P({0: -1, 1: 10}) * P({0: 1, 1: -2})
        with pytest.raises(ArithmeticError, match="below the scanned"):
            smallest_positive_root(p)

    @pytest.mark.parametrize("roots,b,den,count", [
        ((1, 2, 3), 4, 1, 3),     # all three of 1/2, 1, 3/2
        ((1, 2, 3), 5, 4, 2),     # 1/2 and 1 in (0, 5/4)
        ((1, 2, 3), 1, 4, 0),     # below every root
        ((1, 2, 3), 7, 4, 3),     # all three in (0, 7/4)
        ((5, 5, 7), 3, 1, 2),     # the double root 5/2 counts twice
    ])
    def test_descartes_counts(self, roots, b, den, count):
        q = IntPoly.one()
        for r in roots:
            q = q * P({0: -r, 1: 2})  # root r/2
        assert _descartes(q.coeffs, b, den) \
            == _descartes_count(q.coeffs, 0, b, den) == count


# the root route's tolerances: the library default, root_rho's bracket
# at its default (2 tol / 9) and qdim's single-method default
ROOT_TOLS = (1e-12, 2e-12 / 9, 1e-6)
_SCANNED = {}


def _scanned(k: int, tol: float) -> float:
    """The plain scan's root of system_det(k) at tol, one of ROOT_TOLS,
    all three computed once, from one shared scan and bisection."""
    if k not in _SCANNED:
        _SCANNED[k] = dict(zip(ROOT_TOLS, scanned_smallest_positive_roots(
            system_det(k), ROOT_TOLS)))
    return _SCANNED[k][tol]


def _sign_calls(monkeypatch) -> list[tuple[int, int]]:
    """The (num, den) of every ``IntPoly.sign_at`` call from here on."""
    calls = []
    real = IntPoly.sign_at

    def counted(self, num, den):
        calls.append((num, den))
        return real(self, num, den)

    monkeypatch.setattr(IntPoly, "sign_at", counted)
    return calls


def _outcome(route, p: IntPoly, tol: float):
    """The float a root route returns, or the class of what it raises."""
    try:
        return route(p, tol)
    except ArithmeticError as exc:
        return type(exc)


@st.composite
def real_rooted(draw):
    """(p, tol): distinct linear factors a - b t, roots a/b in (0, 1.5],
    times up to two quadratics with no real root, all positive at 0,
    in t or in u = t^3."""
    roots = draw(st.lists(
        st.fractions(Fraction(1, 10 ** 4), Fraction(3, 2),
                     max_denominator=10 ** 4),
        min_size=1, max_size=5, unique=True))
    p = IntPoly.one()
    for r in roots:
        p = p * IntPoly((r.numerator, -r.denominator))
    for _ in range(draw(st.integers(0, 2))):
        c0, c2 = draw(st.integers(1, 50)), draw(st.integers(1, 50))
        c1 = draw(st.integers(-100, 100).filter(
            lambda c: c * c < 4 * c0 * c2))
        p = p * IntPoly((c0, c1, c2))
    g = draw(st.sampled_from([1, 3]))
    return p.substitute_power(g), draw(st.sampled_from(ROOT_TOLS + (1e-14,)))


def _three_close_roots(a: int, b: int, c: int) -> IntPoly:
    """-(10000 t - a)(10000 t - b)(10000 t - c), positive at 0."""
    return -(P({0: -a, 1: 10000}) * P({0: -b, 1: 10000})
             * P({0: -c, 1: 10000}))


# roots 0.0997 and 0.1003 in the grid step (102, 103] / 1024, and 1/2
TWO_IN_ONE_STEP = -(P({0: -997, 1: 10000}) * P({0: -1003, 1: 10000})
                    * P({0: -1, 1: 2}))


def _contract(p: IntPoly, tol: float):
    """What the root route returns on p, or the class of what it raises,
    by the oracles' general scan: NoRootError where the scan's first sign
    that is not positive lies past u = 1, ArithmeticError where Descartes
    counts roots of q below the bracket it bisects to (two real roots
    below it, or two complex ones near (0, lo)), else the scan's float."""
    try:
        q, g, (lo, hi, den) = _scanned_step(p)
    except NoRootError:
        return NoRootError
    if hi > den:
        return NoRootError
    *_, (lo, _, den) = _bisection(q, g, lo, hi, den, tol)
    if _descartes_count(q.coeffs, 0, lo, den):
        return ArithmeticError
    return scanned_smallest_positive_root(p, tol)


class TestGuessedRoot:
    """The root route's float guess against ``oracles.scanned_smallest_
    positive_root``, the plain scan and bisection it replaces: the same
    float from a few exact signs, or, outside the route's domain (a root
    past u = 1, or a root below the scanned bracket), its error."""

    @pytest.mark.parametrize("tol", ROOT_TOLS)
    @pytest.mark.parametrize("k", range(1, 65))
    def test_determinant_roots_are_the_scans(self, k, tol):
        assert smallest_positive_root(system_det(k), tol) == _scanned(k, tol)

    @settings(max_examples=200, deadline=None)
    @given(real_rooted())
    # two roots in one grid step, and three with the guess on the first,
    # where a leaf that holds the root is not the bisection's; a root
    # past u = 1; one real root, 1/2, with the complex pair 0.14 +- 0.02i
    # counted below it; three roots in one step, the bisection ending on
    # the first (the float); and 0.30001 and 0.3003 in one step below 1,
    # 1.2 past it (NoRootError, where the oracle finds 0.30001)
    @example((TWO_IN_ONE_STEP, 1e-12))
    @example((_three_close_roots(5001, 5003, 5005), 1e-6))
    @example((_three_close_roots(9971, 9973, 9975), 1e-14))
    @example((P({0: 3, 2: -2}), 1e-12))
    @example((P({0: 1, 1: -2}) * P({0: 1, 1: -14, 2: 50}), 1e-12))
    @example((P({0: 50001, 1: -100000}) * P({0: 5004, 1: -10000})
              * P({0: 10009, 1: -20000}), 1e-12))
    @example((P({0: 30001, 1: -100000}) * P({0: 3003, 1: -10000})
              * P({0: 6, 1: -5}), 1e-12))
    def test_real_rooted_polynomials(self, case):
        p, tol = case
        assert _outcome(smallest_positive_root, p, tol) == _contract(p, tol)

    @pytest.mark.parametrize("k", range(1, 12))
    def test_few_signs_at_small_levels(self, k, monkeypatch):
        # p(0), the grid step's two ends and the leaf's, where the scan
        # and bisection took 80 to 1025
        expected = _scanned(k, 1e-12)
        calls = _sign_calls(monkeypatch)
        assert smallest_positive_root(system_det(k)) == expected
        assert len(calls) <= 5

    @pytest.mark.parametrize("p", [system_det(33), TWO_IN_ONE_STEP])
    def test_rejected_guesses_scan(self, p, monkeypatch):
        # at k = 33 the float guess misses D's root (its coefficients
        # cancel in floats): the scan runs and the float is its own; the
        # guess 0.0997 names a step whose top is positive, and the scan
        # stops at the zero 1/2 with both roots below it: ArithmeticError
        expected = _contract(p, 1e-12)
        calls = _sign_calls(monkeypatch)
        assert _outcome(smallest_positive_root, p, 1e-12) == expected
        assert len(calls) > 2 * 5

    def test_three_roots_in_the_guessed_step(self, monkeypatch):
        # 0.5001, 0.5003 and 0.5005 lie in the step (512, 513] / 1024,
        # whose ends have opposite signs, and the guess's leaf holds
        # 0.5001, but the bisection turns right at the step's middle,
        # 0.50049, and ends at 0.5005: Descartes counts 3 roots below the
        # step's top, which turns the guess down, and 2 below the scan's
        # bracket, which raises
        p = _three_close_roots(5001, 5003, 5005)
        counts = []

        def counted(*args):
            counts.append(_descartes(*args))
            return counts[-1]

        monkeypatch.setattr(anyondeg.spectral, "_descartes", counted)
        with pytest.raises(ArithmeticError, match="below the scanned"):
            smallest_positive_root(p, 1e-6)
        assert counts == [3, 2]


class TestSharedScan:
    """``oracles.scanned_smallest_positive_roots``, one scan, bisection
    and Descartes count for every tol, against the plain scan per tol:
    the same floats, or the first tol's failure."""

    @staticmethod
    def _check(p, tols):
        plain = [_outcome(scanned_smallest_positive_root, p, tol)
                 for tol in tols]
        failed = [x for x in plain if isinstance(x, type)]
        assert _outcome(scanned_smallest_positive_roots, p, tols) \
            == (failed[0] if failed else plain)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_determinants(self, k):
        self._check(system_det(k), ROOT_TOLS)

    @settings(max_examples=200, deadline=None)
    @given(real_rooted())
    # two roots in one grid step, below the bracket: the plain route runs
    @example((TWO_IN_ONE_STEP, 1e-12))
    @example((_three_close_roots(9971, 9973, 9975), 1e-14))
    def test_real_rooted_polynomials(self, case):
        self._check(case[0], ROOT_TOLS + (1e-14,))


def _descartes_calls(p: IntPoly, tol: float) -> list[tuple]:
    """The arguments of every ``_descartes`` call that
    ``smallest_positive_root(p, tol)`` makes, the grid intervals (0, 1],
    (0, 1/2], (0, 1/4] and (0, 3/2] of p after them."""
    calls = [(p.coeffs, b, GRID) for b in (
        GRID, GRID // 2, GRID // 4, 3 * GRID // 2)]

    def recorded(*args):
        calls.append(args)
        return _descartes(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anyondeg.spectral, "_descartes", recorded)
        _outcome(smallest_positive_root, p, tol)
    return calls


class TestDescartesCount:
    """``_descartes`` on (0, b), whose Taylor shift by 1 adds, against the
    oracles' ``_descartes_count`` on (0, b): every count the root route
    takes, and four grid intervals."""

    @pytest.mark.parametrize("k", range(1, 21))
    def test_determinants(self, k):
        calls = _descartes_calls(system_det(k), 1e-12)
        assert [_descartes(*args) for args in calls] \
            == [_descartes_count(q, 0, b, den) for q, b, den in calls]

    @settings(max_examples=100, deadline=None)
    @given(real_rooted())
    def test_real_rooted_polynomials(self, case):
        calls = _descartes_calls(*case)
        assert [_descartes(*args) for args in calls] \
            == [_descartes_count(q, 0, b, den) for q, b, den in calls]


class TestRootOnTheTrivialFactor:
    """``root_rho`` isolates the root on the trivial weight's Galois-orbit
    factor alone, and certifies every other factor below the bracket."""

    @pytest.mark.parametrize("k", range(1, 65))
    def test_the_determinants_root(self, k):
        # bit for bit the scan's on the whole determinant, and the route's
        # own on the first factor at t^3
        rho = root_rho(k)
        trivial = _orbit_factors(k)[2][0][0]
        assert rho == _scanned(k, 2e-12 / 9)
        assert rho == smallest_positive_root(trivial.substitute_power(3),
                                             2e-12 / 9)

    @pytest.mark.parametrize("reorder", [
        lambda factors: factors[1:] + factors[:1],
        lambda factors: factors[1:]])
    def test_first_factor_not_the_trivial_weights_raises(
            self, reorder, monkeypatch):
        # k = 7 has four factors; F_O0 moved last, or missing
        p, powers, factors = _orbit_factors(7)
        assert len(factors) > 1
        monkeypatch.setattr(anyondeg.spectral, "_orbit_factors",
                            lambda k: (p, powers, reorder(factors)))
        with pytest.raises(ArithmeticError, match="trivial weight"):
            root_rho(7)

    def test_factor_with_a_root_below_raises(self, monkeypatch):
        # 1 - 10 s has its root 0.1 below rho^3 = 0.236 at k = 2
        p, powers, factors = _orbit_factors(2)
        low = (IntPoly((1, -10)), (9, 5, 0))
        monkeypatch.setattr(anyondeg.spectral, "_orbit_factors",
                            lambda k: (p, powers, factors + [low]))
        with pytest.raises(ArithmeticError, match="below"):
            root_rho(2)

    @pytest.mark.parametrize("tol", [1e308, 1.7976931348623157e308,
                                     5e-324, 1e-300])
    def test_every_positive_finite_tol_is_taken(self, tol):
        # 2 tol / 9 overflows above 8.99e307 and vanishes below 2e-323;
        # below float resolution the value is the same
        rho = root_rho(2, tol)
        assert abs(1 / rho - lambda_trig(2)) < 1e-2
        if tol < 1e-299:
            assert rho == root_rho(2, 1e-300)

    @pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
    def test_rejects_non_positive_tol(self, tol):
        with pytest.raises(ValueError):
            root_rho(2, tol)


def _scaled_root_excess(k):
    """(rho - 1/3)(k + 3)^2 for the smallest positive root rho of D."""
    return (smallest_positive_root(system_det(k)) - 1 / 3) * (k + 3) ** 2


class TestReport:
    def test_level_one(self):
        rep = spectral_report(1)
        for value in (rep.lambda_trig, rep.lambda_perron,
                      rep.lambda_from_root):
            assert value == pytest.approx(1.0, abs=1e-9)

    def test_level_three(self):
        rep = spectral_report(3)
        for value in (rep.lambda_trig, rep.lambda_perron,
                      rep.lambda_from_root):
            assert value == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_three_way_agreement(self, k):
        assert spectral_report(k).agreement_gap < 1e-6

    @pytest.mark.parametrize("k", [48, 56, 64])
    def test_three_way_agreement_at_the_perron_levels(self, k):
        # the benchmark's Perron levels, up to the det cap
        assert spectral_report(k).agreement_gap < 1e-6

    @pytest.mark.parametrize("k", range(1, 31))
    def test_root_scaling_band(self, k):
        # rho = 1/lambda_k with lambda_k = 1 + 2 cos x, x = 2 pi/(k + 3),
        # so f(k) = (rho - 1/3)(k + 3)^2 = 4 pi^2/9 (1 + pi^2/(k + 3)^2
        # + ...) falls strictly towards 4 pi^2/9; the scaled excess
        # (k + 3)^2 (f/(4 pi^2/9) - 1) reads 22.91 at k = 1, 9.95 at 30
        limit = 4 * math.pi ** 2 / 9
        f = _scaled_root_excess(k)
        assert limit < f <= limit * (1 + 23 / (k + 3) ** 2)
        if k > 1:
            assert f < _scaled_root_excess(k - 1)

    def test_asdict_keys_in_field_order(self):
        rep = spectral_report(2)
        d = rep._asdict()
        assert list(d) == list(REPORT_FIELDS)
        assert d["k"] == 2
        assert tuple(d.values()) == tuple(rep)

    def test_fields_cannot_be_assigned(self):
        rep = spectral_report(2)
        for name in REPORT_FIELDS:
            with pytest.raises(AttributeError):
                setattr(rep, name, 0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_record_repr_eq_and_hash(self, k):
        # repr names every field in order; == and hash are the fields'
        # tuple
        rep = spectral_report(k)
        fields = ", ".join(f"{name}={getattr(rep, name)!r}"
                           for name in REPORT_FIELDS)
        assert repr(rep) == f"SpectralReport({fields})"
        values = tuple(getattr(rep, name) for name in REPORT_FIELDS)
        assert rep == SpectralReport(*values) \
            == SpectralReport(**dict(zip(REPORT_FIELDS, values)))
        assert hash(rep) == hash(values)


class TestGrowthRate:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_empirical_growth_approaches_lambda(self, k):
        lam = lambda_trig(k)
        err300 = abs(growth_rate_estimate(k, 300) - lam) / lam
        err600 = abs(growth_rate_estimate(k, 600) - lam) / lam
        assert err600 < err300
        assert err600 < 0.02

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_fewer_than_three_steps(self, n):
        with pytest.raises(ValueError):
            growth_rate_estimate(2, n)
