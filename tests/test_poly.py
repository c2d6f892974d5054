import re
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from anyondeg.genfunc import solve_system
from anyondeg.poly import (
    _TERM, IntPoly, RationalFn, poly_from_text, poly_to_json, poly_to_text,
)

from oracles import plain_series, poly_gcd, reduced


# _TERM anchored at both ends: a full match must take the same tokens
ANCHORED_TERM = re.compile(r"^(?P<coeff>\d+)(?:\*t\^(?P<power>\d+))?$")


def P(*coeffs):
    return IntPoly(coeffs)


def fraction_series(fn, n_max):
    """The Taylor recurrence run wholly in Fraction arithmetic."""
    coeffs = []
    for n in range(n_max + 1):
        acc = Fraction(fn.num[n])
        for m in range(1, min(n, fn.den.degree) + 1):
            acc -= fn.den[m] * coeffs[n - m]
        coeffs.append(acc / fn.den[0])
    return coeffs


small_polys = st.builds(IntPoly, st.lists(st.integers(-9, 9), max_size=6))
nonzero_polys = small_polys.filter(bool)
# constant term +1 or -1, the only ones series accepts up to sign
unit_polys = st.builds(lambda c, tail: IntPoly([c] + tail),
                       st.sampled_from((1, -1)),
                       st.lists(st.integers(-9, 9), max_size=5))


class TestArithmetic:
    def test_add(self):
        assert P(1, 0, 0, -1) + P(0, 0, 0, 1) == P(1)

    def test_mul(self):
        assert P(1, 0, 0, -1) * P(1, 0, 0, 1) == P(1, 0, 0, 0, 0, 0, -1)

    @pytest.mark.parametrize("op", [
        lambda p: p * 3, lambda p: 3 * p, lambda p: p + 1,
    ], ids=["p*3", "3*p", "p+1"])
    def test_int_operand_rejected(self, op):
        # ring operations take IntPoly operands only; scale by IntPoly((c,))
        with pytest.raises(TypeError):
            op(P(1, 2))

    def test_mul_identity(self):
        assert P(1, 0, 0, -3) * IntPoly.one() == P(1, 0, 0, -3)

    def test_zero_degree_sentinel(self):
        assert IntPoly().degree == -1
        assert P(7).degree == 0
        assert not IntPoly((0, 0))

    def test_canonical_trailing_zeros(self):
        assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))

    @pytest.mark.parametrize("coeffs", [
        [0.5], [1.9, 2], [2.0], ['7'], [Fraction(3)], [1, Fraction(1, 2)],
        iter([3, 2.0]), (c for c in (1, 0, 0.0)),
    ])
    def test_non_integer_coefficients_rejected(self, coeffs):
        # coefficients are coerced by operator.index, mapped over any
        # iterable, a one-shot one too: nothing truncates, and a bad
        # coefficient past the last nonzero one is not dropped unread
        with pytest.raises(TypeError):
            IntPoly(coeffs)

    @pytest.mark.parametrize("coeffs,expected", [
        ([True, False, 2], (1, 0, 2)),
        ([np.int64(-3), np.int8(4)], (-3, 4)),
        ([2 ** 200, 0], (2 ** 200,)),
    ])
    def test_integer_coefficients_accepted(self, coeffs, expected):
        got = IntPoly(coeffs).coeffs
        assert got == expected and all(type(c) is int for c in got)

    def test_negative_power_rejected(self):
        # a negative power would index the coefficients from the top
        assert IntPoly.from_terms([(2, 1), (0, 5), (2, 3)]) == P(5, 0, 4)
        assert IntPoly.monomial(-1, 2) == P(0, 0, -1)
        for build in (lambda: IntPoly.from_terms([(2, 1), (-1, 5)]),
                      lambda: IntPoly.from_terms({-1: 0}),
                      lambda: IntPoly.monomial(5, -1),
                      lambda: IntPoly.monomial(0, -1)):
            with pytest.raises(ValueError, match="negative power"):
                build()

    @given(small_polys, small_polys, small_polys)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(small_polys, nonzero_polys)
    def test_exact_div_inverts_mul(self, a, b):
        assert (a * b).exact_div(b) == a

    def test_exact_div_rejects_inexact(self):
        with pytest.raises(ValueError):
            P(1, 1).exact_div(P(0, 1))

    @given(small_polys, st.integers(-50, 50), st.integers(1, 50))
    def test_sign_at_matches_fraction_value(self, p, num, den):
        value = p(Fraction(num, den))
        assert p.sign_at(num, den) == (value > 0) - (value < 0)

    def test_sign_at_rejects_non_positive_den(self):
        with pytest.raises(ValueError):
            P(1, 1).sign_at(1, 0)


class TestGcd:
    # the PRS gcd is the test oracle for lowest terms
    def test_cyclotomic_like(self):
        assert poly_gcd(P(1, 0, 0, 0, 0, 0, -1), P(1, 0, 0, -1)) \
            == P(-1, 0, 0, 1)

    def test_monomials(self):
        assert poly_gcd(P(0, 0, 1), P(0, 0, 0, 1)) == P(0, 0, 1)

    def test_coprime_pair(self):
        # denominators of the level-2 system stay in lowest terms
        assert poly_gcd(P(1, 0, 0, -3), P(1, 0, 0, -4, 0, 0, -1)) == P(1)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(IntPoly(), IntPoly())

    @given(small_polys, nonzero_polys)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert g.leading() > 0
        for p in (a, b):
            if p:
                scaled = p * P(g.leading() ** (p.degree + 1))
                assert scaled.exact_div(g) * g == scaled


def test_gcd_sign_is_normalized():
    assert poly_gcd(P(1, 0, 0, -1), P(-1, 0, 0, 1)) == P(-1, 0, 0, 1)


class TestRationalFn:
    def test_reduction(self):
        # the oracle reduces; RationalFn keeps the pair it is given
        f = reduced(P(0, 0, 2, 0, 0, -2), P(2, 0, 0, -2))
        assert f == RationalFn(P(0, 0, 1), IntPoly.one())
        assert RationalFn(P(0, 2), P(2)).num == P(0, 2)

    def test_den_constant_term_positive(self):
        f = RationalFn(P(0, 1), P(-1, 0, 0, 1))
        assert f.den[0] > 0

    def test_zero_denominator_rejected(self):
        for build in (RationalFn, reduced):
            with pytest.raises(ZeroDivisionError):
                build(P(1), IntPoly())

    @given(small_polys, nonzero_polys, nonzero_polys)
    def test_common_factor_invariance(self, num, den, g):
        assert reduced(num * g, den * g) == reduced(num, den)

    @given(small_polys, unit_polys, unit_polys)
    def test_series_unchanged_by_scaling(self, num, den, g):
        base = reduced(num, den).series_coeffs(8)
        scaled = RationalFn(num * g, den * g).series_coeffs(8)
        assert base == scaled

    @given(small_polys, nonzero_polys.filter(lambda p: p[0] != 0),
           st.integers(1, 4), st.integers(0, 3))
    def test_substitute_power_stays_reduced(self, num, den, m, shift):
        # t^shift * f(t^m) needs no second gcd: it equals the pair
        # substituted first and reduced afterwards
        fn = reduced(num, den)
        got = RationalFn(fn.num.substitute_power(m, shift),
                         fn.den.substitute_power(m))
        assert got == reduced(num.substitute_power(m, shift),
                              den.substitute_power(m))

    def test_substitute_power_values(self):
        assert P(1, -2, 3).substitute_power(3, 2) == P(0, 0, 1, 0, 0, -2, 0, 0, 3)
        assert IntPoly().substitute_power(3, 1) == IntPoly()


class TestSeries:
    def test_simple_period_three(self):
        f = RationalFn(P(1), P(1, 0, 0, -1))
        assert f.series_coeffs(9) == [1, 0, 0, 1, 0, 0, 1, 0, 0, 1]

    def test_level_two_origin_series(self):
        f = RationalFn(P(1, 0, 0, -3), P(1, 0, 0, -4, 0, 0, -1))
        coeffs = f.series_coeffs(18)
        assert [coeffs[n] for n in range(0, 19, 3)] \
            == [1, 1, 5, 21, 89, 377, 1597]
        assert all(coeffs[n] == 0 for n in range(19) if n % 3)

    def test_shifted_series(self):
        f = RationalFn(P(0, 0, 1), P(1, 0, 0, -1))
        assert f.series_coeffs(5) == [0, 0, 1, 0, 0, 1]

    def test_non_unit_constant_term_rejected(self):
        # every library denominator has constant term 1
        with pytest.raises(ValueError, match=r"den\(0\) = 1, got 2"):
            RationalFn(P(1), P(2, 1)).series_coeffs(2)

    @given(nonzero_polys, nonzero_polys.filter(lambda p: abs(p[0]) > 1))
    def test_other_constant_terms_rejected(self, num, den):
        # den(0) is made positive, so |den(0)| > 1 leaves it above 1;
        # num is nonzero because a zero function is written 0 / 1
        with pytest.raises(ValueError, match=r"needs den\(0\) = 1"):
            RationalFn(num, den).series_coeffs(12)

    def test_series_runs_past_any_bound(self):
        f = RationalFn(P(1, 0, 0, -3), P(1, 0, 0, -4, 0, 0, -1))
        coeffs = list(islice(f.series(), 40))
        assert coeffs == f.series_coeffs(39)
        assert coeffs[39] == 4 * coeffs[36] + coeffs[33]

    def test_singular_at_origin_rejected(self):
        with pytest.raises(ValueError):
            RationalFn(P(1), P(0, 1)).series_coeffs(3)

    @given(small_polys, small_polys)
    def test_unit_constant_term_runs_on_ints(self, num, tail):
        fn = RationalFn(num, IntPoly.one() + tail * IntPoly.monomial(1, 1))
        coeffs = fn.series_coeffs(12)
        assert all(type(c) is int for c in coeffs)
        assert coeffs == fraction_series(fn, 12)


@st.composite
def classed_functions(draw):
    """(num, den, m): den = 1 + (a polynomial in s) at s = t^m, m in 1, 2,
    3, 6, and num with terms in one to three residue classes mod m."""
    m = draw(st.sampled_from([1, 2, 3, 6]))
    tail = draw(st.lists(st.integers(-9, 9), max_size=6))
    den = (IntPoly.one() + IntPoly(tail) * IntPoly.monomial(1, 1)) \
        .substitute_power(m)
    classes = draw(st.lists(st.integers(0, m - 1), min_size=1,
                            max_size=min(m, 3), unique=True))
    num = IntPoly.from_terms(
        (r + m * e, draw(st.integers(-9, 9).filter(bool)))
        for r in classes for e in draw(st.lists(
            st.integers(0, 5), min_size=1, max_size=3, unique=True)))
    return num, den, m


class TestClassedSeries:
    """``series`` on each residue class mod m that num touches, against
    the plain recurrence in t (``oracles.plain_series``)."""

    @given(classed_functions())
    def test_matches_the_plain_recurrence(self, case):
        num, den, m = case
        fn = RationalFn(num, den)
        coeffs = fn.series_coeffs(60)
        assert coeffs == plain_series(fn, 60)
        touched = {e % m for e, c in enumerate(num.coeffs) if c}
        assert all(c == 0 for n, c in enumerate(coeffs)
                   if n % m not in touched)

    @pytest.mark.parametrize("k", [1, 2, 6, 9])
    def test_library_functions(self, k):
        # every class-g function is t^g N(t^3) / D(t^3): one class mod 3
        for fn in solve_system(k).values():
            assert fn.series_coeffs(90) == plain_series(fn, 90)

    def test_constant_denominator(self):
        # no term of den past den(0): the series is num itself
        fn = RationalFn(P(3, 0, -2), P(1))
        assert fn.series_coeffs(5) == [3, 0, -2, 0, 0, 0]


class TestSerialization:
    def test_text_format(self):
        assert poly_to_text(P(1, 0, 0, -4, 0, 0, -1)) == "1 - 4*t^3 - 1*t^6"
        assert poly_to_text(IntPoly()) == "0"
        assert poly_to_text(P(-2, 1)) == "-2 + 1*t^1"

    @given(small_polys)
    def test_text_round_trip(self, p):
        assert poly_from_text(poly_to_text(p)) == p

    @pytest.mark.parametrize("text", [
        "", "1 2", "1*t^0", "0*t^3", "1 + 0", "-0", "+1", "01", "1 +2*t^1",
        "1*t^2 + 1", "1*t^1 + 1*t^1", "t^2",
    ])
    def test_text_rejects_what_is_never_printed(self, text):
        with pytest.raises(ValueError):
            poly_from_text(text)

    @given(st.text("0123456789*t^+-", max_size=10))
    @example("12*t^3")
    @example("7")
    def test_term_pattern_parses_as_the_anchored_match(self, tok):
        # poly_from_text's tokens hold no whitespace, where ^...$ and a
        # full match could differ (a trailing newline)
        m, anchored = re.fullmatch(_TERM, tok), ANCHORED_TERM.match(tok)
        assert (m and m.groupdict()) == (anchored and anchored.groupdict())

    def test_text_ignores_surrounding_whitespace(self):
        assert poly_from_text("  1 - 4*t^3\n") == P(1, 0, 0, -4)

    def test_json_decimal_strings(self):
        obj = poly_to_json(P(1, 0, 0, -4, 0, 0, -1))
        assert obj == {"coeffs": ["1", "0", "0", "-4", "0", "0", "-1"]}
