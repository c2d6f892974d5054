"""Exact univariate polynomial and rational-function arithmetic.

Polynomials live in Z[t] with dense coefficient storage and Python's
arbitrary-precision integers.  A rational function holds the pair its
caller gives, in lowest terms, with the denominator's sign normalized
to a positive constant term; no polynomial gcd runs here.  Its Taylor
series comes from the denominator's recurrence, run in s = t^m on the
residue classes mod m that the numerator touches.  No floating point
anywhere in this module.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterator
from itertools import count, islice
from math import gcd
from operator import index


class IntPoly:
    """Dense polynomial over Z in the variable t, canonical form.

    ``coeffs[e]`` is the coefficient of ``t^e``; trailing zeros are
    stripped so equal polynomials compare equal.  The zero polynomial
    has an empty coefficient tuple and degree -1 (sentinel).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(map(index, coeffs))
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        """coeff * t^power; ValueError on a negative power."""
        if power < 0:
            raise ValueError(f"negative power {power}")
        if coeff == 0:
            return cls()
        return cls((0,) * power + (coeff,))

    @classmethod
    def from_terms(cls, terms) -> "IntPoly":
        """Build from an iterable of (power, coeff) pairs or a dict;
        ValueError on a negative power."""
        if isinstance(terms, dict):
            terms = terms.items()
        terms = list(terms)
        if not terms:
            return cls()
        if min(p for p, _ in terms) < 0:
            raise ValueError(f"negative power in {terms}")
        size = max(p for p, _ in terms) + 1
        cs = [0] * size
        for p, c in terms:
            cs[p] += c
        return cls(cs)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, power: int) -> int:
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def leading(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    # -- ring arithmetic ----------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return IntPoly(out)

    def substitute_power(self, m: int, shift: int = 0) -> "IntPoly":
        """t^shift * p(t^m) for m >= 1."""
        if not self.coeffs:
            return IntPoly()
        out = [0] * (shift + m * self.degree + 1)
        out[shift::m] = self.coeffs
        return IntPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({poly_to_text(self)!r})"

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, float inputs."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, num: int, den: int) -> int:
        """Exact sign of p(num/den) for den > 0, using integers only:
        Horner's rule on den^d p(num/den), every product by a factor no
        bigger than num, den or a coefficient."""
        if den <= 0:
            raise ValueError("den must be positive")
        total, scale = 0, 1
        for c in reversed(self.coeffs):
            total = total * num + c * scale
            scale *= den
        return (total > 0) - (total < 0)

    # -- exact division -----------------------------------------------

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Exact quotient self / divisor in Z[t]; raises if not exact."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return IntPoly()
        dn, dd = self.degree, divisor.degree
        if dn < dd:
            raise ValueError("division is not exact")
        rem = list(self.coeffs)
        lead = divisor.leading()
        q = [0] * (dn - dd + 1)
        for i in range(dn - dd, -1, -1):
            c = rem[i + dd]
            if c % lead:
                raise ValueError("division is not exact")
            qi = c // lead
            q[i] = qi
            if qi:
                for j, dc in enumerate(divisor.coeffs):
                    rem[i + j] -= qi * dc
        if any(rem):
            raise ValueError("division is not exact")
        return IntPoly(q)


class RationalFn:
    """Quotient num / den of two integer polynomials, as given.

    The caller passes the pair in lowest terms: coprime in Q[t] with no
    common integer content (``genfunc.solve_system`` reduces by the
    determinant's factors).  The constructor only normalizes the sign,
    to a positive constant term of den (a positive leading coefficient
    when it vanishes at 0), and writes a zero function as 0 / 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: IntPoly, den: IntPoly = IntPoly((1,))):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            num, den = IntPoly(), IntPoly.one()
        anchor = den[0] if den[0] != 0 else den.leading()
        if anchor < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFn)
                and self.num == other.num and self.den == other.den)

    def __repr__(self) -> str:
        return f"RationalFn({poly_to_text(self.num)!r}, {poly_to_text(self.den)!r})"

    def series(self) -> Iterator[int]:
        """The Taylor coefficients c_0, c_1, ... at t = 0, exact, without end.

        Uses the linear recurrence induced by the denominator,
        c_n = num_n - sum_{j>=1} den_j * c_{n-j}.  Every library
        denominator is a product of Galois-orbit factors in s = t^3, each
        with constant term 1, so den(0) must be 1 (ValueError otherwise)
        and every c_n is an int.  den lies in Z[t^m], m the gcd of its
        exponents, so the recurrence links only the c_n of one residue
        class of n mod m: it runs on each class that num has a term in,
        keeping that class's deg(den) / m latest coefficients, and every
        other class is 0, yielded with no arithmetic.
        """
        if self.den[0] != 1:
            raise ValueError(f"series needs den(0) = 1, got {self.den[0]}")
        den = self.den.coeffs
        m = gcd(*(e for e, d in enumerate(den) if d and e)) or 1
        terms = [(-j, d) for j, d in enumerate(den[::m]) if j and d]
        size = self.den.degree // m
        # per class, its c_{n - size m} .. c_{n - m}; those before c_0 are 0
        recent = {e % m: deque([0] * size, maxlen=size)
                  for e, c in enumerate(self.num.coeffs) if c}
        for n in count():
            cls = recent.get(n % m)
            if cls is None:
                yield 0
                continue
            c = self.num[n] - sum(d * cls[j] for j, d in terms)
            cls.append(c)
            yield c

    def series_coeffs(self, n_max: int) -> list[int]:
        """The first n_max + 1 coefficients of ``series``."""
        return list(islice(self.series(), n_max + 1))


# -- text / JSON serialization ----------------------------------------

def poly_to_text(p: IntPoly) -> str:
    """Bit-exact ASCII form, increasing powers: ``1 - 4*t^3 - 1*t^6``."""
    if not p:
        return "0"
    parts = []
    for e, c in enumerate(p.coeffs):
        if c == 0:
            continue
        body = str(abs(c)) if e == 0 else f"{abs(c)}*t^{e}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


# a pattern string, not a compiled pattern: re compiles and caches it on
# the first parse, so importing the CLI, which parses no polynomial, does not
_TERM = r"(?P<coeff>\d+)(?:\*t\^(?P<power>\d+))?"


def poly_from_text(s: str) -> IntPoly:
    """Inverse of poly_to_text: ValueError on any string, surrounding
    whitespace aside, that poly_to_text does not print."""
    s = s.strip()
    tokens = s.replace("+ ", "+").replace("- ", "-").split()
    terms = []
    for tok in tokens:
        sign = 1
        if tok[0] in "+-":
            sign = -1 if tok[0] == "-" else 1
            tok = tok[1:]
        m = re.fullmatch(_TERM, tok)
        if not m:
            raise ValueError(f"bad polynomial term: {tok!r}")
        power = int(m.group("power") or 0)
        terms.append((power, sign * int(m.group("coeff"))))
    p = IntPoly.from_terms(terms)
    if poly_to_text(p) != s:
        raise ValueError(f"not in poly_to_text form: {s!r}")
    return p


def poly_to_json(p: IntPoly) -> dict:
    """JSON form with decimal-string coefficients (64-bit-safe consumers)."""
    return {"coeffs": [str(c) for c in p.coeffs]}
