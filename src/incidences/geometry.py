"""Exact rational points, lines, and the predicates everything else rests on.

All coordinates are exact rationals (Python ``int`` or ``fractions.Fraction``),
all line coefficients are canonical integers, and every predicate decides with
integer/rational arithmetic.  There are no epsilon tolerances anywhere: a point
is on a line or it is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rational = Union[int, Fraction]


class CoincidentPointsError(ValueError):
    """Two points expected to be distinct were equal."""


class IdenticalLinesError(ValueError):
    """Two lines expected to be distinct were the same canonical line."""


def as_rational(value) -> Rational:
    """Coerce to an exact rational (int, Fraction, or exact string form).

    Floats are rejected: binary floating point has no place in exact
    predicates, even as input.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a coordinate")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, str):
        return as_rational(Fraction(value))
    raise TypeError(f"exact rational required, got {type(value).__name__!r}")


@dataclass(frozen=True)
class Point:
    """Immutable exact point.  Hashable, usable as a dict key."""

    x: Rational
    y: Rational

    def __post_init__(self):
        object.__setattr__(self, "x", as_rational(self.x))
        object.__setattr__(self, "y", as_rational(self.y))


@dataclass(frozen=True)
class Line:
    """The line a*x + b*y + c = 0 in canonical integer form.

    Canonical means (a, b) != (0, 0), gcd(|a|, |b|, |c|) == 1 and the first
    nonzero of (a, b) is positive, so each geometric line has exactly one
    representation and lines can be used as lookup keys.

    The raw constructor validates; use :meth:`from_coefficients` to build a
    line from arbitrary (possibly rational, non-reduced) coefficients.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        for coeff in (self.a, self.b, self.c):
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise ValueError("line coefficients must be ints; "
                                 "use Line.from_coefficients to canonicalize")
        if self.a == 0 and self.b == 0:
            raise ValueError("(a, b) == (0, 0) does not define a line")
        if gcd(gcd(abs(self.a), abs(self.b)), abs(self.c)) != 1:
            raise ValueError(f"coefficients {(self.a, self.b, self.c)} not reduced")
        if self.a < 0 or (self.a == 0 and self.b < 0):
            raise ValueError(f"coefficients {(self.a, self.b, self.c)} not sign-canonical")

    @classmethod
    def from_coefficients(cls, a, b, c) -> "Line":
        """Canonicalize arbitrary rational coefficients of a*x + b*y + c = 0."""
        ia, ib, ic = as_rational(a), as_rational(b), as_rational(c)
        if not (type(ia) is int and type(ib) is int and type(ic) is int):
            fa, fb, fc = Fraction(ia), Fraction(ib), Fraction(ic)
            mult = lcm(fa.denominator, fb.denominator, fc.denominator)
            ia, ib, ic = int(fa * mult), int(fb * mult), int(fc * mult)
        if ia == 0 and ib == 0:
            raise ValueError("(a, b) == (0, 0) does not define a line")
        g = gcd(gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        if ia < 0 or (ia == 0 and ib < 0):
            ia, ib, ic = -ia, -ib, -ic
        return cls(ia, ib, ic)

    @classmethod
    def from_slope_intercept(cls, m, b) -> "Line":
        """The line y = m*x + b, i.e. m*x - y + b = 0."""
        return cls.from_coefficients(m, -1, b)

    @property
    def is_vertical(self) -> bool:
        return self.b == 0


def incident(p: Point, l: Line) -> bool:
    """True iff p lies exactly on l."""
    return l.a * p.x + l.b * p.y + l.c == 0


def collinear(p1: Point, p2: Point, p3: Point) -> bool:
    """True iff the three points lie on a common line.

    Decided by the exact 3x3 homogeneous determinant; triples containing
    duplicate points are reported collinear.
    """
    return (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x) == 0


def concurrent(l1: Line, l2: Line, l3: Line) -> bool:
    """True iff some projective point lies on all three lines.

    For canonical lines this is exactly the vanishing of the 3x3 coefficient
    determinant.  Three mutually parallel lines share a point at infinity and
    therefore count as concurrent; this projective convention is what the
    degeneracy filters rely on (a parallel pencil bounds no triangle).
    """
    det = (l1.a * (l2.b * l3.c - l2.c * l3.b)
           - l1.b * (l2.a * l3.c - l2.c * l3.a)
           + l1.c * (l2.a * l3.b - l2.b * l3.a))
    return det == 0


def intersection(l1: Line, l2: Line) -> Point | None:
    """The unique affine intersection point of two distinct lines.

    Returns None when the lines are parallel (distinct but no affine
    intersection).  Raises IdenticalLinesError when l1 == l2.
    """
    if l1 == l2:
        raise IdenticalLinesError(f"lines are identical: {l1}")
    den = l1.a * l2.b - l2.a * l1.b
    if den == 0:
        return None
    x = Fraction(l1.b * l2.c - l2.b * l1.c, den)
    y = Fraction(l2.a * l1.c - l1.a * l2.c, den)
    return Point(x, y)


def line_through(p1: Point, p2: Point) -> Line:
    """The canonical line through two distinct points."""
    if p1 == p2:
        raise CoincidentPointsError(f"points coincide: {p1}")
    # Cross product of the homogeneous coordinates (x, y, 1).
    return Line.from_coefficients(p1.y - p2.y, p2.x - p1.x, p1.x * p2.y - p2.x * p1.y)


def strictly_between(endpoint_a: Point, endpoint_b: Point, candidate: Point) -> bool:
    """True iff candidate lies strictly inside the open segment (a, b)."""
    if not collinear(endpoint_a, endpoint_b, candidate):
        return False
    if endpoint_a.x != endpoint_b.x:
        lo, hi = min(endpoint_a.x, endpoint_b.x), max(endpoint_a.x, endpoint_b.x)
        return lo < candidate.x < hi
    lo, hi = min(endpoint_a.y, endpoint_b.y), max(endpoint_a.y, endpoint_b.y)
    return lo < candidate.y < hi
