"""Exact predicate kernel: canonical forms, known values, algebraic laws."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from conftest import IntSubclass
from hypothesis import given, settings
from hypothesis import strategies as st

from incidences import (CoincidentPointsError, IdenticalLinesError, Line, Point,
                        as_rational, collinear, concurrent, incident,
                        intersection, line_through, strictly_between)

rationals = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
points = st.builds(Point, rationals, rationals)


class TestCanonicalForms:
    def test_line_reduces_and_fixes_sign(self):
        assert Line.from_coefficients(2, -2, 4) == Line(1, -1, 2)
        assert Line.from_coefficients(-1, 1, 0) == Line(1, -1, 0)
        assert Line.from_coefficients(0, -3, 6) == Line(0, 1, -2)

    def test_line_clears_denominators(self):
        assert Line.from_coefficients(Fraction(1, 2), 0, 1) == Line(1, 0, 2)
        assert Line.from_coefficients(Fraction(1, 3), Fraction(-1, 6), Fraction(1, 2)) == Line(2, -1, 3)

    def test_degenerate_coefficients_rejected(self):
        with pytest.raises(ValueError):
            Line.from_coefficients(0, 0, 5)
        with pytest.raises(ValueError):
            Line(2, -2, 4)  # not reduced
        with pytest.raises(ValueError):
            Line(-1, 0, 0)  # not sign-canonical
        for args, message in [((2, 2, 2), r"coefficients \(2, 2, 2\) not reduced"),
                              ((-1, 1, 0), r"coefficients \(-1, 1, 0\) not sign-canonical"),
                              ((0, -2, 4), r"coefficients \(0, -2, 4\) not reduced"),
                              ((0, 0, 1), r"^\(a, b\) == \(0, 0\) does not define a line$")]:
            with pytest.raises(ValueError, match=message):
                Line(*args)
            with pytest.raises(ValueError, match=message):
                Line(*(IntSubclass(v) for v in args))

    def test_point_normalizes_integral_fractions(self):
        p = Point(Fraction(4, 2), Fraction(1, 3))
        assert p.x == 2 and isinstance(p.x, int)
        assert p.y == Fraction(1, 3)
        for p, expected in ((Point(Fraction(4, 2), 5), Point(2, 5)),
                            (Point(5, Fraction(4, 2)), Point(5, 2))):
            assert p == expected and type(p.x) is int and type(p.y) is int
        assert type(as_rational(Fraction(4, 2))) is int
        # An int subclass is accepted as it is, as a coordinate and a coefficient.
        p = Point(IntSubclass(3), 4)
        assert p == Point(3, 4) and type(p.x) is IntSubclass and type(p.y) is int
        assert type(as_rational(IntSubclass(3))) is IntSubclass
        assert Line(IntSubclass(1), 0, IntSubclass(-2)) == Line(1, 0, -2)

    def test_point_rejects_floats(self):
        with pytest.raises(TypeError):
            Point(0.5, 1)
        for args in [(1, 0.5), (0.0, 0), (2, 2.0)]:
            with pytest.raises(TypeError):
                Point(*args)
        with pytest.raises(TypeError):
            as_rational(1.0)
        for args in [(1.0, 0, 0), (1, 0.0, 0), (1, 0, 2.0)]:
            with pytest.raises(ValueError, match="line coefficients must be ints"):
                Line(*args)
            with pytest.raises(TypeError):
                Line.from_coefficients(*args)

    def test_as_rational_string(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational("5") == 5

    @given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
    def test_canonicalization_idempotent(self, a, b, c):
        if a == 0 and b == 0:
            return
        ln = Line.from_coefficients(a, b, c)
        assert Line.from_coefficients(ln.a, ln.b, ln.c) == ln


def reference_canonical(a, b, c) -> tuple[int, int, int]:
    """Fraction-only canonical (a, b, c): clear denominators, reduce, fix sign."""
    fs = [Fraction(v) for v in (a, b, c)]
    mult = lcm(*(f.denominator for f in fs))
    ints = [int(f * mult) for f in fs]
    g = gcd(*ints)
    ints = [v // g for v in ints]
    if ints[0] < 0 or (ints[0] == 0 and ints[1] < 0):
        ints = [-v for v in ints]
    return tuple(ints)


coefficient = st.one_of(
    st.integers(-10**6, 10**6),
    rationals,
    rationals.map(str),
    st.integers(-50, 50).map(str))


class TestFromCoefficients:
    @given(coefficient, coefficient, coefficient)
    @settings(max_examples=300)
    def test_matches_the_fraction_reference(self, a, b, c):
        if Fraction(a) == 0 and Fraction(b) == 0:
            return
        ln = Line.from_coefficients(a, b, c)
        assert (ln.a, ln.b, ln.c) == reference_canonical(a, b, c)
        assert all(type(v) is int for v in (ln.a, ln.b, ln.c))

    @pytest.mark.parametrize("a, b, c", [
        (6, -4, 10), (-3, 0, 7), (0, -5, 0), (Fraction(1, 2), Fraction(-3, 4), 2),
        ("2/3", 1, "-5"), (Fraction(4, 2), "6", 8)])
    def test_known_inputs(self, a, b, c):
        assert Line.from_coefficients(a, b, c) == Line(*reference_canonical(a, b, c))

    @pytest.mark.parametrize("c", [0, 5, Fraction(1, 3), "7"])
    def test_zero_normal_rejected(self, c):
        with pytest.raises(ValueError):
            Line.from_coefficients(0, 0, c)
        with pytest.raises(ValueError):
            Line.from_coefficients(Fraction(0), "0", c)

    @pytest.mark.parametrize("args", [(True, 1, 0), (1, False, 0), (1, 1, True),
                                      (False, True, 0), (True, True, True)])
    def test_bool_rejected(self, args):
        with pytest.raises(TypeError):
            Line.from_coefficients(*args)
        with pytest.raises(ValueError, match="line coefficients must be ints"):
            Line(*args)
        flag = next(v for v in args if type(v) is bool)
        for point in ((flag, 0), (0, flag)):
            with pytest.raises(TypeError, match="bool is not a coordinate"):
                Point(*point)
        with pytest.raises(TypeError, match="bool is not a coordinate"):
            as_rational(flag)


class TestIncident:
    def test_origin_on_x_axis(self):
        assert incident(Point(0, 0), Line(0, 1, 0))

    def test_off_axis(self):
        assert not incident(Point(1, 1), Line(0, 1, 0))

    def test_rational_point(self):
        # 3 * (1/2) - 3/2 = 0
        assert incident(Point(Fraction(1, 2), Fraction(3, 2)), Line.from_coefficients(3, -1, 0))


class TestCollinear:
    def test_on_diagonal(self):
        assert collinear(Point(0, 0), Point(1, 1), Point(2, 2))

    def test_proper_triangle(self):
        assert not collinear(Point(0, 0), Point(1, 0), Point(0, 1))

    def test_determinant_zero(self):
        assert collinear(Point(0, 0), Point(1, 2), Point(2, 4))

    def test_duplicates_count_as_collinear(self):
        assert collinear(Point(1, 2), Point(1, 2), Point(5, -3))

    @given(points, points, points)
    def test_permutation_invariant(self, p1, p2, p3):
        base = collinear(p1, p2, p3)
        assert collinear(p2, p1, p3) == base
        assert collinear(p3, p2, p1) == base
        assert collinear(p2, p3, p1) == base


class TestConcurrent:
    def test_through_origin(self):
        assert concurrent(Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0))

    def test_generic_triple(self):
        assert not concurrent(Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 1))

    def test_parallel_pencil_concurrent_at_infinity(self):
        assert concurrent(Line(0, 1, 0), Line(0, 1, -1), Line(0, 1, -2))

    @given(st.permutations([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -2)]))
    def test_permutation_invariant(self, perm):
        assert not concurrent(*perm)


class TestIntersection:
    def test_axes_cross_at_origin(self):
        assert intersection(Line(0, 1, 0), Line(1, 0, 0)) == Point(0, 0)

    def test_parallel_returns_none(self):
        assert intersection(Line(0, 1, 0), Line(0, 1, -1)) is None

    def test_solves_exactly(self):
        # 2x + y - 3 = 0 and x - y = 0 cross at (1, 1)
        assert intersection(Line(2, 1, -3), Line(1, -1, 0)) == Point(1, 1)

    def test_identical_lines_raise(self):
        with pytest.raises(IdenticalLinesError):
            intersection(Line(1, -1, 0), Line(1, -1, 0))


class TestLineThrough:
    def test_diagonal(self):
        assert line_through(Point(0, 0), Point(1, 1)) == Line(1, -1, 0)

    def test_vertical(self):
        assert line_through(Point(0, 0), Point(0, 5)) == Line(1, 0, 0)

    def test_general(self):
        ln = line_through(Point(1, 2), Point(3, 3))
        assert ln == Line(1, -2, 3)
        assert incident(Point(1, 2), ln) and incident(Point(3, 3), ln)

    def test_coincident_points_raise(self):
        with pytest.raises(CoincidentPointsError):
            line_through(Point(2, 3), Point(2, 3))


class TestAlgebraicLaws:
    @given(points, points)
    def test_line_through_is_incident_to_both(self, p1, p2):
        if p1 == p2:
            return
        ln = line_through(p1, p2)
        assert incident(p1, ln) and incident(p2, ln)

    @given(points, points, points)
    def test_collinear_iff_on_spanning_line(self, p1, p2, p3):
        if p1 == p2:
            return
        assert collinear(p1, p2, p3) == incident(p3, line_through(p1, p2))

    @given(points, points, points, points)
    @settings(max_examples=60)
    def test_intersection_lies_on_both(self, p1, p2, p3, p4):
        if p1 == p2 or p3 == p4:
            return
        l1, l2 = line_through(p1, p2), line_through(p3, p4)
        if l1 == l2:
            return
        q = intersection(l1, l2)
        if q is not None:
            assert incident(q, l1) and incident(q, l2)

    @given(points, points)
    def test_intersection_symmetric(self, p1, p2):
        if p1 == p2:
            return
        l1 = line_through(p1, p2)
        l2 = Line(0, 1, -7)  # y = 7
        if l1 == l2:
            return
        assert intersection(l1, l2) == intersection(l2, l1)


class TestStrictlyBetween:
    def test_midpoint(self):
        assert strictly_between(Point(0, 0), Point(2, 2), Point(1, 1))

    def test_endpoints_excluded(self):
        assert not strictly_between(Point(0, 0), Point(2, 2), Point(2, 2))

    def test_off_line(self):
        assert not strictly_between(Point(0, 0), Point(2, 2), Point(1, 0))

    @pytest.mark.parametrize("a, b", [
        (Point(1, 0), Point(1, 4)),
        (Point(-2, 3), Point(5, 3)),
        (Point(0, 0), Point(Fraction(3, 2), Fraction(-9, 4)))],
        ids=["vertical", "horizontal", "sloped"])
    def test_false_at_both_endpoints(self, a, b):
        for end in (a, b):
            assert not strictly_between(a, b, end)
            assert not strictly_between(b, a, end)

    def test_vertical_segment(self):
        assert strictly_between(Point(1, 0), Point(1, 4), Point(1, 3))
        assert not strictly_between(Point(1, 0), Point(1, 4), Point(1, 5))
