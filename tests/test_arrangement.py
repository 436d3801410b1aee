"""Arrangement model, generators, incidence engine, rich lines, duality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidences import (Arrangement, FewerThanTwoPointsError, Line, Point,
                        VerticalLinePresentError, dualize,
                        generic_shear_value, grid_construction, incidence_stats,
                        measured_density, rich_lines, shear, spanned_lines,
                        st_bound_report)
from conftest import brute_incidences, random_nonvertical_arrangement


class TestIncidenceEngine:
    def test_single_point_single_line(self):
        arr = Arrangement([Point(0, 0)], [Line(0, 1, 0)])
        assert list(arr.incidences) == [(0, 0)]

    def test_empty(self):
        arr = Arrangement([], [])
        assert list(arr.incidences) == []
        assert incidence_stats(arr).n_incidences == 0

    def test_matches_brute_force_on_small_grids(self):
        for n in (1, 2, 3):
            arr = grid_construction(n)
            assert set(arr.incidences) == brute_incidences(arr)

    def test_sorted_by_line_then_point(self):
        arr = grid_construction(2)
        assert list(arr.incidences) == sorted(arr.incidences, key=lambda ij: (ij[1], ij[0]))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Arrangement([Point(0, 0), Point(0, 0)], [])
        with pytest.raises(ValueError):
            Arrangement([], [Line(0, 1, 0), Line(0, 1, 0)])


class TestGridConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_counts(self, n):
        arr = grid_construction(n)
        assert arr.n_points == 2 * n**3
        assert arr.n_lines == n**3
        assert arr.n_incidences == n**4
        assert all(len(arr.points_on_line(j)) == n for j in range(arr.n_lines))

    def test_n1_shape(self):
        arr = grid_construction(1)
        assert arr.n_points == 2 and arr.n_lines == 1 and arr.n_incidences == 1

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            grid_construction(0)


class TestRichLines:
    def test_grid3x3_spanned_m3(self, grid3x3):
        # 3 rows + 3 columns + 2 main diagonals
        assert len(rich_lines(grid3x3, 3)) == 8

    def test_m1_is_all_incident_lines(self, grid3x3):
        assert rich_lines(grid3x3, 1) == set(range(grid3x3.n_lines))

    def test_grid_above_exact_richness_empty(self):
        assert rich_lines(grid_construction(3), 4) == set()

    def test_antitone_in_m(self, grid3x3):
        for m in range(1, 5):
            assert rich_lines(grid3x3, m + 1) <= rich_lines(grid3x3, m)


class TestSpannedLines:
    def test_three_noncollinear(self):
        arr = spanned_lines([Point(0, 0), Point(1, 0), Point(0, 1)])
        assert arr.n_lines == 3

    def test_three_collinear(self):
        arr = spanned_lines([Point(0, 0), Point(1, 1), Point(2, 2)])
        assert arr.n_lines == 1

    def test_grid3x3_spans_20_lines(self, grid3x3):
        assert grid3x3.n_lines == 20
        # Independent oracle: count distinct maximal collinear subsets.
        from incidences import collinear
        pts = grid3x3.points
        subsets = set()
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                members = frozenset(q for q in pts if collinear(pts[i], pts[j], q))
                subsets.add(members)
        assert len(subsets) == 20

    def test_fewer_than_two_points(self):
        with pytest.raises(FewerThanTwoPointsError):
            spanned_lines([Point(0, 0)])


class TestStBoundReport:
    def test_grid2_m2_row(self):
        rows = st_bound_report(grid_construction(2), 1)
        assert rows[0].m == 2
        assert rows[0].rich_count == 8
        assert rows[0].bound_value == Fraction(40)  # 16^2/8 + 16/2
        assert rows[0].within_bound

    def test_single_incidence_no_rows(self):
        arr = Arrangement([Point(0, 0)], [Line(0, 1, 0)])
        assert st_bound_report(arr, 1) == []

    def test_degenerate_pencil_has_no_rich_rows(self):
        lines = [Line.from_slope_intercept(m, 0) for m in range(1, 51)]
        arr = Arrangement([Point(0, 0)], lines)
        # Max richness is 1, so the m >= 2 table is empty.
        assert st_bound_report(arr, Fraction(1, 100)) == []

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError):
            st_bound_report(grid_construction(1), 0)


class TestShear:
    def test_zero_is_identity(self):
        arr = grid_construction(2)
        sheared = shear(arr, 0)
        assert sheared.points == arr.points and sheared.lines == arr.lines

    def test_vertical_line_becomes_slanted(self):
        arr = Arrangement([Point(0, 0), Point(0, 1)], [Line(1, 0, 0)])
        sheared = shear(arr, 1)
        assert sheared.lines[0] == Line(1, -1, 0)  # x = y
        assert set(sheared.incidences) == set(arr.incidences)

    def test_incidence_count_invariant(self):
        arr = grid_construction(2)
        assert shear(arr, 3).n_incidences == 16

    @given(st.integers(-5, 5))
    @settings(max_examples=20)
    def test_preserves_incidence_graph(self, s):
        arr = grid_construction(2)
        assert set(shear(arr, s).incidences) == set(arr.incidences)

    def test_generic_shear_value_avoids_all_verticals(self):
        lines = [Line(1, 0, 0), Line(1, -1, 0), Line(1, -2, 5)]
        s = generic_shear_value(lines)
        arr = Arrangement([], lines)
        assert all(not l.is_vertical for l in shear(arr, s).lines)

    @given(st.integers(-4, 4))
    @settings(max_examples=20)
    def test_preserves_collinearity_and_concurrency(self, s):
        from incidences import collinear, concurrent
        from itertools import combinations
        arr = random_nonvertical_arrangement(17, 7, 5)
        sheared = shear(arr, s)
        for i, j, k in combinations(range(arr.n_points), 3):
            assert (collinear(arr.points[i], arr.points[j], arr.points[k])
                    == collinear(sheared.points[i], sheared.points[j], sheared.points[k]))
        for i, j, k in combinations(range(arr.n_lines), 3):
            assert (concurrent(arr.lines[i], arr.lines[j], arr.lines[k])
                    == concurrent(sheared.lines[i], sheared.lines[j], sheared.lines[k]))


class TestDualize:
    def test_origin_and_x_axis_swap(self):
        arr = Arrangement([Point(0, 0)], [Line(0, 1, 0)])
        dual = dualize(arr)
        assert dual.points == (Point(0, 0),)
        assert dual.lines == (Line(0, 1, 0),)
        assert set(dual.incidences) == {(0, 0)}

    def test_incident_pair_swaps_and_stays_incident(self):
        # point (1,1) with line y = x, mutually incident
        arr = Arrangement([Point(1, 1)], [Line(1, -1, 0)])
        dual = dualize(arr)
        assert dual.points == (Point(1, 0),)           # dual of y = x
        assert dual.lines == (Line(1, -1, -1),)        # y = x - 1, dual of (1,1)
        assert set(dual.incidences) == {(0, 0)}

    def test_grid2_dual_incidence_count(self):
        assert dualize(grid_construction(2)).n_incidences == 16

    def test_vertical_line_rejected(self):
        arr = Arrangement([], [Line(1, 0, 0)])
        with pytest.raises(VerticalLinePresentError):
            dualize(arr)

    def test_involution_and_transpose_on_grid(self):
        arr = grid_construction(2)
        dual = dualize(arr)
        assert set(dual.incidences) == {(j, i) for i, j in arr.incidences}
        double = dualize(dual)
        assert double.points == arr.points and double.lines == arr.lines

    @pytest.mark.parametrize("seed", range(5))
    def test_involution_on_random_arrangements(self, seed):
        arr = random_nonvertical_arrangement(seed, 12, 8)
        dual = dualize(arr)
        assert set(dual.incidences) == {(j, i) for i, j in arr.incidences}
        double = dualize(dual)
        assert double.points == arr.points and double.lines == arr.lines


class TestStats:
    def test_grid2_histogram(self):
        stats = incidence_stats(grid_construction(2))
        assert stats.richness_histogram == {2: 8}
        assert stats.st_ratio_cubed == Fraction(16**3, 8**4)

    def test_histogram_mass_accounts_for_all_incidences(self, grid3x3):
        stats = incidence_stats(grid3x3)
        assert sum(m * c for m, c in stats.richness_histogram.items()) == stats.n_incidences

    def test_measured_density_is_a_lower_bound(self):
        for n in (2, 3, 5):
            arr = grid_construction(n)
            c = measured_density(arr)
            assert c > 0
            assert Fraction(arr.n_incidences) ** 3 >= c**3 * Fraction(arr.n_points) ** 4
