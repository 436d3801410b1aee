"""Balanced partition contracts and exact crossing counts."""

import random
from fractions import Fraction

import pytest

from incidences import (DegenerateInputError, Line, PartitionCell,
                        PartitionResult, Point, Rect, crossing_number,
                        crossing_profile, line_crosses_rect, partition)
from incidences.cli import random_arrangement


def window_ok(pr, n, r):
    r_eff = min(r, n)
    low, high = n // r_eff, -(-2 * n // r_eff)
    assert (pr.low, pr.high) == (low, high)
    return all(low <= len(c.point_indices) <= high for c in pr.cells)


class TestPartitionContract:
    def test_r1_single_unbounded_cell(self):
        pts = [Point(x, 0) for x in range(5)]
        pr = partition(pts, 1)
        assert pr.t == 1
        cell = pr.cells[0]
        assert cell.point_indices == tuple(range(5))
        assert cell.region == Rect(None, None, None, None)

    def test_eight_points_r4(self):
        # Splitting stops as soon as a cell fits under ceil(2n/r) = 4 points.
        pts = [Point(x, y) for x in range(4) for y in range(2)]
        pr = partition(pts, 4)
        assert pr.t == 2
        assert sorted(len(c.point_indices) for c in pr.cells) == [4, 4]
        assert window_ok(pr, 8, 4)

    def test_r_equal_n_gives_tiny_cells(self):
        pts = [Point(x, 3 * x + 1) for x in range(9)]
        pr = partition(pts, 9)
        assert all(1 <= len(c.point_indices) <= 2 for c in pr.cells)
        assert window_ok(pr, 9, 9)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DegenerateInputError):
            partition([Point(0, 0), Point(0, 0)], 1)

    def test_empty_input_allowed(self):
        pr = partition([], 1)
        assert pr.t == 0
        assert (pr.low, pr.high) == (0, 0)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            partition([Point(0, 0)], 0)

    @pytest.mark.parametrize("seed,r", [(0, 4), (1, 7), (2, 16), (3, 3)])
    def test_cover_window_and_cell_count(self, seed, r):
        arr = random_arrangement(seed, 64, 4, 500)
        pr = partition(arr.points, r)
        covered = sorted(i for c in pr.cells for i in c.point_indices)
        assert covered == list(range(64))
        assert window_ok(pr, 64, r)
        assert pr.t <= 4 * r
        for cell in pr.cells:
            assert all(cell.region.contains(arr.points[i]) for i in cell.point_indices)

    def test_deterministic(self):
        arr = random_arrangement(9, 40, 4, 100)
        assert partition(arr.points, 6) == partition(arr.points, 6)

    def test_r_clamped_to_n(self):
        pts = [Point(x, 0) for x in range(3)]
        pr = partition(pts, 50)
        assert window_ok(pr, 3, 50)
        assert pr.t <= 4 * 3


    @pytest.mark.parametrize("side, r, expected", [
        (4, 4, [((1, 5, 6, 9, 11, 13, 14, 15), (None, 1, None, None)),
                ((0, 2, 3, 4, 7, 8, 10, 12), (1, None, None, None))]),
        (4, 8, [((1, 6, 13, 14), (None, 1, None, 1)), ((5, 9, 11, 15), (None, 1, 1, None)),
                ((2, 3, 7, 8), (1, None, None, 1)), ((0, 4, 10, 12), (1, None, 1, None))]),
        (4, 16, [((6, 13), (None, 0, None, 1)), ((5, 9), (None, 0, 1, None)),
                 ((1, 14), (0, 1, None, 1)), ((11, 15), (0, 1, 1, None)),
                 ((3, 7), (1, 2, None, 1)), ((0, 12), (1, 2, 1, None)),
                 ((2, 8), (2, None, None, 1)), ((4, 10), (2, None, 1, None))]),
        # The median rank falls inside column x = 1: (1, 2) goes up, cut x = 1.
        (3, 3, [((0, 3, 5, 7, 8), (None, 1, None, None)),
                ((1, 2, 4, 6), (1, None, None, None))]),
    ], ids=["4x4-r4", "4x4-r8", "4x4-r16", "3x3-r3"])
    def test_shuffled_lattice_cells_are_pinned(self, side, r, expected):
        """Ties on both axes: each column and each row holds several points."""
        pts = [Point(x, y) for x in range(side) for y in range(side)]
        random.Random(side).shuffle(pts)
        pr = partition(pts, r)
        assert [(c.point_indices, c.region) for c in pr.cells] == [
            (idx, Rect(*sides)) for idx, sides in expected]


class TestLineCrossesRect:
    def test_bounded_box_hit_and_miss(self):
        box = Rect(0, 10, 0, 10)
        assert line_crosses_rect(Line(1, -1, 0), box)       # y = x through the box
        assert not line_crosses_rect(Line(0, 1, -100), box)  # y = 100 far above

    def test_touching_corner_counts(self):
        box = Rect(0, 10, 0, 10)
        assert line_crosses_rect(Line(1, 1, 0), box)  # x + y = 0 touches (0, 0)

    def test_unbounded_sides(self):
        half_plane = Rect(0, None, None, None)  # x >= 0
        assert line_crosses_rect(Line(0, 1, -5), half_plane)   # y = 5
        assert line_crosses_rect(Line(1, 0, -100), half_plane)  # x = 100
        left = Rect(None, -1, None, None)
        assert not line_crosses_rect(Line(1, 0, -100), left)    # x = 100 misses x <= -1

    def test_rational_geometry(self):
        box = Rect(Fraction(1, 3), Fraction(2, 3), 0, 1)
        assert line_crosses_rect(Line(2, 0, -1), box)      # x = 1/2
        assert not line_crosses_rect(Line(4, 0, -1), box)  # x = 1/4


class TestCrossingNumber:
    def test_single_cell_always_one(self):
        pts = [Point(x, x) for x in range(4)]
        pr = partition(pts, 1)
        assert crossing_number(pr, Line(0, 1, -1000)) == 1

    def test_manual_quadrants(self):
        cells = (
            PartitionCell((0,), Rect(-10, 0, -10, 0)),
            PartitionCell((1,), Rect(0, 10, -10, 0)),
            PartitionCell((2,), Rect(-10, 0, 0, 10)),
            PartitionCell((3,), Rect(0, 10, 0, 10)),
        )
        pr = PartitionResult(cells, 4, low=1, high=2)
        assert crossing_number(pr, Line(1, -1, 100)) == 0   # y = x + 100, far away
        assert crossing_number(pr, Line(1, -1, 0)) == 4     # y = x through the corner
        assert crossing_number(pr, Line(0, 1, -5)) == 2     # y = 5 crosses the top row

    def test_shared_boundary_counts_both_sides(self):
        cells = (
            PartitionCell((0,), Rect(None, 0, None, None)),
            PartitionCell((1,), Rect(0, None, None, None)),
        )
        pr = PartitionResult(cells, 2, low=1, high=2)
        assert crossing_number(pr, Line(1, 0, 0)) == 2  # x = 0 is the shared edge

    def test_profile_aggregates(self):
        pts = [Point(x, y) for x in range(4) for y in range(4)]
        pr = partition(pts, 4)
        lines = [Line(0, 1, -1), Line(1, 0, -2), Line(1, -1, 0)]
        profile = crossing_profile(pr, lines)
        assert profile.max_crossing == max(profile.per_line)
        assert profile.mean_crossing == Fraction(sum(profile.per_line), 3)
        assert all(1 <= c <= pr.t for c in profile.per_line)

    def test_empty_profile(self):
        pr = partition([Point(0, 0)], 1)
        profile = crossing_profile(pr, [])
        assert profile.max_crossing == 0 and profile.per_line == ()

    def test_crossing_scales_like_sqrt_t(self):
        arr = random_arrangement(11, 512, 40, 10**6)
        pr = partition(arr.points, 16)
        profile = crossing_profile(pr, arr.lines)
        assert profile.max_crossing <= 8 * 4  # 8 * sqrt(16), generous gate
