"""Intersection graph, complete-tuple enumeration, triangles, decompositions."""

from itertools import combinations

import pytest

from incidences import (Arrangement, Line, Point, build_graph, count_triangles,
                        de_caen_szekely_monitor, degenerate_filter, dualize,
                        edge_disjoint_decomposition_stats,
                        enumerate_complete_tuples, grid_construction,
                        intersection, multiplicity_filter, point_multiplicities)
from incidences.cli import random_arrangement
from conftest import (brute_complete_line_tuples, brute_triangles,
                      random_nonvertical_arrangement)


def crossing_arrangement(lines):
    """Arrangement whose points are all pairwise crossings of the lines."""
    pts = {}
    for a, b in combinations(range(len(lines)), 2):
        q = intersection(lines[a], lines[b])
        if q is not None:
            pts[q] = None
    return Arrangement(pts.keys(), lines)


class TestMultiplicityFilter:
    def test_pencil_center_excluded(self):
        lines = [Line.from_slope_intercept(m, 0) for m in range(1, 6)]
        arr = Arrangement([Point(0, 0)], lines)
        assert multiplicity_filter(arr, 3) == set()

    def test_grid2_all_kept_at_threshold_2(self):
        arr = grid_construction(2)
        mults = point_multiplicities(arr)
        assert max(mults.values()) <= 2
        assert multiplicity_filter(arr, 2) == set(range(16))

    def test_threshold_at_max_keeps_everything(self, grid3x3):
        m = max(point_multiplicities(grid3x3).values())
        assert multiplicity_filter(grid3x3, m) == set(range(grid3x3.n_points))

    def test_threshold_below_two_rejected(self, grid3x3):
        with pytest.raises(ValueError):
            multiplicity_filter(grid3x3, 1)

    def test_monotone_in_threshold(self, grid3x3):
        for t in range(2, 9):
            g_lo = build_graph(grid3x3, multiplicity_filter(grid3x3, t))
            g_hi = build_graph(grid3x3, multiplicity_filter(grid3x3, t + 1))
            assert set(g_lo.edges) <= set(g_hi.edges)


class TestBuildGraph:
    def test_three_general_lines_make_triangle(self, triangle_arrangement):
        g = build_graph(triangle_arrangement, {0, 1, 2})
        assert len(g.edges) == 3
        assert len(set(g.edges.values())) == 3  # three distinct witnesses

    def test_three_concurrent_lines_share_one_witness(self):
        lines = [Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0)]
        arr = Arrangement([Point(0, 0)], lines)
        g = build_graph(arr, {0})
        assert len(g.edges) == 3
        assert set(g.edges.values()) == {0}

    def test_grid2_edge_count_is_sum_of_binomials(self):
        arr = grid_construction(2)
        g = build_graph(arr, set(range(arr.n_points)))
        expected = sum(m * (m - 1) // 2 for m in point_multiplicities(arr).values())
        assert len(g.edges) == expected == 7

    def test_kept_points_must_exist(self, grid3x3):
        with pytest.raises(ValueError):
            build_graph(grid3x3, {10**6})


class TestDegenerateFilter:
    def test_concurrent_at_origin(self):
        assert not degenerate_filter([Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0)])

    def test_parallel_pencil_rejected(self):
        assert not degenerate_filter([Line(0, 1, 0), Line(0, 1, -1), Line(0, 1, -2)])

    def test_generic_triple_accepted(self):
        assert degenerate_filter([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, -1)])

    def test_requires_distinct_lines(self):
        with pytest.raises(ValueError):
            degenerate_filter([Line(1, 0, 0), Line(1, 0, 0), Line(0, 1, 0)])


class TestEnumerateCompleteTuples:
    def test_single_triangle(self, triangle_arrangement):
        g = build_graph(triangle_arrangement, {0, 1, 2})
        tuples = enumerate_complete_tuples(g, triangle_arrangement, 3)
        assert len(tuples) == 1
        assert tuples[0].line_indices == (0, 1, 2)
        assert degenerate_filter([triangle_arrangement.lines[i] for i in tuples[0].line_indices])

    def test_concurrent_clique_not_certified(self):
        lines = [Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0)]
        arr = Arrangement([Point(0, 0)], lines)
        g = build_graph(arr, {0})
        assert len(g.edges) == 3  # the clique is there
        assert enumerate_complete_tuples(g, arr, 3) == []

    def test_pencil_k20_yields_nothing(self, concurrent_pencil):
        g = build_graph(concurrent_pencil, multiplicity_filter(concurrent_pencil, 20))
        assert len(g.edges) == 20 * 19 // 2
        assert enumerate_complete_tuples(g, concurrent_pencil, 3) == []

    def test_grid3_matches_brute_force(self):
        arr = grid_construction(3)
        kept = multiplicity_filter(arr, 3)
        g = build_graph(arr, kept)
        found = enumerate_complete_tuples(g, arr, 3)
        assert len(found) >= 1
        brute = brute_complete_line_tuples(arr, kept, 3)
        assert sorted(t.line_indices for t in found) == sorted(brute)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_small_instances_match_brute_force(self, seed):
        arr = random_arrangement(seed, 14, 9, 30)
        kept = set(range(arr.n_points))
        g = build_graph(arr, kept)
        found = enumerate_complete_tuples(g, arr, 3)
        brute = brute_complete_line_tuples(arr, kept, 3)
        assert sorted(t.line_indices for t in found) == sorted(brute)

    def test_max_results_stops_early(self, grid3x3):
        g = build_graph(grid3x3, set(range(grid3x3.n_points)))
        some = enumerate_complete_tuples(g, grid3x3, 3, max_results=2)
        assert len(some) == 2

    def test_witnesses_label_each_pair(self, triangle_arrangement):
        g = build_graph(triangle_arrangement, {0, 1, 2})
        tup = enumerate_complete_tuples(g, triangle_arrangement, 3)[0]
        assert set(tup.witness_points) == {(0, 1), (0, 2), (1, 2)}

    def test_k_below_three_rejected(self, triangle_arrangement):
        g = build_graph(triangle_arrangement, {0, 1, 2})
        with pytest.raises(ValueError):
            enumerate_complete_tuples(g, triangle_arrangement, 2)


class TestCountTriangles:
    def test_three_crossing_lines(self, triangle_arrangement):
        assert count_triangles(triangle_arrangement) == 1

    def test_grid3x3_spanned(self, grid3x3):
        assert count_triangles(grid3x3) == 76  # C(9,3) = 84 minus 8 collinear triples

    def test_concurrent_pencil_center_only(self):
        lines = [Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0)]
        arr = Arrangement([Point(0, 0)], lines)
        assert count_triangles(arr) == 0

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_matches_triple_scan(self, seed):
        arr = random_arrangement(seed, 16, 8, 25)
        assert count_triangles(arr) == brute_triangles(arr)

    def test_equals_certified_triples_of_the_dual(self):
        # When P is all crossings of general-position lines, triangles of the
        # primal equal certified 3-tuples of the dual's intersection graph.
        for seed in (0, 1, 2):
            arr = random_nonvertical_arrangement(seed, 10, 7)
            cross = crossing_arrangement(list(arr.lines))
            if any(l.is_vertical for l in cross.lines):
                continue
            dual = dualize(cross)
            mults = point_multiplicities(dual)
            threshold = max(max(mults.values(), default=2), 2)
            g = build_graph(dual, multiplicity_filter(dual, threshold))
            certified = enumerate_complete_tuples(g, dual, 3)
            assert count_triangles(cross) == len(certified)


class TestMonitor:
    def test_grid3x3(self, grid3x3):
        result = de_caen_szekely_monitor(grid3x3)
        assert (result.triangles, result.bound, result.conjecture_holds) == (76, 180, True)

    def test_empty(self):
        result = de_caen_szekely_monitor(Arrangement([], []))
        assert (result.triangles, result.bound, result.conjecture_holds) == (0, 0, True)

    def test_grid2_against_brute_force(self):
        arr = grid_construction(2)
        result = de_caen_szekely_monitor(arr)
        assert result.triangles == brute_triangles(arr)
        assert result.bound == 128


class TestDecomposition:
    def test_two_disjoint_k3_sources(self):
        # Two points, each on three of six pairwise-distinct lines.
        p, q = Point(0, 0), Point(5, 0)
        lines = [Line.from_slope_intercept(m, 0) for m in (1, 2, 3)]
        lines += [Line.from_coefficients(m, -1, -5 * m) for m in (1, 2, 3)]  # through (5, 0)
        arr = Arrangement([p, q], lines)
        g = build_graph(arr, {0, 1})
        stats = edge_disjoint_decomposition_stats(g, 3)
        assert stats.num_source_cliques == 2
        assert stats.edges_covered == 6
        assert stats.is_edge_disjoint
        assert stats.skipped_points == 0

    def test_low_multiplicity_points_are_skipped(self):
        arr = grid_construction(2)  # every point has multiplicity <= 2
        g = build_graph(arr, set(range(arr.n_points)))
        stats = edge_disjoint_decomposition_stats(g, 3)
        assert stats.num_source_cliques == 0
        assert stats.skipped_points == arr.n_points

    def test_k_below_three_reported_not_raised(self):
        arr = grid_construction(2)
        g = build_graph(arr, set(range(arr.n_points)))
        stats = edge_disjoint_decomposition_stats(g, 2)
        assert stats.num_source_cliques == 0
        assert stats.skipped_points == arr.n_points
        assert stats.is_edge_disjoint

    def test_pencil_contributes_one_clique(self, concurrent_pencil):
        g = build_graph(concurrent_pencil, multiplicity_filter(concurrent_pencil, 20))
        stats = edge_disjoint_decomposition_stats(g, 5)
        assert stats.num_source_cliques == 1
        assert stats.edges_covered == 10  # C(5,2) on the first five lines
        assert stats.is_edge_disjoint
