"""Intersection graph, clique and complete-tuple enumeration, triangles."""

import gc
import random
from fractions import Fraction
from itertools import combinations

import pytest

from incidences import (Arrangement, CompleteTuple, Line, NotFoundReport, PipelineConfig,
                        Point, build_graph, collinear, count_triangles,
                        de_caen_szekely_monitor, degenerate_filter, dualize,
                        enumerate_complete_tuples, find_complete_tuple,
                        generic_shear_value, grid_construction, intersection,
                        measured_density, multiplicity_filter, partition, pipeline,
                        point_multiplicities, shear, spanned_lines)
from incidences.cli import random_arrangement
from incidences.cliques import _degeneracy_order, k_cliques
from conftest import (brute_complete_line_tuples, brute_degeneracy_order,
                      brute_triangles, edge_groups, group_edges,
                      random_nonvertical_arrangement, ranked_cells)


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

    @pytest.mark.parametrize("seed", range(4))
    def test_rejects_exactly_the_duals_of_collinear_points(self, seed):
        """Three points are collinear iff their dual lines are concurrent or
        parallel; the theorem1 search relies on this to stay in the primal."""
        rng = random.Random(seed)

        def coord():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

        seen = set()
        for _ in range(300):
            p, q, r = (Point(coord(), coord()) for _ in range(3))
            kind = rng.choice(("vertical", "horizontal", "one-vertical-pair", "on-pq", "any"))
            if kind == "vertical":        # three parallel dual lines
                q, r = Point(p.x, q.y), Point(p.x, r.y)
            elif kind == "horizontal":    # three dual lines through one point on the y-axis
                q, r = Point(q.x, p.y), Point(r.x, p.y)
            elif kind == "one-vertical-pair":
                q = Point(p.x, q.y)
            elif kind == "on-pq":
                t = coord()
                r = Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))
            if len({p, q, r}) < 3:
                continue
            dual_lines = dualize(Arrangement([p, q, r], [])).lines
            on_one_line = collinear(p, q, r)
            assert on_one_line == (not degenerate_filter(dual_lines))
            seen.add((kind, on_one_line))
        assert {("vertical", True), ("horizontal", True), ("one-vertical-pair", False),
                ("on-pq", True), ("any", False)} <= seen


def adjacency(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_k_cliques(n, edges, k):
    """Every k-subset that is a clique, in lexicographic order of degeneracy ranks."""
    adj = adjacency(n, edges)
    order = brute_degeneracy_order(n, adj)
    return [tuple(sorted(order[r] for r in ranks))
            for ranks in combinations(range(n), k)
            if all(order[b] in adj[order[a]] for a, b in combinations(ranks, 2))]


def random_edges(rng, n, p, isolated=()):
    """Each pair outside ``isolated`` with probability p, either way round, shuffled."""
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u, v in combinations(range(n), 2)
             if u not in isolated and v not in isolated and rng.random() < p]
    rng.shuffle(edges)
    return edges


def run_graph(rng, n, k, tries):
    """Edge-disjoint cliques on 2..k random vertices, as the search's cell
    graphs are: each line's run of k points, or all of a line's fewer points,
    is a clique, and two lines share at most one point.  Each group is
    labelled with its vertex set, as a cell graph's run is with its line."""
    groups, taken = [], set()
    for _ in range(tries):
        group = frozenset(rng.sample(range(n), rng.randint(2, k)))
        pairs = set(combinations(sorted(group), 2))
        if not pairs & taken:
            taken |= pairs
            groups.append((group, sorted(group)))
    return groups


GROETZSCH = (
    [(i, (i + 1) % 5) for i in range(5)]                              # outer 5-cycle
    + [(5 + i, (i + s) % 5) for i in range(5) for s in (1, 4)]        # v_i ~ u_(i-1), u_(i+1)
    + [(10, 5 + i) for i in range(5)])                                # hub ~ every v_i
# K_4,4 less a perfect matching, a_i = 2i and b_i = 2i + 1.
CROWN = [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j]


class TestKCliques:
    @pytest.mark.parametrize("seed", range(30))
    def test_every_clique_in_degeneracy_rank_order(self, seed):
        """The full output is every k-subset that is a clique, listed in
        lexicographic order of degeneracy ranks; this pins which clique a
        search finds first."""
        rng = random.Random(seed)
        n = rng.randint(0, 25)
        k = rng.randint(3, 5)
        isolated = set(rng.sample(range(n), n // 5))
        edges = random_edges(rng, n, rng.choice((0.5, 0.7, 0.9)), isolated)
        assert list(k_cliques(n, edge_groups(edges), k)) == brute_k_cliques(n, edges, k)

    def test_sparse_random_graphs(self):
        """At p = 0.1..0.3 most graphs have no k-clique, some have a few."""
        rng = random.Random(10)
        found = 0
        for _ in range(60):
            n = rng.randint(0, 25)
            k = rng.randint(3, 5)
            edges = random_edges(rng, n, rng.choice((0.1, 0.2, 0.3)))
            brute = brute_k_cliques(n, edges, k)
            assert list(k_cliques(n, edge_groups(edges), k)) == brute
            found += bool(brute)
        assert 5 < found < 55   # both outcomes are exercised

    @pytest.mark.parametrize("seed", [11, 12])
    def test_group_labels_prune_exactly_the_triples_inside_one_group(self, seed):
        """Labelled by group, a union of edge-disjoint cliques yields every
        clique with no three vertices inside one group, in brute-force order;
        given as its edges, each labelled alone, it yields every clique."""
        rng = random.Random(seed)
        pruned = kept = 0
        for _ in range(80):
            n = rng.randint(6, 24)
            k = rng.randint(3, 5)
            groups = run_graph(rng, n, k, rng.randint(1, 3 * n))
            edges = group_edges(groups)
            brute = brute_k_cliques(n, edges, k)
            assert list(k_cliques(n, edge_groups(edges), k)) == brute
            expected = [c for c in brute if not any(set(t) <= group for group, _ in groups
                                                    for t in combinations(c, 3))]
            assert list(k_cliques(n, groups, k)) == expected
            pruned += len(brute) - len(expected)
            kept += len(expected)
        assert pruned > 20 and kept > 20   # both outcomes are exercised

    @pytest.mark.parametrize("n, edges, k", [
        (5, [(i, (i + 1) % 5) for i in range(5)], 3),
        (11, GROETZSCH, 3),
        (11, GROETZSCH, 4),
        (8, CROWN, 3),
        (8, CROWN, 4),
    ], ids=["C5-k3", "groetzsch-k3", "groetzsch-k4", "crown-k3", "crown-k4"])
    def test_triangle_free_graphs_have_no_clique(self, n, edges, k):
        """An odd cycle, the Groetzsch graph and the crown graph have no
        triangle, though the first two are not bipartite."""
        assert list(k_cliques(n, edge_groups(edges), k)) == []

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    @pytest.mark.parametrize("pendants", [0, 1, 4])
    def test_k_clique_with_pendants_is_the_only_clique(self, k, pendants):
        """K_k, with or without pendant vertices hung on its vertices."""
        edges = [*combinations(range(k), 2), *((i % k, k + i) for i in range(pendants))]
        assert list(k_cliques(k + pendants, edge_groups(edges), k)) == [tuple(range(k))]

    def test_grid12_k4_floor_sum_0_cells_hold_no_tuple(self):
        """On grid (12, 4) the top 8 cells of the partition at r = 12, the
        default configuration's first round, have floor-sum 0, and none of
        them holds 4 points in general position.  The search skips such
        cells of an arrangement where some line holds k points."""
        arr = grid_construction(12)
        cfg = PipelineConfig(k=4, c=measured_density(arr))
        pr = partition(arr.points, 12)
        memberships = pipeline._memberships(arr, pr)
        for ci, floor_sum in ranked_cells(arr, pr, 4)[:8]:
            assert floor_sum == 0
            cert, _ = pipeline._attempt_cell(arr, pr.cells[ci], memberships[ci], ci, 0, cfg, 12)
            assert cert is None

    def test_one_label_class_has_no_clique(self):
        """Forty vertices pairwise joined with one label are 40 points on one
        line: 658,008 5-cliques, none of them in general position."""
        assert list(k_cliques(40, [(0, range(40))], 5)) == []

    def test_two_groups_sharing_an_edge_are_refused(self):
        """Groups {0, 1, 2} and {1, 2, 3} both hold the edge (1, 2); the
        search reads it when it builds the later map of 1 or 2.  The edge
        counts twice in the degrees, so a removal can drop a degree by two;
        the K_6 on 4..9 leaves removals for the ordering scan to come back
        down through."""
        groups = [("a", [0, 1, 2]), ("b", [1, 2, 3]), ("c", range(4, 10))]
        with pytest.raises(AssertionError, match="two groups share an edge"):
            list(k_cliques(10, groups, 3))

    def test_a_dropped_search_leaves_no_garbage(self):
        """Dropping a search after its first clique frees it by reference
        counting alone: nothing of it waits for the cyclic collector."""
        groups = edge_groups(combinations(range(12), 2))
        gc.disable()
        try:
            gc.collect()
            search = k_cliques(12, groups, 5)
            assert next(search) is not None
            del search
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDegeneracyOrder:
    """The bucket queue over groups against the min-scan ``brute_degeneracy_order``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_the_min_scan_on_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(0, 60)
        isolated = set(rng.sample(range(n), n // 5))
        p = rng.choice((0.05, 0.1, 0.3, 0.6))
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if u not in isolated and v not in isolated and rng.random() < p]
        adj = adjacency(n, edges)
        assert _degeneracy_order(n, edge_groups(edges))[0] == brute_degeneracy_order(n, adj)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_min_scan_on_run_graphs(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(6, 60)
        groups = run_graph(rng, n, rng.randint(3, 6), rng.randint(1, 3 * n))
        adj = adjacency(n, group_edges(groups))
        assert max(len(run) for _, run in groups) > 2
        assert _degeneracy_order(n, groups)[0] == brute_degeneracy_order(n, adj)

    @pytest.mark.parametrize("seed", range(5))
    def test_holding_lists_the_groups_at_each_vertex(self, seed):
        """The second result is the search's one group index: every group
        that holds v, labels and all, in input order."""
        rng = random.Random(200 + seed)
        n = rng.randint(6, 40)
        groups = run_graph(rng, n, rng.randint(3, 6), rng.randint(1, 3 * n))
        _, holding = _degeneracy_order(n, groups)
        assert holding == [[g for g in groups if v in g[1]] for v in range(n)]

    def test_matches_the_min_scan_on_a_grid6_cell(self, monkeypatch):
        graphs = []
        real = pipeline.k_cliques

        def spy(n, groups, k):
            graphs.append((n, groups))
            return real(n, groups, k)
        monkeypatch.setattr(pipeline, "k_cliques", spy)
        arr = grid_construction(6)
        find_complete_tuple(arr, PipelineConfig(k=4, c=measured_density(arr)))
        n, groups = graphs[0]
        adj = adjacency(n, group_edges(groups))
        degrees = [len(a) for a in adj]
        assert n > 20 and len(set(degrees)) < len(degrees) and 0 in degrees
        assert _degeneracy_order(n, groups)[0] == brute_degeneracy_order(n, adj)


def assert_line_view_order(g, found, k):
    """``found`` is the line view's whole output, in order and with every
    witness: the reference gives each edge its own 2-vertex group labelled by
    its witness, so it reads no pencil of the arrangement."""
    ref = k_cliques(g.n_vertices, [(p, pair) for pair, p in g.edges.items()], k)
    assert found == [CompleteTuple(t, {pair: g.edges[pair] for pair in combinations(t, 2)})
                     for t in ref]


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

    @pytest.mark.parametrize("k", [3, 4])
    def test_grid3_matches_brute_force(self, k):
        arr = grid_construction(3)
        kept = multiplicity_filter(arr, 3)
        g = build_graph(arr, kept)
        found = enumerate_complete_tuples(g, arr, k)
        assert len(found) == {3: 14, 4: 0}[k]   # grid 3 has no complete 4-tuple
        brute = brute_complete_line_tuples(arr, kept, k)
        assert sorted(t.line_indices for t in found) == sorted(brute)
        assert_line_view_order(g, found, k)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_small_instances_match_brute_force(self, seed, k):
        arr = random_arrangement(seed, 14, 9, 30)
        kept = set(range(arr.n_points))
        g = build_graph(arr, kept)
        found = enumerate_complete_tuples(g, arr, k)
        brute = brute_complete_line_tuples(arr, kept, k)
        assert sorted(t.line_indices for t in found) == sorted(brute)
        assert_line_view_order(g, found, k)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_spanned_lattice3_matches_brute_force(self, grid3x3, k):
        """Every lattice point lies on four spanned lines, so the graph's
        concurrent cliques (129 of them at k = 4) outnumber the complete
        tuples, and the label pruning must remove exactly them."""
        kept = set(range(grid3x3.n_points))
        g = build_graph(grid3x3, kept)
        found = enumerate_complete_tuples(g, grid3x3, k)
        brute = brute_complete_line_tuples(grid3x3, kept, k)
        assert sorted(t.line_indices for t in found) == sorted(brute)
        assert_line_view_order(g, found, k)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_dual_lattice3_matches_brute_force(self, grid3x3, k):
        """The dual of the (sheared) spanned 3x3 lattice: its lines are the
        lattice points and its points the spanned lines, so a complete
        k-tuple is k lattice points with no three collinear.  At k = 4 that
        is 78 tuples among 126 unpruned cliques."""
        s = generic_shear_value(grid3x3.lines)
        dual = dualize(shear(grid3x3, s))
        kept = set(range(dual.n_points))
        g = build_graph(dual, kept)
        found = enumerate_complete_tuples(g, dual, k)
        brute = brute_complete_line_tuples(dual, kept, k)
        assert sorted(t.line_indices for t in found) == sorted(brute)
        assert_line_view_order(g, found, k)
        if k == 4:
            assert len(found) == 78
            assert len(list(k_cliques(g.n_vertices, edge_groups(g.edges), k))) == 126

    def test_witnesses_label_each_pair(self, triangle_arrangement):
        g = build_graph(triangle_arrangement, {0, 1, 2})
        tup = enumerate_complete_tuples(g, triangle_arrangement, 3)[0]
        assert set(tup.witness_points) == {(0, 1), (0, 2), (1, 2)}

    def test_k_below_three_rejected(self, triangle_arrangement):
        g = build_graph(triangle_arrangement, {0, 1, 2})
        with pytest.raises(ValueError):
            enumerate_complete_tuples(g, triangle_arrangement, 2)


def pencil_plus_points() -> Arrangement:
    """Six lines through the origin holding three more points each, the line
    x = 1 through five of those points, and two points off every line."""
    slopes = (-2, -1, 0, 1, 3)
    lines = [Line.from_slope_intercept(m, 0) for m in slopes] + [Line(1, 0, 0), Line(1, 0, -1)]
    points = [Point(0, 0), Point(7, 5), Point(-3, 11)]
    points += [Point(t, m * t) for m in slopes for t in (1, -2, 4)]
    points += [Point(0, t) for t in (1, 2, 3)]
    return Arrangement(points, lines)


RICH_LINE_INPUTS = {
    "lattice4-spanned": lambda: spanned_lines([Point(x, y) for x in range(4) for y in range(4)]),
    "grid2": lambda: grid_construction(2),
    "pencil-plus-points": pencil_plus_points,
    # Spanned lines of a 3x3 lattice with six lines that miss every point.
    "point-free-lines": lambda: Arrangement(
        [Point(x, y) for x in range(3) for y in range(3)],
        [*spanned_lines([Point(x, y) for x in range(3) for y in range(3)]).lines,
         Line(1, 0, 5), Line(0, 1, -7), Line(1, 1, 9), Line(1, -1, 4), Line(2, 1, -1),
         Line(3, 5, 1)]),
    "fractional": lambda: spanned_lines(
        [Point(Fraction(x, 3) + Fraction(1, 2), Fraction(y, 16) - Fraction(1, 3))
         for x in range(3) for y in range(3)] + [Point(Fraction(1, 7), Fraction(5, 2))]),
    # Index order is not (x, y) order, and the vertical lines sit at fractional x.
    "shuffled-fractional-lattice": lambda: spanned_lines(random.Random(11).sample(
        [(Fraction(x, 3), Fraction(y, 2)) for x in range(4) for y in range(4)], 16)),
}


class TestCountTriangles:
    def test_three_crossing_lines(self, triangle_arrangement):
        assert count_triangles(triangle_arrangement) == 1

    def test_grid3x3_spanned(self, grid3x3):
        assert count_triangles(grid3x3) == 76  # C(9,3) = 84 minus 8 collinear triples

    def test_concurrent_pencil_center_only(self):
        lines = [Line(1, 0, 0), Line(0, 1, 0), Line(1, -1, 0)]
        arr = Arrangement([Point(0, 0)], lines)
        assert count_triangles(arr) == 0

    @pytest.mark.parametrize("case", ["3", "4", "5", "6", *RICH_LINE_INPUTS])
    def test_matches_triple_scan(self, case):
        arr = RICH_LINE_INPUTS[case]() if case in RICH_LINE_INPUTS else \
            random_arrangement(int(case), 16, 8, 25)
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
