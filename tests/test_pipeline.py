"""Structure pipeline: cell selection, segments, search, locality, audit."""

import logging
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from incidences import (Arrangement, CertificateError, CompleteTupleCertificate,
                        InequalityAudit, Line, NotFoundReport, PipelineConfig, Point,
                        build_graph, collinear, dualize, find_complete_tuple,
                        generic_shear_value, grid_construction, incident,
                        inequality_audit, line_crosses_rect, locality_counts,
                        measured_density, partition, revalidate_certificate, shear,
                        spanned_lines)
from incidences import arrangement, pipeline
from incidences.cli import random_arrangement
from incidences.roots import ceil_scaled_pow23
from conftest import (brute_incidences, brute_locality, first_collinear_free_clique,
                      group_edges, k_point_runs, pair_joined, parallel_rows,
                      ranked_cells, spanned_lattice)


def spy_searches(monkeypatch):
    """Record each cell search as (cell point indices, its round's r, groups,
    first clique)."""
    searched, cells = [], []
    real_attempt, real_cliques = pipeline._attempt_cell, pipeline.k_cliques

    def attempt(arr, cell, *args):
        cells.append((cell.point_indices, args[-1]))
        return real_attempt(arr, cell, *args)

    def cliques(n, groups, k):
        first = next(real_cliques(n, groups, k), None)
        searched.append((*cells[-1], groups, first))
        return iter(() if first is None else (first,))
    monkeypatch.setattr(pipeline, "_attempt_cell", attempt)
    monkeypatch.setattr(pipeline, "k_cliques", cliques)
    return searched


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig(k=3, c=Fraction(1, 2))
        assert cfg.beta_k == Fraction(1, 12)
        assert cfg.fallback_cells == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=2, c=1)
        with pytest.raises(ValueError):
            PipelineConfig(k=3, c=0)

    def test_fallback_cells_is_not_an_init_field(self):
        with pytest.raises(TypeError):
            PipelineConfig(k=3, c=1, fallback_cells=3)


class TestSelectRichCell:
    """The cell the search tries first, ``_top_cell``'s, is the head of the
    oracle ranking ``ranked_cells``."""

    def top(self, arr, r, k):
        """``_top_cell``'s (cell index, floor-sum), checked against the rest it returns."""
        t, ci, floor_sum, cell, by_line = pipeline._top_cell(arr, r, k)
        pr = partition(arr.points, r)
        assert t == pr.t and cell == pr.cells[ci]
        assert by_line == pipeline._memberships(arr, pr)[ci]
        return ci, floor_sum

    def test_single_cell_floor_sum(self, grid3x3):
        pr = partition(grid3x3.points, 1)
        # 8 lines carry 3 points, 12 lines carry 2: floor sum = 8.
        assert self.top(grid3x3, 1, 3) == ranked_cells(grid3x3, pr, 3)[0] == (0, 8)
        by_line = pipeline._memberships(grid3x3, pr)[0]
        assert sum(len(members) for members in by_line.values()) == grid3x3.n_incidences

    def test_concentrated_rich_line_wins(self):
        rich_pts = [Point(x, 0) for x in range(9)]
        far_pts = [Point(100 + x, 50 + (x * x) % 7) for x in range(9)]
        arr = Arrangement(rich_pts + far_pts, [Line(0, 1, 0)])
        pr = partition(arr.points, 4)
        ci, floor_sum = self.top(arr, 4, 3)
        assert (ci, floor_sum) == ranked_cells(arr, pr, 3)[0]
        assert floor_sum >= 3
        assert set(pr.cells[ci].point_indices) >= set(range(5))  # the rich run sits here

    def test_grid2_exhaustive_counts(self):
        arr = grid_construction(2)
        pr = partition(arr.points, 4)
        ci, floor_sum = self.top(arr, 4, 3)
        assert (ci, floor_sum) == ranked_cells(arr, pr, 3)[0]
        cell = set(pr.cells[ci].point_indices)
        by_line = pipeline._memberships(arr, pr)[ci]
        for li, members in by_line.items():
            assert len(members) == sum(1 for i in arr.points_on_line(li) if i in cell)
        assert floor_sum == sum(len(members) // 3 for members in by_line.values())

    def test_ranks_every_cell_by_floor_sum_then_index(self):
        """Every cell's floor-sum, read off its membership, is the oracle's,
        and the top cell is the oracle's head, which is not cell 0."""
        rng = random.Random(1)
        arr = spanned_lines(sorted({(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(30)}))
        pr = partition(arr.points, 6)
        ranking = ranked_cells(arr, pr, 3)
        assert [ci for ci, _ in ranking] != list(range(pr.t))
        assert [pipeline._floor_sum(by_line, 3) for by_line in pipeline._memberships(arr, pr)] \
            == [floor_sum for _, floor_sum in sorted(ranking)]
        assert self.top(arr, 6, 3) == ranking[0]

    def test_ties_go_to_the_lowest_index(self):
        """On the 5x5 lattice at r = 9, cells 1, 3 and 4 tie for the top
        floor-sum 2 and cell 0 has 1: the search takes cell 1."""
        arr = spanned_lattice(5)
        ranking = ranked_cells(arr, partition(arr.points, 9), 3)
        assert ranking[:4] == [(1, 2), (3, 2), (4, 2), (0, 1)]
        assert self.top(arr, 9, 3) == ranking[0]


class TestBreakIntoSegments:
    """The k-point runs of one cell, as ``_attempt_cell`` builds them."""

    def runs(self, arr, k, monkeypatch):
        """line -> its k-point runs as point indices, read off the groups
        ``k_cliques`` receives; a line holding fewer than k cell points gives
        one shorter group, which is not a run."""
        searched = spy_searches(monkeypatch)
        pr = partition(arr.points, 1)
        pipeline._attempt_cell(arr, pr.cells[0], pipeline._memberships(arr, pr)[0], 0, 0,
                               PipelineConfig(k=k, c=1), 1)
        ((pts, _, groups, _),) = searched
        runs = {}
        for li, run in groups:
            if len(run) == k:
                runs.setdefault(li, []).append([pts[v] for v in run])
        return runs

    def test_memberships_are_each_cells_lines(self):
        """Each cell's lines, ascending, and their cell points, in (x, y) order."""
        xy = [(x, y) for x in range(4) for y in range(3)]
        random.Random(5).shuffle(xy)
        arr = spanned_lines(xy)
        pr = partition(arr.points, 3)
        memberships = pipeline._memberships(arr, pr)
        assert len(memberships) == pr.t
        for cell, by_line in zip(pr.cells, memberships):
            members = set(cell.point_indices)
            expected = {li: sorted((i for i in arr.points_on_line(li) if i in members),
                                   key=lambda i: (arr.points[i].x, arr.points[i].y))
                        for li in range(arr.n_lines)}
            assert by_line == {li: on for li, on in expected.items() if on}
            assert list(by_line) == sorted(by_line)

    def test_memberships_run_along_each_line_on_a_shuffled_lattice(self):
        """Index order is not (x, y) order here, yet every line's list runs
        along the line: x ascending, or y ascending on a vertical line."""
        xy = [(x, y) for x in range(5) for y in range(4)]
        random.Random(3).shuffle(xy)
        arr = spanned_lines(xy)
        assert any(list(arr.points_on_line(li)) != sorted(arr.points_on_line(li))
                   for li in range(arr.n_lines))
        for li in range(arr.n_lines):
            vertical = arr.lines[li].b == 0
            coords = [arr.points[i].y if vertical else arr.points[i].x
                      for i in arr.points_on_line(li)]
            assert coords == sorted(coords) and len(set(coords)) == len(coords)
        # One cell holds every point, so its membership is the index itself.
        by_line = pipeline._memberships(arr, partition(arr.points, 1))[0]
        assert set(by_line) == set(range(arr.n_lines))
        for li, members in by_line.items():
            assert members == list(arr.points_on_line(li))

    def test_exactly_k_points_one_segment(self, monkeypatch):
        pts = [Point(x, 0) for x in range(3)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        runs = self.runs(arr, 3, monkeypatch)
        assert runs == {0: [[0, 1, 2]]}
        run = runs[0][0]
        assert (arr.points[run[0]], arr.points[run[-1]]) == (Point(0, 0), Point(2, 0))

    def test_seven_points_two_segments_remainder_dropped(self, monkeypatch):
        pts = [Point(x, 2 * x) for x in range(7)]
        arr = Arrangement(pts, [Line(2, -1, 0)])
        runs = self.runs(arr, 3, monkeypatch)[0]
        assert runs == [[0, 1, 2], [3, 4, 5]]
        assert not set(runs[0]) & set(runs[1])

    def test_too_few_points_no_segment(self, monkeypatch):
        pts = [Point(0, 0), Point(1, 0)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        assert self.runs(arr, 3, monkeypatch) == {}

    def test_segments_ordered_along_line(self, monkeypatch):
        pts = [Point(x, 0) for x in (5, 1, 3, 0, 2, 4)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        xs = [[arr.points[i].x for i in run] for run in self.runs(arr, 3, monkeypatch)[0]]
        assert xs == [[0, 1, 2], [3, 4, 5]]


class TestFindCompleteTuple:
    def test_triangle_fixture(self, triangle_arrangement):
        cfg = PipelineConfig(k=3, c=Fraction(1, 100))
        cert = find_complete_tuple(triangle_arrangement, cfg)
        assert isinstance(cert, CompleteTupleCertificate)
        assert set(cert.point_indices) == {0, 1, 2}
        assert not collinear(*(triangle_arrangement.points[i] for i in cert.point_indices))
        revalidate_certificate(triangle_arrangement, cert)

    def test_grid3_k3(self):
        arr = grid_construction(3)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 2)))
        assert isinstance(cert, CompleteTupleCertificate)
        revalidate_certificate(arr, cert)
        for (i, j), li in cert.connecting_lines.items():
            assert incident(arr.points[i], arr.lines[li])
            assert incident(arr.points[j], arr.lines[li])

    def test_certificate_among_brute_force_valid_tuples(self, triangle_arrangement):
        arr = triangle_arrangement
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 100)))
        valid = []
        for combo in combinations(range(arr.n_points), 3):
            if all(pair_joined(arr, a, b) for a, b in combinations(combo, 2)) and \
                    not collinear(*(arr.points[i] for i in combo)):
                valid.append(combo)
        assert tuple(sorted(cert.point_indices)) in valid

    def test_no_triangle_instance_reports_not_found(self):
        # Three parallel lines: crossings do not exist at all.
        lines = [Line.from_slope_intercept(1, b) for b in range(3)]
        pts = [Point(x, x + b) for b in range(3) for x in range(3)]
        arr = Arrangement(pts, lines)
        res = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 100)))
        assert isinstance(res, NotFoundReport)
        assert all(not a.certified for a in res.attempts)
        # Brute force confirms there is nothing to find.
        for combo in combinations(range(arr.n_points), 3):
            joined = all(pair_joined(arr, a, b) for a, b in combinations(combo, 2))
            non_collinear = not collinear(*(arr.points[i] for i in combo))
            assert not (joined and non_collinear)

    def test_pencil_not_found(self, concurrent_pencil):
        res = find_complete_tuple(concurrent_pencil, PipelineConfig(k=3, c=1))
        assert isinstance(res, NotFoundReport)

    def test_empty_arrangement_not_found(self):
        res = find_complete_tuple(Arrangement([], []), PipelineConfig(k=3, c=1))
        assert isinstance(res, NotFoundReport)
        assert res.t == 0 and res.attempts == ()

    def test_search_is_sound_not_exhaustive(self):
        # This instance contains exactly one valid triple, but two of its
        # connecting pairs involve the dropped trailing point of a 4-point
        # line, outside every run of 3 consecutive points.  The procedure
        # must not use such pairs (they are what the locality bound excludes),
        # so NotFound is the intended answer here.
        from incidences.cli import random_arrangement
        arr = random_arrangement(15, 20, 10, 12)
        res = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 100)))
        assert isinstance(res, NotFoundReport)

    def test_deterministic(self):
        arr = grid_construction(3)
        cfg = PipelineConfig(k=3, c=measured_density(arr))
        assert find_complete_tuple(arr, cfg) == find_complete_tuple(arr, cfg)

    def test_locality_below_k(self):
        arr = grid_construction(5)
        cfg = PipelineConfig(k=4, c=measured_density(arr))
        cert = find_complete_tuple(arr, cfg)
        assert isinstance(cert, CompleteTupleCertificate)
        assert all(v < 4 for v in cert.locality.values())

    def test_density_warning_names_a_c_past_the_digit_limit(self, caplog, capsys):
        with caplog.at_level(logging.WARNING, logger="incidences.pipeline"):
            find_complete_tuple(grid_construction(2), PipelineConfig(k=3, c=10**5000))
        assert [rec.getMessage() for rec in caplog.records] == [
            "incidence count 16 below c * n^(4/3) for c=<16610-bit numerator / "
            "1-bit denominator>, n=16; searching anyway"]
        assert "Logging error" not in capsys.readouterr().err

    def test_handles_vertical_lines_via_shear(self):
        # A complete triple whose connecting lines include a vertical one.
        pts = [Point(0, 0), Point(0, 2), Point(2, 0)]
        arr = spanned_lines(pts)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 100)))
        assert isinstance(cert, CompleteTupleCertificate)
        assert set(cert.point_indices) == {0, 1, 2}


# find_complete_tuple on the unshuffled grids with --c auto's configuration:
# (N, k) -> the certificate's point indices and connecting line of each pair,
# or None for NotFound.  A search that prunes a clique it should have found
# changes one of these.
PINNED_SEARCHES = {
    (8, 3): ((0, 130, 258), {(0, 130): 128, (0, 258): 64, (130, 258): 2}),
    (8, 4): ((0, 132, 262, 390), {(0, 132): 256, (0, 262): 192, (0, 390): 128,
                                  (132, 262): 130, (132, 390): 67, (262, 390): 6}),
    (8, 5): ((0, 134, 266, 396, 524), {
        (0, 134): 384, (0, 266): 320, (0, 396): 256, (0, 524): 192, (134, 266): 258,
        (134, 396): 195, (134, 524): 132, (266, 396): 134, (266, 524): 72, (396, 524): 12}),
    (10, 3): ((0, 202, 402), {(0, 202): 200, (0, 402): 100, (202, 402): 2}),
    (10, 4): ((0, 204, 406, 606), {(0, 204): 400, (0, 406): 300, (0, 606): 200,
                                   (204, 406): 202, (204, 606): 103, (406, 606): 6}),
    (10, 5): ((0, 206, 410, 612, 812), {
        (0, 206): 600, (0, 410): 500, (0, 612): 400, (0, 812): 300, (206, 410): 402,
        (206, 612): 303, (206, 812): 204, (410, 612): 206, (410, 812): 108, (612, 812): 12}),
}


@pytest.mark.parametrize("n, k", sorted(PINNED_SEARCHES), ids=lambda v: str(v))
def test_grid_search_results_are_pinned(n, k):
    arr = grid_construction(n)
    result = find_complete_tuple(arr, PipelineConfig(k=k, c=measured_density(arr)))
    if PINNED_SEARCHES[n, k] is None:
        assert isinstance(result, NotFoundReport)
    else:
        assert (result.point_indices, result.connecting_lines) == PINNED_SEARCHES[n, k]


def test_found_rate_on_the_grid_and_lattice_matrices(monkeypatch):
    """With --c auto's configuration, every grid N = 5..16 at k = 3..6 with
    N >= 2k - 3 gives a certificate, each from the first cell searched, and
    the 6 grids with N < 2k - 3 give NotFound; every spanned lattice 5..12 at
    k = 3..7 gives a certificate but lattices 5 and 6 at k = 7, where no line
    holds k points and only a cell larger than the first round's holds a
    tuple.  Where some line holds k points, every searched cell has a
    positive floor-sum, so a line holds k of its points: a k-clique of its
    graph, which no colouring bound can rule out.  About 2 s on 2 vCPUs
    (CPython 3.11)."""
    searches, floor_sums = [], []
    real_attempt = pipeline._attempt_cell

    def attempt(*args):
        searches.append(args[3])
        floor_sums.append(args[4])
        return real_attempt(*args)
    monkeypatch.setattr(pipeline, "_attempt_cell", attempt)

    def rich(arr, k):
        return any(len(arr.points_on_line(j)) >= k for j in range(arr.n_lines))
    grid_found, first_cell, lattice_missed, poor = set(), set(), [], []
    for n in range(5, 17):
        arr = grid_construction(n)
        for k in range(3, 7):
            searches.clear()
            floor_sums.clear()
            result = find_complete_tuple(arr, PipelineConfig(k=k, c=measured_density(arr)))
            if rich(arr, k):
                assert min(floor_sums) > 0
            else:
                poor.append(("grid", n, k))
            if isinstance(result, CompleteTupleCertificate):
                grid_found.add((n, k))
                if len(searches) == 1:
                    first_cell.add((n, k))
            else:
                assert isinstance(result, NotFoundReport) and result.attempts
    for side in range(5, 13):
        arr = spanned_lattice(side)
        for k in range(3, 8):
            floor_sums.clear()
            if not isinstance(find_complete_tuple(arr, PipelineConfig(k=k, c=measured_density(arr))),
                              CompleteTupleCertificate):
                lattice_missed.append((side, k))
            if rich(arr, k):
                assert min(floor_sums) > 0
            else:
                poor.append(("lattice", side, k))
    expected = {(n, k) for n in range(5, 17) for k in range(3, 7) if n >= 2 * k - 3}
    assert len(expected) == 42
    assert grid_found == first_cell == expected
    assert lattice_missed == [(5, 7), (6, 7)]
    assert poor == [("grid", 5, 6), ("lattice", 5, 6), ("lattice", 5, 7), ("lattice", 6, 7)]


def joining(arr, p, q):
    """{(i, j): index of the arrangement line through points p and q}."""
    i, j = arr.points.index(p), arr.points.index(q)
    (li,) = set(arr.lines_through_point(i)) & set(arr.lines_through_point(j))
    return {(i, j): li}


class TestLocality:
    def test_adjacent_grid_points(self):
        arr = grid_construction(3)
        connecting = joining(arr, Point(0, 0), Point(1, 0))
        counts = locality_counts(arr, connecting)
        assert counts == dict.fromkeys(connecting, 0)

    def test_three_point_run_endpoints(self):
        arr = grid_construction(3)
        connecting = joining(arr, Point(0, 0), Point(2, 0))
        counts = locality_counts(arr, connecting)
        assert counts == dict.fromkeys(connecting, 1)  # (1, 0) sits between

    def test_certificate_locality_recomputed(self):
        arr = grid_construction(3)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 2)))
        recomputed = locality_counts(arr, cert.connecting_lines)
        assert recomputed == dict(cert.locality)
        assert all(v < 3 for v in recomputed.values())

    def test_requires_distinct_points(self):
        arr = grid_construction(2)
        i = arr.points.index(Point(0, 0))
        with pytest.raises(ValueError):
            locality_counts(arr, {(i, i): arr.lines_through_point(i)[0]})


def far_rich_lines(seed: int) -> Arrangement:
    """Five lines of 4-6 points each, with steep directions (dx in
    [3 * 10^4, 6 * 10^4], coprime to dy) and coordinates up to about 10^6,
    among 15 random points, and every line they span: the engine walks the
    residue class of each rich line."""
    rng = random.Random(seed)
    points = {Point(rng.randint(0, 10**6), rng.randint(0, 10**6)) for _ in range(15)}
    for _ in range(5):
        dx, dy = rng.randint(3 * 10**4, 6 * 10**4), rng.randint(-10**4, 10**4)
        while gcd(dx, dy) != 1:
            dy += 1
        x0, y0 = rng.randint(0, 10**5), rng.randint(3 * 10**5, 7 * 10**5)
        points.update(Point(x0 + t * dx, y0 + t * dy) for t in range(rng.randint(4, 6)))
    return spanned_lines(sorted(points, key=lambda p: rng.random()))


class TestLocalityOracle:
    """``locality_counts`` reads positions along a line; ``brute_locality``
    scans every point with ``strictly_between``.  They agree on every pair of
    every line."""

    @pytest.mark.parametrize("case", [*(f"random-{seed}" for seed in range(28)),
                                      "fractional-vertical", "far-0", "far-1"])
    def test_every_pair_of_every_line(self, case, monkeypatch):
        walks = {}
        real_walk = arrangement._residue_walk

        def walk(a, b, cd, *args):
            walks[a, b, cd] = real_walk(a, b, cd, *args)
            return walks[a, b, cd]
        monkeypatch.setattr(arrangement, "_residue_walk", walk)
        kind, seed = case.rsplit("-", 1)
        if kind == "random":
            rng = random.Random(int(seed))
            arr = spanned_lines(list({(rng.randint(0, 9), rng.randint(0, 9))
                                      for _ in range(rng.randint(15, 40))}))
        elif kind == "far":
            arr = far_rich_lines(int(seed))
        else:
            xy = [(Fraction(x, 3), Fraction(y, 2)) for x in range(5) for y in range(5)]
            random.Random(7).shuffle(xy)
            arr = spanned_lines(xy)
            assert any(ln.b == 0 for ln in arr.lines)
        on_line: dict[int, list[int]] = {}
        for i, li in sorted(brute_incidences(arr)):
            on_line.setdefault(li, []).append(i)
        connecting = {(i, j): li for li, on in on_line.items() for i, j in combinations(on, 2)}
        counts = locality_counts(arr, connecting)
        assert counts == brute_locality(arr, connecting)
        assert max(counts.values()) >= 2
        if kind == "far":   # integer coordinates: c*d is c
            assert sum(1 for li, on in on_line.items() if len(on) >= 4 and walks.get(
                (arr.lines[li].a, arr.lines[li].b, arr.lines[li].c)) is not None) >= 5


class TestSearchSharesLibrarySteps:
    """find_complete_tuple ranks and segments cells through the public functions."""

    @pytest.mark.parametrize("arr, k, beta_k, end", [
        (grid_construction(12), 8, None, "one cell"),
        (parallel_rows(4, 8), 3, 100, "one cell"),
        (parallel_rows(12, 64), 3, 1000, "cap"),
        (spanned_lattice(8), 17, None, "one cell"),
    ], ids=["grid12-k8", "rows4x8-k3", "rows12x64-k3", "lattice8-k17"])
    def test_not_found_attempts_follow_the_ranking(self, arr, k, beta_k, end):
        """On inputs with no tuple, the rounds r = r0, r0 // 2, ... search
        each round's top-ranked cell exactly when its floor-sum is positive,
        or, when no line holds k points, when it is no larger than the first
        round's cells; until a one-cell round or ``fallback_cells`` searched
        cells.  The report gives the last partition's r and t, not a halved r
        past it.  On the 8x8 lattice at k = 17 (any 17 of its points put 3 in
        one row) the one-cell round is not searched."""
        cfg = PipelineConfig(k=k, c=measured_density(arr), beta_k=beta_k)
        report = find_complete_tuple(arr, cfg)
        assert isinstance(report, NotFoundReport)
        rounds = [max(1, min(arr.n_points, ceil_scaled_pow23(arr.n_points, cfg.beta_k)))]
        while rounds[-1] > report.r:
            rounds.append(rounds[-1] // 2)
        assert rounds[-1] == report.r
        poor = max(len(arr.points_on_line(li)) for li in range(arr.n_lines)) < k
        limit = partition(arr.points, rounds[0]).high
        expected = []
        for r in rounds:
            pr = partition(arr.points, r)
            ci, floor_sum = ranked_cells(arr, pr, k)[0]
            if floor_sum > 0 or (poor and len(pr.cells[ci].point_indices) <= limit):
                expected.append((r, ci, floor_sum))
        assert [(a.r, a.cell_index, a.floor_sum) for a in report.attempts] == expected
        assert report.t == pr.t and (pr.t == 1) == (end == "one cell")
        assert 1 <= len(report.attempts) <= cfg.fallback_cells
        assert (len(report.attempts) == cfg.fallback_cells) == (end == "cap")
        assert all(a.r > b.r for a, b in zip(report.attempts, report.attempts[1:]))
        assert all(a.floor_sum > 0 for a in report.attempts) != poor
        assert not any(a.certified for a in report.attempts)

    def test_lines_with_few_points_count_in_the_ranking(self):
        """Every line counts toward a cell's floor-sum, however few points it
        holds: the one cell's floor-sum is the audited total, all 13 of its
        k-point runs, though only 4 of them lie on lines holding >= 2k points."""
        arr = random_arrangement(2, 153, 81, 30)
        cfg = PipelineConfig(k=4, c=measured_density(arr))
        report = find_complete_tuple(arr, cfg)
        assert isinstance(report, NotFoundReport)
        assert [(a.cell_index, a.floor_sum) for a in report.attempts] == [(0, 13)]
        audit = inequality_audit(arr, partition(arr.points, report.r), cfg)
        assert audit.floor_sum_total == 13

    def test_each_cell_membership_is_built_once(self, monkeypatch):
        """One ``_memberships`` call per round: the round's top cell and its
        search read its per-cell entries."""
        built, attempted = [], []
        real_memberships, real_attempt = pipeline._memberships, pipeline._attempt_cell

        def memberships(arr, pr):
            built.append((pr, real_memberships(arr, pr)))
            return built[-1][1]

        def attempt(arr, cell, membership, cell_index, floor_sum, cfg, r):
            attempted.append((r, cell_index, membership))
            return real_attempt(arr, cell, membership, cell_index, floor_sum, cfg, r)
        monkeypatch.setattr(pipeline, "_memberships", memberships)
        monkeypatch.setattr(pipeline, "_attempt_cell", attempt)
        arr = parallel_rows(4, 8)
        report = find_complete_tuple(arr, PipelineConfig(k=3, c=1, beta_k=100))
        # Rounds 32 and 16 have top floor-sum 0 and are not searched; no
        # cell has a tuple, so rounds 8, 4 and the one-cell round 2 are.
        assert isinstance(report, NotFoundReport)
        assert [pr.r_requested for pr, _ in built] == [32, 16, 8, 4, 2]
        assert [r for r, _, _ in attempted] == [a.r for a in report.attempts] == [8, 4, 2]
        of_round = {pr.r_requested: result for pr, result in built}
        assert all(membership is of_round[r][ci] for r, ci, membership in attempted)
        for pr, result in built:
            cells = partition(arr.points, pr.r_requested).cells
            assert [cell.point_indices for cell in pr.cells] == \
                [cell.point_indices for cell in cells]
            for cell, by_line in zip(cells, result):
                assert set().union(*by_line.values()) == set(cell.point_indices)

    @pytest.mark.parametrize("arr, k, sheared", [
        (grid_construction(4), 3, False),
        (grid_construction(5), 5, False),
        (spanned_lines([(x, y) for x in range(5) for y in range(5)]), 3, True),
        (spanned_lines([(x, y) for x in range(5) for y in range(10)]), 3, True),
    ], ids=["grid4-k3", "grid5-k5", "lattice5-k3", "lattice5x10-k3"])
    def test_kept_dual_edges_stay_inside_one_run(self, monkeypatch, arr, k, sheared):
        """The searched joined-pair graph is, edge for edge, the one built by
        dualizing the cell sub-arrangement (sheared if a line is vertical),
        keeping every dual point and only pairs inside one k-point segment
        run; each edge carries the arrangement line whose dual point labels
        that edge.  Each kept edge joins two points of one run, or lies
        on a line holding fewer than k cell points."""
        searched = spy_searches(monkeypatch)
        cfg = PipelineConfig(k=k, c=measured_density(arr))
        find_complete_tuple(arr, cfg)
        shears, on_runs = [], 0
        for pts, r, groups, _ in searched:
            edges = group_edges(groups)
            cell_points = set(pts)
            pr = partition(arr.points, r)
            cell = next(c for c in pr.cells if set(c.point_indices) == cell_points)
            on_cell = {li: sum(1 for i in arr.points_on_line(li) if i in cell_points)
                       for li in range(arr.n_lines)}
            lines = [li for li in range(arr.n_lines) if on_cell[li] >= 2]
            sub = Arrangement([arr.points[i] for i in pts], [arr.lines[li] for li in lines])
            shears.append(generic_shear_value(sub.lines))
            ref_dual = dualize(shear(sub, shears[-1]) if shears[-1] else sub)
            ref = build_graph(ref_dual, range(ref_dual.n_points))
            along = {li: sorted(on, key=lambda i: (arr.points[i].x, arr.points[i].y))
                     for li, on in pipeline._memberships(arr, pr)[pr.cells.index(cell)].items()}
            runs_on = k_point_runs(along, k)
            run_of = {(li, i): (li, n) for li, runs in runs_on.items()
                      for n, run in enumerate(runs) for i in run}
            expected = {(u, v): lines[w] for (u, v), w in ref.edges.items()
                        if on_cell[lines[w]] < k or (run_of.get((lines[w], pts[u])) is not None
                                                     and run_of[lines[w], pts[u]]
                                                     == run_of.get((lines[w], pts[v])))}
            assert edges == expected
            for (u, v), li in edges.items():
                assert incident(arr.points[pts[u]], arr.lines[li])
                assert incident(arr.points[pts[v]], arr.lines[li])
                if on_cell[li] >= k:
                    assert (li, pts[u]) in run_of
                    assert run_of[li, pts[u]] == run_of.get((li, pts[v]))
                    on_runs += 1
        assert any(shears) == sheared
        assert searched and on_runs

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("family, size", [
        *(("grid", n) for n in range(5, 11)), *(("lattice", m) for m in range(5, 8))])
    def test_each_cell_yields_the_first_collinear_free_clique(self, monkeypatch, family, size, k):
        """The label-pruned search gives, cell by cell, the clique that
        filtering every clique for a ``collinear`` triple gives."""
        arr = (grid_construction(size) if family == "grid" else
               spanned_lines([(x, y) for x in range(size) for y in range(size)]))
        searched = spy_searches(monkeypatch)
        result = find_complete_tuple(arr, PipelineConfig(k=k, c=measured_density(arr)))
        assert searched
        for pts, _, groups, first in searched:
            assert first == first_collinear_free_clique([arr.points[i] for i in pts],
                                                        group_edges(groups), k)
        if isinstance(result, CompleteTupleCertificate):
            pts, _, _, first = searched[-1]
            assert result.point_indices == tuple(pts[v] for v in first)


class TestRevalidation:
    def test_tampered_certificate_rejected(self):
        arr = grid_construction(3)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 2)))
        bad = CompleteTupleCertificate(cert.k, cert.point_indices,
                                       dict(cert.connecting_lines),
                                       {p: v + 1 for p, v in cert.locality.items()},
                                       cert.cell_index, cert.r)
        with pytest.raises(CertificateError):
            revalidate_certificate(arr, bad)

    def test_wrong_line_rejected(self):
        arr = grid_construction(3)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 2)))
        connecting = dict(cert.connecting_lines)
        pair = next(iter(connecting))
        bad_line = next(li for li in range(arr.n_lines)
                        if not incident(arr.points[pair[0]], arr.lines[li]))
        connecting[pair] = bad_line
        bad = CompleteTupleCertificate(cert.k, cert.point_indices, connecting,
                                       dict(cert.locality), cert.cell_index, cert.r)
        with pytest.raises(CertificateError):
            revalidate_certificate(arr, bad)

    def test_tampered_locality_of_vertical_and_fractional_pairs_rejected(self):
        """A vertical pair and a pair with Fraction coordinates, each with one
        point strictly inside its segment; points in each slab but off the
        segment, and one beyond it, do not count."""
        a, b, c = Point(0, 0), Point(0, 2), Point(Fraction(3, 2), Fraction(1, 3))
        on_ab, on_ac = Point(0, 1), Point(Fraction(3, 4), Fraction(1, 6))
        off = [Point(0, 7), Point(1, 5), Point(Fraction(1, 2), Fraction(-1, 3))]
        arr = spanned_lines([a, b, c, on_ab, on_ac, *off])
        connecting, locality = {}, {}
        for p, q, between in ((a, b, 1), (a, c, 1), (b, c, 0)):
            (((i, j), li),) = joining(arr, p, q).items()
            connecting[min(i, j), max(i, j)] = li
            locality[min(i, j), max(i, j)] = between
        points = tuple(sorted({i for pair in connecting for i in pair}))
        revalidate_certificate(arr, CompleteTupleCertificate(3, points, connecting, locality, 0, 1))
        for pair in list(locality)[:2]:   # the vertical pair, then the fractional one
            for wrong in (0, 2):
                bad = CompleteTupleCertificate(3, points, connecting, {**locality, pair: wrong}, 0, 1)
                with pytest.raises(CertificateError, match="locality of"):
                    revalidate_certificate(arr, bad)

    @staticmethod
    def refusal(arr, cert) -> str:
        with pytest.raises(CertificateError) as info:
            revalidate_certificate(arr, cert)
        return str(info.value)

    def test_each_refusal_of_a_tampered_grid_certificate(self):
        arr = grid_construction(3)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 2)))
        revalidate_certificate(arr, cert)
        i, j, m = cert.point_indices
        first = next(iter(cert.connecting_lines))
        assert self.refusal(arr, replace(cert, point_indices=(i, j))) == \
            "point indices not k distinct values"
        assert self.refusal(arr, replace(cert, point_indices=(i, j, i))) == \
            "point indices not k distinct values"
        assert self.refusal(arr, replace(cert, point_indices=(i, j, arr.n_points))) == \
            "point index out of range"
        assert self.refusal(arr, replace(cert, point_indices=(i, j, -1))) == \
            "point index out of range"
        fewer = {pair: li for pair, li in cert.connecting_lines.items() if pair != first}
        assert self.refusal(arr, replace(cert, connecting_lines=fewer)) == \
            "connecting lines do not cover exactly all pairs"
        for li in (arr.n_lines, -1):
            off = {**cert.connecting_lines, first: li}
            assert self.refusal(arr, replace(cert, connecting_lines=off)) == \
                "line index out of range"
        fewer = {pair: n for pair, n in cert.locality.items() if pair != first}
        assert self.refusal(arr, replace(cert, locality=fewer)) == \
            "locality map does not cover exactly all pairs"

    def test_collinear_points_refused(self):
        arr = Arrangement([Point(x, 0) for x in range(3)], [Line(0, 1, 0)])
        pairs = [(0, 1), (0, 2), (1, 2)]
        cert = CompleteTupleCertificate(3, (0, 1, 2), dict.fromkeys(pairs, 0),
                                        {(0, 1): 0, (0, 2): 1, (1, 2): 0}, 0, 1)
        assert self.refusal(arr, cert) == "three certificate points are collinear"

    def test_true_locality_of_k_refused(self):
        """Three points strictly inside the segment of a pair, reported as
        they are: right, yet not below k = 3."""
        a, b, c = Point(0, 0), Point(4, 0), Point(0, 1)
        arr = Arrangement([a, b, c, *(Point(x, 0) for x in (1, 2, 3))],
                          [Line(0, 1, 0), Line(1, 0, 0), Line(1, 4, -4)])
        cert = CompleteTupleCertificate(3, (0, 1, 2), {(0, 1): 0, (0, 2): 1, (1, 2): 2},
                                        {(0, 1): 3, (0, 2): 0, (1, 2): 0}, 0, 1)
        assert locality_counts(arr, cert.connecting_lines) == cert.locality
        assert self.refusal(arr, cert) == "locality of (0, 1) not below k"


class TestInequalityAudit:
    """The counting chain at one partition: every field exact, both links asserted."""

    def test_empty_arrangement_is_occupancy(self):
        arr = Arrangement([], [])
        audit = inequality_audit(arr, partition(arr.points, 1), PipelineConfig(k=3, c=1))
        assert audit == InequalityAudit(0, 0, 3, Fraction(1), 1, 0, 0, 0, 0, "occupancy")

    def test_single_line_closed_form(self):
        """14 collinear points in one cell at k = 3: four runs of 3, and the
        identity is tight, 3 * 4 = 14 - 2 * 1.  At c = 1, below the density
        hypothesis, the chain stops at its first link, positive floor-sum or not."""
        arr = Arrangement([Point(x, 0) for x in range(14)], [Line(0, 1, 0)])
        pr = partition(arr.points, 1)
        audit = inequality_audit(arr, pr, PipelineConfig(k=3, c=Fraction(1, 10)))
        assert audit == InequalityAudit(14, 1, 3, Fraction(1, 10), 1, 14, 1, 4, 1, "positive")
        assert 3 * audit.floor_sum_total == audit.n_incidences - 2 * audit.occupancy
        audit = inequality_audit(arr, pr, PipelineConfig(k=3, c=1))
        assert (audit.floor_sum_total, audit.status) == (4, "density")

    def test_grid3_reports_consistently(self):
        """Every field at r = 2 recounted from brute-force incidences, the
        oracle ranking and the closed-rectangle test."""
        arr = grid_construction(3)
        cfg = PipelineConfig(k=3, c=measured_density(arr))
        pr = partition(arr.points, 2)
        cell_of = {pi: ci for ci, cell in enumerate(pr.cells) for pi in cell.point_indices}
        pairs = brute_incidences(arr)
        occupancy = len({(cell_of[pi], li) for pi, li in pairs})
        max_crossing = max(sum(line_crosses_rect(ln, cell.region) for cell in pr.cells)
                           for ln in arr.lines)
        assert Fraction(len(pairs))**3 >= cfg.c**3 * arr.n_points**4
        status = "occupancy" if len(pairs) <= 2 * occupancy else "positive"
        assert inequality_audit(arr, pr, cfg) == InequalityAudit(
            arr.n_points, arr.n_lines, 3, cfg.c, 2, len(pairs), occupancy,
            sum(floor_sum for _, floor_sum in ranked_cells(arr, pr, 3)), max_crossing, status)

    def test_grid_sweep_names_every_dead_partition(self):
        """Grids N = 5..16 x k = 3..6 at the first round's r under ``--c
        auto``'s c: both asserted links hold, all 20 partitions with floor-sum
        total 0 stop at "occupancy", and each "positive" one has a top cell
        of positive floor-sum."""
        statuses, dead = Counter(), 0
        for n in range(5, 17):
            arr = grid_construction(n)
            c = measured_density(arr)
            for k in range(3, 7):
                cfg = PipelineConfig(k=k, c=c)
                r = max(1, min(arr.n_points, ceil_scaled_pow23(arr.n_points, cfg.beta_k)))
                audit = inequality_audit(arr, partition(arr.points, r), cfg)
                statuses[audit.status] += 1
                if audit.floor_sum_total == 0:
                    dead += 1
                    assert audit.status == "occupancy", (n, k)
                if audit.status == "positive":
                    assert pipeline._top_cell(arr, r, k)[2] > 0, (n, k)
        assert dead == 20
        assert statuses == {"positive": 25, "occupancy": 23}
