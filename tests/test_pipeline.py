"""Structure pipeline: cell selection, segments, search, locality, audit."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from incidences import (Arrangement, CompleteTupleCertificate, Line,
                        NotFoundReport, PipelineConfig, Point, build_graph,
                        collinear, dualize, find_complete_tuple,
                        generic_shear_value, grid_construction, incident,
                        inequality_audit, locality_counts, measured_density,
                        multiplicity_filter, partition, rank_cells,
                        revalidate_certificate, shear, spanned_lines)
from incidences import pipeline
from conftest import pair_joined


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig(k=3, c=Fraction(1, 2))
        assert cfg.beta_k == Fraction(1, 12)
        assert cfg.multiplicity_threshold == 200
        assert cfg.rich_threshold_slack == 2

    def test_threshold_never_below_k(self):
        cfg = PipelineConfig(k=5, c=Fraction(100))
        assert cfg.multiplicity_threshold == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=2, c=1)
        with pytest.raises(ValueError):
            PipelineConfig(k=3, c=0)
        with pytest.raises(ValueError):
            PipelineConfig(k=3, c=1, multiplicity_threshold=2)
        with pytest.raises(ValueError):
            PipelineConfig(k=3, c=1, fallback_cells=0)


class TestSelectRichCell:
    """The rich cell the search tries first is the head of ``rank_cells``."""

    def test_single_cell_floor_sum(self, grid3x3):
        pr = partition(grid3x3.points, 1)
        report = rank_cells(grid3x3, pr, 3)[0]
        assert report.cell_index == 0
        # 8 lines carry 3 points, 12 lines carry 2: floor sum = 8.
        assert report.floor_sum == 8
        assert sum(report.per_line_counts.values()) == grid3x3.n_incidences

    def test_concentrated_rich_line_wins(self):
        rich_pts = [Point(x, 0) for x in range(9)]
        far_pts = [Point(100 + x, 50 + (x * x) % 7) for x in range(9)]
        arr = Arrangement(rich_pts + far_pts, [Line(0, 1, 0)])
        pr = partition(arr.points, 4)
        report = rank_cells(arr, pr, 3)[0]
        assert report.floor_sum >= 3
        cell = pr.cells[report.cell_index]
        assert set(cell.point_indices) >= set(range(5))  # the rich run sits here

    def test_grid2_exhaustive_counts(self):
        arr = grid_construction(2)
        pr = partition(arr.points, 4)
        report = rank_cells(arr, pr, 3)[0]
        cell = set(pr.cells[report.cell_index].point_indices)
        for li, cnt in report.per_line_counts.items():
            members = [i for i in arr.points_on_line(li) if i in cell]
            assert len(members) == cnt

    def test_eligible_filter_restricts_accounting(self, grid3x3):
        pr = partition(grid3x3.points, 1)
        full = rank_cells(grid3x3, pr, 3)[0]
        nothing = rank_cells(grid3x3, pr, 3, eligible_lines=set())[0]
        assert nothing.floor_sum == 0 <= full.floor_sum

    def test_ranks_every_cell_by_floor_sum_then_index(self):
        rng = random.Random(1)
        arr = spanned_lines(sorted({(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(30)}))
        pr = partition(arr.points, 6)
        ranking = rank_cells(arr, pr, 3)
        assert sorted(rep.cell_index for rep in ranking) == list(range(pr.t))
        assert [rep.cell_index for rep in ranking] != list(range(pr.t))
        keys = [(-rep.floor_sum, rep.cell_index) for rep in ranking]
        assert keys == sorted(keys)
        for rep in ranking:
            cell = set(pr.cells[rep.cell_index].point_indices)
            assert rep.floor_sum == sum(
                sum(1 for i in arr.points_on_line(li) if i in cell) // 3
                for li in range(arr.n_lines))


class TestBreakIntoSegments:
    """The k-point runs of one cell, as ``_attempt_cell`` builds them."""

    def _runs(self, arr, k, monkeypatch):
        made = []
        real = pipeline._runs

        def spy(by_line, k):
            made.append(real(by_line, k))
            return made[-1]
        monkeypatch.setattr(pipeline, "_runs", spy)
        cell = partition(arr.points, 1).cells[0]
        pipeline._attempt_cell(arr, cell, 0, 0, PipelineConfig(k=k, c=1), 1)
        assert len(made) == 1
        return made[0]

    def test_cell_lines_is_the_membership(self):
        arr = spanned_lines([(x, y) for x in range(4) for y in range(3)])
        for cell in partition(arr.points, 3).cells:
            members = set(cell.point_indices)
            expected = {li: [i for i in sorted(arr.points_on_line(li)) if i in members]
                        for li in range(arr.n_lines)}
            assert pipeline._cell_lines(arr, cell) == \
                {li: on for li, on in expected.items() if on}

    def test_exactly_k_points_one_segment(self, monkeypatch):
        pts = [Point(x, 0) for x in range(3)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        runs = self._runs(arr, 3, monkeypatch)
        assert runs == {0: [(0, 1, 2)]}
        run = runs[0][0]
        assert (arr.points[run[0]], arr.points[run[-1]]) == (Point(0, 0), Point(2, 0))

    def test_seven_points_two_segments_remainder_dropped(self, monkeypatch):
        pts = [Point(x, 2 * x) for x in range(7)]
        arr = Arrangement(pts, [Line(2, -1, 0)])
        runs = self._runs(arr, 3, monkeypatch)[0]
        assert runs == [(0, 1, 2), (3, 4, 5)]
        assert not set(runs[0]) & set(runs[1])

    def test_too_few_points_no_segment(self, monkeypatch):
        pts = [Point(0, 0), Point(1, 0)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        assert self._runs(arr, 3, monkeypatch) == {}

    def test_segments_ordered_along_line(self, monkeypatch):
        pts = [Point(x, 0) for x in (5, 1, 3, 0, 2, 4)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        xs = [[arr.points[i].x for i in run] for run in self._runs(arr, 3, monkeypatch)[0]]
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

    def test_handles_vertical_lines_via_shear(self):
        # A complete triple whose connecting lines include a vertical one.
        pts = [Point(0, 0), Point(0, 2), Point(2, 0)]
        arr = spanned_lines(pts)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 100)))
        assert isinstance(cert, CompleteTupleCertificate)
        assert set(cert.point_indices) == {0, 1, 2}


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


class TestSearchSharesLibrarySteps:
    """find_complete_tuple ranks and segments cells through the public functions."""

    def test_not_found_attempts_follow_the_ranking(self):
        arr = grid_construction(12)
        cfg = PipelineConfig(k=4, c=measured_density(arr))
        report = find_complete_tuple(arr, cfg)
        assert isinstance(report, NotFoundReport)
        assert report.accounting_mode == "all-lines"
        ranking = rank_cells(arr, partition(arr.points, report.r), cfg.k)
        assert [(a.cell_index, a.floor_sum) for a in report.attempts] == \
            [(rep.cell_index, rep.floor_sum) for rep in ranking[:cfg.fallback_cells]]
        # Ranking and search read the same membership: over all lines, each
        # floor(|cell on line| / k) is one line's run count.
        assert all(a.segments == a.floor_sum for a in report.attempts)

    @pytest.mark.parametrize("arr, k, threshold, sheared", [
        (grid_construction(4), 3, None, False),
        (grid_construction(5), 5, None, False),
        (spanned_lines([(x, y) for x in range(5) for y in range(5)]), 3, None, True),
        (spanned_lines([(x, y) for x in range(5) for y in range(10)]), 3, 3, True),
    ], ids=["grid4-k3", "grid5-k5", "lattice5-k3", "lattice5x10-k3-threshold3"])
    def test_kept_dual_edges_stay_inside_one_run(self, monkeypatch, arr, k, threshold, sheared):
        """The searched joined-pair graph is, edge for edge, the one built by
        dualizing the cell sub-arrangement (sheared if a line is vertical),
        filtering it by multiplicity and keeping only pairs inside one k-point
        segment run; each edge carries the arrangement line whose dual point
        labels that edge.  Each kept edge joins two points of one run, or lies
        on a line holding fewer than k cell points."""
        searched = []
        real = pipeline._first_general_position_clique

        def spy(points, edges, k):
            searched.append((points, edges))
            return real(points, edges, k)
        monkeypatch.setattr(pipeline, "_first_general_position_clique", spy)

        cfg = PipelineConfig(k=k, c=measured_density(arr), multiplicity_threshold=threshold)
        result = find_complete_tuple(arr, cfg)
        pr = partition(arr.points, result.r)
        point_index = {p: i for i, p in enumerate(arr.points)}
        shears, cut, on_runs = [], 0, 0
        for points, edges in searched:
            pts = [point_index[p] for p in points]
            cell_points = set(pts)
            cell = next(c for c in pr.cells if set(c.point_indices) == cell_points)
            on_cell = {li: sum(1 for i in arr.points_on_line(li) if i in cell_points)
                       for li in range(arr.n_lines)}
            lines = [li for li in range(arr.n_lines) if on_cell[li] >= 2]
            sub = Arrangement([arr.points[i] for i in pts], [arr.lines[li] for li in lines])
            shears.append(generic_shear_value(sub.lines))
            ref_dual = dualize(shear(sub, shears[-1]) if shears[-1] else sub)
            ref = build_graph(ref_dual, multiplicity_filter(ref_dual, cfg.multiplicity_threshold))
            cut += len(lines) - len(ref.kept_points)
            along = {li: sorted(on, key=lambda i: (arr.points[i].x, arr.points[i].y))
                     for li, on in pipeline._cell_lines(arr, cell).items()}
            runs_on = pipeline._runs(along, k)
            run_of = {(li, i): (li, n) for li, runs in runs_on.items()
                      for n, run in enumerate(runs) for i in run}
            expected = {(u, v): lines[w] for (u, v), w in ref.edges.items()
                        if on_cell[lines[w]] < k or (run_of.get((lines[w], pts[u])) is not None
                                                     and run_of[lines[w], pts[u]]
                                                     == run_of.get((lines[w], pts[v])))}
            assert dict(edges) == expected
            for (u, v), li in edges.items():
                assert incident(arr.points[pts[u]], arr.lines[li])
                assert incident(arr.points[pts[v]], arr.lines[li])
                if on_cell[li] >= k:
                    assert (li, pts[u]) in run_of
                    assert run_of[li, pts[u]] == run_of.get((li, pts[v]))
                    on_runs += 1
        assert any(shears) == sheared
        assert bool(cut) == (threshold is not None)
        assert searched and on_runs


class TestRevalidation:
    def test_tampered_certificate_rejected(self):
        arr = grid_construction(3)
        cert = find_complete_tuple(arr, PipelineConfig(k=3, c=Fraction(1, 2)))
        from incidences import CertificateError
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
        from incidences import CertificateError
        bad = CompleteTupleCertificate(cert.k, cert.point_indices, connecting,
                                       dict(cert.locality), cert.cell_index, cert.r)
        with pytest.raises(CertificateError):
            revalidate_certificate(arr, bad)


class TestInequalityAudit:
    def test_empty_arrangement_holds(self):
        arr = Arrangement([], [])
        pr = partition(arr.points, 1)
        audit = inequality_audit(arr, pr, PipelineConfig(k=3, c=1))
        assert audit.floor_sum_total == 0
        assert audit.status == "holds"

    def test_single_line_closed_form(self):
        n = 14
        pts = [Point(x, 0) for x in range(n)]
        arr = Arrangement(pts, [Line(0, 1, 0)])
        pr = partition(arr.points, 1)
        audit = inequality_audit(arr, pr, PipelineConfig(k=3, c=Fraction(1, 10)))
        assert audit.floor_sum_total == n // 3
        assert audit.error_term_lower <= audit.error_term_upper
        assert audit.lhs_lower <= audit.lhs_upper

    def test_grid3_reports_consistently(self):
        arr = grid_construction(3)
        cfg = PipelineConfig(k=3, c=measured_density(arr))
        pr = partition(arr.points, 2)
        audit = inequality_audit(arr, pr, cfg)
        assert audit.status in ("holds", "fails", "indeterminate")
        # The brackets really do bracket: a coarse float check.
        approx_lhs = float(cfg.c) / 3 * arr.n_points ** (4 / 3)
        assert float(audit.lhs_lower) <= approx_lhs <= float(audit.lhs_upper)
