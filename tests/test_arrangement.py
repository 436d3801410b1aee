"""Arrangement model, generators, incidence engine, duality."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incidences import (Arrangement, CompleteTupleCertificate, FewerThanTwoPointsError, Line,
                        PipelineConfig, Point, VerticalLinePresentError,
                        count_triangles, dualize, find_complete_tuple,
                        generic_shear_value, grid_construction, incidence_stats,
                        line_through, measured_density, shear,
                        spanned_lines, st_bound_report)
from incidences import arrangement
from incidences.cli import main
from incidences.documents import arrangement_to_document, dumps_canonical
from incidences.arrangement import _residue_walk
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


def mixed_arrangement(seed: int, n_columns: int, n_rows: int) -> Arrangement:
    """Points on n_columns x-values and n_rows y-values with denominators 1, 2,
    3 and 16; spanned, vertical, horizontal, random and point-free lines."""
    rng = random.Random(seed)

    def value(i):
        den = (1, 2, 3, 16)[i % 4]
        num = rng.randint(-40, 40)
        while gcd(num, den) != 1:
            num += 1
        return Fraction(num, den)

    xs = [value(i) for i in range(n_columns)]
    ys = [value(i) for i in range(n_rows)]
    points = list(dict.fromkeys(Point(rng.choice(xs), rng.choice(ys))
                                for _ in range(3 * max(n_columns, n_rows))))
    lines = {line_through(*rng.sample(points, 2)): None for _ in range(40)}
    for x in xs[:3]:
        lines[Line.from_coefficients(1, 0, -x)] = None
    for y in ys[:3]:
        lines[Line.from_coefficients(0, 1, -y)] = None
    for _ in range(10):
        lines[Line.from_coefficients(rng.randint(-5, 5), rng.randint(1, 5),
                                     rng.randint(-50, 50))] = None
    # Point-free: vertical, horizontal and sloped, all far outside [-40, 40]^2.
    lines.update(dict.fromkeys([Line(1, 0, -1000), Line(0, 1, 1000), Line(1, 1, -10**4)]))
    return Arrangement(points, lines)


def spread_arrangement(seed: int) -> Arrangement:
    """40 points with columns spread over [0, 10^6] and denominators 1, 2, 3
    and 16, every line they span, and lines that the residue-class walk must
    get right: horizontal ones, ones through a single point or none, and a
    line 7a*x + 7b*y + c = 0 whose gcd 7 does not divide c*d (d = 48), next
    to a point that solves it when c*d/7 is rounded down."""
    rng = random.Random(seed)

    def value(i):
        den = (1, 2, 3, 16)[i % 4]
        num = rng.randint(0, 10**6 * den)
        while gcd(num, den) != 1:
            num += 1
        return Fraction(num, den)

    points = list(dict.fromkeys(Point(value(i), value(i + 1)) for i in range(40)))
    lines = dict.fromkeys(line_through(p, q) for i, p in enumerate(points) for q in points[i + 1:])
    for p in points[:3]:
        # Through p alone, with |b| near 10^7: few columns in its residue class.
        a, b = rng.randint(1, 10**3), -rng.randint(10**7, 2 * 10**7)
        lines[Line.from_coefficients(a, b, -(a * p.x + b * p.y))] = None
        lines[Line.from_coefficients(0, 1, -p.y)] = None
    lines[Line.from_coefficients(0, 1, Fraction(-1, 5))] = None
    for _ in range(3):
        lines[Line.from_coefficients(rng.randint(1, 10**3), rng.randint(10**7, 2 * 10**7),
                                     rng.randint(-10**9, 10**9))] = None
    a, b = rng.randint(1, 10**3), -rng.randint(5 * 10**6, 10**7)
    while gcd(a, b) != 1:
        a += 1
    c = rng.choice([1, 2, 3, 4, 5, 6]) + 7 * rng.randint(-10**6, 10**6)
    c_floor = 48 * c // 7
    x = -c_floor * pow(a, -1, -b) % -b
    points.append(Point(Fraction(x, 48), Fraction(-(a * x + c_floor) // b, 48)))
    lines[Line(7 * a, 7 * b, c)] = None
    return Arrangement(points, lines)


WALK_INPUTS = {
    **{f"walk-spread-{seed}": (lambda seed=seed: spread_arrangement(seed)) for seed in range(3)},
    "walk-lattice7": lambda: spanned_lines([Point(x, y) for x in range(7) for y in range(7)]),
}


def by_line_then_point(pairs):
    return sorted(pairs, key=lambda ij: (ij[1], ij[0]))


def spy_on_the_walk(monkeypatch) -> dict:
    """Record (a, b, c*d) -> the progression ``_residue_walk`` returned."""
    calls = {}

    def spy(a, b, cd, lo, hi, n_columns):
        calls[a, b, cd] = _residue_walk(a, b, cd, lo, hi, n_columns)
        return calls[a, b, cd]
    monkeypatch.setattr(arrangement, "_residue_walk", spy)
    return calls


class TestHashedIncidences:
    """The hashed build against the pairwise scan ``brute_incidences``."""

    @pytest.mark.parametrize("case", [
        *(f"fewer-{side}-{seed}" for side in ("columns", "rows") for seed in range(6)),
        *WALK_INPUTS])
    def test_matches_the_pairwise_scan(self, case, monkeypatch):
        if case in WALK_INPUTS:
            self.check_a_walked_input(WALK_INPUTS[case](), monkeypatch)
            return
        side, seed = case.split("-")[1:]
        n_columns, n_rows = (4, 15) if side == "columns" else (15, 4)
        arr = mixed_arrangement(int(seed), n_columns, n_rows)
        assert list(arr.incidences) == by_line_then_point(brute_incidences(arr))
        columns = {p.x for p in arr.points}
        rows = {p.y for p in arr.points}
        assert (len(columns) < len(rows)) == (n_columns < n_rows)
        denominators = {Fraction(v).denominator for v in columns | rows}
        assert {2, 3, 16} <= denominators
        counts = [len(arr.points_on_line(j)) for j in range(arr.n_lines)]
        kinds = {("vertical" if ln.b == 0 else "horizontal" if ln.a == 0 else "sloped",
                  cnt > 0) for ln, cnt in zip(arr.lines, counts)}
        assert kinds == {(kind, hit) for kind in ("vertical", "horizontal", "sloped")
                         for hit in (True, False)}

    @staticmethod
    def check_a_walked_input(arr, monkeypatch):
        walks = spy_on_the_walk(monkeypatch)
        assert list(arr.incidences) == by_line_then_point(brute_incidences(arr))
        d = lcm(*(Fraction(v).denominator for p in arr.points for v in (p.x, p.y)))
        counts = [len(arr.points_on_line(j)) for j in range(arr.n_lines)]
        walked = [(ln, cnt) for ln, cnt in zip(arr.lines, counts)
                  if walks.get((ln.a, ln.b, ln.c * d)) is not None]
        assert {ln.a * ln.b > 0 for ln, cnt in walked if cnt} == {True, False}
        if d == 1:
            return
        assert {min(cnt, 2) for _, cnt in walked} == {0, 1, 2}
        xs = [p.x for p in arr.points]
        assert max(xs) - min(xs) > 9 * 10**5
        assert {2, 3, 16} <= {Fraction(v).denominator for p in arr.points for v in (p.x, p.y)}
        assert {cnt > 0 for ln, cnt in zip(arr.lines, counts) if ln.a == 0} == {True, False}
        unsolvable = [ln for ln, _ in walked
                      if gcd(ln.a, ln.b) > 1 and ln.c * d % gcd(ln.a, ln.b)]
        assert unsolvable and all(walks[ln.a, ln.b, ln.c * d] == range(0) for ln in unsolvable)

    def test_fractional_point_on_an_integral_line(self):
        # 16x - y - 35 = 0 at y = -58 gives x = -23/16: an integral line holds a
        # point with a fractional coordinate, found only once denominators are
        # cleared.  The second point shares the row but is not on the line.
        arr = Arrangement([Point(Fraction(-23, 16), -58), Point(0, -58)], [Line(16, -1, -35)])
        assert list(arr.incidences) == [(0, 0)]
        assert list(arr.incidences) == by_line_then_point(brute_incidences(arr))

    def test_vertical_line_between_columns(self):
        # x = 1/2 floors to the column x = 0, which holds a point; x = -1/2 floors to x = -1.
        arr = Arrangement([Point(0, 0), Point(-1, 5)], [Line(2, 0, -1), Line(2, 0, 1)])
        assert arr.incidences == ()

    def test_lines_without_points_and_points_without_lines(self):
        assert Arrangement([], [Line(1, 0, 0), Line(0, 1, 3)]).incidences == ()
        assert Arrangement([Point(1, 2), Point(Fraction(1, 3), 0)], []).incidences == ()


class TestResidueWalk:
    """``_residue_walk`` against a scan of every column in [lo, hi]."""

    @pytest.mark.parametrize("seed", range(4))
    def test_is_the_solvable_columns_when_fewer_than_the_columns(self, seed):
        rng = random.Random(seed)
        for _ in range(500):
            a, b = rng.randint(0, 30), rng.choice([-1, 1]) * rng.randint(1, 30)
            cd, lo = rng.randint(-200, 200), rng.randint(-50, 50)
            hi = lo + rng.randint(0, 60)
            solvable = [x for x in range(lo, hi + 1) if (a * x + cd) % b == 0]
            # Around the boundary, where the walk and the scan trade places.
            n_columns = max(1, len(solvable) + rng.choice([-1, 0, 1]))
            walk = _residue_walk(a, b, cd, lo, hi, n_columns)
            assert (walk is None) == (len(solvable) >= n_columns)
            if walk is not None:
                assert list(walk) == solvable

    def test_terms_past_maxsize(self):
        assert _residue_walk(1, 1, 0, 0, 10**30, 3) is None
        assert list(_residue_walk(1, 10**30, 0, 0, 10**30, 3)) == [0, 10**30]
        # x + y = -10^-30 over the columns 0, 1 and 2 * 10^30 (d = 10^30).
        D = 10**30
        arr = Arrangement([Point(0, 0), Point(2, 0), Point(Fraction(1, D), -Fraction(2, D))],
                          [Line(D, D, 1), Line(0, 1, 0)])
        assert list(arr.incidences) == [(2, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("n", [2, 4])
    def test_grid_keeps_the_scan(self, n, monkeypatch):
        walks = spy_on_the_walk(monkeypatch)
        arr = grid_construction(n)
        assert arr.n_incidences == n**4
        assert all(w is None for w in walks.values())


def shuffled(points, seed):
    points = list(points)
    random.Random(seed).shuffle(points)
    return points


def shuffled_grid(n: int, seed: int) -> Arrangement:
    """``grid_construction(n)`` with its points in random index order."""
    grid = grid_construction(n)
    return Arrangement(shuffled(grid.points, seed), grid.lines)


def shuffled_lattice(side: int, seed: int, den: int = 1) -> Arrangement:
    """The spanned side x side lattice of step 1/den, in random index order:
    it has vertical lines, and index order is not order along any line."""
    return spanned_lines(shuffled([(Fraction(x, den), Fraction(y, den))
                                   for x in range(side) for y in range(side)], seed))


def assert_index_in_order(arr: Arrangement) -> None:
    """The index and the views derived from it against ``brute_incidences``,
    and their order: each line's points strictly along it (x ascending, or y
    ascending on a vertical line); each point's lines, not built until first
    asked for, ascending; the pair list, derived last, still sorted by (line,
    point)."""
    brute = brute_incidences(arr)
    on_brute: dict[int, set[int]] = {}
    through_brute: dict[int, set[int]] = {}
    for i, j in brute:
        on_brute.setdefault(j, set()).add(i)
        through_brute.setdefault(i, set()).add(j)
    for j, ln in enumerate(arr.lines):
        on = arr.points_on_line(j)
        assert len(on) == len(set(on)) and set(on) == on_brute.get(j, set())
        coords = [arr.points[i].y if ln.b == 0 else arr.points[i].x for i in on]
        assert all(u < v for u, v in zip(coords, coords[1:]))
    assert arr._lines_through_point is None
    for i in range(arr.n_points):
        assert list(arr.lines_through_point(i)) == sorted(through_brute.get(i, ()))
    assert arr._incidences is None
    assert arr.n_incidences == len(brute)
    assert list(arr.incidences) == by_line_then_point(brute)
    assert arr.n_incidences == len(arr.incidences)


class TestIndexOrder:
    """``points_on_line`` runs along each line in every branch of the engine."""

    @pytest.mark.parametrize("arr", [
        shuffled_lattice(5, 1), shuffled_lattice(4, 2, den=3), mixed_arrangement(7, 4, 15),
    ], ids=["lattice5", "lattice4-thirds", "mixed"])
    def test_vertical_columns_in_ascending_y(self, arr):
        vertical = [arr.points_on_line(j) for j, ln in enumerate(arr.lines) if ln.b == 0]
        assert any(len(on) >= 3 and list(on) != sorted(on) for on in vertical)
        assert_index_in_order(arr)

    @pytest.mark.parametrize("n, seed", [(3, 1), (4, 2)])
    def test_column_solve_on_a_shuffled_grid(self, n, seed, monkeypatch):
        walks = spy_on_the_walk(monkeypatch)
        arr = shuffled_grid(n, seed)
        assert any(list(arr.points_on_line(j)) != sorted(arr.points_on_line(j))
                   for j in range(arr.n_lines))
        # Every grid line has |b| = 1, so every line solves at each column.
        assert all(w is None for w in walks.values())
        assert_index_in_order(arr)

    @pytest.mark.parametrize("seed", range(3))
    def test_residue_walk_on_spread_coordinates(self, seed, monkeypatch):
        walks = spy_on_the_walk(monkeypatch)
        arr = spread_arrangement(seed)
        arr.points_on_line(0)   # builds the index, which fills ``walks``
        d = lcm(*(Fraction(v).denominator for p in arr.points for v in (p.x, p.y)))
        walked = [arr.points_on_line(j) for j, ln in enumerate(arr.lines)
                  if walks.get((ln.a, ln.b, ln.c * d)) is not None]
        assert any(list(on) != sorted(on) for on in walked)
        assert {2, 3, 16} <= {Fraction(v).denominator for p in arr.points for v in (p.x, p.y)}
        assert_index_in_order(arr)

    @pytest.mark.parametrize("arr", [
        shuffled_lattice(5, 6), mixed_arrangement(8, 4, 15), Arrangement([Point(0, 0)], []),
    ], ids=["lattice5", "mixed", "no-line"])
    def test_pencils_as_the_first_accessor(self, arr):
        through_brute: dict[int, list[int]] = {}
        for i, j in brute_incidences(arr):
            through_brute.setdefault(i, []).append(j)
        assert arr._points_on_line is None
        pencils = [arr.lines_through_point(i) for i in range(arr.n_points)]
        assert pencils == [tuple(sorted(through_brute.get(i, ()))) for i in range(arr.n_points)]
        assert arr._incidences is None

    def test_no_search_or_census_builds_the_pair_list(self):
        arr = shuffled_lattice(6, 3)
        cert = find_complete_tuple(arr, PipelineConfig(k=4, c=measured_density(arr)))
        assert isinstance(cert, CompleteTupleCertificate)
        assert arr._incidences is None and arr._lines_through_point is None
        arr = shuffled_lattice(6, 4)
        incidence_stats(arr)
        measured_density(arr)
        st_bound_report(arr, 1)
        count_triangles(arr)
        assert arr._incidences is None and arr._lines_through_point is None

    @pytest.mark.parametrize("argv, expected", [
        (["generate", "--kind", "spanned"], 0), (["analyze"], 0),
        (["analyze", "--format", "csv"], 0), (["partition", "--r", "4"], 0),
        (["theorem1", "--k", "3", "--c", "auto"], 0), (["theorem1", "--k", "13", "--c", "auto"], 3),
        (["theorem1", "--k", "4", "--c", "1", "--format", "csv"], 0),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else str(v))
    def test_no_command_builds_the_pair_list(self, argv, expected, tmp_path, monkeypatch):
        src = tmp_path / "lattice.json"
        src.write_text(dumps_canonical(arrangement_to_document(shuffled_lattice(6, 5))))
        made = []
        real = Arrangement.__init__

        def init(arr, points, lines):
            real(arr, points, lines)
            made.append(arr)
        monkeypatch.setattr(Arrangement, "__init__", init)
        code = main([*argv, "--input", str(src), "--output", str(tmp_path / "out")])
        assert code == expected and made
        # Either view, once read, stays cached on its arrangement.
        assert all(a._incidences is None and a._lines_through_point is None for a in made)


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
