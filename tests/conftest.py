"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's cached indexes and graph
machinery: they recompute everything from the exact kernel predicates so the
fast paths always have something independent to be checked against.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import pytest

from incidences import (Arrangement, Line, Point, concurrent, incident,
                        intersection, spanned_lines, strictly_between)
from incidences.cli import random_arrangement
from incidences.documents import SCHEMA_VERSION, DocumentError


class IntSubclass(int):
    """An int that is not exactly ``int``: readers and constructors accept it."""


def reference_dumps(obj) -> str:
    """The canonical document text by definition, through ``json``'s own indenting."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def first_difference(text: str, expected: str) -> tuple[int, str, str] | None:
    """None when the texts are equal, else where they first differ, in context.

    Tests assert on this rather than on ``text == expected``: pytest would
    diff two megabyte texts line by line to explain a failure.
    """
    if text == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
              min(len(text), len(expected)))
    return at, text[max(0, at - 40):at + 40], expected[max(0, at - 40):at + 40]


def reference_arrangement_from_document(doc) -> tuple[Arrangement, dict]:
    """The document reader by its per-entry checks alone: every coordinate
    pair through ``Fraction`` and every line through ``Line.from_coefficients``."""
    def pair_to_rational(pair, where):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise DocumentError(f"{where}: expected [numerator, denominator] integer pair")
        num, den = pair
        if den <= 0:
            raise DocumentError(f"{where}: denominator must be positive")
        f = Fraction(num, den)
        return f.numerator if f.denominator == 1 else f

    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    raw_points = doc.get("points")
    raw_lines = doc.get("lines")
    if not isinstance(raw_points, list) or not isinstance(raw_lines, list):
        raise DocumentError("document needs 'points' and 'lines' lists")
    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DocumentError(f"points[{i}]: expected [x, y]")
        points.append(Point(pair_to_rational(entry[0], f"points[{i}].x"),
                            pair_to_rational(entry[1], f"points[{i}].y")))
    lines = []
    for j, entry in enumerate(raw_lines):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
            raise DocumentError(f"lines[{j}]: expected [a, b, c] integer triple")
        try:
            lines.append(Line.from_coefficients(*entry))
        except ValueError as exc:
            raise DocumentError(f"lines[{j}]: {exc}") from exc
    try:
        arr = Arrangement(points, lines)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    metadata = doc.get("metadata")
    if metadata is None:
        return arr, {}
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return arr, metadata


def brute_incidences(arr: Arrangement) -> set[tuple[int, int]]:
    """Independent (point, line) incidence scan via the kernel predicate."""
    return {(i, j) for i, p in enumerate(arr.points)
            for j, l in enumerate(arr.lines) if incident(p, l)}


def brute_locality(arr: Arrangement, connecting) -> dict[tuple[int, int], int]:
    """For each pair of ``connecting``, the arrangement points strictly inside
    its segment, by a ``strictly_between`` scan of every point; the line
    indices are not read."""
    return {(i, j): sum(1 for z in arr.points if strictly_between(arr.points[i], arr.points[j], z))
            for i, j in connecting}


def brute_degeneracy_order(n: int, adj: list[set[int]]) -> list[int]:
    """Removal order by repeatedly deleting a min-degree vertex (ties by index)."""
    degree = [len(adj[v]) for v in range(n)]
    removed = [False] * n
    order = []
    for _ in range(n):
        v = min((degree[u], u) for u in range(n) if not removed[u])[1]
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                degree[w] -= 1
    return order


def pair_joined(arr: Arrangement, i: int, j: int) -> bool:
    """True iff some arrangement line passes through both points."""
    return any(incident(arr.points[i], l) and incident(arr.points[j], l)
               for l in arr.lines)


def brute_triangles(arr: Arrangement) -> int:
    """Triple scan: pairwise-joined, non-collinear point triples."""
    from incidences import collinear
    count = 0
    for i, j, k in combinations(range(arr.n_points), 3):
        if not (pair_joined(arr, i, j) and pair_joined(arr, i, k) and pair_joined(arr, j, k)):
            continue
        if collinear(arr.points[i], arr.points[j], arr.points[k]):
            continue
        count += 1
    return count


def brute_complete_line_tuples(arr: Arrangement, kept_points: set[int], k: int) -> list[tuple[int, ...]]:
    """All k-subsets of lines, pairwise crossing at kept points, general position."""
    kept_coords = {arr.points[i] for i in kept_points}
    result = []
    for combo in combinations(range(arr.n_lines), k):
        ok = True
        for a, b in combinations(combo, 2):
            q = intersection(arr.lines[a], arr.lines[b])
            if q is None or q not in kept_coords:
                ok = False
                break
        if not ok:
            continue
        if any(concurrent(arr.lines[a], arr.lines[b], arr.lines[c])
               for a, b, c in combinations(combo, 3)):
            continue
        result.append(combo)
    return result


def edge_groups(edges) -> list:
    """Each edge its own 2-vertex group with its own label: ``k_cliques``
    then prunes nothing."""
    return list(enumerate(edges))


def group_edges(groups) -> dict:
    """The edges of a groups-form graph, each mapped to its group's label;
    no edge may lie in two groups."""
    edges = {}
    for label, members in groups:
        for pair in combinations(sorted(members), 2):
            assert pair not in edges, "two groups share an edge"
            edges[pair] = label
    return edges


def k_point_runs(by_line: dict, k: int) -> dict:
    """line -> its disjoint runs of k consecutive points, for each line
    holding >= k points; ``by_line`` lists each line's points in order along
    it, and a remainder of fewer than k points is dropped."""
    return {li: [members[g * k:(g + 1) * k] for g in range(len(members) // k)]
            for li, members in by_line.items() if len(members) >= k}


def ranked_cells(arr: Arrangement, pr, k: int) -> list[tuple[int, int]]:
    """Every cell of the partition ``pr`` as (cell index, floor-sum), by
    decreasing floor-sum, ties to the lowest index.  A floor-sum is
    sum_lines floor(|cell points on line| / k) over every line, recounted
    from ``points_on_line`` and the cell's point set."""
    sums = []
    for ci, cell in enumerate(pr.cells):
        members = set(cell.point_indices)
        sums.append((ci, sum(sum(1 for i in arr.points_on_line(li) if i in members) // k
                             for li in range(arr.n_lines))))
    return sorted(sums, key=lambda cs: (-cs[1], cs[0]))


def first_collinear_free_clique(points: list[Point], edges, k: int) -> tuple[int, ...] | None:
    """The first k-clique in ``k_cliques`` order whose points have no
    collinear triple, found by filtering after the search.  Every edge gets
    its own label, so ``k_cliques`` (itself checked against brute force)
    prunes nothing and only the ``collinear`` test decides."""
    from incidences import collinear
    from incidences.cliques import k_cliques
    for clique in k_cliques(len(points), edge_groups(edges), k):
        if not any(collinear(points[a], points[b], points[c])
                   for a, b, c in combinations(clique, 3)):
            return clique
    return None


def random_nonvertical_arrangement(seed: int, n_points: int, n_lines: int,
                                   bound: int = 60) -> Arrangement:
    """Random arrangement guaranteed shear-generic (no vertical lines)."""
    arr = random_arrangement(seed, n_points, max(n_lines * 3, n_lines + 8), bound)
    lines = [l for l in arr.lines if not l.is_vertical][:n_lines]
    if len(lines) < n_lines:
        return random_nonvertical_arrangement(seed + 1000, n_points, n_lines, bound)
    return Arrangement(arr.points, lines)


def spanned_lattice(side: int) -> Arrangement:
    """The side x side integer lattice with every line it spans."""
    return spanned_lines([(x, y) for x in range(side) for y in range(side)])


def parallel_rows(rows: int, cols: int) -> Arrangement:
    """``rows`` horizontal lines of ``cols`` integer points each, and no other
    line: no two points of different rows are joined, so no k >= 3 points in
    general position are pairwise joined, however rich the lines are."""
    return Arrangement([Point(x, y) for y in range(rows) for x in range(cols)],
                       [Line.from_slope_intercept(0, y) for y in range(rows)])


@pytest.fixture
def grid3x3():
    """3x3 integer grid with all 20 spanned lines."""
    return spanned_lines([Point(x, y) for x in range(3) for y in range(3)])


@pytest.fixture
def triangle_arrangement():
    """Three general-position lines and their three pairwise crossings."""
    l1 = Line.from_coefficients(0, 1, 0)    # y = 0
    l2 = Line.from_coefficients(1, 0, 0)    # x = 0
    l3 = Line.from_coefficients(1, 1, -2)   # x + y = 2
    pts = [intersection(l1, l2), intersection(l1, l3), intersection(l2, l3)]
    return Arrangement(pts, [l1, l2, l3])


@pytest.fixture
def concurrent_pencil():
    """Twenty concurrent lines through the origin, P = {center}."""
    lines = [Line.from_slope_intercept(m, 0) for m in range(1, 21)]
    return Arrangement([Point(0, 0)], lines)
