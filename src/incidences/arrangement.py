"""Arrangement model, extremal generators, incidence engine, and duality.

An :class:`Arrangement` is an indexed point set plus an indexed line set with
a lazily materialized, cached incidence relation.  The incidence engine is the
naive exact scan over all (point, line) pairs: at the scales this toolkit
targets that is fast enough and trivially correct, and it doubles as the
oracle every other count is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import Line, Point, as_rational, line_through
from .roots import RATIONAL_SCALE, icbrt


class FewerThanTwoPointsError(ValueError):
    """spanned_lines needs at least two distinct points."""


class VerticalLinePresentError(ValueError):
    """dualize requires a shear-generic arrangement (no vertical lines)."""


class Arrangement:
    """Indexed points and lines with a cached exact incidence relation.

    Duplicate points and duplicate canonical lines are forbidden.  Once the
    incidence list is built the object is effectively immutable and safe to
    share between threads for read-only analysis.
    """

    def __init__(self, points, lines):
        self.points: tuple[Point, ...] = tuple(points)
        self.lines: tuple[Line, ...] = tuple(lines)
        if len(set(self.points)) != len(self.points):
            raise ValueError("duplicate points in arrangement")
        if len(set(self.lines)) != len(self.lines):
            raise ValueError("duplicate lines in arrangement")
        self._incidences: tuple[tuple[int, int], ...] | None = None
        self._points_on_line: list[tuple[int, ...]] | None = None
        self._lines_through_point: list[tuple[int, ...]] | None = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    @property
    def incidences(self) -> tuple[tuple[int, int], ...]:
        """All (point-index, line-index) pairs, sorted by (line, point)."""
        if self._incidences is None:
            coords = [(p.x, p.y) for p in self.points]
            pairs = []
            for j, ln in enumerate(self.lines):
                a, b, c = ln.a, ln.b, ln.c
                pairs.extend((i, j) for i, (x, y) in enumerate(coords)
                             if a * x + b * y + c == 0)
            self._incidences = tuple(pairs)
        return self._incidences

    @property
    def n_incidences(self) -> int:
        return len(self.incidences)

    def _build_index(self) -> None:
        on_line = [[] for _ in self.lines]
        through = [[] for _ in self.points]
        for i, j in self.incidences:
            on_line[j].append(i)
            through[i].append(j)
        self._points_on_line = [tuple(v) for v in on_line]
        self._lines_through_point = [tuple(v) for v in through]

    def points_on_line(self, line_index: int) -> tuple[int, ...]:
        if self._points_on_line is None:
            self._build_index()
        return self._points_on_line[line_index]

    def lines_through_point(self, point_index: int) -> tuple[int, ...]:
        if self._lines_through_point is None:
            self._build_index()
        return self._lines_through_point[point_index]


def grid_construction(n: int) -> Arrangement:
    """The standard extremal family saturating the rich-line bound.

    Points are the integer grid [0, n) x [0, 2n^2); lines are y = m*x + b for
    0 <= m < n, 0 <= b < n^2.  Every line contains exactly n of the points,
    so there are 2n^3 points, n^3 lines and exactly n^4 incidences.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    points = [Point(x, y) for x in range(n) for y in range(2 * n * n)]
    lines = [Line.from_slope_intercept(m, b) for m in range(n) for b in range(n * n)]
    return Arrangement(points, lines)


def spanned_lines(points) -> Arrangement:
    """Arrangement of the given points plus every line they span."""
    points = [p if isinstance(p, Point) else Point(*p) for p in points]
    if len(set(points)) < 2:
        raise FewerThanTwoPointsError("need at least two distinct points")
    seen: dict[Line, None] = {}
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            ln = line_through(points[i], points[j])
            if ln not in seen:
                seen[ln] = None
    return Arrangement(points, seen.keys())


def rich_lines(arr: Arrangement, m: int) -> set[int]:
    """Indices of lines incident to at least m arrangement points."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return {j for j in range(arr.n_lines) if len(arr.points_on_line(j)) >= m}


@dataclass(frozen=True)
class IncidenceStats:
    """Exact census of an arrangement's incidence structure.

    ``st_ratio_cubed`` is incidences^3 / min(points, lines)^4, the cube of the
    saturation ratio incidences / min^(4/3); the cube is stored because the
    ratio itself is irrational in general.
    """

    n_points: int
    n_lines: int
    n_incidences: int
    richness_histogram: dict[int, int]
    st_ratio_cubed: Fraction

    def __post_init__(self):
        total = sum(m * cnt for m, cnt in self.richness_histogram.items())
        assert total == self.n_incidences, "histogram mass != incidence count"


def incidence_stats(arr: Arrangement) -> IncidenceStats:
    hist: dict[int, int] = {}
    for j in range(arr.n_lines):
        m = len(arr.points_on_line(j))
        if m > 0:
            hist[m] = hist.get(m, 0) + 1
    base = min(arr.n_points, arr.n_lines)
    cubed = Fraction(arr.n_incidences**3, base**4) if base > 0 else Fraction(0)
    return IncidenceStats(arr.n_points, arr.n_lines, arr.n_incidences,
                          dict(sorted(hist.items())), cubed)


def measured_density(arr: Arrangement, scale: int = RATIONAL_SCALE) -> Fraction:
    """Largest p/scale with incidences >= (p/scale) * n_points^(4/3).

    This is the exact rational floor of the arrangement's incidence density
    over its point count, the constant the structure pipeline consumes.
    """
    n = arr.n_points
    if n == 0 or arr.n_incidences == 0:
        return Fraction(0)
    p = icbrt(arr.n_incidences**3 * scale**3 // n**4)
    return Fraction(p, scale)


@dataclass(frozen=True)
class BoundRow:
    """One row of the rich-line bound report."""

    m: int
    rich_count: int
    bound_value: Fraction
    within_bound: bool


def st_bound_report(arr: Arrangement, constant) -> list[BoundRow]:
    """Compare m-rich line counts against C * (n^2/m^3 + n/m) for m >= 2.

    Purely a report: the hidden constant of the worst-case bound is supplied
    by the caller and nothing is asserted.
    """
    c = Fraction(as_rational(constant))
    if c <= 0:
        raise ValueError("constant must be positive")
    n = arr.n_points
    counts = sorted(len(arr.points_on_line(j)) for j in range(arr.n_lines))
    max_rich = counts[-1] if counts else 0
    rows = []
    for m in range(2, max_rich + 1):
        rich = sum(1 for cnt in counts if cnt >= m)
        bound = c * (Fraction(n * n, m**3) + Fraction(n, m))
        rows.append(BoundRow(m, rich, bound, rich <= bound))
    return rows


def shear(arr: Arrangement, s) -> Arrangement:
    """Apply (x, y) -> (x + s*y, y) to points and the matching map to lines.

    The incidence relation is preserved index-for-index, so the sheared
    arrangement has the same incidence bipartite graph.
    """
    s = as_rational(s)
    points = [Point(p.x + s * p.y, p.y) for p in arr.points]
    lines = [Line.from_coefficients(ln.a, ln.b - ln.a * s, ln.c) for ln in arr.lines]
    return Arrangement(points, lines)


def generic_shear_value(lines) -> int:
    """Smallest non-negative integer shear leaving no line vertical."""
    bad = set()
    for ln in lines:
        if ln.a != 0:
            # The image of (a, b, c) is (a, b - a*s, c); vertical iff s = b/a.
            bad.add(Fraction(ln.b, ln.a))
    s = 0
    while Fraction(s) in bad:
        s += 1
    return s


def dualize(arr: Arrangement) -> Arrangement:
    """The incidence-preserving point/line swap.

    point (a, b)            ->  line y = a*x - b
    line  y = m*x + c       ->  point (m, -c)

    b = m*a + c  iff  the dual point (m, -c) lies on the dual line y = a*x - b,
    so the dual's incidence bipartite graph is the transpose of the primal's,
    and applying the map twice is the identity.  Vertical lines have no dual
    under this convention; callers shear first (see :func:`shear`).
    """
    for ln in arr.lines:
        if ln.is_vertical:
            raise VerticalLinePresentError(f"vertical line {ln}; shear the arrangement first")
    dual_points = [Point(Fraction(-ln.a, ln.b), Fraction(ln.c, ln.b)) for ln in arr.lines]
    dual_lines = [Line.from_coefficients(p.x, -1, -p.y) for p in arr.points]
    return Arrangement(dual_points, dual_lines)
