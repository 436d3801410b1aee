"""Arrangement model, extremal generators, incidence engine, and duality.

An :class:`Arrangement` is an indexed point set plus an indexed line set with
a lazily built, cached incidence index: each line's points, in order along it;
pencils and the pair list are derived from it on first use.  The engine,
``Arrangement._build_index``, is a hashed, int-only build in one pass over the
lines: coordinates are cleared of denominators and points indexed by column.
A non-vertical line can hold a point only at the columns of one residue class
(see :func:`_residue_walk`); it walks that arithmetic progression when it has
fewer terms than there are columns, and otherwise solves for Y at every
column, so no (point, line) pair is scanned.  The independent oracle is the
pairwise scan ``brute_incidences`` in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .geometry import Line, Point, as_rational, line_through
from .roots import RATIONAL_SCALE, icbrt


class FewerThanTwoPointsError(ValueError):
    """spanned_lines needs at least two distinct points."""


class VerticalLinePresentError(ValueError):
    """dualize requires a shear-generic arrangement (no vertical lines)."""


class Arrangement:
    """Indexed points and lines with a cached exact incidence index.

    Duplicate points and duplicate canonical lines are forbidden.  Once the
    incidence index is built the object is effectively immutable and safe to
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
        """All (point-index, line-index) pairs, sorted by (line, point); derived from the index."""
        if self._incidences is None:
            self._incidences = tuple((i, j) for j in range(self.n_lines)
                                     for i in sorted(self.points_on_line(j)))
        return self._incidences

    @property
    def n_incidences(self) -> int:
        if self._points_on_line is None:
            self._build_index()
        return sum(map(len, self._points_on_line))

    def _build_index(self) -> None:
        """The incidence engine: each line's points, in one pass over the lines.

        With d the lcm of all coordinate denominators, point (x, y) becomes
        the integer pair (X, Y) = (d*x, d*y) and line (a, b, c) holds it iff
        a*X + b*Y + c*d == 0.  The points are indexed by column X.  A vertical
        line is one column lookup, read in ascending Y.  Any other line has an
        integer Y only at the columns of one residue class mod |b| / gcd(a, b):
        when that progression over [min X, max X] has fewer terms than there
        are columns, it is walked upward with one dict lookup per term;
        otherwise (a grid line has |b| = 1, hence every X) the line is solved
        for Y at each column in ascending X, and a divisibility test plus a
        dict lookup finds the point.  Either way each line's points come out
        in order along it.
        """
        d = lcm(*(q.denominator for p in self.points for q in (p.x, p.y)))
        column: dict[int, dict[int, int]] = {}   # X -> {Y: point index}
        for i, p in enumerate(self.points):
            column.setdefault(int(p.x * d), {})[int(p.y * d)] = i
        columns = sorted(column.items())
        lo, hi = min(column, default=0), max(column, default=0)
        # The progression's modulus is at most |b|, so a line with
        # |b| <= limit has at least as many terms as there are columns.
        limit = max(1, (hi - lo) // max(len(columns), 1))
        on_line: list[tuple[int, ...]] = []
        for j, ln in enumerate(self.lines):
            a, b, cd = ln.a, ln.b, ln.c * d
            if b == 0:
                # a*X + cd == 0: one whole column.
                on = [i for _, i in sorted(column.get(-cd // a, {}).items())] if cd % a == 0 else []
            else:
                walk = _residue_walk(a, b, cd, lo, hi, len(columns)) if abs(b) > limit else None
                on = []
                if walk is None:
                    # Solve b*Y = -(a*X + cd) at each column X.
                    for x, ys in columns:
                        t = a * x + cd
                        if t % b == 0:
                            i = ys.get(-t // b)
                            if i is not None:
                                on.append(i)
                else:
                    # b divides a*X + cd at every term of the walk.
                    for x in walk:
                        ys = column.get(x)
                        if ys is not None:
                            i = ys.get(-(a * x + cd) // b)
                            if i is not None:
                                on.append(i)
            on_line.append(tuple(on))
        self._points_on_line = on_line

    def points_on_line(self, line_index: int) -> tuple[int, ...]:
        """The line's points in order along it: x ascending, or y on a vertical line."""
        if self._points_on_line is None:
            self._build_index()
        return self._points_on_line[line_index]

    def lines_through_point(self, point_index: int) -> tuple[int, ...]:
        """The lines through the point, ascending by line index.

        Only the line view reads pencils, so they are derived on first call,
        in one pass over ``points_on_line`` in line order.
        """
        if self._lines_through_point is None:
            through: list[list[int]] = [[] for _ in self.points]
            for j in range(self.n_lines):
                for i in self.points_on_line(j):
                    through[i].append(j)
            self._lines_through_point = [tuple(v) for v in through]
        return self._lines_through_point[point_index]


def _residue_walk(a: int, b: int, cd: int, lo: int, hi: int, n_columns: int) -> range | None:
    """The columns X in [lo, hi] at which a*X + b*Y + cd == 0 (b != 0) has an integer Y.

    b*Y = -(a*X + cd) is solvable exactly when a*X + cd == 0 mod |b|: with
    g = gcd(a, b), that needs g | cd, and then X runs over one residue class
    mod m = |b| / g.  Returns that progression, empty when g does not divide
    cd, or None when it has at least ``n_columns`` terms, so that scanning
    the occupied columns is no more work than walking it.
    """
    g = gcd(a, b)
    if cd % g:
        return range(0)
    m = abs(b) // g
    first = lo + (-(cd // g) * pow(a // g, -1, m) - lo) % m
    # The term count, computed here because len() of a range fails past sys.maxsize.
    if (hi - first) // m + 1 >= n_columns:
        return None
    return range(first, hi + 1, m)


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


def measured_density(arr: Arrangement) -> Fraction:
    """Largest p/RATIONAL_SCALE with incidences >= (p/RATIONAL_SCALE) * n_points^(4/3).

    This is the exact rational floor of the arrangement's incidence density
    over its point count, the constant the structure pipeline consumes.
    """
    n = arr.n_points
    if n == 0 or arr.n_incidences == 0:
        return Fraction(0)
    p = icbrt(arr.n_incidences**3 * RATIONAL_SCALE**3 // n**4)
    return Fraction(p, RATIONAL_SCALE)


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
