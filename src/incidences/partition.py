"""Balanced spatial partition with a low stabbing number, d = 2.

Points are split recursively along alternating axes at exact medians until no
cell exceeds ceil(2n/r) points.  Cells are the nested (possibly unbounded)
axis-aligned rectangles of the splits.  The guarantees delivered and asserted
on every run:

  * the cells partition the input index set,
  * every cell size lies in [floor(n/r), ceil(2n/r)],
  * the number of cells t is at most 4r,

and empirically a line crosses O(sqrt(t)) cell rectangles, which is what the
structure pipeline consumes.

Tie handling is fully deterministic: the split ordering is (axis coordinate,
other coordinate, input index) and points whose rank falls at or below the
median cut go to the lower cell.  Crossing tests treat regions as closed, so
boundary touches over-count, never under-count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .geometry import Line, Point, Rational


class DegenerateInputError(ValueError):
    """The partition requires pairwise distinct points."""


@dataclass(frozen=True)
class Rect:
    """Closed axis-aligned rectangle; a None bound means that side is unbounded."""

    x_min: Rational | None
    x_max: Rational | None
    y_min: Rational | None
    y_max: Rational | None

    def contains(self, p: Point) -> bool:
        if self.x_min is not None and p.x < self.x_min:
            return False
        if self.x_max is not None and p.x > self.x_max:
            return False
        if self.y_min is not None and p.y < self.y_min:
            return False
        if self.y_max is not None and p.y > self.y_max:
            return False
        return True

    def sort_key(self):
        def lo(v):
            return (0, 0) if v is None else (1, v)

        def hi(v):
            return (1, 0) if v is None else (0, v)

        return (lo(self.x_min), lo(self.y_min), hi(self.x_max), hi(self.y_max))


@dataclass(frozen=True)
class PartitionCell:
    point_indices: tuple[int, ...]
    region: Rect


@dataclass(frozen=True)
class PartitionResult:
    cells: tuple[PartitionCell, ...]
    r_requested: int
    low: int    # every cell size lies in [low, high]
    high: int

    @property
    def t(self) -> int:
        return len(self.cells)


def partition(points, r: int) -> PartitionResult:
    """Split the points into balanced cells; see the module docstring.

    ``r`` is clamped to [1, n].  An empty input yields an empty partition.
    """
    points = list(points)
    n = len(points)
    if len(set(points)) != n:
        raise DegenerateInputError("points must be pairwise distinct")
    if r < 1:
        raise ValueError("r must be >= 1")
    if n == 0:
        return PartitionResult((), r, 0, 0)
    r_eff = min(r, n)
    low, high = n // r_eff, -(-2 * n // r_eff)  # floor(n/r), ceil(2n/r)
    leaves: list[tuple[Rect, list[int]]] = []
    # Depth first, lower half first, so that the stable sort of ``leaves``
    # keeps cells with equal region keys lower half first.
    stack = [(list(range(n)), Rect(None, None, None, None), 0)]
    while stack:
        indices, region, axis = stack.pop()
        if len(indices) <= high:
            leaves.append((region, indices))
            continue
        h = (len(indices) + 1) // 2   # the lower cell takes ranks 1..h
        if axis == 0:
            indices.sort(key=lambda i: (points[i].x, points[i].y, i))
            cut = points[indices[h - 1]].x
            lo_region, hi_region = replace(region, x_max=cut), replace(region, x_min=cut)
        else:
            indices.sort(key=lambda i: (points[i].y, points[i].x, i))
            cut = points[indices[h - 1]].y
            lo_region, hi_region = replace(region, y_max=cut), replace(region, y_min=cut)
        stack.append((indices[h:], hi_region, 1 - axis))
        stack.append((indices[:h], lo_region, 1 - axis))
    leaves.sort(key=lambda leaf: leaf[0].sort_key())
    cells = tuple(PartitionCell(tuple(sorted(idx)), region) for region, idx in leaves)
    result = PartitionResult(cells, r, low, high)

    # Contract checks, run on every build.
    seen: set[int] = set()
    for cell in cells:
        assert low <= len(cell.point_indices) <= high, "cell size outside window"
        assert not (seen & set(cell.point_indices)), "cells overlap"
        seen.update(cell.point_indices)
        assert all(cell.region.contains(points[i]) for i in cell.point_indices)
    assert seen == set(range(n)), "cells do not cover the input"
    assert result.t <= 4 * r_eff, "too many cells"
    return result


def line_crosses_rect(l: Line, rect: Rect) -> bool:
    """Exact test: does the line meet the closed (possibly unbounded) rectangle?

    The line function a*x + b*y + c is linear, so over a product of intervals
    its range is an interval computed term by term; the line crosses iff that
    range contains zero.  Unbounded sides push the corresponding end of the
    range to infinity.
    """
    lo = hi = l.c
    for coeff, low, high in ((l.a, rect.x_min, rect.x_max), (l.b, rect.y_min, rect.y_max)):
        if coeff == 0:
            continue
        if coeff < 0:
            low, high = high, low
        lo = None if lo is None or low is None else lo + coeff * low
        hi = None if hi is None or high is None else hi + coeff * high
    return (lo is None or lo <= 0) and (hi is None or hi >= 0)


def crossing_number(pr: PartitionResult, l: Line) -> int:
    """Number of cell regions the line intersects (closed-region test)."""
    return sum(1 for cell in pr.cells if line_crosses_rect(l, cell.region))


@dataclass(frozen=True)
class CrossingProfile:
    max_crossing: int
    mean_crossing: Fraction
    per_line: tuple[int, ...]


def crossing_profile(pr: PartitionResult, lines) -> CrossingProfile:
    per_line = tuple(crossing_number(pr, l) for l in lines)
    if not per_line:
        return CrossingProfile(0, Fraction(0), ())
    return CrossingProfile(max(per_line), Fraction(sum(per_line), len(per_line)), per_line)
