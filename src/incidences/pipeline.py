"""End-to-end structure search over incidence-rich arrangements.

Given an arrangement with many incidences, find k arrangement points in
general position such that every pair is joined by an arrangement line, and
certify the result.  The search:

  1. partitions the points into balanced cells with r ~ beta * n^(2/3),
  2. picks the cell maximizing the floor-sum  sum_lines floor(|cell on line| / k),
  3. breaks each line's cell points into disjoint runs of k consecutive
     points ("segment lines"), which keeps the output local; steps 2 and 3
     read the same cell membership (which cell points lie on which line),
  4. reads the cell's joined-pair graph off the incidence index (one vertex
     per cell point, each edge labelled with the arrangement line through its
     two points, only pairs inside one run on lines holding >= k) and takes
     the first k-clique with no ``collinear`` triple.  By projective duality
     this is the dual search for k lines in general position, with no dual
     built,
  5. attaches a locality certificate to the k points: for every pair, the
     number of arrangement points strictly inside the open connecting
     segment is less than k.

Every returned certificate is re-validated from scratch with the exact
geometric predicates alone, independent of any search internals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .arrangement import Arrangement
from .cliques import k_cliques
from .geometry import Point, as_rational, collinear, incident, strictly_between
from .partition import PartitionCell, PartitionResult, partition
from .roots import ceil_scaled_pow23, pow43_bounds, sqrt_bounds

logger = logging.getLogger(__name__)


class CertificateError(ValueError):
    """A certificate failed independent re-validation."""


@dataclass(frozen=True)
class PipelineConfig:
    """Search parameters.

    ``beta_k`` defaults to c/(2k); the partition parameter becomes
    r = clamp(ceil(beta_k * n^(2/3)), 1, n).  ``multiplicity_threshold``
    defaults to max(ceil(100/c), k); lines holding more cell points than that
    are not used.  Lines with fewer than ``rich_threshold_slack`` * sqrt(r) * k
    incidences are ignored when ranking cells; if that filter leaves every
    cell with floor-sum zero, ranking falls back to all lines (small instances
    never qualify as rich in the asymptotic sense).
    """

    k: int
    c: Fraction
    beta_k: Fraction | None = None
    multiplicity_threshold: int | None = None
    rich_threshold_slack: Fraction = Fraction(2)
    fallback_cells: int = 8

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(as_rational(self.c)))
        object.__setattr__(self, "rich_threshold_slack",
                           Fraction(as_rational(self.rich_threshold_slack)))
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.beta_k is None:
            object.__setattr__(self, "beta_k", self.c / (2 * self.k))
        else:
            object.__setattr__(self, "beta_k", Fraction(as_rational(self.beta_k)))
        if self.beta_k <= 0:
            raise ValueError("beta_k must be positive")
        if self.multiplicity_threshold is None:
            ceil_100_over_c = -(-100 * self.c.denominator // self.c.numerator)
            object.__setattr__(self, "multiplicity_threshold",
                               max(ceil_100_over_c, self.k))
        if self.multiplicity_threshold < self.k:
            raise ValueError("multiplicity_threshold must be >= k")
        if self.rich_threshold_slack < 0:
            raise ValueError("rich_threshold_slack must be >= 0")
        if self.fallback_cells < 1:
            raise ValueError("fallback_cells must be >= 1")


@dataclass(frozen=True)
class RichCellReport:
    cell_index: int
    floor_sum: int
    per_line_counts: Mapping[int, int]  # line index -> |cell points on line|, nonzero only


@dataclass(frozen=True)
class CompleteTupleCertificate:
    """k points in general position, pairwise joined by arrangement lines.

    ``connecting_lines`` maps each unordered point-index pair to an index of
    an arrangement line through both.  ``locality`` maps the same pairs to the
    number of arrangement points strictly inside the open segment between
    them; every value is below k.
    """

    k: int
    point_indices: tuple[int, ...]
    connecting_lines: Mapping[tuple[int, int], int]
    locality: Mapping[tuple[int, int], int]
    cell_index: int
    r: int


@dataclass(frozen=True)
class CellAttempt:
    """Statistics of one searched cell; each field name is its report key.

    ``dual_edges`` counts the edges of the cell's joined-pair graph (pairs of
    cell points joined by a usable line); the name is kept so that reports
    stay byte-stable.
    """

    cell_index: int
    floor_sum: int
    pairable_lines: int
    segments: int
    dual_edges: int
    certified: bool


@dataclass(frozen=True)
class NotFoundReport:
    """All intermediate statistics of an unsuccessful search.  Data, not failure."""

    r: int
    t: int
    n_points: int
    n_lines: int
    n_incidences: int
    density_ok: bool
    accounting_mode: str
    attempts: tuple[CellAttempt, ...]


def _cell_lines(arr: Arrangement, cell: PartitionCell) -> dict[int, list[int]]:
    """line index -> the cell points on it, in ascending point index."""
    out: dict[int, list[int]] = {}
    for pi in sorted(cell.point_indices):
        for li in arr.lines_through_point(pi):
            out.setdefault(li, []).append(pi)
    return out


def rank_cells(arr: Arrangement, pr: PartitionResult, k: int,
               eligible_lines: set[int] | None = None) -> list[RichCellReport]:
    """Every cell by decreasing per-line floor-sum, ties to the lowest index.

    A cell's floor-sum is  sum_lines floor(|cell points on line| / k)  over
    the eligible lines (all lines when ``eligible_lines`` is None).  The top
    cell's floor-sum is at least the average over all cells; this pigeonhole
    fact is asserted exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    reports = []
    for ci, cell in enumerate(pr.cells):
        per_line = {li: len(members) for li, members in sorted(_cell_lines(arr, cell).items())
                    if eligible_lines is None or li in eligible_lines}
        reports.append(RichCellReport(ci, sum(cnt // k for cnt in per_line.values()), per_line))
    reports.sort(key=lambda rep: -rep.floor_sum)
    total = sum(rep.floor_sum for rep in reports)
    assert not reports or reports[0].floor_sum * len(reports) >= total, "pigeonhole violated"
    return reports


def _runs(by_line: dict[int, list[int]], k: int) -> dict[int, list[tuple[int, ...]]]:
    """line -> its runs of k consecutive cell points, for lines holding >= k of them."""
    return {li: [tuple(members[g * k:(g + 1) * k]) for g in range(len(members) // k)]
            for li, members in by_line.items() if len(members) >= k}


def locality_counts(arr: Arrangement,
                    connecting: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """For each point-index pair, the arrangement points strictly between them.

    ``connecting`` maps each pair to the index of an arrangement line through
    both points.  A point strictly inside the segment lies on that line, so
    only the line's points are scanned; the segment is open, so
    ``strictly_between`` already rejects both endpoints.
    """
    out: dict[tuple[int, int], int] = {}
    for (i, j), li in connecting.items():
        if i == j:
            raise ValueError("points must be distinct")
        p, q = arr.points[i], arr.points[j]
        out[(i, j)] = sum(1 for z in arr.points_on_line(li)
                          if strictly_between(p, q, arr.points[z]))
    return out


def revalidate_certificate(arr: Arrangement, cert: CompleteTupleCertificate) -> None:
    """Re-check a certificate using only the exact geometric predicates.

    Independent of the search: membership, incidence, general position and
    locality are all recomputed from the arrangement.  Raises
    CertificateError on any mismatch.
    """
    k = cert.k
    idxs = cert.point_indices
    if len(idxs) != k or len(set(idxs)) != k:
        raise CertificateError("point indices not k distinct values")
    if not all(0 <= i < arr.n_points for i in idxs):
        raise CertificateError("point index out of range")
    pts = [arr.points[i] for i in idxs]
    expected_pairs = {(idxs[a], idxs[b]) if idxs[a] < idxs[b] else (idxs[b], idxs[a])
                      for a in range(k) for b in range(a + 1, k)}
    if set(cert.connecting_lines) != expected_pairs:
        raise CertificateError("connecting lines do not cover exactly all pairs")
    for (pi, pj), li in cert.connecting_lines.items():
        if not 0 <= li < arr.n_lines:
            raise CertificateError("line index out of range")
        ln = arr.lines[li]
        if not (incident(arr.points[pi], ln) and incident(arr.points[pj], ln)):
            raise CertificateError(f"pair {(pi, pj)} not incident to line {li}")
    for a in range(k):
        for b in range(a + 1, k):
            for d in range(b + 1, k):
                if collinear(pts[a], pts[b], pts[d]):
                    raise CertificateError("three certificate points are collinear")
    if set(cert.locality) != expected_pairs:
        raise CertificateError("locality map does not cover exactly all pairs")
    for (pi, pj), reported in cert.locality.items():
        p, q = arr.points[pi], arr.points[pj]
        actual = sum(1 for z in arr.points if strictly_between(p, q, z))
        if actual != reported:
            raise CertificateError(f"locality of {(pi, pj)} is {actual}, reported {reported}")
        if reported >= k:
            raise CertificateError(f"locality of {(pi, pj)} not below k")


def _first_general_position_clique(points: list[Point], edges: Mapping[tuple[int, int], int],
                                   k: int) -> tuple[int, ...] | None:
    """The first k-clique in ``k_cliques`` order whose points have no collinear triple."""
    for clique in k_cliques(len(points), edges, k):
        if not any(collinear(points[a], points[b], points[c])
                   for a, b, c in combinations(clique, 3)):
            return clique
    return None


def _attempt_cell(arr: Arrangement, cell: PartitionCell, cell_index: int,
                  floor_sum: int, cfg: PipelineConfig, r: int
                  ) -> tuple[CompleteTupleCertificate | None, CellAttempt]:
    """Search one cell's joined-pair graph for k points in general position.

    Vertex i is the i-th cell point in index order; edge (i, j) is labelled
    with the index of the arrangement line through both.  Lines holding more
    than ``multiplicity_threshold`` cell points are not used; on a line
    holding >= k, only pairs inside one k-point run are, which keeps the
    final tuple local.  The first clique with no ``collinear`` triple wins:
    three points are collinear exactly when their dual lines fail
    ``degenerate_filter``, so this is the dual line search done in the primal.
    """
    # line -> its cell points (>= 2 of them), ordered along the line
    by_line = {li: sorted(members, key=lambda pi: (arr.points[pi].x, arr.points[pi].y))
               for li, members in sorted(_cell_lines(arr, cell).items()) if len(members) >= 2}
    runs_on = _runs(by_line, cfg.k)
    segments = sum(len(runs) for runs in runs_on.values())
    sub_point_idx = sorted(cell.point_indices)
    vertex = {pi: i for i, pi in enumerate(sub_point_idx)}
    edges: dict[tuple[int, int], int] = {}
    for li, members in by_line.items():
        if len(members) > cfg.multiplicity_threshold:
            continue
        for group in runs_on.get(li, [members]):
            for u, v in combinations(sorted(vertex[pi] for pi in group), 2):
                assert (u, v) not in edges, "two distinct lines crossing twice"
                edges[u, v] = li

    clique = _first_general_position_clique([arr.points[pi] for pi in sub_point_idx],
                                            edges, cfg.k)
    attempt = CellAttempt(cell_index, floor_sum, len(by_line), segments,
                          len(edges), clique is not None)
    if clique is None:
        return None, attempt
    point_indices = tuple(sub_point_idx[v] for v in clique)
    connecting = {(sub_point_idx[u], sub_point_idx[v]): edges[u, v]
                  for u, v in combinations(clique, 2)}
    cert = CompleteTupleCertificate(cfg.k, point_indices, connecting,
                                    locality_counts(arr, connecting), cell_index, r)
    revalidate_certificate(arr, cert)
    return cert, attempt


def find_complete_tuple(arr: Arrangement,
                        cfg: PipelineConfig) -> CompleteTupleCertificate | NotFoundReport:
    """Search the arrangement for a certified complete k-tuple of points.

    Deterministic for a fixed configuration.  When the top-ranked cell fails,
    up to ``cfg.fallback_cells`` cells are tried in decreasing floor-sum
    order; a NotFoundReport with full per-cell statistics is returned if all
    of them fail.

    The search is sound, not exhaustive: every certificate re-validates, but
    a tuple whose connecting pairs straddle cell boundaries or the k-point
    segment runs is out of the procedure's reach (the segment restriction is
    what guarantees the locality bound), so NotFound does not prove the
    arrangement contains no such tuple.
    """
    n = arr.n_points
    inc = arr.n_incidences
    density_ok = Fraction(inc)**3 >= cfg.c**3 * Fraction(n)**4
    if not density_ok:
        logger.warning("incidence count %d below c * n^(4/3) for c=%s, n=%d; searching anyway",
                       inc, cfg.c, n)
    r = max(1, min(n, ceil_scaled_pow23(n, cfg.beta_k))) if n else 1
    pr = partition(arr.points, r)

    # Slack filter: a line is "rich" when inc(line) >= slack * sqrt(r) * k,
    # compared exactly via squares.
    slack = cfg.rich_threshold_slack
    eligible = {li for li in range(arr.n_lines)
                if (len(arr.points_on_line(li)) * slack.denominator)**2
                >= (slack.numerator * cfg.k)**2 * r}
    mode = "rich-lines"
    ranking = rank_cells(arr, pr, cfg.k, eligible) if eligible else []
    if not ranking or ranking[0].floor_sum == 0:
        mode = "all-lines"
        ranking = rank_cells(arr, pr, cfg.k)

    attempts: list[CellAttempt] = []
    for rep in ranking[:cfg.fallback_cells]:
        cert, attempt = _attempt_cell(arr, pr.cells[rep.cell_index], rep.cell_index,
                                      rep.floor_sum, cfg, r)
        attempts.append(attempt)
        if cert is not None:
            return cert
    return NotFoundReport(r, pr.t, n, arr.n_lines, inc, density_ok, mode, tuple(attempts))


@dataclass(frozen=True)
class InequalityAudit:
    """Exact two-sided evaluation of the floor-sum incidence inequality.

    The claim audited is  (c/k) * n^(4/3) <= floor_sum_total + |L| * sqrt(r).
    Both irrational quantities are bracketed by exact rationals, and the
    status is only "holds" / "fails" when the brackets decide it; rounding can
    therefore never report a false verdict in either direction.
    """

    n_points: int
    n_lines: int
    k: int
    c: Fraction
    r: int
    floor_sum_total: int
    lhs_lower: Fraction
    lhs_upper: Fraction
    error_term_lower: Fraction
    error_term_upper: Fraction
    status: str  # "holds" | "fails" | "indeterminate"


def inequality_audit(arr: Arrangement, pr: PartitionResult, cfg: PipelineConfig) -> InequalityAudit:
    floor_sum_total = sum(rep.floor_sum for rep in rank_cells(arr, pr, cfg.k))
    r = max(1, pr.r_requested)
    p43_lo, p43_hi = pow43_bounds(arr.n_points)
    lhs_lo = cfg.c / cfg.k * p43_lo
    lhs_hi = cfg.c / cfg.k * p43_hi
    sq_lo, sq_hi = sqrt_bounds(r)
    err_lo = arr.n_lines * sq_lo
    err_hi = arr.n_lines * sq_hi
    if lhs_hi <= floor_sum_total + err_lo:
        status = "holds"
    elif lhs_lo > floor_sum_total + err_hi:
        status = "fails"
    else:
        status = "indeterminate"
    return InequalityAudit(arr.n_points, arr.n_lines, cfg.k, cfg.c, r,
                           floor_sum_total, lhs_lo, lhs_hi, err_lo, err_hi, status)
