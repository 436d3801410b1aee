"""End-to-end structure search over incidence-rich arrangements.

Given an arrangement with many incidences, find k arrangement points in
general position such that every pair is joined by an arrangement line, and
certify the result.  For r = r0, r0 // 2, ... (r0 ~ beta * n^(2/3)) it:

  1. partitions the points into balanced cells and takes the top cell by
     floor-sum  sum_lines floor(|cell on line| / k), read off one membership
     per cell (its points on each line, in order along it), built in one pass,
  2. searches it if its floor-sum is positive, or if no line holds k points
     and it is no bigger than a first-round cell (<= ceil(2n / r0) points),
  3. breaks each line's cell points into disjoint runs of k consecutive
     points ("segment lines"), which keeps the output local,
  4. searches the cell's joined-pair graph (points joined when they share a
     run, or a line holding < k cell points), each run a clique labelled by
     its line, for the first k-clique with no collinear triple: by duality,
     the dual search for k lines in general position, with no dual built,
  5. certifies locality: for every pair of the k points, fewer than k
     arrangement points lie strictly inside the open connecting segment.

Every returned certificate is re-validated from scratch with the exact
geometric predicates alone, independent of any search internals.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .arrangement import Arrangement
from .cliques import k_cliques
from .geometry import as_rational, collinear, incident, strictly_between
from .partition import PartitionCell, PartitionResult, partition
from .roots import ceil_scaled_pow23, pow43_bounds, sqrt_bounds

logger = logging.getLogger(__name__)


class CertificateError(ValueError):
    """A certificate failed independent re-validation."""


@dataclass(frozen=True)
class PipelineConfig:
    """Search parameters.

    ``beta_k`` defaults to c/(2k); the partition parameter becomes
    r = clamp(ceil(beta_k * n^(2/3)), 1, n).  ``fallback_cells`` = 8 is the
    most cells searched over all rounds of r; it is fixed, not an init field.
    """

    k: int
    c: Fraction
    beta_k: Fraction | None = None
    fallback_cells: int = field(default=8, init=False)

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(as_rational(self.c)))
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


@dataclass(frozen=True)
class RichCellReport:
    cell_index: int
    floor_sum: int


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
    """Statistics of one searched cell of round r; each field name is its report key.

    ``dual_edges`` counts the edges of the cell's joined-pair graph (pairs of
    cell points joined by a usable line), the sum of C(|run|, 2) over its
    runs; the name is kept so that reports stay byte-stable.
    """

    r: int
    cell_index: int
    floor_sum: int
    pairable_lines: int
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
    attempts: tuple[CellAttempt, ...]


def _memberships(arr: Arrangement, pr: PartitionResult) -> list[dict[int, list[int]]]:
    """For each cell, in cell order: line index -> the cell points on it.

    One pass over ``points_on_line``, which lists each line's points in order
    along it, so each cell's lists keep that order and its lines ascend.
    """
    cell_of = [0] * arr.n_points
    for ci, cell in enumerate(pr.cells):
        for pi in cell.point_indices:
            cell_of[pi] = ci
    out: list[dict[int, list[int]]] = [{} for _ in pr.cells]
    for li in range(arr.n_lines):
        for pi in arr.points_on_line(li):
            out[cell_of[pi]].setdefault(li, []).append(pi)
    return out


def rank_cells(arr: Arrangement, pr: PartitionResult, k: int) -> list[RichCellReport]:
    """Every cell by decreasing floor-sum, ties to the lowest index.

    A cell's floor-sum is  sum_lines floor(|cell points on line| / k)  over
    every line, so the floor-sums of all cells add up to the total that
    ``inequality_audit`` checks.  The top cell's floor-sum is at least the
    average over all cells; this pigeonhole fact is asserted exactly.
    """
    return _rank(_memberships(arr, pr), k)


def _rank(memberships: list[dict[int, list[int]]], k: int) -> list[RichCellReport]:
    """``rank_cells`` over ``_memberships``: each cell's lines and points, in cell order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    reports = [RichCellReport(ci, sum(len(members) // k for members in by_line.values()))
               for ci, by_line in enumerate(memberships)]
    reports.sort(key=lambda rep: -rep.floor_sum)
    total = sum(rep.floor_sum for rep in reports)
    assert not reports or reports[0].floor_sum * len(reports) >= total, "pigeonhole violated"
    return reports


def _runs(by_line: dict[int, list[int]], k: int) -> dict[int, list[list[int]]]:
    """line -> its runs of k consecutive cell points, for lines holding >= k of them."""
    return {li: [members[g * k:(g + 1) * k] for g in range(len(members) // k)]
            for li, members in by_line.items() if len(members) >= k}


def locality_counts(arr: Arrangement,
                    connecting: Mapping[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """For each point-index pair, the arrangement points strictly between them.

    ``connecting`` maps each pair to the index of an arrangement line through
    both points.  A point strictly inside the segment lies on that line, and
    ``points_on_line`` lists the line's points in order along it, so the
    count is the distance of the two positions less one; no geometric
    predicate runs.
    """
    out: dict[tuple[int, int], int] = {}
    for (i, j), li in connecting.items():
        if i == j:
            raise ValueError("points must be distinct")
        on = arr.points_on_line(li)
        out[(i, j)] = abs(on.index(i) - on.index(j)) - 1
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
        # Only a point of the segment's open slab (of its own vertical line,
        # for a vertical pair) can lie inside it; ``strictly_between`` decides.
        if p.x == q.x:
            slab = (z for z in arr.points if z.x == p.x)
        else:
            lo, hi = (p.x, q.x) if p.x < q.x else (q.x, p.x)
            slab = (z for z in arr.points if lo < z.x < hi)
        actual = sum(1 for z in slab if strictly_between(p, q, z))
        if actual != reported:
            raise CertificateError(f"locality of {(pi, pj)} is {actual}, reported {reported}")
        if reported >= k:
            raise CertificateError(f"locality of {(pi, pj)} not below k")


def _attempt_cell(arr: Arrangement, cell: PartitionCell, membership: dict[int, list[int]],
                  cell_index: int, floor_sum: int, cfg: PipelineConfig, r: int
                  ) -> tuple[CompleteTupleCertificate | None, CellAttempt]:
    """Search one cell's joined-pair graph for k points in general position.

    ``membership`` is the cell's entry of ``_memberships``: its lines in
    ascending order, each with its cell points in order along it, so the
    groups below need no sort.  Vertex i is the i-th cell point in index
    order.  Each line holding >= 2 cell points gives
    ``k_cliques`` its runs as groups labelled with the line's index: its
    k-point runs if it holds >= k cell points, which keeps the final tuple
    local, else all of its cell points.  Two points span one line and the
    runs of a line are disjoint, so no pair lies in two groups.  The first
    clique of ``k_cliques``, which the line labels keep free of collinear
    triples, wins: this is the dual search for lines that pass
    ``degenerate_filter``, done in the primal.  Its connecting lines are read
    off the groups.
    """
    # line -> its cell points (>= 2 of them), ordered along the line.
    by_line = {li: members for li, members in membership.items() if len(members) >= 2}
    runs_on = _runs(by_line, cfg.k)
    sub_point_idx = cell.point_indices
    vertex = {pi: i for i, pi in enumerate(sub_point_idx)}
    groups = [(li, [vertex[pi] for pi in run])
              for li, members in by_line.items() for run in runs_on.get(li, [members])]
    del runs_on, vertex   # only the groups are kept through the search

    clique = next(k_cliques(len(sub_point_idx), groups, cfg.k), None)
    attempt = CellAttempt(r, cell_index, floor_sum, len(by_line),
                          sum(len(run) * (len(run) - 1) // 2 for _, run in groups),
                          clique is not None)
    if clique is None:
        return None, attempt
    point_indices = tuple(sub_point_idx[v] for v in clique)
    # Each pair of the clique lies in exactly one group, which names its line.
    in_clique = set(clique)
    connecting = {(sub_point_idx[u], sub_point_idx[v]): li for li, run in groups
                  for u, v in combinations(sorted(in_clique.intersection(run)), 2)}
    cert = CompleteTupleCertificate(cfg.k, point_indices, connecting,
                                    locality_counts(arr, connecting), cell_index, r)
    revalidate_certificate(arr, cert)
    return cert, attempt


def _top_cell(arr: Arrangement, r: int, k: int
              ) -> tuple[int, RichCellReport | None, PartitionCell | None, dict[int, list[int]]]:
    """Round r's cell count and top cell: report, cell, membership; the rest is freed."""
    pr = partition(arr.points, r)
    memberships = _memberships(arr, pr)
    top = next(iter(_rank(memberships, k)), None)
    if top is None:   # no points, no cells
        return pr.t, None, None, {}
    return pr.t, top, pr.cells[top.cell_index], memberships[top.cell_index]


def find_complete_tuple(arr: Arrangement,
                        cfg: PipelineConfig) -> CompleteTupleCertificate | NotFoundReport:
    """Search the arrangement for a certified complete k-tuple of points.

    Deterministic for a fixed configuration.  The rounds of the module
    docstring stop at a certificate, a one-cell round or ``cfg.fallback_cells``
    (8) searched cells; a NotFoundReport holds each searched cell's statistics.

    The search is sound, not exhaustive: every certificate re-validates, but
    a tuple with a pair across cells or k-point runs (the runs give the
    locality bound) is out of reach, so NotFound does not prove there is none.
    """
    n, inc = arr.n_points, arr.n_incidences
    density_ok = Fraction(inc)**3 >= cfg.c**3 * Fraction(n)**4
    if not density_ok:
        try:
            c_text = str(cfg.c)
        except ValueError:   # a part past the int-to-str digit limit
            c_text = (f"<{cfg.c.numerator.bit_length()}-bit numerator / "
                      f"{cfg.c.denominator.bit_length()}-bit denominator>")
        logger.warning("incidence count %d below c * n^(4/3) for c=%s, n=%d; searching anyway",
                       inc, c_text, n)
    r = max(1, min(n, ceil_scaled_pow23(n, cfg.beta_k)))
    rich = any(len(arr.points_on_line(j)) >= cfg.k for j in range(arr.n_lines))
    limit = 0 if rich else -(-2 * n // r)   # step 2: the first round's ceil(2n / r0)
    attempts: list[CellAttempt] = []
    while True:
        t, top, cell, membership = _top_cell(arr, r, cfg.k)
        if top is not None and (top.floor_sum > 0 or len(cell.point_indices) <= limit):
            cert, attempt = _attempt_cell(arr, cell, membership, top.cell_index,
                                          top.floor_sum, cfg, r)
            attempts.append(attempt)
            if cert is not None:
                return cert
        if t <= 1 or len(attempts) == cfg.fallback_cells:
            return NotFoundReport(r, t, n, arr.n_lines, inc, density_ok, tuple(attempts))
        r //= 2


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
    r = pr.r_requested
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
