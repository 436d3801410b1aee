"""Line-intersection graph, complete-tuple enumeration, triangle counting.

The graph has one vertex per arrangement line; two vertices are adjacent iff
the lines cross at a surviving arrangement point, and the edge is labelled by
that point.  Distinct lines meet at most once, so every edge has exactly one
label and the per-point cliques are automatically edge-disjoint.

Complete k-tuples (k lines in general position, pairwise crossing at
arrangement points) are found by exact clique enumeration over a degeneracy
ordering: at the scales this toolkit runs at, exhaustive enumeration is both
feasible and a stronger certificate than any counting argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Mapping

from .arrangement import Arrangement
from .geometry import collinear, concurrent


@dataclass(frozen=True)
class IntersectionGraph:
    n_vertices: int
    edges: Mapping[tuple[int, int], int]          # (i, j) with i < j -> witness point index
    point_multiplicity: Mapping[int, int]         # every point -> lines through it
    kept_points: frozenset[int]

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class CompleteTuple:
    """k lines in general position, pairwise crossing at arrangement points."""

    line_indices: tuple[int, ...]
    witness_points: Mapping[tuple[int, int], int]


def point_multiplicities(arr: Arrangement) -> dict[int, int]:
    """Number of arrangement lines through each point."""
    return {i: len(arr.lines_through_point(i)) for i in range(arr.n_points)}


def multiplicity_filter(arr: Arrangement, threshold: int) -> set[int]:
    """Indices of points lying on at most ``threshold`` arrangement lines.

    Dropping over-popular points is what keeps the per-point cliques from
    being dominated by degenerate (concurrent) tuples.
    """
    if threshold < 2:
        raise ValueError("threshold must be >= 2")
    return {i for i, m in point_multiplicities(arr).items() if m <= threshold}


def build_graph(arr: Arrangement, kept_points: Iterable[int]) -> IntersectionGraph:
    """Intersection graph over the kept points.

    Each kept point p with incident line set S(p) contributes all C(|S(p)|, 2)
    edges, labelled p.  A pair of lines can be claimed by at most one point
    (distinct lines meet once); this uniqueness is asserted.
    """
    kept = frozenset(kept_points)
    if not kept <= set(range(arr.n_points)):
        raise ValueError("kept_points outside arrangement")
    edges: dict[tuple[int, int], int] = {}
    for p in sorted(kept):
        through = arr.lines_through_point(p)
        for u in range(len(through)):
            for v in range(u + 1, len(through)):
                key = (through[u], through[v]) if through[u] < through[v] else (through[v], through[u])
                assert key not in edges, "two distinct lines crossing twice"
                edges[key] = p
    mult = point_multiplicities(arr)
    label_counts: dict[int, int] = {}
    for w in edges.values():
        label_counts[w] = label_counts.get(w, 0) + 1
    for p in kept:
        expected = mult[p] * (mult[p] - 1) // 2
        assert label_counts.get(p, 0) == expected
    return IntersectionGraph(arr.n_lines, edges, mult, kept)


def _degeneracy_order(n: int, adj: list[set[int]]) -> list[int]:
    """Removal order by repeatedly deleting a min-degree vertex (ties by index).

    Bucket queue (Matula & Beck): bucket d is a heap of vertex indices that
    had degree d when pushed; an entry whose vertex is gone or whose degree
    has dropped since is stale and skipped.  A removal lowers the minimum
    degree by at most one, so the scan resumes one bucket down.  The order is
    exactly that of taking min((degree, index)) each time.
    """
    degree = [len(adj[v]) for v in range(n)]
    buckets: list[list[int]] = [[] for _ in range(max(degree, default=0) + 1)]
    for v in range(n):
        buckets[degree[v]].append(v)   # ascending, hence already a heap
    removed = [False] * n
    order = []
    d = 0
    while len(order) < n:
        bucket = buckets[d]
        while bucket and (removed[bucket[0]] or degree[bucket[0]] != d):
            heappop(bucket)
        if not bucket:
            d += 1
            continue
        v = heappop(bucket)
        removed[v] = True
        order.append(v)
        for w in adj[v]:
            if not removed[w]:
                degree[w] -= 1
                heappush(buckets[degree[w]], w)
        d = max(d - 1, 0)
    return order


def _k_cliques_positions(adj_pos: list[set[int]], k: int):
    """Yield k-cliques as ascending position tuples, lexicographic order."""
    n = len(adj_pos)

    def extend(base: list[int], candidates: list[int]):
        if len(base) == k:
            yield tuple(base)
            return
        need = k - len(base)
        for idx, v in enumerate(candidates):
            if len(candidates) - idx < need:
                break
            nxt = [u for u in candidates[idx + 1:] if u in adj_pos[v]]
            if len(nxt) >= need - 1:
                base.append(v)
                yield from extend(base, nxt)
                base.pop()

    yield from extend([], list(range(n)))


def degenerate_filter(lines) -> bool:
    """True iff no triple among the given distinct lines is concurrent.

    Concurrency uses the projective convention: a parallel pencil meets at
    infinity and is rejected just like an affine pencil.
    """
    lines = list(lines)
    if len(lines) < 3:
        raise ValueError("need at least 3 lines")
    if len(set(lines)) != len(lines):
        raise ValueError("lines must be distinct")
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            for t in range(j + 1, len(lines)):
                if concurrent(lines[i], lines[j], lines[t]):
                    return False
    return True


def enumerate_complete_tuples(g: IntersectionGraph, arr: Arrangement, k: int,
                              max_results: int | None = None) -> list[CompleteTuple]:
    """Certified complete k-tuples of the graph, deterministic order.

    Enumerates k-cliques along a degeneracy ordering, attaches the witnessing
    crossing point of every pair, and keeps only tuples passing the
    general-position certificate.  Stops once ``max_results`` certified tuples
    have been found; an empty list is a valid outcome.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    if max_results is not None and max_results <= 0:
        return []
    adj = g.adjacency()
    order = _degeneracy_order(g.n_vertices, adj)
    pos_of = {v: p for p, v in enumerate(order)}
    adj_pos: list[set[int]] = [set() for _ in order]
    for i, j in g.edges:
        adj_pos[pos_of[i]].add(pos_of[j])
        adj_pos[pos_of[j]].add(pos_of[i])
    results: list[CompleteTuple] = []
    for clique in _k_cliques_positions(adj_pos, k):
        lines_idx = tuple(sorted(order[p] for p in clique))
        member_lines = [arr.lines[i] for i in lines_idx]
        if not degenerate_filter(member_lines):
            continue
        witnesses = {}
        for a in range(k):
            for b in range(a + 1, k):
                pair = (lines_idx[a], lines_idx[b])
                witnesses[pair] = g.edges[pair]
        results.append(CompleteTuple(lines_idx, witnesses))
        if max_results is not None and len(results) >= max_results:
            break
    return results


def count_triangles(arr: Arrangement) -> int:
    """Number of non-collinear point triples pairwise joined by arrangement lines.

    Built on the joined-pair graph (two points adjacent iff some arrangement
    line contains both); each graph triangle is then checked against the exact
    collinearity predicate, so triples lying along a single line are excluded.
    """
    n = arr.n_points
    adj: list[set[int]] = [set() for _ in range(n)]
    for j in range(arr.n_lines):
        on = arr.points_on_line(j)
        for u in range(len(on)):
            for v in range(u + 1, len(on)):
                adj[on[u]].add(on[v])
                adj[on[v]].add(on[u])
    count = 0
    for u in range(n):
        for v in adj[u]:
            if v <= u:
                continue
            for w in adj[u] & adj[v]:
                if w <= v:
                    continue
                if not collinear(arr.points[u], arr.points[v], arr.points[w]):
                    count += 1
    return count


@dataclass(frozen=True)
class MonitorResult:
    triangles: int
    bound: int
    conjecture_holds: bool


def de_caen_szekely_monitor(arr: Arrangement) -> MonitorResult:
    """Check triangles <= n_points * n_lines; report, never assert.

    A violation would be mathematically noteworthy, so it is surfaced as data
    for a counterexample report rather than treated as an error.
    """
    t = count_triangles(arr)
    bound = arr.n_points * arr.n_lines
    return MonitorResult(t, bound, t <= bound)


@dataclass(frozen=True)
class DecompositionStats:
    num_source_cliques: int
    edges_covered: int
    is_edge_disjoint: bool
    skipped_points: int


def edge_disjoint_decomposition_stats(g: IntersectionGraph, k: int) -> DecompositionStats:
    """Per-point K_k decomposition bookkeeping over the kept points.

    Every kept point with multiplicity >= k contributes one K_k on the first k
    (lowest-index) lines through it; kept points below multiplicity k cannot
    source a K_k and are reported as skipped rather than rejected.  Values of
    k below 3 are likewise surfaced as a full skip, not a crash.
    """
    if k < 3:
        return DecompositionStats(0, 0, True, len(g.kept_points))
    lines_of_point: dict[int, set[int]] = {}
    for (i, j), w in g.edges.items():
        lines_of_point.setdefault(w, set()).update((i, j))
    covered: set[tuple[int, int]] = set()
    cliques = 0
    skipped = 0
    disjoint = True
    for p in sorted(g.kept_points):
        if g.point_multiplicity.get(p, 0) < k:
            skipped += 1
            continue
        members = sorted(lines_of_point.get(p, ()))[:k]
        cliques += 1
        for a in range(k):
            for b in range(a + 1, k):
                key = (members[a], members[b])
                if key in covered:
                    disjoint = False
                covered.add(key)
    return DecompositionStats(cliques, len(covered), disjoint, skipped)
