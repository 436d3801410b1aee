"""Line-intersection graph, complete-tuple enumeration, triangle counting.

The graph has one vertex per arrangement line; two vertices are adjacent iff
the lines cross at a surviving arrangement point, and the edge is labelled by
that point.  Distinct lines meet at most once, so every edge has exactly one
label.

Complete k-tuples (k lines in general position, pairwise crossing at
arrangement points) are found by exact clique enumeration over a degeneracy
ordering: at the scales this toolkit runs at, exhaustive enumeration is both
feasible and a stronger certificate than any counting argument.  One
enumerator, ``k_cliques``, serves both views of that search: the line view
here (edges labelled by crossing point) and the point view of the
``theorem1`` search (edges labelled by line).  It never takes two edges at a
vertex that share a label: they close a degenerate triple.  Before it
enumerates, it colours the graph greedily and stops at once when fewer than k
colours suffice (the colour bound of Tomita & Seki, DMTCS 2003): a proper
colouring gives the vertices of a clique pairwise distinct colours, so such a
graph has no k-clique.  Most cells the ``theorem1`` search tries without
success are proved empty this way.  ``count_triangles`` enumerates no triple
at all: it counts the joined-pair graph's triangles and subtracts the
collinear ones, which the arrangement's lines count exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from .arrangement import Arrangement
from .geometry import concurrent


@dataclass(frozen=True)
class IntersectionGraph:
    n_vertices: int
    edges: Mapping[tuple[int, int], int]          # (i, j) with i < j -> witness point index
    kept_points: frozenset[int]


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
    return IntersectionGraph(arr.n_lines, edges, kept)


def _degeneracy_order(n: int, adj: Sequence[Collection[int]]) -> list[int]:
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


def _greedy_colours(later: Sequence[Collection[int]], k: int) -> int:
    """Colours used by a greedy colouring of the ranked graph, counted up to k.

    Ranks are coloured from the last to the first, each taking the least
    colour that none of its later neighbours has.  Every edge joins a rank to
    a later one, so the colouring is proper.  Counting stops at k colours,
    which prove nothing about a k-clique.
    """
    colour = [0] * len(later)
    used = 0
    for p in range(len(later) - 1, -1, -1):
        taken = {colour[q] for q in later[p]}
        c = 0
        while c in taken:
            c += 1
        colour[p] = c
        if c == used:
            used += 1
            if used == k:
                break
    return used


def k_cliques(n: int, edges: Mapping[tuple[int, int], Hashable], k: int) -> Iterator[tuple[int, ...]]:
    """Every general-position k-clique on vertices 0..n-1, as sorted tuples.

    ``edges`` maps each edge (i, j), either way round, to a label other than
    None; two edges at one vertex must share a label exactly when their three
    endpoints are degenerate.  Both callers' labels do, since two points span
    at most one line (point view, labelled by line) and two lines meet in at
    most one point (line view, labelled by crossing point).

    Vertices are ranked by ``_degeneracy_order`` and cliques come out in
    lexicographic order of their rank tuples, so the first clique found is
    fixed by the graph alone.  Each top-level vertex starts from its later
    neighbours only (Chiba & Nishizeki, SIAM J. Comput. 1985).  When v joins
    the base, a candidate u is dropped if its label on (v, u) is the label on
    (b, v) for a base vertex b, since b, v, u are degenerate.  A clique's
    degenerate triple a < b < c (by rank) has one label on all three edges, so
    c is dropped when b joins a.  Only prefixes whose every extension is
    degenerate are pruned, so the other cliques keep their order.

    Nothing is enumerated when ``_greedy_colours`` uses fewer than k colours
    (Tomita & Seki, DMTCS 2003).  The bound is exact: the vertices of a clique
    are pairwise adjacent, so a proper colouring needs at least as many
    colours as the largest clique has vertices.  It is checked once, before
    the search, not at every node: it either proves the whole graph free of
    k-cliques or changes nothing, so the output and its order never depend
    on it.
    """
    adj: list[dict[int, Hashable]] = [{} for _ in range(n)]
    for (i, j), label in edges.items():
        adj[i][j] = label
        adj[j][i] = label
    order = _degeneracy_order(n, adj)
    rank = [0] * n
    for p, v in enumerate(order):
        rank[v] = p
    # later[p]: rank of each later neighbour -> the label of its edge to p.
    later = [{rank[w]: lab for w, lab in adj[v].items() if rank[w] > p} for p, v in enumerate(order)]
    if _greedy_colours(later, k) < k:
        return

    def extend(base: list[int], candidates: list[int]):
        if len(base) == k:
            yield tuple(sorted(order[p] for p in base))
            return
        need = k - len(base)
        for idx, v in enumerate(candidates):
            if len(candidates) - idx < need:
                break
            at_v = later[v]
            # None refuses the candidates not adjacent to v, in the same lookup.
            refused = {None, *(later[b][v] for b in base)}
            nxt = [u for u in candidates[idx + 1:] if at_v.get(u) not in refused]
            if len(nxt) >= need - 1:
                base.append(v)
                yield from extend(base, nxt)
                base.pop()

    for p in range(n):
        yield from extend([p], sorted(later[p]))


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


def enumerate_complete_tuples(g: IntersectionGraph, arr: Arrangement, k: int) -> list[CompleteTuple]:
    """Every complete k-tuple of ``g`` (built from ``arr``), deterministic order.

    The edges' crossing-point labels keep ``k_cliques`` to lines in general
    position; each tuple carries the witnessing point of every pair.  An empty
    list is a valid outcome.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    return [CompleteTuple(lines_idx, {pair: g.edges[pair] for pair in combinations(lines_idx, 2)})
            for lines_idx in k_cliques(g.n_vertices, g.edges, k)]


def count_triangles(arr: Arrangement) -> int:
    """Number of non-collinear point triples pairwise joined by arrangement lines.

    Counted as (triangles of the joined-pair graph) - sum over lines of
    C(|points on line|, 3), where two points are adjacent iff some
    arrangement line contains both.  This is exact: if a graph triangle is
    collinear, the arrangement line joining two of its points is the line
    through all three, and the incidence engine lists the third point on it;
    two distinct lines share at most one point, so every collinear triangle
    is subtracted exactly once, and every collinear triple on a line is a
    graph triangle.  Graph triangles are counted with forward sets (later[u]
    = joined points with a larger index) as the sum over edges u < v of
    |later[u] & later[v]|, which sees each triangle once, from the edge
    joining its two lowest points.  No full adjacency is built.
    """
    later: list[set[int]] = [set() for _ in range(arr.n_points)]
    collinear_triples = 0
    for j in range(arr.n_lines):
        on = arr.points_on_line(j)   # ascending point indices
        collinear_triples += comb(len(on), 3)
        for pos in range(len(on) - 1):
            later[on[pos]].update(on[pos + 1:])
    graph_triangles = sum(len(fwd & later[v]) for fwd in later for v in fwd)
    return graph_triangles - collinear_triples


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
