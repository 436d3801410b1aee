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
``theorem1`` search (edges labelled by line).  In both, the graph is a union
of edge-disjoint labelled cliques: the pencil of lines through a crossing
point, or a run of points on a line.  ``k_cliques`` takes those groups as they
are and indexes them once, by vertex, while it orders the vertices; the edges
at a vertex are read from that index only when the search reaches it.  It
never takes two edges at a vertex that share a label: they close a degenerate
triple.  ``count_triangles`` enumerates no triple at all: it counts the
joined-pair graph's triangles and subtracts the collinear ones, which the
arrangement's lines count exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from typing import Collection, Hashable, Iterable, Iterator, Mapping, Sequence

from .arrangement import Arrangement
from .geometry import concurrent

# (label, vertices) per clique of a graph that is their edge-disjoint union.
Groups = Sequence[tuple[Hashable, Collection[int]]]


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
    (distinct lines meet once); this uniqueness is asserted for every key, so
    each kept point labels exactly C(|S(p)|, 2) edges.
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
    return IntersectionGraph(arr.n_lines, edges, kept)


def _degeneracy_order(n: int, groups: Groups) -> tuple[list[int], list[Groups]]:
    """Removal order by repeatedly deleting a min-degree vertex (ties by
    index), and ``holding``: ``holding[v]`` lists the groups that hold v.

    The graph is the union of the cliques on each group's vertices, and two
    groups share at most one vertex, so no edge lies in two groups: a
    vertex's degree is the sum of |g| - 1 over its groups, and removing it
    lowers every other member of its groups by one.

    Bucket queue (Matula & Beck): bucket d is a heap of vertex indices that
    had degree d when pushed; an entry whose vertex is gone or whose degree
    has dropped since is stale and skipped.  A removal lowers the minimum
    degree by at most one, so the scan resumes one bucket down.  The order is
    exactly that of taking min((degree, index)) each time.
    """
    degree = [0] * n
    holding: list[list[tuple[Hashable, Collection[int]]]] = [[] for _ in range(n)]
    for group in groups:
        others = len(group[1]) - 1
        for v in group[1]:
            degree[v] += others
            holding[v].append(group)
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
        for _, members in holding[v]:
            for w in members:
                if not removed[w]:
                    degree[w] -= 1
                    heappush(buckets[degree[w]], w)
        d = max(d - 1, 0)
    return order, holding


def k_cliques(n: int, groups: Groups, k: int) -> Iterator[tuple[int, ...]]:
    """Every general-position k-clique on vertices 0..n-1, as sorted tuples.

    ``groups`` is a sequence of (label, vertices): the graph is the union of
    the cliques on each group's vertices, and every edge carries its group's
    label, which is not None.  Two groups share at most one vertex, so no
    edge lies in two of them; this is asserted for every edge the search
    reads.  Two edges at one vertex must share a label exactly when their
    three endpoints are degenerate.  Both callers' groups do: a run of points
    on one line, labelled by the line, since two points span at most one
    line (point view); the pencil of lines through one crossing point,
    labelled by the point, since two lines meet at most once (line view).

    Vertices are ranked by ``_degeneracy_order`` and cliques come out in
    lexicographic order of their rank tuples, so the first clique found is
    fixed by the graph alone.  Each top-level vertex starts from its later
    neighbours only (Chiba & Nishizeki, SIAM J. Comput. 1985).  A vertex's
    ``later`` map (later neighbour -> label) is built from the ordering's
    group index when the search first reaches that vertex, and a top-level
    vertex's map is dropped once its subtree is done, since no later subtree
    reads it; a search that stops at its first clique builds few of them.

    Two prunes keep the search to general position.  When v joins the base,
    a candidate u is dropped if its label on (v, u) is the label on (b, v)
    for a base vertex b, since b, v, u are degenerate.  A clique's degenerate
    triple a < b < c (by rank) has one label on all three edges, so c is
    dropped when b joins a.  And a prefix is kept only if its candidates carry
    at least need - 1 distinct labels to the vertex just added, where need
    counts that vertex and the ones still to come (k - 1 labels among a
    top-level vertex's later neighbours): two further members with one label
    to v would be degenerate with v.  Both prunes remove only prefixes whose
    every extension is degenerate, so the other cliques keep their order.
    """
    order, holding = _degeneracy_order(n, groups)
    rank = [0] * n
    for p, v in enumerate(order):
        rank[v] = p
    later: list[dict[int, Hashable] | None] = [None] * n
    for v in order:
        at_v = _later(holding, rank, later, v)
        if len(set(at_v.values())) >= k - 1:
            yield from _extend(holding, rank, later, k, [v], sorted(at_v, key=rank.__getitem__))
        later[v] = None


def _later(holding: Sequence[Groups], rank: Sequence[int],
           later: list[dict[int, Hashable] | None], v: int) -> dict[int, Hashable]:
    """v's later neighbours -> label, built from ``holding[v]`` on first use."""
    found = later[v]
    if found is None:
        found = later[v] = {}
        r = rank[v]
        for label, members in holding[v]:
            for w in members:
                if rank[w] > r:
                    assert w not in found, "two groups share an edge"
                    found[w] = label
    return found


def _extend(holding: Sequence[Groups], rank: Sequence[int],
            later: list[dict[int, Hashable] | None], k: int, base: list[int],
            candidates: list[int]) -> Iterator[tuple[int, ...]]:
    """``k_cliques``' cliques that extend the vertices in ``base`` by ``candidates``.

    Every candidate is a later neighbour of each base vertex and degenerate
    with no two of them, so once one vertex is missing each candidate
    completes a clique, and no map of its is built.
    """
    need = k - len(base)
    if need == 1:
        for v in candidates:
            yield tuple(sorted((*base, v)))
        return
    for idx, v in enumerate(candidates):
        if len(candidates) - idx < need:
            break
        at_v = _later(holding, rank, later, v)
        # None refuses the candidates not adjacent to v, in the same lookup.
        refused = {None, *(later[b][v] for b in base)}
        nxt = [u for u in candidates[idx + 1:] if at_v.get(u) not in refused]
        if len(nxt) >= need - 1 and len({at_v[u] for u in nxt}) >= need - 1:
            base.append(v)
            yield from _extend(holding, rank, later, k, base, nxt)
            base.pop()


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

    Each kept point's pencil, read from ``arr.lines_through_point``, is one
    group of ``k_cliques``: ``g`` holds exactly those edges, labelled by the
    point, and the label keeps the search to lines in general position.
    ``g.edges`` is read only for each tuple's witnessing point of every pair.
    An empty list is a valid outcome.
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    pencils = [(p, arr.lines_through_point(p)) for p in sorted(g.kept_points)]
    return [CompleteTuple(lines_idx, {pair: g.edges[pair] for pair in combinations(lines_idx, 2)})
            for lines_idx in k_cliques(g.n_vertices, pencils, k)]


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
    = joined points after u in (x, y) order, the order in which the index
    lists each line's points) as the sum over u and v in later[u] of
    |later[u] & later[v]|, which sees each triangle once, from the edge
    joining its two lowest points.  No full adjacency is built.
    """
    later: list[set[int]] = [set() for _ in range(arr.n_points)]
    collinear_triples = 0
    for j in range(arr.n_lines):
        on = arr.points_on_line(j)   # in (x, y) order: along the line
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
