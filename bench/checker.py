"""Independent checks of the reports the benchmark's CLI calls write.

Nothing here calls into ``incidences``: every count is recomputed from the
document bytes with this file's own integer arithmetic.  Input documents
made by the benchmark have integer coordinates, which keeps every predicate
a handful of integer products.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd

DENSITY_SCALE = 10**6   # measured_density is a multiple of 1/DENSITY_SCALE


class CheckError(Exception):
    """An output that the independent recount does not confirm."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def pair(value: Fraction) -> list[int]:
    return [value.numerator, value.denominator]


class Doc:
    """An arrangement document with integer points, plus its incidence counts."""

    def __init__(self, raw: bytes):
        doc = json.loads(raw)
        require(doc.get("schema_version") == "1", "schema_version is not '1'")
        self.raw_points = doc["points"]
        self.raw_lines = doc["lines"]
        self.metadata = doc.get("metadata", {})
        self.points: list[tuple[int, int]] = []
        for (xn, xd), (yn, yd) in self.raw_points:
            require(xd == 1 and yd == 1, "benchmark documents have integer points")
            self.points.append((xn, yn))
        self.lines = [tuple(ln) for ln in self.raw_lines]
        require(len(set(self.points)) == len(self.points), "duplicate points")
        for a, b, c in self.lines:
            require((a, b) != (0, 0) and gcd(a, b, c) == 1, f"line {[a, b, c]} not reduced")
        normal = {(a, b, c) if (a, b) > (0, 0) else (-a, -b, -c) for a, b, c in self.lines}
        require(len(normal) == len(self.lines), "duplicate lines")
        self._richness: list[int] | None = None

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def richness(self) -> list[int]:
        """Points on each line, counted through columns of equal x."""
        if self._richness is None:
            columns: dict[int, set[int]] = {}
            for x, y in self.points:
                columns.setdefault(x, set()).add(y)
            out = []
            for a, b, c in self.lines:
                if b == 0:
                    out.append(len(columns.get(-c // a, ())) if c % a == 0 else 0)
                    continue
                m = 0
                for x, ys in columns.items():
                    num = -(a * x + c)
                    if num % b == 0 and num // b in ys:
                        m += 1
                out.append(m)
            self._richness = out
        return self._richness

    @property
    def n_incidences(self) -> int:
        return sum(self.richness)


def _on_line(p: tuple[int, int], line) -> bool:
    a, b, c = line
    return a * p[0] + b * p[1] + c == 0


def _collinear(p, q, z) -> bool:
    return (q[0] - p[0]) * (z[1] - p[1]) - (q[1] - p[1]) * (z[0] - p[0]) == 0


def _strictly_inside(p, q, z) -> bool:
    """z on the open segment pq: collinear, inside the closed box, not an end."""
    return (z != p and z != q and _collinear(p, q, z)
            and min(p[0], q[0]) <= z[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= z[1] <= max(p[1], q[1]))


def check_statistics(stats: dict, doc: Doc) -> None:
    n, n_lines, inc = doc.n, len(doc.lines), doc.n_incidences
    hist: dict[int, int] = {}
    for m in doc.richness:
        if m > 0:
            hist[m] = hist.get(m, 0) + 1
    require(stats["n_points"] == n, "n_points")
    require(stats["n_lines"] == n_lines, "n_lines")
    require(stats["n_incidences"] == inc, f"n_incidences {stats['n_incidences']} != {inc}")
    mass = sum(m * cnt for m, cnt in stats["richness_histogram"])
    require(mass == stats["n_incidences"], "histogram mass differs from n_incidences")
    require(stats["richness_histogram"] == sorted([m, c] for m, c in hist.items()),
            "richness histogram")
    base = min(n, n_lines)
    ratio = Fraction(inc**3, base**4) if base else Fraction(0)
    require(stats["st_ratio_cubed"] == pair(ratio), "st_ratio_cubed")
    density = Fraction(*stats["measured_density"]) * DENSITY_SCALE
    require(density.denominator == 1, "measured_density is not a multiple of 1/10^6")
    p = density.numerator
    if n and inc:
        require(p**3 * n**4 <= inc**3 * DENSITY_SCALE**3 < (p + 1)**3 * n**4,
                "measured_density is not the largest p/10^6 below the density")
    else:
        require(p == 0, "measured_density of an empty arrangement")


def check_grid(doc: Doc, grid_n: int) -> None:
    require(doc.n == 2 * grid_n**3 and len(doc.lines) == grid_n**3, "grid size")
    require(doc.n_incidences == grid_n**4, "grid must have N^4 incidences")


def check_spanned(out: Doc, source: Doc) -> None:
    """The output holds the source points and exactly the lines they span."""
    require(out.raw_points == source.raw_points, "spanned document changed the points")
    require(out.metadata == {"generator": "spanned", "params": {"source_points": source.n}},
            "spanned metadata")
    require(all(m >= 2 for m in out.richness), "a line holds fewer than 2 points")
    # Distinct lines share at most one point, so equality means every pair
    # of points is joined by exactly one line of the document.
    require(sum(comb(m, 2) for m in out.richness) == comb(out.n, 2),
            "lines do not join every pair of points exactly once")


def check_analyze(report: dict, doc: Doc) -> None:
    """Check an analyze report of a document made by ``generate --kind spanned``."""
    require(report["command"] == "analyze", "command")
    require(report["config"] == {"st_constant": [1, 1]}, "config")
    require(report["metadata"] == doc.metadata, "metadata")
    check_statistics(report["statistics"], doc)
    richness = doc.richness
    rows = report["st_bound_report"]
    require([row["m"] for row in rows] == list(range(2, max(richness, default=0) + 1)),
            "bound rows")
    for row in rows:
        m = row["m"]
        rich = sum(1 for cnt in richness if cnt >= m)
        bound = Fraction(doc.n**2, m**3) + Fraction(doc.n, m)
        require(row["rich_count"] == rich and row["bound"] == pair(bound)
                and row["within_bound"] == (rich <= bound), f"bound row m={m}")
    triangles = report["triangles"]
    # Every pair is joined, so the triangles are the non-collinear triples.
    expected = comb(doc.n, 3) - sum(comb(m, 3) for m in richness)
    require(triangles == expected, f"triangles {triangles} != {expected}")
    bound = doc.n * len(doc.lines)
    require(report["triangle_bound_monitor"] == {
        "triangles": triangles, "bound": bound, "conjecture_holds": triangles <= bound},
        "triangle bound monitor")


def _side(v):
    if v is None:
        return None
    return v[0] if v[1] == 1 else Fraction(*v)


def _crosses(line, region) -> bool:
    """Does a*x + b*y + c take the value 0 on the closed, maybe unbounded box?"""
    a, b, c = line
    lo = hi = c
    for coeff, (low, high) in ((a, region[0]), (b, region[1])):
        if coeff == 0:
            continue
        small, large = (low, high) if coeff > 0 else (high, low)
        lo = None if lo is None or small is None else lo + coeff * small
        hi = None if hi is None or large is None else hi + coeff * large
    return (lo is None or lo <= 0) and (hi is None or hi >= 0)


def check_partition(report: dict, doc: Doc, r: int) -> None:
    require(report["command"] == "partition" and report["config"] == {"r": r}, "config")
    require(report["metadata"] == doc.metadata, "metadata")
    check_statistics(report["statistics"], doc)
    n = doc.n
    r_eff = min(r, n)
    low, high = n // r_eff, -(-2 * n // r_eff)
    cells = report["cells"]
    require(report["t"] == len(cells) <= 4 * r_eff, "cell count")
    require(report["size_window"] == {"low": low, "high": high, "all_within": True},
            "size window")
    seen: list[int] = []
    regions = []
    for cell in cells:
        idx = cell["point_indices"]
        require(idx == sorted(idx) and low <= len(idx) <= high, "cell size or order")
        rg = cell["region"]
        box = ((_side(rg["x_min"]), _side(rg["x_max"])), (_side(rg["y_min"]), _side(rg["y_max"])))
        for i in idx:
            for v, (lo, hi) in zip(doc.points[i], box):
                require((lo is None or lo <= v) and (hi is None or v <= hi),
                        "cell point outside its region")
        regions.append(box)
        seen.extend(idx)
    require(sorted(seen) == list(range(n)), "cells do not partition the points")
    per_line = [sum(1 for box in regions if _crosses(ln, box)) for ln in doc.lines]
    profile = report["crossing_profile"]
    require(profile["per_line"] == per_line, "per-line crossing numbers")
    if per_line:
        require(profile["max"] == max(per_line), "crossing max")
        require(profile["mean"] == pair(Fraction(sum(per_line), len(per_line))), "crossing mean")


def check_theorem1(report: dict, doc: Doc, exit_code: int, k: int) -> bool:
    """Check a theorem1 report; return True when it carries a certificate."""
    require(report["command"] == "theorem1" and report["config"]["k"] == k, "config")
    require(report["metadata"] == doc.metadata, "metadata")
    check_statistics(report["statistics"], doc)
    require(report["config"]["c"] == report["statistics"]["measured_density"],
            "--c auto must use the measured density")
    result = report["result"]
    if result["status"] == "not_found":
        require(exit_code == 3, "not_found must exit 3")
        rep = result["report"]
        require((rep["n_points"], rep["n_lines"], rep["n_incidences"])
                == (doc.n, len(doc.lines), doc.n_incidences), "not_found statistics")
        attempts = rep["attempts"]
        require(1 <= len(attempts) <= report["config"]["fallback_cells"], "attempt count")
        require(not any(a["certified"] for a in attempts), "a certified attempt in not_found")
        return False
    require(result["status"] == "found" and exit_code == 0, "found must exit 0")
    cert = result["certificate"]
    idx = cert["point_indices"]
    require(cert["k"] == k and len(idx) == k and idx == sorted(set(idx)), "point indices")
    require(all(0 <= i < doc.n for i in idx), "point index out of range")
    require(cert["points"] == [doc.raw_points[i] for i in idx], "certificate points")
    pts = {i: doc.points[i] for i in idx}
    pairs = [[idx[a], idx[b]] for a in range(k) for b in range(a + 1, k)]
    joined = cert["connecting_lines"]
    require([c["pair"] for c in joined] == pairs, "connecting lines must cover all pairs")
    for c in joined:
        li = c["line_index"]
        require(0 <= li < len(doc.lines), "line index out of range")
        i, j = c["pair"]
        require(_on_line(pts[i], doc.lines[li]) and _on_line(pts[j], doc.lines[li]),
                f"pair {c['pair']} not on line {li}")
    for a in range(k):
        for b in range(a + 1, k):
            for d in range(b + 1, k):
                require(not _collinear(pts[idx[a]], pts[idx[b]], pts[idx[d]]),
                        "three certificate points are collinear")
    locality = cert["locality"]
    require([c["pair"] for c in locality] == pairs, "locality must cover all pairs")
    for c in locality:
        p, q = pts[c["pair"][0]], pts[c["pair"][1]]
        between = sum(1 for z in doc.points if _strictly_inside(p, q, z))
        require(c["points_strictly_between"] == between,
                f"locality of {c['pair']} is {between}, reported {c['points_strictly_between']}")
        require(between < k, f"locality of {c['pair']} not below k")
    return True
