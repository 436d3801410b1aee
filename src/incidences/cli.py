"""Command-line driver.  The only module that touches files.

Commands: generate, analyze, partition, theorem1.  Reports are byte-stable
for a fixed input and configuration: all numbers are exact (rationals as
[numerator, denominator] pairs) and wall-clock timings go to the log, never
into the report.

Exit codes: 0 success / certificate found, 3 structure not found,
2 invalid input or parameters, 1 internal error.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import random
import stat
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .arrangement import (Arrangement, FewerThanTwoPointsError, grid_construction,
                          incidence_stats, measured_density, spanned_lines, st_bound_report)
# count_triangles is not called here (analyze reads monitor.triangles) but stays
# importable from this module: bench/selftest.py patches it as cli.count_triangles.
from .cliques import count_triangles, de_caen_szekely_monitor  # noqa: F401
from .documents import (DocumentError, arrangement_from_document,
                        arrangement_to_document, dumps_canonical, loads_document,
                        rational_to_pair)
from .geometry import Line, Point, line_through
from .partition import crossing_profile, partition
from .pipeline import CompleteTupleCertificate, PipelineConfig, find_complete_tuple

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_FOUND = 3


class InvalidParamsError(ValueError):
    pass


def _parse_fraction(text: str, what: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParamsError(f"{what}: not an exact rational: {text!r}") from exc


def random_arrangement(seed: int, n_points: int, n_lines: int, bound: int) -> Arrangement:
    """Deterministic random arrangement for a seed.

    Points are sampled uniformly from the integer grid [0, bound]^2 without
    duplicates; lines are spanned by random point pairs, deduplicated.
    """
    if n_points < 2 or n_lines < 1 or bound < 1:
        raise InvalidParamsError("random generator needs n_points >= 2, n_lines >= 1, bound >= 1")
    if n_points > (bound + 1) ** 2:
        raise InvalidParamsError("bound too small for that many distinct points")
    rng = random.Random(seed)
    points: list[Point] = []
    seen: set[tuple[int, int]] = set()
    while len(points) < n_points:
        xy = (rng.randint(0, bound), rng.randint(0, bound))
        if xy not in seen:
            seen.add(xy)
            points.append(Point(*xy))
    lines: list[Line] = []
    line_set: set[Line] = set()
    attempts = 0
    while len(lines) < n_lines:
        attempts += 1
        if attempts > 200 * n_lines + 1000:
            raise InvalidParamsError("cannot span that many distinct lines from the sampled points")
        i, j = rng.randrange(n_points), rng.randrange(n_points)
        if i == j:
            continue
        ln = line_through(points[i], points[j])
        if ln not in line_set:
            line_set.add(ln)
            lines.append(ln)
    return Arrangement(points, lines)


def _read_document(path: str) -> tuple[Arrangement, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return arrangement_from_document(loads_document(text))


def _write_text(path: str | None, text: str) -> None:
    """Write to stdout, or to ``path``, atomically when it is a regular file.

    For a new or regular file (symlinks resolved), the text goes to a new file
    beside it, given the old file's mode, which then replaces it in one
    rename, so a reader never sees a partial report; the temp file is removed
    on error.  Anything else (``/dev/null``, a FIFO) is written through as is.
    """
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return
    tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if exists:
                os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _stats_payload(arr: Arrangement) -> dict:
    stats = incidence_stats(arr)
    return {
        "n_points": stats.n_points,
        "n_lines": stats.n_lines,
        "n_incidences": stats.n_incidences,
        "richness_histogram": [[m, cnt] for m, cnt in stats.richness_histogram.items()],
        "st_ratio_cubed": rational_to_pair(stats.st_ratio_cubed),
        "measured_density": rational_to_pair(measured_density(arr)),
    }


def cmd_generate(args) -> int:
    if args.format != "json":
        raise InvalidParamsError("generate emits JSON documents only")
    if args.kind == "grid":
        if args.n is None or args.n < 1:
            raise InvalidParamsError("grid requires --n >= 1")
        arr = grid_construction(args.n)
        meta = {"generator": "grid", "params": {"n": args.n}}
    elif args.kind == "spanned":
        if args.input is None:
            raise InvalidParamsError("spanned requires --input with the source points")
        src, _ = _read_document(args.input)
        try:
            arr = spanned_lines(src.points)
        except FewerThanTwoPointsError as exc:
            raise InvalidParamsError(f"spanned: {exc}") from exc
        meta = {"generator": "spanned", "params": {"source_points": src.n_points}}
    else:
        if args.seed is None or args.n_points is None or args.n_lines is None:
            raise InvalidParamsError("random requires --seed, --n-points, --n-lines")
        arr = random_arrangement(args.seed, args.n_points, args.n_lines, args.bound)
        meta = {"generator": "random",
                "params": {"seed": args.seed, "n_points": args.n_points,
                           "n_lines": args.n_lines, "bound": args.bound}}
    _write_text(args.output, dumps_canonical(arrangement_to_document(arr, meta)))
    return EXIT_OK


def cmd_analyze(args) -> int:
    arr, meta = _read_document(args.input)
    constant = _parse_fraction(args.st_constant, "--st-constant")
    if constant <= 0:
        raise InvalidParamsError("--st-constant must be positive")
    rows = st_bound_report(arr, constant)
    monitor = de_caen_szekely_monitor(arr)
    if not monitor.conjecture_holds:
        path = (args.output or "analyze") + ".counterexample.json"
        _write_text(path, dumps_canonical({
            "kind": "COUNTEREXAMPLE",
            "claim": "triangles <= n_points * n_lines",
            "triangles": monitor.triangles,
            "bound": monitor.bound,
            "document": arrangement_to_document(arr, meta),
        }))
        logger.warning("triangle bound violated; counterexample written to %s", path)
    if args.format == "csv":
        lines = ["m,lines_exactly_m,lines_at_least_m,bound_numerator,bound_denominator,within_bound"]
        hist = dict(incidence_stats(arr).richness_histogram)
        for row in rows:
            lines.append(f"{row.m},{hist.get(row.m, 0)},{row.rich_count},"
                         f"{row.bound_value.numerator},{row.bound_value.denominator},"
                         f"{str(row.within_bound).lower()}")
        _write_text(args.output, "\n".join(lines) + "\n")
        return EXIT_OK
    report = {
        "command": "analyze",
        "config": {"st_constant": rational_to_pair(constant)},
        "statistics": _stats_payload(arr),
        "st_bound_report": [
            {"m": row.m, "rich_count": row.rich_count,
             "bound": rational_to_pair(row.bound_value),
             "within_bound": row.within_bound}
            for row in rows
        ],
        "triangles": monitor.triangles,
        "triangle_bound_monitor": {
            "triangles": monitor.triangles,
            "bound": monitor.bound,
            "conjecture_holds": monitor.conjecture_holds,
        },
        "metadata": meta,
    }
    _write_text(args.output, dumps_canonical(report))
    return EXIT_OK


def _rect_payload(rect) -> dict:
    def side(v):
        return None if v is None else rational_to_pair(v)

    return {"x_min": side(rect.x_min), "x_max": side(rect.x_max),
            "y_min": side(rect.y_min), "y_max": side(rect.y_max)}


def cmd_partition(args) -> int:
    arr, meta = _read_document(args.input)
    if args.r < 1:
        raise InvalidParamsError("--r must be >= 1")
    pr = partition(arr.points, args.r)
    profile = crossing_profile(pr, arr.lines)
    if args.svg:
        try:
            svg = _partition_svg(arr, pr)
        except (OverflowError, ZeroDivisionError) as exc:
            # Past the float range (a coordinate, their spread or a line end),
            # or so large that the 5% margin vanishes in float rounding and
            # the plot has zero width or height.
            raise InvalidParamsError("--svg: coordinates too large to plot") from exc
        _write_text(args.svg, svg)
    if args.format == "csv":
        lines = ["line_index,cells_crossed"]
        lines.extend(f"{j},{c}" for j, c in enumerate(profile.per_line))
        _write_text(args.output, "\n".join(lines) + "\n")
        return EXIT_OK
    n = arr.n_points
    r_eff = min(max(args.r, 1), n) if n else args.r
    report = {
        "command": "partition",
        "config": {"r": args.r},
        "statistics": _stats_payload(arr),
        "cells": [
            {"point_indices": list(cell.point_indices), "region": _rect_payload(cell.region)}
            for cell in pr.cells
        ],
        "size_window": {"low": n // r_eff if n else 0,
                        "high": -(-2 * n // r_eff) if n else 0,
                        "all_within": True},
        "t": pr.t,
        "crossing_profile": {
            "max": profile.max_crossing,
            "mean": rational_to_pair(profile.mean_crossing),
            "per_line": list(profile.per_line),
        },
        "metadata": meta,
    }
    _write_text(args.output, dumps_canonical(report))
    return EXIT_OK


def _certificate_payload(arr: Arrangement, cert: CompleteTupleCertificate) -> dict:
    return {
        "k": cert.k,
        "point_indices": list(cert.point_indices),
        "points": [[rational_to_pair(arr.points[i].x), rational_to_pair(arr.points[i].y)]
                   for i in cert.point_indices],
        "connecting_lines": [
            {"pair": list(pair), "line_index": li}
            for pair, li in sorted(cert.connecting_lines.items())
        ],
        "locality": [
            {"pair": list(pair), "points_strictly_between": cnt}
            for pair, cnt in sorted(cert.locality.items())
        ],
        "cell_index": cert.cell_index,
        "r": cert.r,
    }


def cmd_theorem1(args) -> int:
    arr, meta = _read_document(args.input)
    if args.c == "auto":
        c = measured_density(arr)
        if c <= 0:
            raise InvalidParamsError("cannot infer a positive density from this arrangement")
    else:
        c = _parse_fraction(args.c, "--c")
    if c <= 0:
        raise InvalidParamsError("--c must be positive")
    if args.k < 3:
        raise InvalidParamsError("--k must be >= 3")
    try:
        cfg = PipelineConfig(
            k=args.k, c=c,
            beta_k=_parse_fraction(args.beta_k, "--beta-k") if args.beta_k else None,
            multiplicity_threshold=args.threshold,
            rich_threshold_slack=_parse_fraction(args.slack, "--slack"),
            fallback_cells=args.fallback_cells,
        )
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from exc
    result = find_complete_tuple(arr, cfg)
    config_echo = {name: rational_to_pair(v) if isinstance(v, Fraction) else v
                   for name, v in asdict(cfg).items()}
    found = isinstance(result, CompleteTupleCertificate)
    if found:
        payload = {"status": "found", "certificate": _certificate_payload(arr, result)}
    else:
        payload = {"status": "not_found", "report": asdict(result)}
    if args.format == "csv":
        if found:
            lines = ["point_i,point_j,line_index,points_strictly_between"]
            for pair, li in sorted(result.connecting_lines.items()):
                lines.append(f"{pair[0]},{pair[1]},{li},{result.locality[pair]}")
        else:
            lines = ["cell_index,floor_sum,pairable_lines,segments,certified"]
            for a in result.attempts:
                lines.append(f"{a.cell_index},{a.floor_sum},{a.pairable_lines},"
                             f"{a.segments},{str(a.certified).lower()}")
        _write_text(args.output, "\n".join(lines) + "\n")
        return EXIT_OK if found else EXIT_NOT_FOUND
    report = {
        "command": "theorem1",
        "config": config_echo,
        "statistics": _stats_payload(arr),
        "result": payload,
        "metadata": meta,
    }
    _write_text(args.output, dumps_canonical(report))
    return EXIT_OK if found else EXIT_NOT_FOUND


def _partition_svg(arr: Arrangement, pr, width: int = 640, height: int = 640) -> str:
    """Static diagnostic picture: cell rectangles plus up to 20 lines.

    Floats are fine here, the SVG is plot data, never parsed back.
    """
    xs = [float(p.x) for p in arr.points] or [0.0, 1.0]
    ys = [float(p.y) for p in arr.points] or [0.0, 1.0]
    pad_x = (max(xs) - min(xs) or 1.0) * 0.05
    pad_y = (max(ys) - min(ys) or 1.0) * 0.05
    x0, x1 = min(xs) - pad_x, max(xs) + pad_x
    y0, y1 = min(ys) - pad_y, max(ys) + pad_y

    def finite(v: float) -> float:
        # An extent or a line end past the float range plots as inf or nan.
        if not math.isfinite(v):
            raise OverflowError("plot coordinate past the float range")
        return v

    def sx(x: float) -> float:
        return finite((x - x0) / (x1 - x0) * width)

    def sy(y: float) -> float:
        return finite(height - (y - y0) / (y1 - y0) * height)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">']
    for cell in pr.cells:
        rx0 = x0 if cell.region.x_min is None else float(cell.region.x_min)
        rx1 = x1 if cell.region.x_max is None else float(cell.region.x_max)
        ry0 = y0 if cell.region.y_min is None else float(cell.region.y_min)
        ry1 = y1 if cell.region.y_max is None else float(cell.region.y_max)
        parts.append(f'<rect x="{sx(rx0):.2f}" y="{sy(ry1):.2f}" '
                     f'width="{max(sx(rx1) - sx(rx0), 0):.2f}" '
                     f'height="{max(sy(ry0) - sy(ry1), 0):.2f}" '
                     'fill="none" stroke="#444" stroke-width="1"/>')
    for p in arr.points:
        parts.append(f'<circle cx="{sx(float(p.x)):.2f}" cy="{sy(float(p.y)):.2f}" '
                     'r="1.5" fill="#1f77b4"/>')
    for ln in arr.lines[:20]:
        if ln.b != 0:
            ya = (-ln.c - ln.a * x0) / ln.b
            yb = (-ln.c - ln.a * x1) / ln.b
            coords = (sx(x0), sy(float(ya)), sx(x1), sy(float(yb)))
        else:
            xv = -ln.c / ln.a
            coords = (sx(float(xv)), sy(y0), sx(float(xv)), sy(y1))
        parts.append(f'<line x1="{coords[0]:.2f}" y1="{coords[1]:.2f}" '
                     f'x2="{coords[2]:.2f}" y2="{coords[3]:.2f}" '
                     'stroke="#d62728" stroke-width="0.6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="incidences",
        description="Exact toolkit for 2D point-line incidence arrangements.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    g = sub.add_parser("generate", help="emit an arrangement document")
    g.add_argument("--kind", choices=("grid", "spanned", "random"), required=True)
    g.add_argument("--n", type=int, help="grid parameter")
    g.add_argument("--input", help="source document for kind=spanned")
    g.add_argument("--seed", type=int, help="random seed")
    g.add_argument("--n-points", type=int, dest="n_points")
    g.add_argument("--n-lines", type=int, dest="n_lines")
    g.add_argument("--bound", type=int, default=1000, help="coordinate bound for kind=random")
    common(g)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="incidence census, rich-line bounds, triangle monitor")
    a.add_argument("--input", required=True)
    a.add_argument("--st-constant", default="1", help="constant C for the rich-line bound rows")
    common(a)
    a.set_defaults(func=cmd_analyze)

    p = sub.add_parser("partition", help="balanced cells and crossing profile")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--svg", help="also write a static SVG of cells and sample lines")
    common(p)
    p.set_defaults(func=cmd_partition)

    t = sub.add_parser("theorem1",
                       help="find k points in general position pairwise joined by arrangement lines")
    t.add_argument("--input", required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--c", required=True,
                   help="incidence density constant (exact rational, or 'auto' to measure)")
    t.add_argument("--beta-k", dest="beta_k", help="override the partition constant")
    t.add_argument("--threshold", type=int, help="override the multiplicity threshold")
    t.add_argument("--slack", default="2", help="rich-line slack multiplier")
    t.add_argument("--fallback-cells", dest="fallback_cells", type=int, default=8)
    common(t)
    t.set_defaults(func=cmd_theorem1)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("INCIDENCES_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    start = time.monotonic()
    try:
        code = args.func(args)
    except (DocumentError, InvalidParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception:  # internal error contract: exit 1, never a traceback-free crash
        logger.exception("internal error")
        return EXIT_INTERNAL
    logger.info("%s finished in %.3f s", args.command, time.monotonic() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
