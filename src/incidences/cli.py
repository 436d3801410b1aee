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
import functools
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
from .cliques import de_caen_szekely_monitor
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


def _check_config_echo(config_echo: dict) -> None:
    """Exit 2 before any work if the echo has an int past the int-to-str digit limit."""
    try:
        repr(config_echo)   # turns ints into text as the writer does
    except ValueError as exc:
        raise InvalidParamsError(f"configuration cannot be written: {exc}") from exc


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
    n_pairs = math.comb(n_points, 2)
    if n_lines > n_pairs:   # more lines than point pairs: no draw can succeed
        raise InvalidParamsError("cannot span that many distinct lines from the sampled points")
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
    drawn: set[tuple[int, int]] = set()
    while len(lines) < n_lines:
        if len(drawn) == n_pairs:   # every line the points span is already drawn
            raise InvalidParamsError("cannot span that many distinct lines from the sampled points")
        i, j = rng.randrange(n_points), rng.randrange(n_points)
        pair = (min(i, j), max(i, j))
        if i == j or pair in drawn:
            continue
        drawn.add(pair)
        ln = line_through(points[i], points[j])
        if ln not in line_set:
            line_set.add(ln)
            lines.append(ln)
    return Arrangement(points, lines)


def _read_document(path: str) -> tuple[Arrangement, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    doc = loads_document(text)
    # Only the decoded document is needed from here; kept, the text would add
    # its size to the peak of building the arrangement.
    del text
    return arrangement_from_document(doc)


def _write_text(*targets: tuple[str | None, str]) -> None:
    """Write each (path, text) target, all or none: to stdout when the path is
    None, else to the path, atomically when it is a regular file.

    Every path is opened before any target changes: a new or regular file
    (symlinks resolved) gets its whole text in a new file beside it, given the
    old file's mode; anything else (``/dev/null``, a FIFO) is opened as is.
    Then each new file replaces its target in one rename, so a reader never
    sees a partial report, and the other targets and stdout are written.
    Temp files left by an error are removed.  A failed write raises
    InvalidParamsError naming the path as given, never the temp file; so do
    two paths to one new or regular file, before any file is opened.
    """
    regular: dict[str, str] = {}   # each new or regular file target -> its path
    for path, _ in targets:
        target = path and os.path.realpath(path)
        if target and (os.path.isfile(target) or not os.path.exists(target)):
            if target in regular:
                raise InvalidParamsError(
                    f"cannot write {path}: the same file as {regular[target]}")
            regular[target] = path
    staged: list[tuple[str, str, str]] = []   # (path, temp file, target)
    through = []                              # (path, open file, text)
    try:
        for path, text in targets:
            if path is None:
                continue
            target = os.path.realpath(path)
            if target not in regular:
                through.append((path, open(path, "w", encoding="utf-8"), text))
                continue
            tmp = f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            staged.append((path, tmp, target))
            with open(fd, "w", encoding="utf-8") as fh:
                if os.path.exists(target):
                    os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(target).st_mode))
                fh.write(text)
        while staged:
            path, tmp, target = staged[0]
            os.replace(tmp, target)
            del staged[0]
        for path, fh, text in through:
            with fh:
                fh.write(text)
    except OSError as exc:   # exc names the temp file; its strerror does not
        raise InvalidParamsError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for _, tmp, _ in staged:
            os.unlink(tmp)
        for _, fh, _ in through:
            fh.close()
    for path, text in targets:
        if path is None:
            sys.stdout.write(text)


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


def _emit(args, arr: Arrangement, meta: dict, config: dict, body, rows, *extra) -> None:
    """Write a command's report and each extra (path, text) target, all or none.

    ``--format csv`` writes the lines ``rows()`` yields, header first; JSON
    writes the envelope {command, config, statistics, **body(), metadata}.
    Each format calls only its own builder, so neither builds the other's text.
    """
    if args.format == "csv":
        text = "\n".join(rows()) + "\n"
    else:
        text = dumps_canonical({"command": args.command, "config": config,
                                "statistics": _stats_payload(arr), **body(), "metadata": meta})
    _write_text(*extra, (args.output, text))


def cmd_generate(args) -> int:
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
    _write_text((args.output, dumps_canonical(arrangement_to_document(arr, meta))))
    return EXIT_OK


def cmd_analyze(args) -> int:
    arr, meta = _read_document(args.input)
    constant = _parse_fraction(args.st_constant, "--st-constant")
    if constant <= 0:
        raise InvalidParamsError("--st-constant must be positive")
    config_echo = {"st_constant": rational_to_pair(constant)}
    _check_config_echo(config_echo)
    rows = st_bound_report(arr, constant)
    try:   # a bound past the int-to-str digit limit, refused before the triangle count
        bounds = [f"{row.bound_value.numerator},{row.bound_value.denominator}" for row in rows]
    except ValueError as exc:
        raise InvalidParamsError(f"bound cannot be written: {exc}") from exc
    monitor = de_caen_szekely_monitor(arr)
    counterexample = []   # staged with the report, so an exit 2 writes neither
    if not monitor.conjecture_holds:
        path = (args.output or "analyze") + ".counterexample.json"
        counterexample.append((path, dumps_canonical({
            "kind": "COUNTEREXAMPLE",
            "claim": "triangles <= n_points * n_lines",
            "triangles": monitor.triangles,
            "bound": monitor.bound,
            "document": arrangement_to_document(arr, meta),
        })))

    def csv_rows():
        yield "m,lines_exactly_m,lines_at_least_m,bound_numerator,bound_denominator,within_bound"
        hist = incidence_stats(arr).richness_histogram
        for row, bound in zip(rows, bounds):
            yield (f"{row.m},{hist.get(row.m, 0)},{row.rich_count},{bound},"
                   f"{str(row.within_bound).lower()}")

    _emit(args, arr, meta, config_echo, lambda: {
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
    }, csv_rows, *counterexample)
    if counterexample:
        logger.warning("triangle bound violated; counterexample written to %s", path)
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
    svg = []
    if args.svg:
        try:
            svg = [(args.svg, _partition_svg(arr, pr))]
        except (OverflowError, ZeroDivisionError) as exc:
            # Past the float range (a coordinate, their spread or a line end),
            # or so large that the 5% margin vanishes in float rounding and
            # the plot has zero width or height.
            raise InvalidParamsError("--svg: coordinates too large to plot") from exc
    _emit(args, arr, meta, {"r": args.r}, lambda: {
        "cells": [
            {"point_indices": list(cell.point_indices), "region": _rect_payload(cell.region)}
            for cell in pr.cells
        ],
        "size_window": {"low": pr.low, "high": pr.high, "all_within": True},
        "t": pr.t,
        "crossing_profile": {
            "max": profile.max_crossing,
            "mean": rational_to_pair(profile.mean_crossing),
            "per_line": list(profile.per_line),
        },
    }, lambda: ["line_index,cells_crossed",
                *(f"{j},{c}" for j, c in enumerate(profile.per_line))], *svg)
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
    try:
        cfg = PipelineConfig(
            k=args.k, c=c,
            beta_k=_parse_fraction(args.beta_k, "--beta-k") if args.beta_k else None,
        )
    except ValueError as exc:
        raise InvalidParamsError(str(exc)) from exc
    config_echo = {name: rational_to_pair(v) if isinstance(v, Fraction) else v
                   for name, v in asdict(cfg).items()}
    if args.format == "json":
        _check_config_echo(config_echo)
    result = find_complete_tuple(arr, cfg)
    found = isinstance(result, CompleteTupleCertificate)

    def csv_rows():
        if found:
            yield "point_i,point_j,line_index,points_strictly_between"
            for pair, li in sorted(result.connecting_lines.items()):
                yield f"{pair[0]},{pair[1]},{li},{result.locality[pair]}"
        else:
            yield "r,cell_index,floor_sum,pairable_lines,certified"
            for a in result.attempts:
                yield (f"{a.r},{a.cell_index},{a.floor_sum},{a.pairable_lines},"
                       f"{str(a.certified).lower()}")

    _emit(args, arr, meta, config_echo, lambda: {"result": (
        {"status": "found", "certificate": _certificate_payload(arr, result)} if found
        else {"status": "not_found", "report": asdict(result)})}, csv_rows)
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
    g.add_argument("--output", help="output path (default: stdout)")
    # Each command is looked up by name when it runs, not when the parser is
    # built, so rebinding a module-level cmd_* also reaches the cached parser.
    g.set_defaults(func=lambda args: cmd_generate(args))

    a = sub.add_parser("analyze", help="incidence census, rich-line bounds, triangle monitor")
    a.add_argument("--input", required=True)
    a.add_argument("--st-constant", default="1", help="constant C for the rich-line bound rows")
    common(a)
    a.set_defaults(func=lambda args: cmd_analyze(args))

    p = sub.add_parser("partition", help="balanced cells and crossing profile")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--svg", help="also write a static SVG of cells and sample lines")
    common(p)
    p.set_defaults(func=lambda args: cmd_partition(args))

    t = sub.add_parser("theorem1",
                       help="find k points in general position pairwise joined by arrangement lines")
    t.add_argument("--input", required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--c", required=True,
                   help="incidence density constant (exact rational, or 'auto' to measure)")
    t.add_argument("--beta-k", dest="beta_k", help="override the partition constant")
    common(t)
    t.set_defaults(func=lambda args: cmd_theorem1(args))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: argparse's objects form reference cycles,
    so a parser per call would leave them all to the cyclic collector."""
    return build_parser()


def main(argv=None) -> int:
    level = os.environ.get("INCIDENCES_LOG", "WARNING").upper()
    if not isinstance(logging.getLevelName(level), int):   # a name maps to its number
        print(f"error: INCIDENCES_LOG: unknown level {level!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _parser().parse_args(argv)
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
