"""Arrangement interchange documents: exact JSON, no decimal floats.

Coordinates are serialized as [numerator, denominator] integer pairs and line
coefficients as canonical [a, b, c] triples, so parse(serialize(arr)) gives
back the identical canonical arrangement and geometry survives a round trip
bit for bit.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .arrangement import Arrangement
from .geometry import Line, Point, Rational

SCHEMA_VERSION = "1"


class DocumentError(ValueError):
    """Malformed arrangement document; the message carries the location."""


def rational_to_pair(v: Rational) -> list[int]:
    f = Fraction(v)
    return [f.numerator, f.denominator]


def pair_to_rational(pair, where: str) -> Rational:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
        raise DocumentError(f"{where}: expected [numerator, denominator] integer pair")
    num, den = pair
    if den <= 0:
        raise DocumentError(f"{where}: denominator must be positive")
    f = Fraction(num, den)
    return f.numerator if f.denominator == 1 else f


def arrangement_to_document(arr: Arrangement, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "points": [[rational_to_pair(p.x), rational_to_pair(p.y)] for p in arr.points],
        "lines": [[ln.a, ln.b, ln.c] for ln in arr.lines],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def arrangement_from_document(doc) -> tuple[Arrangement, dict]:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    raw_points = doc.get("points")
    raw_lines = doc.get("lines")
    if not isinstance(raw_points, list) or not isinstance(raw_lines, list):
        raise DocumentError("document needs 'points' and 'lines' lists")
    points = []
    for i, entry in enumerate(raw_points):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DocumentError(f"points[{i}]: expected [x, y]")
        points.append(Point(pair_to_rational(entry[0], f"points[{i}].x"),
                            pair_to_rational(entry[1], f"points[{i}].y")))
    lines = []
    for j, entry in enumerate(raw_lines):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 3
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
            raise DocumentError(f"lines[{j}]: expected [a, b, c] integer triple")
        try:
            lines.append(Line.from_coefficients(*entry))
        except ValueError as exc:
            raise DocumentError(f"lines[{j}]: {exc}") from exc
    try:
        arr = Arrangement(points, lines)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return arr, metadata


def dumps_canonical(obj) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads_document(text: str) -> dict:
    """Parse JSON; integers past Python's int-string limit and over-deep nesting are rejected."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"unreadable JSON: {exc}") from exc
