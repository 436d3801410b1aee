"""Arrangement interchange documents: exact JSON, no decimal floats.

Coordinates are serialized as [numerator, denominator] integer pairs and line
coefficients as canonical [a, b, c] triples, so parse(serialize(arr)) gives
back the identical canonical arrangement and geometry survives a round trip
bit for bit.

Reading makes one pass over each list: an entry in the exact form the writer
emits is built directly, and any other entry takes the per-entry checks,
which canonicalize it or raise ``DocumentError`` with its location.

Every document and report is written by ``dumps_canonical``, whose text is
exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``.  With ``indent``
set, ``json`` runs its pure-Python encoder, so the text is built here instead:
objects are walked in Python, and a list whose leaves are all numbers, booleans
or nulls at one depth (a ``points`` or ``lines`` array) is encoded by the C
encoder in compact form and indented with one ``str.replace`` per nesting
level.  Reading refuses NaN, the infinities and numbers past the float range,
and reading and writing refuse nesting past ``MAX_DEPTH`` levels.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .arrangement import Arrangement
from .geometry import Line, Point, Rational

SCHEMA_VERSION = "1"
# The deepest level a document may reach, read or written: the root object is
# level 1, a top-level value level 2, and each list or object inside adds one.
# Every interpreter decodes deeper, and the writer's one frame per level leaves
# half the default recursion limit to its caller.
MAX_DEPTH = 500


class DocumentError(ValueError):
    """Malformed arrangement document; the message carries the location."""


def rational_to_pair(v: Rational) -> list[int]:
    return [v.numerator, v.denominator]


def pair_to_rational(pair, where: str) -> Rational:
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
        raise DocumentError(f"{where}: expected [numerator, denominator] integer pair")
    num, den = pair
    if den <= 0:
        raise DocumentError(f"{where}: denominator must be positive")
    f = Fraction(num, den)
    return f.numerator if f.denominator == 1 else f


def _point_entry(entry, i: int) -> Point:
    """points[i] by the per-entry checks."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 2:
        raise DocumentError(f"points[{i}]: expected [x, y]")
    return Point(pair_to_rational(entry[0], f"points[{i}].x"),
                 pair_to_rational(entry[1], f"points[{i}].y"))


def _line_entry(entry, j: int) -> Line:
    """lines[j] by the per-entry checks, canonicalized."""
    if (not isinstance(entry, (list, tuple)) or len(entry) != 3
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in entry)):
        raise DocumentError(f"lines[{j}]: expected [a, b, c] integer triple")
    try:
        return Line.from_coefficients(*entry)
    except ValueError as exc:
        raise DocumentError(f"lines[{j}]: {exc}") from exc


def arrangement_to_document(arr: Arrangement, metadata: dict | None = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "points": [[rational_to_pair(p.x), rational_to_pair(p.y)] for p in arr.points],
        "lines": [[ln.a, ln.b, ln.c] for ln in arr.lines],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _nests_too_deep(value, level: int) -> bool:
    """Whether a list or object at ``level`` nests past ``MAX_DEPTH``."""
    if level > MAX_DEPTH:
        return True
    for child in value.values() if isinstance(value, dict) else value:
        if isinstance(child, (list, tuple, dict)) and _nests_too_deep(child, level + 1):
            return True
    return False


def arrangement_from_document(doc) -> tuple[Arrangement, dict]:
    """The arrangement and metadata of a decoded document, in one pass per list.

    Each entry first gets a shape test for the form the writer emits: a point
    ``[[x, 1], [y, 1]]`` and a canonical line ``[a, b, c]`` (gcd 1, first
    nonzero of a, b positive), all with exact ``int`` leaves.  Such an entry
    builds its ``Point`` or ``Line`` directly.  Every other entry (a
    fraction, a tuple, a bool or an ``int`` subclass, a reducible pair, a
    line that needs canonicalizing, a malformed shape) takes the per-entry
    checks of ``_point_entry`` and ``_line_entry``, whose messages are the
    ``DocumentError`` messages.  Both routes give equal objects.  Every
    top-level value but ``points`` and ``lines`` may reach level ``MAX_DEPTH``.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {doc.get('schema_version')!r}")
    raw_points = doc.get("points")
    raw_lines = doc.get("lines")
    if not isinstance(raw_points, list) or not isinstance(raw_lines, list):
        raise DocumentError("document needs 'points' and 'lines' lists")
    for key, value in doc.items():
        if (key != "points" and key != "lines" and isinstance(value, (list, tuple, dict))
                and _nests_too_deep(value, 2)):
            raise DocumentError(f"{key}: nested deeper than {MAX_DEPTH} levels")
    points = []
    for i, entry in enumerate(raw_points):
        if type(entry) is list and len(entry) == 2:
            xs, ys = entry
            if (type(xs) is list and type(ys) is list and len(xs) == 2 and len(ys) == 2
                    and type(xs[0]) is int and type(ys[0]) is int
                    and type(xs[1]) is int and type(ys[1]) is int and xs[1] == ys[1] == 1):
                points.append(Point(xs[0], ys[0]))
                continue
        points.append(_point_entry(entry, i))
    lines = []
    for j, entry in enumerate(raw_lines):
        if type(entry) is list and len(entry) == 3:
            a, b, c = entry
            if (type(a) is int and type(b) is int and type(c) is int
                    and math.gcd(a, b, c) == 1 and (a > 0 or a == 0 and b > 0)):
                lines.append(Line(a, b, c))
                continue
        lines.append(_line_entry(entry, j))
    try:
        arr = Arrangement(points, lines)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    metadata = doc.get("metadata")
    if metadata is None:
        return arr, {}
    if not isinstance(metadata, dict):
        raise DocumentError("metadata must be an object")
    return arr, metadata


# The C encoder runs only without ``indent``.  Compact separators put no
# space into its text, so indenting only has to add newlines and padding.
# Its own circular-reference check would halve its speed: a cycle nests
# instead, until ``_write`` refuses it past ``MAX_DEPTH`` levels.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                            check_circular=False)


def _indent_numeric_list(text: str, level: int) -> str | None:
    """The indented form of a compact list text, or None if it has no simple one.

    The simple form exists when the text holds no string, no object and no
    empty list, and every leaf sits at the same depth: then every bracket and
    comma is structure, and between two leaves the text closes j lists, has
    one comma and opens j lists, for some j < depth.  Each such separator
    becomes one fixed string, so one ``str.replace`` per depth indents it.
    ``level`` is the indent level of the line the list opens on; a list
    nesting past ``MAX_DEPTH`` has no form here, and ``_write`` refuses it.
    """
    depth = len(text) - len(text.lstrip("["))
    if '"' in text or "{" in text or "[]" in text or level + depth > MAX_DEPTH:
        return None
    # A separator closing a lists and opening b keeps the leaves at one depth
    # only if a == b.  That holds for every separator exactly when, for each
    # j, as many separators close >= j lists as open >= j as do both.
    top = 0   # the most lists a separator closes
    for j in range(1, depth + 1):
        closing = text.count("]" * j + ",")
        if closing != text.count("," + "[" * j) or closing != text.count("]" * j + "," + "[" * j):
            return None
        if not closing:
            break
        top = j

    def pad(d: int) -> str:
        return "\n" + "  " * (level + d)

    def opens(first: int) -> str:   # open the lists of depths first..depth
        return "".join("[" + pad(d) for d in range(first, depth + 1))

    def closes(last: int) -> str:   # close the lists of depths depth..last
        return "".join(pad(d - 1) + "]" for d in range(depth, last - 1, -1))

    inner = text[depth:-depth].replace(",", "," + pad(depth))
    for j in range(top, 0, -1):
        inner = inner.replace("]" * j + "," + pad(depth) + "[" * j,
                              closes(depth - j + 1) + "," + pad(depth - j) + opens(depth - j + 1))
    return "".join((opens(1), inner, closes(1)))


def _write(value, level: int, try_compact: bool, out: list[str]) -> None:
    """Append the indented text of ``value`` at ``level`` to ``out``.

    One frame per nested list or dict.  A list that does not start with a
    string or an object is first tried whole through the C encoder; if it has
    no simple indented form its elements go one by one, and no list below it
    is encoded whole again, so no subtree is encoded once per level.
    """
    if level >= MAX_DEPTH and isinstance(value, (list, tuple, dict)):   # level 0 is level 1 read
        raise ValueError(f"nested deeper than {MAX_DEPTH} levels")
    if not isinstance(value, (list, tuple, dict)) or not value:
        out.append(_ENCODER.encode(value))
        return
    if isinstance(value, dict):
        opening, closing = "{", "}"
        items = sorted(value.items())
        if not all(isinstance(key, str) for key, _ in items):
            raise TypeError("keys must be str")
        items = ((_ENCODER.encode(key) + ": ", child) for key, child in items)
    else:
        if try_compact and not isinstance(value[0], (str, dict)):
            try:
                indented = _indent_numeric_list(_ENCODER.encode(value), level)
            except RecursionError:   # too deep for the C encoder: walk it
                indented = None
            if indented is not None:
                out.append(indented)
                return
            try_compact = False
        opening, closing = "[", "]"
        items = (("", child) for child in value)
    separator = opening + "\n" + "  " * (level + 1)
    for key, child in items:
        out.append(separator + key)
        _write(child, level + 1, try_compact, out)
        separator = ",\n" + "  " * (level + 1)
    out.append("\n" + "  " * level + closing)


def dumps_canonical(obj) -> str:
    """Byte-stable JSON: sorted keys, two-space indent, trailing newline.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``
    for str-keyed JSON values.  Dicts and lists are walked by recursion, one
    frame per level; each list of plain numbers is encoded whole by the C
    encoder and indented by ``str.replace`` (see ``_indent_numeric_list``).

    What JSON cannot carry is raised as DocumentError, before any output: an
    integer past Python's int-string limit (it cannot be read either), a NaN
    or infinite float, a circular structure, and nesting past ``MAX_DEPTH`` levels.
    """
    out: list[str] = []
    try:
        _write(obj, 0, True, out)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"unwritable JSON: {exc}") from exc
    out.append("\n")
    return "".join(out)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise DocumentError(f"number {text} is past the float range")
    return value


def _no_constant(name: str):
    raise DocumentError(f"{name} is not a JSON number")


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_no_constant)


def loads_document(text: str) -> dict:
    """Parse JSON; integers past Python's int-string limit, NaN, the
    infinities, floats past the float range and nesting too deep to decode
    are rejected; ``arrangement_from_document`` holds the rest to MAX_DEPTH."""
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"unreadable JSON: {exc}") from exc
