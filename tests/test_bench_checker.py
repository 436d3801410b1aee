"""The benchmark's own checker accepts the reports the CLI writes.

``bench/checker.py`` reads report keys by name (``config.fallback_cells``,
each attempt's ``certified``, the not_found counts, ``size_window``); a key
the CLI stops writing makes the benchmark count its run as incorrect.  Its
crossing test ``_crosses`` is written apart from ``line_crosses_rect``, so the
two are held to the same answers here.
"""

import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from incidences import Arrangement, Line, Point, Rect, line_crosses_rect, line_through
from incidences.cli import main
from incidences.documents import arrangement_to_document, dumps_canonical

CHECKER = Path(__file__).resolve().parents[1] / "bench" / "checker.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("bench_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


@pytest.fixture
def grid3(tmp_path):
    path = tmp_path / "grid3.json"
    assert main(["generate", "--kind", "grid", "--n", "3", "--output", str(path)]) == 0
    doc = checker.Doc(path.read_bytes())
    checker.check_grid(doc, 3)
    return str(path), doc


@pytest.mark.parametrize("k, expected_code, found", [(3, 0, True), (4, 3, False)])
def test_theorem1_reports_pass_the_checker(tmp_path, grid3, k, expected_code, found):
    path, doc = grid3
    out = tmp_path / "run.json"
    code = main(["theorem1", "--input", path, "--k", str(k), "--c", "auto",
                 "--output", str(out)])
    assert code == expected_code
    assert checker.check_theorem1(json.loads(out.read_text()), doc, code, k) is found


def test_partition_report_passes_the_checker(tmp_path, grid3):
    path, doc = grid3
    out = tmp_path / "part.json"
    assert main(["partition", "--input", path, "--r", "4", "--output", str(out)]) == 0
    checker.check_partition(json.loads(out.read_text()), doc, 4)


def test_spanned_document_and_its_analyze_report_pass_the_checker(tmp_path):
    lattice = Arrangement([Point(x, y) for x in range(3) for y in range(3)], [])
    src = tmp_path / "lattice.json"
    src.write_text(dumps_canonical(arrangement_to_document(lattice)))
    spanned = tmp_path / "spanned.json"
    assert main(["generate", "--kind", "spanned", "--input", str(src),
                 "--output", str(spanned)]) == 0
    spanned_doc = checker.Doc(spanned.read_bytes())
    checker.check_spanned(spanned_doc, checker.Doc(src.read_bytes()))
    out = tmp_path / "analyze.json"
    assert main(["analyze", "--input", str(spanned), "--output", str(out)]) == 0
    checker.check_analyze(json.loads(out.read_text()), spanned_doc)


@pytest.mark.parametrize("name", ["lattice6x6", "random30"])
def test_census_calls_pass_the_checker(tmp_path, name):
    """The census workload's shape: vertical lines, unbounded regions and a
    crossing profile the checker recounts on its own."""
    rng = random.Random(name)
    if name == "lattice6x6":
        points = [Point(x, y) for x in range(6) for y in range(6)]
        rng.shuffle(points)
    else:
        scattered = {}
        while len(scattered) < 30:
            scattered[Point(rng.randint(0, 10**6), rng.randint(0, 10**6))] = None
        points = list(scattered)
    src = tmp_path / "points.json"
    src.write_text(dumps_canonical(arrangement_to_document(Arrangement(points, []))))
    spanned = tmp_path / "spanned.json"
    assert main(["generate", "--kind", "spanned", "--input", str(src),
                 "--output", str(spanned)]) == 0
    spanned_doc = checker.Doc(spanned.read_bytes())
    checker.check_spanned(spanned_doc, checker.Doc(src.read_bytes()))
    out = tmp_path / "analyze.json"
    assert main(["analyze", "--input", str(spanned), "--output", str(out)]) == 0
    checker.check_analyze(json.loads(out.read_text()), spanned_doc)
    assert main(["partition", "--input", str(spanned), "--r", "16", "--output", str(out)]) == 0
    checker.check_partition(json.loads(out.read_text()), spanned_doc, 16)


def _agree(line: Line, rect: Rect) -> bool:
    box = ((rect.x_min, rect.x_max), (rect.y_min, rect.y_max))
    return line_crosses_rect(line, rect) == checker._crosses((line.a, line.b, line.c), box)


def test_line_crosses_rect_agrees_with_the_checker_on_small_boxes():
    """Every small line against every box with sides from a few values,
    unbounded, zero-width and touching boxes included."""
    values = [None, -1, 0, Fraction(1, 2), 1]
    sides = [(lo, hi) for lo, hi in itertools.product(values, repeat=2)
             if lo is None or hi is None or lo <= hi]
    lines = {Line.from_coefficients(a, b, c)
             for a, b, c in itertools.product(range(-2, 3), range(-2, 3), range(-3, 4))
             if (a, b) != (0, 0)}
    rects = [Rect(*xs, *ys) for xs, ys in itertools.product(sides, repeat=2)]
    assert all(_agree(line, rect) for line in lines for rect in rects)


side = st.one_of(st.none(), st.integers(-10**6, 10**6),
                 st.fractions(-10**3, 10**3, max_denominator=10**3))
coefficient = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@st.composite
def rects(draw):
    sides = []
    for _ in "xy":
        lo = draw(side)
        hi = lo if draw(st.booleans()) else draw(side)   # zero width half the time
        sides += sorted((lo, hi)) if None not in (lo, hi) else (lo, hi)
    return Rect(*sides)


@given(rects(), coefficient, coefficient, st.integers(-10**6, 10**6), st.booleans(),
       st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_line_crosses_rect_agrees_with_the_checker(rect, a, b, c, via_corner, dx, dy):
    corner = (rect.x_min, rect.y_max)
    if via_corner and None not in corner and (dx, dy) != (0, 0):
        line = line_through(Point(*corner), Point(corner[0] + dx, corner[1] + dy))
    else:
        assume((a, b) != (0, 0))
        line = Line.from_coefficients(a, b, c)
    assert _agree(line, rect)
