"""Command-line surface: documents, reports, exit codes, determinism."""

import copy
import json
import os
import random
import stat
import tempfile
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incidences import Arrangement, Line, Point, grid_construction, spanned_lines
from incidences.cli import _write_text, main, random_arrangement
from incidences.documents import (DocumentError, arrangement_from_document,
                                  arrangement_to_document, dumps_canonical,
                                  loads_document, pair_to_rational,
                                  rational_to_pair)


def huge_coordinate_points():
    """Three points with 3900-4000-digit coordinates: readable as a document,
    but the lines they span have coefficients past the int-string limit."""
    rng = random.Random(0)
    points = [[[rng.randrange(10**3899, 10**4000), 1] for _ in "xy"] for _ in range(3)]
    return json.dumps({"schema_version": "1", "points": points, "lines": []})


def write_doc(path, arr, metadata=None):
    path.write_text(dumps_canonical(arrangement_to_document(arr, metadata)))
    return str(path)


class TestDocuments:
    def test_round_trip_identity(self):
        arr = grid_construction(2)
        doc = arrangement_to_document(arr, {"generator": "grid"})
        back, meta = arrangement_from_document(json.loads(dumps_canonical(doc)))
        assert back.points == arr.points
        assert back.lines == arr.lines
        assert meta == {"generator": "grid"}

    def test_round_trip_rational_coordinates(self):
        arr = Arrangement([Point(Fraction(1, 3), Fraction(-2, 7))], [Line(3, -1, 0)])
        back, _ = arrangement_from_document(arrangement_to_document(arr))
        assert back.points == arr.points

    def test_reserialization_is_byte_stable(self):
        arr = grid_construction(2)
        text = dumps_canonical(arrangement_to_document(arr))
        back, _ = arrangement_from_document(loads_document(text))
        assert dumps_canonical(arrangement_to_document(back)) == text

    @pytest.mark.parametrize("n", [0, 1, -7, 10**30])
    def test_integral_pairs_read_as_int(self, n):
        v = pair_to_rational([n, 1], "x")
        assert v == n and type(v) is int
        assert rational_to_pair(n) == [n, 1]

    def test_fraction_pairs(self):
        assert pair_to_rational([6, 4], "x") == Fraction(3, 2)
        v = pair_to_rational([-6, 3], "x")
        assert v == -2 and type(v) is int
        assert rational_to_pair(Fraction(-3, 2)) == [-3, 2]
        assert rational_to_pair(Fraction(4, 2)) == [2, 1]

    def test_malformed_documents(self):
        with pytest.raises(DocumentError):
            loads_document("{not json")
        with pytest.raises(DocumentError):
            arrangement_from_document({"schema_version": "999", "points": [], "lines": []})
        with pytest.raises(DocumentError):
            arrangement_from_document({"schema_version": "1", "points": [[[1, 0], [0, 1]]], "lines": []})
        with pytest.raises(DocumentError):
            arrangement_from_document({"schema_version": "1", "points": [], "lines": [[0, 0, 1]]})


class TestGenerate:
    def test_grid(self, tmp_path):
        out = tmp_path / "grid2.json"
        assert main(["generate", "--kind", "grid", "--n", "2", "--output", str(out)]) == 0
        arr, meta = arrangement_from_document(json.loads(out.read_text()))
        assert arr.n_points == 16 and arr.n_lines == 8
        assert meta["params"]["n"] == 2

    def test_spanned_from_grid_points(self, tmp_path):
        pts = [Point(x, y) for x in range(3) for y in range(3)]
        src = write_doc(tmp_path / "pts.json", Arrangement(pts, []))
        out = tmp_path / "spanned.json"
        assert main(["generate", "--kind", "spanned", "--input", src, "--output", str(out)]) == 0
        arr, _ = arrangement_from_document(json.loads(out.read_text()))
        assert arr.n_lines == 20

    def test_random_is_seed_stable(self, tmp_path):
        args = ["generate", "--kind", "random", "--seed", "7", "--n-points", "10",
                "--n-lines", "5", "--bound", "100"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_params(self, tmp_path):
        assert main(["generate", "--kind", "grid", "--output", str(tmp_path / "x.json")]) == 2
        assert main(["generate", "--kind", "grid", "--n", "0"]) == 2
        assert main(["generate", "--kind", "grid", "--n", "2", "--format", "csv"]) == 2
        assert main(["generate", "--kind", "random", "--seed", "1", "--n-points", "50",
                     "--n-lines", "5", "--bound", "3"]) == 2


class TestAnalyze:
    def test_grid2_report(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", doc, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["statistics"]["n_incidences"] == 16
        assert report["statistics"]["richness_histogram"] == [[2, 8]]
        assert report["triangle_bound_monitor"]["conjecture_holds"] is True

    def test_spanned_grid_triangles(self, tmp_path):
        pts = [Point(x, y) for x in range(3) for y in range(3)]
        doc = write_doc(tmp_path / "sp.json", spanned_lines(pts))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", doc, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["triangles"] == 76
        assert report["triangle_bound_monitor"] == {
            "triangles": 76, "bound": 180, "conjecture_holds": True}

    def test_empty_document(self, tmp_path):
        doc = write_doc(tmp_path / "empty.json", Arrangement([], []))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", doc, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["statistics"]["n_incidences"] == 0
        assert report["triangles"] == 0

    def test_csv_table(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "report.csv"
        assert main(["analyze", "--input", doc, "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("m,")
        assert lines[1].split(",")[:3] == ["2", "8", "8"]

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["analyze", "--input", str(bad)]) == 2


class TestPartitionCommand:
    def test_r1_single_cell(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "part.json"
        assert main(["partition", "--input", doc, "--r", "1", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["t"] == 1
        assert report["crossing_profile"]["max"] == 1

    def test_grid2_r4_cells_and_profile(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "part.json"
        assert main(["partition", "--input", doc, "--r", "4", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        low, high = report["size_window"]["low"], report["size_window"]["high"]
        for cell in report["cells"]:
            assert low <= len(cell["point_indices"]) <= high
        assert len(report["crossing_profile"]["per_line"]) == 8

    def test_svg_output(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        svg = tmp_path / "cells.svg"
        assert main(["partition", "--input", doc, "--r", "4",
                     "--output", str(tmp_path / "p.json"), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("points, lines", [
        ([Point(10**400, 0), Point(10**400, 1)], []),
        ([Point(Fraction(10**400, 3), 0), Point(Fraction(10**400, 3), 1)], []),
        ([Point(10**17, 0), Point(10**17, 1)], []),
        ([Point(10**308, 0), Point(-10**308, 1)], []),
        # y = 1.7e308 x: finite at x = 1, past the float range at the right margin.
        ([Point(0, -10**307), Point(1, 10**307)], [Line.from_coefficients(17 * 10**307, -1, 0)]),
    ], ids=["400-digit-integer", "400-digit-fraction", "margin-below-float-resolution",
            "spread-past-float-range", "line-end-past-float-range"])
    def test_svg_of_unplottable_coordinates_exits_2(self, tmp_path, capsys, points, lines):
        doc = write_doc(tmp_path / "big.json", Arrangement(points, lines))
        assert main(["partition", "--input", doc, "--r", "1", "--output",
                     str(tmp_path / "p.json"), "--svg", str(tmp_path / "cells.svg")]) == 2
        assert capsys.readouterr().err == "error: --svg: coordinates too large to plot\n"
        assert os.listdir(tmp_path) == ["big.json"]   # no report, no SVG, no temp file

    def test_csv_profile(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "prof.csv"
        assert main(["partition", "--input", doc, "--r", "4", "--format", "csv",
                     "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "line_index,cells_crossed"
        assert len(lines) == 9

    def test_invalid_r(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        assert main(["partition", "--input", doc, "--r", "0"]) == 2


class TestTheorem1Command:
    def test_grid3_k3_found(self, tmp_path):
        doc = write_doc(tmp_path / "g3.json", grid_construction(3))
        out = tmp_path / "run.json"
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "0.5",
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["result"]["status"] == "found"
        cert = report["result"]["certificate"]
        assert len(cert["point_indices"]) == 3
        assert len(cert["connecting_lines"]) == 3
        assert all(row["points_strictly_between"] < 3 for row in cert["locality"])

    def test_parallel_lines_exit_3(self, tmp_path):
        lines = [Line.from_slope_intercept(1, b) for b in range(3)]
        pts = [Point(x, x) for x in range(3)]
        doc = write_doc(tmp_path / "par.json", Arrangement(pts, lines))
        out = tmp_path / "run.json"
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "1",
                     "--output", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["result"]["status"] == "not_found"

    def test_malformed_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": "1"}')
        assert main(["theorem1", "--input", str(bad), "--k", "3", "--c", "1"]) == 2

    def test_invalid_k_and_c(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        assert main(["theorem1", "--input", doc, "--k", "2", "--c", "1"]) == 2
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "-1"]) == 2
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "bogus"]) == 2

    def test_auto_density(self, tmp_path):
        doc = write_doc(tmp_path / "g3.json", grid_construction(3))
        out = tmp_path / "run.json"
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "auto",
                     "--output", str(out)]) == 0

    def test_reports_byte_identical(self, tmp_path):
        doc = write_doc(tmp_path / "g3.json", grid_construction(3))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["theorem1", "--input", doc, "--k", "3", "--c", "auto"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_keys_are_the_field_names(self, tmp_path):
        doc = write_doc(tmp_path / "par.json", Arrangement(
            [Point(x, x) for x in range(3)],
            [Line.from_slope_intercept(1, b) for b in range(3)]))
        out = tmp_path / "run.json"
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "1",
                     "--output", str(out)]) == 3
        report = json.loads(out.read_text())
        assert set(report) == {"command", "config", "statistics", "result", "metadata"}
        assert set(report["config"]) == {"k", "c", "beta_k", "multiplicity_threshold",
                                         "rich_threshold_slack", "fallback_cells"}
        assert set(report["result"]) == {"status", "report"}
        not_found = report["result"]["report"]
        assert set(not_found) == {"r", "t", "n_points", "n_lines", "n_incidences",
                                  "density_ok", "accounting_mode", "attempts"}
        assert not_found["attempts"]
        for attempt in not_found["attempts"]:
            assert set(attempt) == {"cell_index", "floor_sum", "pairable_lines",
                                    "segments", "dual_edges", "certified"}

    def test_csv_certificate(self, tmp_path):
        doc = write_doc(tmp_path / "g3.json", grid_construction(3))
        out = tmp_path / "run.csv"
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "auto",
                     "--format", "csv", "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "point_i,point_j,line_index,points_strictly_between"
        assert len(lines) == 4


class TestArgumentErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required(self):
        assert main(["theorem1"]) == 2

    @pytest.mark.parametrize("command, text", [
        (["analyze"], '{"schema_version": "1", "points": [[[' + "1" * 5001
         + ', 1], [0, 1]]], "lines": []}'),
        (["analyze"], "[" * 100000),
        (["generate", "--kind", "spanned"],
         dumps_canonical(arrangement_to_document(Arrangement([Point(0, 0)], [])))),
        (["generate", "--kind", "spanned"], huge_coordinate_points()),
    ], ids=["5001-digit-numerator", "deep-nesting", "spanned-one-point",
            "spanned-output-past-digit-limit"])
    def test_rejected_input_exits_2(self, tmp_path, capsys, command, text):
        doc = tmp_path / "in.json"
        doc.write_text(text)
        assert main(command + ["--input", str(doc), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert os.listdir(tmp_path) == ["in.json"]   # no report, no temp file


class TestAtomicWrite:
    def test_exact_bytes_and_no_temp_file_left(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old contents that are longer than the new ones\n")
        text = dumps_canonical({"a": [1, 2], "b": "\u00e9"})
        _write_text(str(out), text)
        assert out.read_bytes() == text.encode("utf-8")
        assert os.listdir(tmp_path) == ["report.json"]

    def test_cli_report_leaves_only_the_report(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", doc, "--output", str(out)]) == 0
        assert sorted(os.listdir(tmp_path)) == ["g2.json", "report.json"]

    def test_failed_replace_removes_the_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"
        target.write_text("old\n")

        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            _write_text(str(target), "new\n")
        assert os.listdir(tmp_path) == ["report.json"]
        assert target.read_text() == "old\n"

    def test_writes_through_a_symlink(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        _write_text(str(link), "new\n")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_keeps_the_mode_of_an_existing_file(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old\n")
        out.chmod(0o640)
        _write_text(str(out), "new\n")
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text() == "new\n"

    def test_writes_into_a_fifo_and_keeps_it(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write_text(str(fifo), "report\n")
            assert os.read(reader, 100) == b"report\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]


SEED_DOCUMENTS = [
    arrangement_to_document(grid_construction(1), {"generator": "grid", "params": {"n": 1}}),
    arrangement_to_document(spanned_lines(
        [Point(0, 0), Point(2, 0), Point(0, 2), Point(Fraction(1, 2), Fraction(5, 3))])),
    arrangement_to_document(random_arrangement(1, 5, 4, 20)),
]
COMMANDS = [
    ["analyze"],
    ["partition", "--r", "3"],
    ["theorem1", "--k", "3", "--c", "auto"],
    ["theorem1", "--k", "3", "--c", "1/2", "--beta-k", "1"],
    ["generate", "--kind", "spanned"],
    ["partition", "--r", "1", "--svg", "SVG"],   # SVG: a path in the test's directory
]
json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
                      st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4))
json_value = st.recursive(json_leaf, lambda kids: st.one_of(
    st.lists(kids, max_size=3), st.dictionaries(st.text(max_size=4), kids, max_size=3)),
    max_leaves=8)


def _locations(node, out):
    """Every (container, key) pair in a JSON tree, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _locations(child, out)
    return out


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(SEED_DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        spots = _locations(doc, [])
        if not spots:
            break
        container, key = draw(st.sampled_from(spots))
        action = draw(st.sampled_from(["replace", "delete", "nudge", "nudge", "duplicate"]))
        if action == "replace":
            container[key] = draw(json_value)
        elif action == "delete":
            del container[key]
        elif action == "nudge" and type(container[key]) is int:
            container[key] = draw(st.sampled_from([0, -1, -container[key], container[key] + 1]))
        elif action == "duplicate" and isinstance(container, list):
            container.append(copy.deepcopy(container[key]))
    text = json.dumps(doc)
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        text = text[:at] + draw(st.text(alphabet='[]{},:"-0123456789e', max_size=3)) + text[at + cut:]
    return text


class TestFuzzedDocuments:
    @given(mutated_documents(), st.sampled_from(COMMANDS))
    @example('{"schema_version": "1", "points": [[[1, 0], [0, 1]]], "lines": []}', ["analyze"])
    @example('{"schema_version": "1", "points": [[[1, 1], [true, 1]]], "lines": []}', ["analyze"])
    @example('{"schema_version": "1", "points": [], "lines": [[1, "0", 0]]}', ["analyze"])
    @example('{"schema_version": "1", "points": [], "lines": [], "metadata": 7}',
             ["partition", "--r", "3"])
    @example('{"schema_version": "1", "points": [[[' + "7" * 400 + ', 1], [0, 1]]], "lines": []}',
             COMMANDS[-1])
    @settings(max_examples=100, deadline=None)
    def test_exit_code_is_never_internal_error(self, text, command):
        with tempfile.TemporaryDirectory() as tmp:
            doc = os.path.join(tmp, "in.json")
            with open(doc, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [os.path.join(tmp, "out.svg") if arg == "SVG" else arg for arg in command]
            code = main(argv + ["--input", doc, "--output", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)


class TestRandomArrangement:
    def test_deterministic_for_seed(self):
        a = random_arrangement(3, 12, 6, 50)
        b = random_arrangement(3, 12, 6, 50)
        assert a.points == b.points and a.lines == b.lines

    def test_lines_pass_through_sampled_points(self):
        arr = random_arrangement(5, 10, 6, 40)
        for j in range(arr.n_lines):
            assert len(arr.points_on_line(j)) >= 2
