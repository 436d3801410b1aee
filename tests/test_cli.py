"""Command-line surface: documents, reports, exit codes, determinism."""

import json

import pytest

from incidences import Arrangement, Line, Point, grid_construction, spanned_lines
from incidences.cli import main, random_arrangement
from incidences.documents import (DocumentError, arrangement_from_document,
                                  arrangement_to_document, dumps_canonical,
                                  loads_document)


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
        from fractions import Fraction
        arr = Arrangement([Point(Fraction(1, 3), Fraction(-2, 7))], [Line(3, -1, 0)])
        back, _ = arrangement_from_document(arrangement_to_document(arr))
        assert back.points == arr.points

    def test_reserialization_is_byte_stable(self):
        arr = grid_construction(2)
        text = dumps_canonical(arrangement_to_document(arr))
        back, _ = arrangement_from_document(loads_document(text))
        assert dumps_canonical(arrangement_to_document(back)) == text

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
    ], ids=["5001-digit-numerator", "deep-nesting", "spanned-one-point"])
    def test_rejected_input_exits_2(self, tmp_path, capsys, command, text):
        doc = tmp_path / "in.json"
        doc.write_text(text)
        assert main(command + ["--input", str(doc), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestRandomArrangement:
    def test_deterministic_for_seed(self):
        a = random_arrangement(3, 12, 6, 50)
        b = random_arrangement(3, 12, 6, 50)
        assert a.points == b.points and a.lines == b.lines

    def test_lines_pass_through_sampled_points(self):
        arr = random_arrangement(5, 10, 6, 40)
        for j in range(arr.n_lines):
            assert len(arr.points_on_line(j)) >= 2
