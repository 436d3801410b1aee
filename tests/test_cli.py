"""Command-line surface: documents, reports, exit codes, determinism."""

import argparse
import copy
import gc
import hashlib
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from incidences import Arrangement, Line, Point, grid_construction, spanned_lines
from incidences import cli
from incidences.cli import _write_text, build_parser, main, random_arrangement
from incidences.cliques import MonitorResult
from incidences.documents import (DocumentError, arrangement_from_document,
                                  arrangement_to_document, dumps_canonical,
                                  loads_document, pair_to_rational,
                                  rational_to_pair)
from conftest import parallel_rows


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

    @pytest.mark.parametrize("seed, n_points, n_lines, bound, sha256", [
        (1, 12, 20, 50, "832bf32ecbc0df56548b6cdeb7bd8e492005f6be97c11c18160f14528b94e477"),
        (2, 30, 100, 1000, "44815e9dd257bcb67e868a00b20a08f038b51d0f9888e1b01b69911312313c28"),
        (3, 40, 300, 7, "6b41696b0ee938d4c31cbc95371442f7222ef36fbd28c156bdac8e958a819b94"),
    ])
    def test_random_documents_are_pinned(self, tmp_path, seed, n_points, n_lines, bound,
                                         sha256):
        out = tmp_path / "r.json"
        assert main(["generate", "--kind", "random", "--seed", str(seed),
                     "--n-points", str(n_points), "--n-lines", str(n_lines),
                     "--bound", str(bound), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_bad_params(self, tmp_path):
        assert main(["generate", "--kind", "grid", "--output", str(tmp_path / "x.json")]) == 2
        assert main(["generate", "--kind", "grid", "--n", "0"]) == 2
        assert main(["generate", "--kind", "grid", "--n", "2", "--format", "csv"]) == 2
        assert main(["generate", "--kind", "grid", "--n", "2", "--format", "json"]) == 2
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

    @pytest.fixture
    def violated(self, monkeypatch):
        """The triangle monitor reports a violation: one triangle past its bound."""
        monkeypatch.setattr(cli, "de_caen_szekely_monitor", lambda arr: MonitorResult(
            arr.n_points * arr.n_lines + 1, arr.n_points * arr.n_lines, False))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_violation_writes_a_counterexample(self, tmp_path, violated, caplog, fmt):
        arr = grid_construction(2)
        doc = write_doc(tmp_path / "g2.json", arr, {"generator": "grid"})
        out = tmp_path / "report"
        assert main(["analyze", "--input", doc, "--format", fmt, "--output", str(out)]) == 0
        path = tmp_path / "report.counterexample.json"
        counterexample = json.loads(path.read_text())
        assert {key: counterexample[key] for key in ("kind", "claim", "triangles", "bound")} == {
            "kind": "COUNTEREXAMPLE", "claim": "triangles <= n_points * n_lines",
            "triangles": 129, "bound": 128}
        back, meta = arrangement_from_document(counterexample["document"])
        assert (back.points, back.lines, meta) == (arr.points, arr.lines, {"generator": "grid"})
        assert out.read_text().startswith("{" if fmt == "json" else "m,")
        assert f"counterexample written to {path}" in caplog.text

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_report_writes_no_counterexample(self, tmp_path, violated, caplog,
                                                        capsys, fmt):
        """The counterexample is staged with the report: an exit 2 writes neither."""
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "adir"
        out.mkdir()
        assert main(["analyze", "--input", doc, "--format", fmt, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
        assert sorted(os.listdir(tmp_path)) == ["adir", "g2.json"]
        assert os.listdir(out) == [] and "counterexample written" not in caplog.text


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("unwritable", ["--output", "--svg"])
    @pytest.mark.parametrize("old", [None, "old\n"], ids=["new-target", "existing-target"])
    def test_exit_2_writes_neither_file(self, tmp_path, capsys, fmt, unwritable, old):
        """The SVG and the report are written all or none: an unwritable one
        leaves the other target as it was, and no temp file behind."""
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        ok, bad = tmp_path / "ok", tmp_path / "missing" / "x"
        if old is not None:
            ok.write_text(old)
        writable = "--svg" if unwritable == "--output" else "--output"
        assert main(["partition", "--input", doc, "--r", "2", "--format", fmt,
                     unwritable, str(bad), writable, str(ok)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {bad}: ")
        assert sorted(os.listdir(tmp_path)) == ["g2.json"] + (["ok"] if old else [])
        if old is not None:
            assert ok.read_text() == old

    @pytest.mark.parametrize("svg", ["p.json", "link.json"], ids=["same-path", "symlink"])
    def test_svg_and_report_on_one_file_exit_2(self, tmp_path, capsys, svg):
        """Both would be staged and renamed onto one file, the report over the SVG."""
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        out = tmp_path / "p.json"
        if svg == "link.json":
            (tmp_path / svg).symlink_to(out)
        assert main(["partition", "--input", doc, "--r", "2",
                     "--svg", str(tmp_path / svg), "--output", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: cannot write {out}: the same file as {tmp_path / svg}\n"
        left = ["g2.json"] if svg == "p.json" else ["g2.json", "link.json"]
        assert sorted(os.listdir(tmp_path)) == left

    def test_svg_and_report_both_to_dev_null(self, tmp_path):
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        assert main(["partition", "--input", doc, "--r", "2",
                     "--svg", os.devnull, "--output", os.devnull]) == 0
        assert os.listdir(tmp_path) == ["g2.json"]

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

    @pytest.mark.parametrize("arr, r", [
        (Arrangement([], []), 3), (grid_construction(1), 50),
        (grid_construction(2), 1), (grid_construction(2), 4),
    ], ids=["empty", "r-above-n", "r-1", "r-4"])
    def test_size_window_is_floor_n_over_r_and_ceil_2n_over_r(self, tmp_path, arr, r):
        doc = write_doc(tmp_path / "in.json", arr)
        out = tmp_path / "part.json"
        assert main(["partition", "--input", doc, "--r", str(r), "--output", str(out)]) == 0
        n = arr.n_points
        m = min(r, n)
        expected = (n // m, math.ceil(Fraction(2 * n, m))) if n else (0, 0)
        window = json.loads(out.read_text())["size_window"]
        assert window == {"low": expected[0], "high": expected[1], "all_within": True}


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
        assert set(report["config"]) == {"k", "c", "beta_k", "fallback_cells"}
        assert report["config"]["fallback_cells"] == 8
        assert set(report["result"]) == {"status", "report"}
        not_found = report["result"]["report"]
        assert set(not_found) == {"r", "t", "n_points", "n_lines", "n_incidences",
                                  "density_ok", "attempts"}
        assert not_found["attempts"]
        for attempt in not_found["attempts"]:
            assert set(attempt) == {"r", "cell_index", "floor_sum", "pairable_lines",
                                    "dual_edges", "certified"}

    def test_csv_not_found_has_one_row_per_searched_cell(self, tmp_path):
        """Each searched cell's row names its round's r, as the JSON report
        does: cell indices of different rounds index different partitions."""
        doc = write_doc(tmp_path / "rows.json", parallel_rows(4, 8))
        args = ["theorem1", "--input", doc, "--k", "3", "--c", "auto", "--beta-k", "100"]
        assert main([*args, "--output", str(tmp_path / "run.json")]) == 3
        assert main([*args, "--format", "csv", "--output", str(tmp_path / "run.csv")]) == 3
        attempts = json.loads((tmp_path / "run.json").read_text())["result"]["report"]["attempts"]
        assert [a["r"] for a in attempts] == [8, 4, 2]
        assert (tmp_path / "run.csv").read_text().splitlines() == [
            "r,cell_index,floor_sum,pairable_lines,certified",
            *(f"{a['r']},{a['cell_index']},{a['floor_sum']},{a['pairable_lines']},false"
              for a in attempts)]

    def test_fallback_cells_is_not_an_option(self, tmp_path):
        doc = write_doc(tmp_path / "g3.json", grid_construction(3))
        assert main(["theorem1", "--input", doc, "--k", "3", "--c", "auto",
                     "--fallback-cells", "3", "--output", str(tmp_path / "run.json")]) == 2
        assert os.listdir(tmp_path) == ["g3.json"]

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

    @pytest.mark.parametrize("command, text, error", [
        (["analyze"], '{"schema_version": "1", "points": [[[' + "1" * 5001
         + ', 1], [0, 1]]], "lines": []}', "error:"),
        (["analyze"], "[" * 100000, "error:"),
        (["generate", "--kind", "spanned"],
         dumps_canonical(arrangement_to_document(Arrangement([Point(0, 0)], []))), "error:"),
        (["generate", "--kind", "spanned"], huge_coordinate_points(), "error:"),
        *((["analyze"], '{"schema_version": "1", "points": [], "lines": [], "metadata": '
           + metadata + "}", "error:")
          for metadata in ('{"x": NaN}', '{"x": Infinity}', '{"x": -Infinity}',
                           '{"x": [1e400]}', "[]", "0", "false", '""')),
        # An ignored key whose innermost list is level 501 (the root is level 1).
        *((command, '{"schema_version": "1", "points": [], "lines": [], "extra": '
           + "[" * 500 + "]" * 500 + "}", "error: extra: nested deeper than 500 levels\n")
          for command in (["analyze"], ["partition", "--r", "2"],
                          ["theorem1", "--k", "3", "--c", "auto"],
                          ["generate", "--kind", "spanned"])),
    ], ids=["5001-digit-numerator", "deep-nesting", "spanned-one-point",
            "spanned-output-past-digit-limit", "metadata-nan", "metadata-infinity",
            "metadata-minus-infinity", "metadata-float-overflow", "metadata-empty-list",
            "metadata-zero", "metadata-false", "metadata-empty-string",
            "level-501-analyze", "level-501-partition", "level-501-theorem1",
            "level-501-generate-spanned"])
    def test_rejected_input_exits_2(self, tmp_path, capsys, command, text, error):
        doc = tmp_path / "in.json"
        doc.write_text(text)
        assert main(command + ["--input", str(doc), "--output", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(error)
        assert os.listdir(tmp_path) == ["in.json"]   # no report, no temp file

    @pytest.mark.parametrize("level", ["foo", "5", "warnin"])
    def test_unknown_log_level_exits_2(self, capsys, monkeypatch, level):
        monkeypatch.setenv("INCIDENCES_LOG", level)
        assert main(["generate", "--kind", "grid", "--n", "2"]) == 2
        assert capsys.readouterr() == \
            ("", f"error: INCIDENCES_LOG: unknown level {level.upper()!r}\n")

    def test_unknown_log_level_exits_2_in_a_fresh_process(self):
        """Outside pytest the root logger has no handler, so ``basicConfig``
        would itself have raised on the level."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "INCIDENCES_LOG": "foo",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "incidences", "generate", "--kind", "grid",
                              "--n", "2"], env=env, capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stdout, run.stderr) == \
            (2, "", "error: INCIDENCES_LOG: unknown level 'FOO'\n")

    @pytest.mark.parametrize("command", [
        ["analyze"], ["partition", "--r", "2"], ["theorem1", "--k", "3", "--c", "auto"],
        ["generate", "--kind", "spanned"],
    ], ids=["analyze", "partition", "theorem1", "generate-spanned"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, command):
        doc = tmp_path / "in.json"
        doc.write_bytes(b'\xff\xfe{"schema_version": "1", "points": [], "lines": []}')
        assert main(command + ["--input", str(doc), "--output", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {doc}: ") and "Traceback" not in err
        assert os.listdir(tmp_path) == ["in.json"]

    @pytest.mark.parametrize("command", [
        ["generate", "--kind", "grid", "--n", "2"], ["analyze", "--input", "DOC"],
        ["partition", "--input", "DOC", "--r", "2"],
        ["theorem1", "--input", "DOC", "--k", "3", "--c", "auto"],
        ["partition", "--input", "DOC", "--r", "2", "--output", "OK", "--svg"],
    ], ids=["generate", "analyze", "partition", "theorem1", "partition-svg"])
    @pytest.mark.parametrize("where, reason", [
        ("missing/out", "No such file or directory"), ("adir", "Is a directory"),
    ], ids=["missing-directory", "existing-directory"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command, where, reason):
        """An output path that cannot be written is named in the error, the
        temp file never is, and no temp file is left."""
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        (tmp_path / "adir").mkdir()
        path = str(tmp_path / where)
        argv = [doc if arg == "DOC" else str(tmp_path / "ok.json") if arg == "OK" else arg
                for arg in command]
        if argv[-1] == "--svg":
            argv.append(path)
        else:
            argv += ["--output", path]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == ["adir", "g2.json"]
        assert os.listdir(tmp_path / "adir") == []

    @pytest.mark.parametrize("options", [
        ["--c", "1e5000"], ["--c", "1e-5000"], ["--c", "1", "--beta-k", "1e5000"],
        ["--c", "1", "--beta-k", "1e-5000"],
    ], ids=["c", "c-denominator", "beta-k", "beta-k-denominator"])
    def test_config_past_the_digit_limit_exits_2_before_the_search(
            self, tmp_path, capsys, monkeypatch, options):
        """The report echoes the configuration, so a numerator or denominator
        past the int-to-str digit limit is refused before any search."""
        searched = []
        monkeypatch.setattr(cli, "find_complete_tuple", lambda *a: searched.append(a))
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        argv = ["theorem1", "--input", doc, "--k", "3", *options,
                "--output", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert searched == []
        assert os.listdir(tmp_path) == ["g2.json"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("constant, refused_before_the_census", [
        ("1e5000", True), ("1e-5000", True), ("1e4299", False),
    ])
    def test_analyze_constant_past_the_digit_limit_exits_2(
            self, tmp_path, capsys, monkeypatch, fmt, constant, refused_before_the_census):
        """The JSON report echoes --st-constant and both formats write its
        bounds: a constant past the int-to-str digit limit is refused before
        the census, and a bound past it (1e4299 times 2112) right after the
        bounds are computed, before the triangle count."""
        censused, monitored = [], []
        real_st_bound_report = cli.st_bound_report

        def st_bound_report(*args):
            censused.append(args)
            return real_st_bound_report(*args)
        monkeypatch.setattr(cli, "st_bound_report", st_bound_report)
        monkeypatch.setattr(cli, "de_caen_szekely_monitor", lambda *a: monitored.append(a))
        doc = write_doc(tmp_path / "g4.json", grid_construction(4))
        argv = ["analyze", "--input", doc, "--st-constant", constant, "--format", fmt,
                "--output", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert (censused == []) == refused_before_the_census
        assert monitored == []
        assert os.listdir(tmp_path) == ["g4.json"]


class TestReportFormats:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command, code", [
        (["analyze"], 0), (["partition", "--r", "4"], 0),
        (["theorem1", "--k", "3", "--c", "auto"], 0), (["theorem1", "--k", "5", "--c", "auto"], 3),
    ], ids=["analyze", "partition", "theorem1-found", "theorem1-not-found"])
    def test_each_format_builds_only_its_own_text(self, tmp_path, monkeypatch, fmt, command,
                                                  code):
        """A CSV report computes no statistics and no JSON body; a JSON report
        builds no CSV row."""
        built = []
        real_emit, real_stats_payload = cli._emit, cli._stats_payload

        def recorded(name, build):
            def call():
                built.append(name)
                return build()
            return call

        def emit(args, arr, meta, config, body, rows, *extra):
            real_emit(args, arr, meta, config, recorded("body", body), recorded("rows", rows),
                      *extra)
        monkeypatch.setattr(cli, "_emit", emit)
        monkeypatch.setattr(cli, "_stats_payload",
                            lambda arr: built.append("statistics") or real_stats_payload(arr))
        doc = write_doc(tmp_path / "g3.json", grid_construction(3))
        argv = [*command, "--input", doc, "--format", fmt, "--output", str(tmp_path / "out")]
        assert main(argv) == code
        assert built == (["statistics", "body"] if fmt == "json" else ["rows"])


class TestNoGarbage:
    @pytest.mark.parametrize("command, code", [
        (["generate", "--kind", "grid", "--n", "6"], 0),
        (["analyze", "--input", "DOC"], 0),
        (["partition", "--input", "DOC", "--r", "4"], 0),
        (["theorem1", "--input", "DOC", "--k", "4", "--c", "auto", "--beta-k", "1/1000000"], 0),
        (["theorem1", "--input", "DOC", "--k", "5", "--c", "auto"], 3),
    ], ids=["generate", "analyze", "partition", "theorem1-found", "theorem1-not-found"])
    def test_a_command_leaves_nothing_for_the_cyclic_collector(self, tmp_path, command, code):
        """After a warm-up call, a command's objects are all freed by
        reference counting: no parser, partition or search leaves a cycle."""
        doc = write_doc(tmp_path / "g6.json", grid_construction(6))
        argv = [doc if arg == "DOC" else arg for arg in command]
        argv += ["--output", str(tmp_path / "out.json")]
        assert main(argv) == code
        gc.disable()
        try:
            gc.collect()
            assert main(argv) == code
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_a_rebound_command_reaches_the_cached_parser(self, tmp_path, monkeypatch):
        """The parser is built once per process, yet it calls the command the
        module names now, so a wrapper bound after the first call still runs."""
        doc = write_doc(tmp_path / "g2.json", grid_construction(2))
        argv = ["analyze", "--input", doc, "--output", str(tmp_path / "out.json")]
        assert main(argv) == 0
        called = []
        monkeypatch.setattr(cli, "cmd_analyze", lambda args: called.append(args.input) or 0)
        assert main(argv) == 0
        assert called == [doc]


class TestReadme:
    def test_theorem1_options_paragraph_names_every_option(self):
        """The README's theorem1 options paragraph names every option of the
        subparser beyond the ones its usage example shows."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = readme.split("`theorem1` options:", 1)[1].split("\n\n", 1)[0]
        documented = set(re.findall(r"`(--[a-z][a-z-]*)`", paragraph))
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {option for action in subparsers.choices["theorem1"]._actions
                   for option in action.option_strings if option not in ("-h", "--help")}
        assert options == documented | {"--input", "--k", "--c", "--output", "--format"}


class TestAtomicWrite:
    def test_exact_bytes_and_no_temp_file_left(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old contents that are longer than the new ones\n")
        text = dumps_canonical({"a": [1, 2], "b": "\u00e9"})
        _write_text((str(out), text))
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
        with pytest.raises(cli.InvalidParamsError,
                           match=f"^cannot write {re.escape(str(target))}: replace refused$"):
            _write_text((str(target), "new\n"))
        assert os.listdir(tmp_path) == ["report.json"]
        assert target.read_text() == "old\n"

    def test_writes_through_a_symlink(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(real)
        _write_text((str(link), "new\n"))
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert real.read_text() == "new\n"
        assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]

    def test_keeps_the_mode_of_an_existing_file(self, tmp_path):
        out = tmp_path / "report.json"
        out.write_text("old\n")
        out.chmod(0o640)
        _write_text((str(out), "new\n"))
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert out.read_text() == "new\n"

    def test_writes_into_a_fifo_and_keeps_it(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write_text((str(fifo), "report\n"))
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
    data = text.encode("utf-8")
    if draw(st.integers(0, 3)) == 0:   # a byte sequence that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"])) + data[at:]
    return data


# A triangle in reducible coordinate pairs and non-canonical lines, which the
# reader canonicalizes: the lines x + y + 1 = 0, y = 2 and x - y = 0 and the
# points (-3, 2), (2, 2) and (-1/2, -1/2) where they cross.
OFF_COMMON_FORM = (b'{"schema_version": "1", "points": [[[-6, 2], [4, 2]], [[4, 2], [2, 1]], '
                   b'[[-2, 4], [-3, 6]]], "lines": [[2, 2, 2], [0, -2, 4], [-1, 1, 0]]}')
CANONICAL_FORM = (b'{"schema_version": "1", "points": [[[-3, 1], [2, 1]], [[2, 1], [2, 1]], '
                  b'[[-1, 2], [-1, 2]]], "lines": [[1, 1, 1], [0, 1, -2], [1, -1, 0]]}')


class TestFuzzedDocuments:
    @given(mutated_documents(), st.sampled_from(COMMANDS))
    @example(OFF_COMMON_FORM, ["analyze"])
    @example(OFF_COMMON_FORM, ["theorem1", "--k", "3", "--c", "auto"])
    @example(b'{"schema_version": "1", "points": [[[1, 0], [0, 1]]], "lines": []}', ["analyze"])
    @example(b'{"schema_version": "1", "points": [[[1, 1], [true, 1]]], "lines": []}', ["analyze"])
    @example(b'{"schema_version": "1", "points": [], "lines": [[1, "0", 0]]}', ["analyze"])
    @example(b'{"schema_version": "1", "points": [], "lines": [], "metadata": 7}',
             ["partition", "--r", "3"])
    @example(b'{"schema_version": "1", "points": [[[' + b"7" * 400 + b', 1], [0, 1]]], "lines": []}',
             COMMANDS[-1])
    @example(b'{"schema_version": "1", "points": [], "lines": [], "metadata": "\xed\xa0\x80"}',
             ["theorem1", "--k", "3", "--c", "auto"])
    @settings(max_examples=100, deadline=None)
    def test_exit_code_is_never_internal_error(self, data, command):
        with tempfile.TemporaryDirectory() as tmp:
            doc = os.path.join(tmp, "in.json")
            with open(doc, "wb") as fh:
                fh.write(data)
            argv = [os.path.join(tmp, "out.svg") if arg == "SVG" else arg for arg in command]
            code = main(argv + ["--input", doc, "--output", os.path.join(tmp, "out")])
        assert code in (0, 2, 3)

    def test_off_common_form_reports_as_its_canonical_form(self, tmp_path):
        for argv in (["analyze"], ["partition", "--r", "2"], ["theorem1", "--k", "3", "--c", "auto"]):
            reports = []
            for name, data in (("off", OFF_COMMON_FORM), ("canonical", CANONICAL_FORM)):
                (tmp_path / f"{name}.json").write_bytes(data)
                out = tmp_path / f"{name}.out"
                assert main(argv + ["--input", str(tmp_path / f"{name}.json"),
                                    "--output", str(out)]) == 0
                reports.append(out.read_bytes())
            assert reports[0] == reports[1], argv


class TestRandomArrangement:
    def test_deterministic_for_seed(self):
        a = random_arrangement(3, 12, 6, 50)
        b = random_arrangement(3, 12, 6, 50)
        assert a.points == b.points and a.lines == b.lines

    def test_lines_pass_through_sampled_points(self):
        arr = random_arrangement(5, 10, 6, 40)
        for j in range(arr.n_lines):
            assert len(arr.points_on_line(j)) >= 2

    def test_more_lines_than_point_pairs_is_refused_before_sampling(
            self, tmp_path, capsys, monkeypatch):
        spanned = []
        monkeypatch.setattr(cli, "line_through", lambda *a: spanned.append(a))
        out = tmp_path / "r.json"
        assert main(["generate", "--kind", "random", "--seed", "1", "--n-points", "2",
                     "--n-lines", "2", "--bound", "1", "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot span that many distinct lines from the sampled points\n")
        assert spanned == []
        assert not out.exists()
        with pytest.raises(cli.InvalidParamsError):
            random_arrangement(1, 4, 7, 10)   # C(4, 2) = 6 lines at most
        assert spanned == []

    def test_refused_once_every_pair_is_drawn(self, tmp_path, capsys, monkeypatch):
        """60 points on an 8x8 grid span fewer than C(60, 2) = 1770 lines, so
        the request is refused after at most one line_through call per pair."""
        spanned = []
        line_through = cli.line_through
        monkeypatch.setattr(cli, "line_through", lambda *a: spanned.append(a) or line_through(*a))
        out = tmp_path / "r.json"
        assert main(["generate", "--kind", "random", "--seed", "1", "--n-points", "60",
                     "--n-lines", "1770", "--bound", "7", "--output", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: cannot span that many distinct lines from the sampled points\n")
        assert 0 < len(spanned) <= math.comb(60, 2)
        assert len({frozenset(pair) for pair in spanned}) == len(spanned)
        assert not out.exists()
