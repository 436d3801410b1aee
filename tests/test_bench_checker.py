"""The benchmark's own checker accepts the reports the CLI writes.

``bench/checker.py`` reads report keys by name (``config.fallback_cells``,
each attempt's ``certified``, the not_found counts, ``size_window``); a key
the CLI stops writing makes the benchmark count its run as incorrect.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from incidences import Arrangement, Point
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
