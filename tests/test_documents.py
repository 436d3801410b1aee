"""The canonical writer and the reader's limits.

``dumps_canonical`` must give exactly the text of ``reference_dumps`` (json's
own indenting) for every JSON value, every generated document and every
report the commands write; the reader must refuse what JSON cannot carry.
"""

import json

import pytest
from conftest import first_difference, reference_dumps
from hypothesis import given, settings
from hypothesis import strategies as st

from incidences import Point, grid_construction, spanned_lines
from incidences import cli
from incidences.cli import main, random_arrangement
from incidences.documents import (DocumentError, arrangement_from_document,
                                  arrangement_to_document, dumps_canonical,
                                  loads_document)

# Strings mix JSON structure characters, escapes, control characters and
# non-ASCII, so no structure can be guessed from a string's text.
json_text = st.text(alphabet=st.sampled_from('"[],{}: \\/\x00\x1f\n\té€\U0001f600a1-'),
                    max_size=6) | st.text(max_size=4)
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.sampled_from([10**4299, -(10**4300 - 1), 10**4300 - 1]),   # 4300 digits, the limit
    st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0), json_text)
json_value = st.recursive(json_leaf, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=3).map(tuple),
    st.dictionaries(json_text, kids, max_size=4)), max_leaves=30)


def uniform_lists(depth):
    """Non-empty lists of numbers, booleans and nulls, every leaf at ``depth``."""
    if depth == 0:
        return st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False, allow_infinity=False))
    return st.lists(uniform_lists(depth - 1), min_size=1, max_size=3)


class TestCanonicalWriter:
    @given(json_value)
    @settings(max_examples=500, deadline=None)
    def test_any_json_value_matches_the_reference(self, value):
        assert first_difference(dumps_canonical(value), reference_dumps(value)) is None

    @given(st.integers(1, 5).flatmap(uniform_lists), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_lists_of_one_depth_match_the_reference(self, value, level):
        # ``level`` wraps the list in objects, so it is indented at that level.
        for _ in range(level):
            value = {"k": value}
        assert first_difference(dumps_canonical(value), reference_dumps(value)) is None

    @pytest.mark.parametrize("value", [
        [[1, 2], 3], [1, [2, 3]], [[1], [[2]]], [[[1]], [2]], [[1, [2]], [3]],
        [[1], [2, [3]], [4]], [[]], [[], [1]], [[1], []], [[1], {}], [["a"], [1]],
        [[1, 2], (3, 4)], ([1, [True]], None), [[-0.0, 1e300], [None, False]],
    ], ids=repr)
    def test_ragged_and_mixed_lists_match_the_reference(self, value):
        assert first_difference(dumps_canonical(value), reference_dumps(value)) is None

    @pytest.mark.parametrize("n", range(1, 15))
    def test_grid_documents_match_the_reference(self, n):
        doc = arrangement_to_document(grid_construction(n),
                                      {"generator": "grid", "params": {"n": n}})
        assert first_difference(dumps_canonical(doc), reference_dumps(doc)) is None

    def test_every_report_matches_the_reference(self, tmp_path, monkeypatch):
        written = []

        def checked(obj):
            text = dumps_canonical(obj)
            assert first_difference(text, reference_dumps(obj)) is None
            written.append(obj)
            return text
        monkeypatch.setattr(cli, "dumps_canonical", checked)
        docs = {
            "grid3": arrangement_to_document(grid_construction(3), {"generator": "grid"}),
            "lattice": arrangement_to_document(
                spanned_lines([Point(x, y) for x in range(4) for y in range(4)])),
            "random": arrangement_to_document(random_arrangement(2, 30, 12, 50),
                                              {"note": ["é", [1, [2]], {"x": None}]}),
        }
        runs = [["analyze"], ["partition", "--r", "4"], ["partition", "--r", "1"],
                ["theorem1", "--k", "3", "--c", "auto"], ["theorem1", "--k", "4", "--c", "1"],
                ["generate", "--kind", "spanned"]]
        for name, doc in docs.items():
            path = tmp_path / f"{name}.json"
            path.write_text(reference_dumps(doc))
            for argv in runs:
                out = tmp_path / "out.json"
                assert main(argv + ["--input", str(path), "--output", str(out)]) in (0, 3)
                text = out.read_text()
                assert first_difference(text, reference_dumps(json.loads(text))) is None
        statuses = {obj["result"]["status"] for obj in written if obj.get("command") == "theorem1"}
        assert len(written) == len(docs) * len(runs) and statuses == {"found", "not_found"}

    @pytest.mark.parametrize("value", [
        float("nan"), [1, float("inf")], {"x": [[-float("inf")]]}, [{"x": float("nan")}],
    ], ids=["nan", "inf-in-list", "-inf-nested", "nan-in-object"])
    def test_non_finite_floats_are_document_errors(self, value):
        with pytest.raises(DocumentError, match="unwritable"):
            dumps_canonical(value)

    @pytest.mark.parametrize("value", [{None: 1}, {1: 2}, [{"a": 1, (2,): 3}]], ids=repr)
    def test_keys_must_be_strings(self, value):
        with pytest.raises(TypeError):
            dumps_canonical(value)

    def test_circular_structures_are_document_errors(self):
        in_list = [1]
        in_list.append(in_list)
        in_object = {}
        in_object["x"] = [in_object]
        for value in (in_list, in_object, [in_list]):
            with pytest.raises(DocumentError, match="unwritable"):
                dumps_canonical(value)


def _document_with_metadata(metadata_text):
    text = reference_dumps(arrangement_to_document(grid_construction(3)))
    return text[:text.rindex("}")] + ', "metadata": ' + metadata_text + "}\n"


class TestReader:
    """Non-finite numbers and non-object metadata exit 2: see test_cli's
    ``test_rejected_input_exits_2``."""

    def test_finite_floats_still_read(self):
        doc = loads_document(_document_with_metadata('{"x": [1e300, -0.0, 1e-400]}'))
        assert doc["metadata"]["x"] == [1e300, -0.0, 0.0]

    @pytest.mark.parametrize("text", [None, "null", "{}"], ids=["missing", "null", "empty"])
    def test_missing_or_null_metadata_is_empty(self, text):
        doc = reference_dumps(arrangement_to_document(grid_construction(3)))
        if text is not None:
            doc = _document_with_metadata(text)
        assert arrangement_from_document(loads_document(doc))[1] == {}


# Nesting shapes for metadata: lists encoded whole, a list with a string leaf
# and a ragged one (both walked element by element), objects, and both mixed.
NESTED = {
    "lists": lambda d: "[" * d + "1" + "]" * d,
    "string-leaf": lambda d: "[" * d + '"s"' + "]" * d,
    "ragged": lambda d: "[1," * d + "2" + "]" * d,
    "objects": lambda d: '{"a":' * d + "null" + "}" * d,
    "mixed": lambda d: '[{"a":' * (d // 2) + "1" + "}]" * (d // 2),
}


class TestDeepMetadata:
    @pytest.mark.parametrize("shape", NESTED)
    def test_as_deep_as_readable_is_writable(self, tmp_path, shape):
        doc = tmp_path / "in.json"
        out = tmp_path / "out.json"

        def run(argv, depth):
            doc.write_text(_document_with_metadata('{"m": ' + NESTED[shape](depth) + "}"))
            return main(argv + ["--input", str(doc), "--output", str(out)])

        lo, hi = 1, 4000   # the deepest metadata analyze reads, by bisection
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if run(["analyze"], mid) == 0 else (lo, mid - 1)
        assert 900 < lo < 4000
        for argv in (["analyze"], ["partition", "--r", "2"],
                     ["theorem1", "--k", "3", "--c", "auto"], ["generate", "--kind", "spanned"]):
            assert run(argv, lo) == 0, argv
            text = out.read_text()
            assert first_difference(text, reference_dumps(json.loads(text))) is None, argv
        assert run(["analyze"], lo + 1) == 2
