"""The canonical writer, the reader and the reader's limits.

``dumps_canonical`` must give exactly the text of ``reference_dumps`` (json's
own indenting) for every JSON value, every generated document and every
report the commands write; ``arrangement_from_document`` must read every
decoded document as ``reference_arrangement_from_document`` does; the reader
must refuse what JSON cannot carry.
"""

import copy
import json

import pytest
from conftest import (IntSubclass, first_difference, reference_arrangement_from_document,
                      reference_dumps)
from hypothesis import given, settings
from hypothesis import strategies as st

from incidences import Arrangement, Point, grid_construction, spanned_lines
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


# Nesting shapes, each d lists or objects deep: lists encoded whole, a list
# with a string leaf and a ragged one (both walked element by element),
# objects, both mixed, and lists around an empty one.
NESTED = {
    "lists": lambda d: "[" * d + "1" + "]" * d,
    "string-leaf": lambda d: "[" * d + '"s"' + "]" * d,
    "ragged": lambda d: "[1," * d + "2" + "]" * d,
    "objects": lambda d: '{"a":' * d + "null" + "}" * d,
    "mixed": lambda d: "[" * (d % 2) + '[{"a":' * (d // 2) + "1" + "}]" * (d // 2) + "]" * (d % 2),
    "empty-list": lambda d: "[" * d + "]" * d,
}


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

    @pytest.mark.parametrize("shape", ["lists", "string-leaf", "objects", "empty-list"])
    def test_level_500_is_written_and_501_refused(self, shape):
        """The writer counts levels as the reader does, the root as level 1:
        in ``{"m": value}`` a value d deep reaches level d + 1.  The limit is
        the same on every interpreter, for a list encoded whole too."""
        def value(d):
            return json.loads('{"m": ' + NESTED[shape](d) + "}")
        assert first_difference(dumps_canonical(value(499)), reference_dumps(value(499))) is None
        with pytest.raises(DocumentError,
                           match="^unwritable JSON: nested deeper than 500 levels$"):
            dumps_canonical(value(500))

    @pytest.mark.parametrize("depth", [1200, 5000, 20000])
    @pytest.mark.parametrize("shape", ["bare", "in-object", "string-leaf"])
    def test_nesting_past_the_recursion_limit_is_a_document_error(self, shape, depth):
        """Past the C encoder's recursion limit, which differs between
        interpreters, a list is refused with the same message as at level 501."""
        deep = "s" if shape == "string-leaf" else 1
        for _ in range(depth):
            deep = [deep]
        with pytest.raises(DocumentError,
                           match="^unwritable JSON: nested deeper than 500 levels$"):
            dumps_canonical({"m": deep} if shape == "in-object" else deep)


# Entries off the writer's form that the reader accepts (on grid 2, the last
# point and line repeat one of the grid's), and entries it refuses.
OFF_FORM_POINTS = [
    [[2, 4], [0, 1]], [[4, 2], [-6, 3]], [[1, 3], [0, 1]], ([1, 1], [2, 1]), [(1, 1), [2, 1]],
    [[IntSubclass(3), 1], [0, 1]], [[0, 1], [2, IntSubclass(1)]], [[2, 2], [6, 2]]]
REFUSED_POINTS = [
    [[1, 1], [3, 0]], [[1, -2], [0, 1]], [[True, 1], [0, 1]], [[0, 1], [1, False]],
    [[0, 1], [2, True]], [[1], [0, 1]], [[0, 1], [1, 1, 1]], [[1.0, 1], [0, 1]], [[0, 1], "1"],
    [[0, 1], None], [[0, 1]], [[0, 1], [0, 1], [0, 1]], [], "p", None, 7, {"x": [1, 1]}]
OFF_FORM_LINES = [[2, 2, 2], [-1, 1, 0], [-3, 6, 9], [1, IntSubclass(0), 0],
                  [IntSubclass(2), 0, 2], (1, 0, 0), (0, 1, 3), [0, -2, 2]]
REFUSED_LINES = [[0, 0, 1], [0, 0, 0], [0, 0, -4], [True, 0, 0], [1, 0, False], [1, 0],
                 [1, 0, 0, 0], [1, "0", 0], [1.0, 0, 0], [1, None, 0], [], None, "l"]

common_point = st.lists(st.builds(lambda n: [n, 1], st.integers(-3, 3)), min_size=2, max_size=2)
good_point = st.one_of(common_point, common_point, st.sampled_from(OFF_FORM_POINTS))
bad_point = st.one_of(st.sampled_from(REFUSED_POINTS), json_value)
common_line = st.lists(st.integers(-3, 3), min_size=3, max_size=3).filter(lambda e: e[0] or e[1])
good_line = st.one_of(common_line, common_line, st.sampled_from(OFF_FORM_LINES))
bad_line = st.one_of(st.sampled_from(REFUSED_LINES), json_value)


def _with_one_bad(good, bad):
    """Lists of good entries, some with one bad entry or a duplicate inserted."""
    @st.composite
    def entries(draw):
        found = draw(st.lists(good, max_size=5))
        if draw(st.integers(0, 2)) == 2:
            found.insert(draw(st.integers(0, len(found))), draw(bad))
        if found and draw(st.integers(0, 3)) == 3:   # an exact duplicate
            found.insert(draw(st.integers(0, len(found))),
                         copy.deepcopy(draw(st.sampled_from(found))))
        return found
    return entries()


@st.composite
def decoded_documents(draw):
    """Documents as ``loads_document`` gives them, plus tuples, ``int``
    subclasses and other values only a caller in Python can pass."""
    doc = {"schema_version": "1", "points": draw(_with_one_bad(good_point, bad_point)),
           "lines": draw(_with_one_bad(good_line, bad_line))}
    if draw(st.booleans()):
        doc["metadata"] = draw(st.one_of(st.dictionaries(json_text, json_value, max_size=2),
                                         json_value))
    if draw(st.integers(0, 5)) == 5:   # a missing or wrong top-level value
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(json_value)
    return draw(st.one_of(st.just(doc), st.just(doc), st.just(doc), json_value))


def _reading(read, doc):
    """What a reader makes of ``doc``: its error, or every value with its type."""
    try:
        arr, metadata = read(doc)
    except DocumentError as exc:
        return "raised", str(exc)
    return ("read", [(p.x, type(p.x), p.y, type(p.y)) for p in arr.points],
            [(ln.a, type(ln.a), ln.b, type(ln.b), ln.c, type(ln.c)) for ln in arr.lines],
            metadata)


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

    @given(decoded_documents())
    @settings(max_examples=300, deadline=None)
    def test_reads_as_the_per_entry_reference(self, doc):
        assert _reading(arrangement_from_document, doc) == \
            _reading(reference_arrangement_from_document, doc)

    @pytest.mark.parametrize("name, entry", [
        *(("points", e) for e in OFF_FORM_POINTS + REFUSED_POINTS),
        *(("lines", e) for e in OFF_FORM_LINES + REFUSED_LINES)], ids=repr)
    def test_each_entry_reads_as_the_reference(self, name, entry):
        for arr in (Arrangement([], []), grid_construction(2)):
            written = arrangement_to_document(arr, {"n": arr.n_points})
            for at in sorted({0, len(written[name]) // 2, len(written[name])}):
                doc = copy.deepcopy(written)
                doc[name].insert(at, entry)
                assert _reading(arrangement_from_document, doc) == \
                    _reading(reference_arrangement_from_document, doc)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_written_documents_read_as_the_reference(self, n):
        for arr in (grid_construction(n), random_arrangement(n, 4 * n, 3 * n, 30)):
            doc = loads_document(dumps_canonical(arrangement_to_document(arr, {"n": n})))
            assert _reading(arrangement_from_document, doc) == \
                _reading(reference_arrangement_from_document, doc)


class TestDeepMetadata:
    @pytest.mark.parametrize("shape", NESTED)
    def test_as_deep_as_readable_is_writable(self, tmp_path, capsys, shape):
        """``{"m": value}`` is level 2, so a value d deep reaches level d + 2:
        level 500 is read and written back, level 501 exits 2."""
        doc = tmp_path / "in.json"
        out = tmp_path / "out.json"

        def run(argv, depth):
            doc.write_text(_document_with_metadata('{"m": ' + NESTED[shape](depth) + "}"))
            return main(argv + ["--input", str(doc), "--output", str(out)])

        for argv in (["analyze"], ["partition", "--r", "2"],
                     ["theorem1", "--k", "3", "--c", "auto"], ["generate", "--kind", "spanned"]):
            assert run(argv, 498) == 0, argv
            text = out.read_text()
            assert first_difference(text, reference_dumps(json.loads(text))) is None, argv
            assert run(argv, 499) == 2, argv
            assert capsys.readouterr().err == "error: metadata: nested deeper than 500 levels\n"
