import contextlib
import functools
import io
import json
import operator

import pytest
from hypothesis import given, settings, strategies as st

import onecross.cli
import onecross.constructions
import onecross.drawing
from onecross.cli import main
from onecross.constructions import b_family, balanced, best_known, family_formulas, w3_family
from onecross.drawing import DrawingError, validate
from onecross.formats import (
    FormatError,
    document_to_drawing,
    drawing_to_document,
    dumps_document,
    export_dot,
    export_svg,
    load_drawing,
    save_drawing,
)


@pytest.mark.parametrize("make", [
    lambda: balanced(2),
    lambda: balanced(5),
    lambda: w3_family(3, 6),
    lambda: b_family(4, 8),
    lambda: best_known(7, 9).drawing,
])
def test_round_trip(make):
    d = make()
    doc = drawing_to_document(d)
    d2 = document_to_drawing(doc)
    assert validate(d2).passed
    assert d2.edge_count == d.edge_count
    assert len(d2.crossings) == len(d.crossings)
    assert d2.vertex_count == d.vertex_count
    # A second round trip is bit-exact.
    assert dumps_document(drawing_to_document(d2)) == dumps_document(doc)


_ROUND_TRIP_SIZES = sorted({(x, y) for x in range(1, 7)
                            for y in (x, x + 2, 6 * x - 12, 6 * x - 9) if y >= x})


@pytest.mark.parametrize("x,y", _ROUND_TRIP_SIZES)
def test_every_family_row_round_trips_byte_for_byte(tmp_path, x, y):
    for family, count in family_formulas(x, y):
        d = onecross.constructions._BUILDERS[family](x, y)
        provenance = {"generator": family, "params": {"x": x, "y": y}}
        doc = drawing_to_document(d, provenance)
        assert json.loads(dumps_document(doc)) == doc, family
        first, second = tmp_path / f"{family}.json", tmp_path / f"{family}-again.json"
        save_drawing(d, first)
        loaded = load_drawing(first)
        save_drawing(loaded, second)
        assert second.read_bytes() == first.read_bytes(), family
        assert (loaded.x, loaded.y, loaded.edge_count, len(loaded.crossings)) == \
            (x, y, count, len(d.crossings)), family


def test_document_layout():
    text = dumps_document(drawing_to_document(balanced(2), {"generator": "balanced"}))
    assert text == """{
 "black": [0,2],
 "crossings": [],
 "edges": [[0,1],[0,3],[1,2],[2,3]],
 "format_version": 1,
 "provenance": {"generator":"balanced"},
 "rotations": {
  "false": {},
  "true": {
   "0": [[0,1],[1,1]],
   "1": [[2,1],[0,0]],
   "2": [[3,1],[2,0]],
   "3": [[1,0],[3,0]]
  }
 },
 "white": [1,3]
}
"""


def test_save_load(tmp_path):
    path = tmp_path / "d.json"
    save_drawing(w3_family(3, 6), path, {"generator": "w3", "params": {"x": 3, "y": 6}})
    d = load_drawing(path)
    assert validate(d).passed
    assert d.edge_count == 18


def test_unknown_version_rejected():
    doc = drawing_to_document(balanced(2))
    doc["format_version"] = 99
    with pytest.raises(FormatError, match="format_version"):
        document_to_drawing(doc)


def test_adjacent_crossing_document_rejected():
    doc = drawing_to_document(balanced(2))
    doc["crossings"] = [[0, 1]]  # edges 0 and 1 share a vertex in C4
    with pytest.raises(Exception):
        document_to_drawing(doc)


def test_save_of_small_balanced_document_shape():
    doc = drawing_to_document(balanced(2))
    assert doc["format_version"] == 1
    assert len(doc["black"]) == 2 and len(doc["white"]) == 2
    assert len(doc["edges"]) == 4
    assert doc["crossings"] == []


def test_export_dot_c4():
    dot = export_dot(balanced(2))
    assert dot.count(" -- ") == 4
    assert 'class="false"' not in dot


def test_export_svg_crossing_marks():
    d = w3_family(3, 6)
    svg = export_svg(d)
    # Every crossed edge is one continuous 3-point polyline: never two
    # crossing marks on one edge.
    crossed = [ln for ln in svg.splitlines() if "crossed" in ln]
    assert len(crossed) == 2 * len(d.crossings)
    for ln in crossed:
        points = ln.split('points="')[1].split('"')[0].split()
        assert len(points) == 3
    plain = [ln for ln in svg.splitlines() if '"edge plain"' in ln]
    for ln in plain:
        points = ln.split('points="')[1].split('"')[0].split()
        assert len(points) == 2


def test_export_svg_k36_counts():
    svg = export_svg(w3_family(3, 6))
    assert svg.count("circle") == 9  # true vertices only


# -- CLI ----------------------------------------------------------------------


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_cli_construct_and_verify(tmp_path, capsys):
    out_file = tmp_path / "d.json"
    code, out = run(["construct", "--x", "3", "--y", "6", "--out", str(out_file)], capsys)
    assert code == 0
    assert "edges=18" in out and "family=w3" in out
    code, out = run(["verify", str(out_file)], capsys)
    assert code == 0
    assert out.startswith("PASS")


def test_cli_construct_families(tmp_path, capsys):
    for fam, x, y in (("w3", 3, 6), ("b", 5, 12), ("balanced", 6, 6),
                      ("near", 4, 6), ("k36", 3, 9)):
        code, out = run(["construct", "--x", str(x), "--y", str(y),
                         "--family", fam, "--json"], capsys)
        assert code == 0
        assert json.loads(out)["family"] == fam


def test_cli_verify_rejects_corrupt(tmp_path, capsys):
    out_file = tmp_path / "d.json"
    assert run(["construct", "--x", "2", "--y", "2", "--out", str(out_file)], capsys)[0] == 0
    doc = json.loads(out_file.read_text())
    doc["black"], doc["white"] = [0, 1, 2], [3]  # makes an edge same-class
    out_file.write_text(json.dumps(doc))
    code, _ = run(["verify", str(out_file)], capsys)
    assert code == 1
    # A structurally irreparable document (crossing between adjacent edges
    # with no matching rotations) is a parse-level rejection.
    doc2 = json.loads(
        run(["construct", "--x", "2", "--y", "2", "--out", str(out_file)], capsys) and
        out_file.read_text())
    doc2["crossings"] = [[0, 1]]
    out_file.write_text(json.dumps(doc2))
    code, _ = run(["verify", str(out_file)], capsys)
    assert code == 2
    out_file.write_text("{not json")
    code, _ = run(["verify", str(out_file)], capsys)
    assert code == 2


_C4_ROTATIONS_AS_LIST = json.dumps({
    "format_version": 1, "black": [0, 2], "white": [1, 3],
    "edges": [[0, 1], [0, 3], [1, 2], [2, 3]], "crossings": [],
    "rotations": {"true": [], "false": {}},
})


@pytest.mark.parametrize("content", [b"[]", _C4_ROTATIONS_AS_LIST.encode(), b"\xff\xfe"],
                         ids=["top-level-list", "rotations-true-list", "not-utf8"])
def test_cli_malformed_document_is_a_parse_error(tmp_path, capsys, content):
    f = tmp_path / "d.json"
    f.write_bytes(content)
    with pytest.raises(FormatError):
        load_drawing(f)
    assert run(["verify", str(f)], capsys)[0] == 2
    assert run(["export", str(f), "--format", "svg"], capsys)[0] == 2


# (balanced size, path to one id, replacement).  Each replacement equals the
# id in Python (True == 1, 0.0 == 0, int("00") == 0) but is not a JSON integer
# or a canonical rotation key; a string replaces the last key on the path.
_ID_EDITS = {
    "black-bool": (2, ["black", 1], True),
    "black-float": (2, ["black", 0], 0.0),
    "edge-float": (2, ["edges", 0, 1], 2.0),
    "crossing-bool": (4, ["crossings", 0, 0], True),
    "entry-bool": (2, ["rotations", "true", "0", 0, 1], True),
    "entry-float": (2, ["rotations", "true", "0", 0, 0], 1.0),
    "key-leading-zero": (2, ["rotations", "true", "0"], "00"),
    "key-plus-sign": (4, ["rotations", "false", "1"], "+1"),
}


@pytest.mark.parametrize("x,path,value", _ID_EDITS.values(), ids=_ID_EDITS.keys())
def test_document_ids_must_be_ints(tmp_path, capsys, x, path, value):
    doc = drawing_to_document(balanced(x))
    *outer, last = path
    holder = functools.reduce(operator.getitem, outer, doc)
    if isinstance(value, str):
        holder[value] = holder.pop(last)
    else:
        holder[last] = value
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_drawing(f)
    assert run(["verify", str(f)], capsys)[0] == 2


# (path to one rotation entry's half, replacement) in a balanced(2) document,
# whose entry [1, 1] at vertex 0 names the far end 3 of the uncrossed edge (0, 3).
_HALF_EDITS = {
    "out-of-range": (["rotations", "true", "0", 0, 1], 7),
    "own-end": (["rotations", "true", "0", 0, 1], 0),
}


@pytest.mark.parametrize("path,value", _HALF_EDITS.values(), ids=_HALF_EDITS.keys())
def test_rotation_entry_half_names_the_far_end(tmp_path, capsys, path, value):
    doc = drawing_to_document(balanced(2))
    *outer, last = path
    functools.reduce(operator.getitem, outer, doc)[last] = value
    with pytest.raises(FormatError, match="far end"):
        document_to_drawing(doc)
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    assert run(["verify", str(f)], capsys)[0] == 2


def test_true_rotation_at_a_crossing_point_id_is_a_duplicate_vertex(tmp_path, capsys):
    # Crossing point 0 takes the id one above every graph vertex.
    doc = drawing_to_document(balanced(4))
    doc["rotations"]["true"][str(max(doc["black"] + doc["white"]) + 1)] = []
    with pytest.raises(FormatError, match="duplicate vertex"):
        document_to_drawing(doc)
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    assert run(["verify", str(f)], capsys)[0] == 2


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_cli_verify_lists_every_failure_after_one_validation(tmp_path, capsys, monkeypatch,
                                                           as_json):
    doc = drawing_to_document(balanced(4))
    for key in ("0", "1"):  # false vertices 8 and 9 stop alternating
        rot = doc["rotations"]["false"][key]
        rot[0], rot[1] = rot[1], rot[0]
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    validations = []
    original = onecross.drawing.validate

    def counting(d):
        validations.append(d)
        return original(d)

    monkeypatch.setattr(onecross.drawing, "validate", counting)
    monkeypatch.setattr(onecross.cli, "validate", counting)
    code, out = run(["verify", str(f)] + ["--json"] * as_json, capsys)
    failures = ["non-alternating rotation at false vertex 8",
                "non-alternating rotation at false vertex 9",
                "non-planar planified map"]
    assert (code, len(validations)) == (1, 1)
    if as_json:
        report = json.loads(out)
        assert (report["passed"], report["failures"]) == (False, failures)
    else:
        assert out.splitlines() == ["FAIL n=8 edges=16 crossings=4"] + [
            f"  - {failure}" for failure in failures]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 24) | st.floats(allow_nan=False,
                                                                 allow_infinity=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=4),
    max_leaves=10)


def _paths(value, prefix=()):
    """The path to every node below ``value`` in a JSON tree."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_VALID_TEXTS = [dumps_document(drawing_to_document(d))
                for d in (balanced(2), balanced(4), w3_family(3, 7))]


@st.composite
def _mutated_documents(draw):
    """A valid document with one field replaced by any JSON value, or removed."""
    doc = json.loads(draw(st.sampled_from(_VALID_TEXTS)))
    *outer, last = draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    holder = functools.reduce(operator.getitem, outer, doc)
    value = draw(st.none() | st.integers(-2, 24) | _JSON_VALUES)
    if value is None:
        del holder[last]
    else:
        holder[last] = value
    return doc


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(doc=_JSON_VALUES | _mutated_documents())
def test_any_document_is_loaded_or_rejected_without_a_traceback(tmp_path_factory, doc):
    try:
        document_to_drawing(doc)
    except (FormatError, DrawingError):
        pass
    f = tmp_path_factory.getbasetemp() / "fuzzed.json"
    f.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", str(f), "--json"]) in (0, 1, 2)


def test_cli_bounds_json(capsys):
    code, out = run(["bounds", "--x", "3", "--y", "50", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["upper_final"] == 106 and data["lower_constructive"] == 106


def test_cli_table_rows_ordered(capsys):
    code, out = run(["table", "--xmax", "3", "--ymax", "8", "--json"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert all(r["lower"] <= r["upper"] for r in rows)
    keys = [(r["x"], r["y"]) for r in rows]
    assert keys == sorted(keys)


def test_cli_oracle_exit_codes(capsys, tmp_path):
    code, out = run(["oracle", "--complete-bipartite", "3", "3", "--budget", "1"], capsys)
    assert code == 0 and out.startswith("yes")
    code, out = run(["oracle", "--complete-bipartite", "3", "3", "--budget", "0"], capsys)
    assert code == 1 and out.startswith("no")
    # best_known(4, 6) at budget 6 searches for tens of seconds.
    slow = tmp_path / "best46.json"
    save_drawing(best_known(4, 6).drawing, slow)
    code, out = run(["oracle", str(slow), "--budget", "6",
                     "--timeout", "0.5", "--checkpoint", str(tmp_path / "ck.json")],
                    capsys)
    assert code == 3 and out.startswith("unknown")


def test_cli_oracle_rejects_negative_class_sizes(capsys):
    for a, b in (("-2", "3"), ("3", "-1")):
        code = main(["oracle", "--complete-bipartite", a, b, "--budget", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "nonnegative" in captured.err


@pytest.mark.parametrize("timeout", ["-1", "nan"])
def test_cli_oracle_rejects_a_negative_or_nan_timeout(capsys, timeout):
    code = main(["oracle", "--complete-bipartite", "3", "3", "--budget", "1",
                 "--timeout", timeout])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "timeout" in captured.err


def test_cli_oracle_json_reports_search_stats(capsys):
    code, out = run(["oracle", "--complete-bipartite", "3", "4", "--budget", "2", "--json"],
                    capsys)
    report = json.loads(out)
    stats = report["stats"]
    assert (code, report["verdict"], report["crossings"], stats["lower_bound"]) == (0, "yes", 2, 2)
    assert [s["size"] for s in stats["sizes"]] == [0, 1, 2]
    assert [s["skipped"] for s in stats["sizes"]] == [True, True, False]
    assert report["assignments_tested"] == stats["sizes"][2]["leaves"] > 0
    assert stats["sizes"][2]["witnesses"] == 1


@pytest.mark.parametrize("content", ["{bad", "[]"], ids=["not-json", "not-an-object"])
def test_cli_oracle_bad_checkpoint_is_an_input_error(tmp_path, capsys, content):
    ck = tmp_path / "ck.json"
    ck.write_text(content)
    code, _ = run(["oracle", "--complete-bipartite", "2", "2", "--budget", "0",
                   "--checkpoint", str(ck)], capsys)
    assert code == 2


def test_cli_export(tmp_path, capsys):
    out_file = tmp_path / "d.json"
    run(["construct", "--x", "4", "--y", "4", "--out", str(out_file)], capsys)
    code, out = run(["export", str(out_file), "--format", "svg"], capsys)
    assert code == 0 and out.startswith("<svg")
    code, out = run(["export", str(out_file), "--format", "dot"], capsys)
    assert code == 0 and out.startswith("graph")


def test_cli_usage_error(capsys):
    assert main(["construct", "--x", "3"]) == 2


def test_cli_every_construct_output_verifies(tmp_path, capsys):
    # End-to-end: construct writes a file that verify immediately accepts.
    for x, y in ((1, 4), (2, 5), (3, 6), (3, 12), (4, 4), (5, 9), (6, 14), (7, 7)):
        f = tmp_path / f"d{x}_{y}.json"
        code, _ = run(["construct", "--x", str(x), "--y", str(y), "--out", str(f)], capsys)
        assert code == 0
        code, _ = run(["verify", str(f)], capsys)
        assert code == 0
