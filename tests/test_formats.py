import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

import onecross.cli
import onecross.constructions
import onecross.drawing
import onecross.formats
import onecross.plane_map
from onecross.cli import main
from onecross.constructions import (
    b_family,
    balanced,
    best_known,
    family_formulas,
    near_balanced,
    w3_family,
)
from onecross.drawing import DrawingError, validate
from onecross.formats import (
    FormatError,
    document_to_drawing,
    drawing_to_document,
    dumps_document,
    export_dot,
    export_svg,
    load_drawing,
    parse_document,
    save_drawing,
)
from onecross.oracle import RULES
from test_oracle import SLOW_BUDGET, slow_instance


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
        # The picture depends on no map id: the saved document draws the same.
        assert export_svg(loaded) == export_svg(d), family


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


def test_a_cyclic_document_raises_recursion_error():
    # Documents are trees, so the encoder looks for no cycle: one runs into the recursion limit.
    provenance = {"generator": "balanced"}
    provenance["params"] = provenance
    with pytest.raises(RecursionError):
        dumps_document(drawing_to_document(balanced(2), provenance))


def test_an_indented_document_loads_unchanged(tmp_path):
    # The loader accepts any JSON whitespace: a document written by
    # json.dumps with one-space indents loads to the same drawing.
    provenance = {"generator": "balanced", "params": {"x": 5}}
    doc = drawing_to_document(balanced(5), provenance)
    path = tmp_path / "balanced5.json"
    path.write_text(json.dumps(doc, indent=1))
    assert path.read_text() != dumps_document(doc)
    assert drawing_to_document(load_drawing(path), provenance) == doc


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


@pytest.mark.parametrize("argv,message", [
    (["construct", "--x", "3", "--y", "4", "--family", "balanced"],
     "balanced family needs x == y"),
    (["construct", "--x", "4", "--y", "9", "--family", "k36"],
     "the k36 family fixes x = 3"),
    (["construct", "--x", "3", "--y", "5", "--family", "k36"],
     "the k36 family does not apply to classes (3, 5): it needs y >= 6"),
    (["oracle"], "oracle needs FILE or --complete-bipartite"),
], ids=["balanced-unequal", "k36-x-not-3", "k36-small-y", "oracle-no-graph"])
def test_cli_input_errors_print_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


# Text json.loads refuses with an error other than JSONDecodeError: nesting
# past the recursion limit (RecursionError) and an integer literal longer
# than int() converts (ValueError).
_UNLOADABLE = {
    "deep-nesting": "[" * 200_000,
    "huge-integer": '{"format_version": 1, "black": [0], "white": [1], "edges": [[0, '
                    + "9" * 5000 + ']], "crossings": [], "rotations": {"true": {}, "false": {}}}',
}


@pytest.mark.parametrize("content", _UNLOADABLE.values(), ids=_UNLOADABLE.keys())
def test_cli_unloadable_json_is_an_input_error(tmp_path, capsys, content):
    f = tmp_path / "d.json"
    f.write_text(content)
    with pytest.raises(FormatError, match="cannot read document"):
        load_drawing(f)
    for argv, message in [(["verify", str(f)], "cannot read document"),
                          (["export", str(f), "--format", "svg"], "cannot read document"),
                          (["oracle", str(f)], "cannot read document"),
                          (["oracle", "--complete-bipartite", "2", "2", "--budget", "0",
                            "--checkpoint", str(f)], "cannot read checkpoint")]:
        assert main(argv) == 2
        assert message in capsys.readouterr().err


# (balanced size, path to one id or the version, replacement).  Each
# replacement equals the value in Python (True == 1, 0.0 == 0, int("00") == 0)
# but is not a JSON integer or a canonical rotation key; a string replaces
# the last key on the path.
_ID_EDITS = {
    "version-bool": (2, ["format_version"], True),
    "version-float": (2, ["format_version"], 1.0),
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


# (path to the edited node, replacement, the error) in a balanced(4) document.
# Entry 1 at vertex 0 is [0, 1], naming the far end 1 of the uncrossed edge
# (0, 1), and entry 0 there is [2, 0], which takes dart 4; entry 0 at crossing
# point 0 is [2, 0], on the crossed edge (0, 5); edge 9 is the crossed edge
# (2, 7) and edge 4 the uncrossed edge (1, 2).  Its four crossings are keyed
# 0 to 3 under rotations.false, and crossing point 0 takes the id 8, one above
# every graph vertex.  Edge 0 is (0, 1), and crossing 0 joins edges 2 and 5.
# A string replaces the last key on the path; any other value is set there,
# under a new key if need be.
_ENTRY_EDITS = {
    "duplicate-edges": (["edges", 1], [1, 0], "duplicate edges in document"),
    "crossing-edge-index-out-of-range": (["crossings", 0, 0], 16,
                                         "crossing names an edge index out of range"),
    "doubly-crossed-edge": (["crossings", 1], [2, 10], "doubly-crossed edge in document"),
    "bool-edge-index": (["rotations", "true", "0", 1], [True, 1],
                        "a rotation entry must be two integers, got [True, 1]"),
    "one-element": (["rotations", "true", "0", 1], [0],
                    "malformed document: not enough values to unpack (expected 2, got 1)"),
    "three-element": (["rotations", "true", "0", 1], [0, 1, 0],
                      "malformed document: too many values to unpack (expected 2)"),
    "half-not-far-end": (["rotations", "true", "0", 1], [0, 0],
                         "rotation entry [0, 0] at vertex 0 does not name the far end "
                         "of its edge"),
    "crossed-half-out-of-range": (["rotations", "false", "0", 0], [2, 7],
                                  "rotation entry [2, 7] names no half of its edge"),
    "not-incident-crossed": (["rotations", "true", "0", 1], [9, 0],
                             "rotation entry [9, 0] not incident to vertex 0"),
    "not-incident-uncrossed": (["rotations", "true", "0", 1], [4, 0],
                               "rotation entry [4, 0] not incident to vertex 0"),
    "edge-index-out-of-range": (["rotations", "false", "0", 0], [16, 0],
                                "rotation entry [16, 0] names no edge"),
    "repeated-entry": (["rotations", "true", "0", 1], [2, 0],
                       "malformed document: duplicate dart 4 (twice in the rotation of vertex 0)"),
    "first-fault-named": (["rotations", "true", "0"], [[0, 1], [16, 0], [True, 1]],
                          "rotation entry [16, 0] names no edge"),
    "key-not-an-integer": (["rotations", "true", "0"], "a",
                           "malformed document: invalid literal for int() with base 10: 'a'"),
    "false-key-past-the-crossings": (["rotations", "false", "0"], "4",
                                     "false rotation key 4 names no crossing"),
    "false-key-negative": (["rotations", "false", "0"], "-1",
                           "false rotation key -1 names no crossing"),
    "true-key-past-the-vertices": (["rotations", "true", "100"], [],
                                   "rotation key 100 names no vertex"),
    "true-key-negative": (["rotations", "true", "-3"], [],
                          "rotation key -3 names no vertex"),
    "true-key-at-a-crossing-point": (["rotations", "true", "8"], [],
                                     "rotation key 8 names no vertex"),
}


@pytest.mark.parametrize("path,value,message", _ENTRY_EDITS.values(), ids=_ENTRY_EDITS.keys())
def test_malformed_rotation_entry_error_text(tmp_path, capsys, path, value, message):
    doc = drawing_to_document(balanced(4))
    *outer, last = path
    holder = functools.reduce(operator.getitem, outer, doc)
    if isinstance(value, str):
        holder[value] = holder.pop(last)
    else:
        holder[last] = value
    with pytest.raises(FormatError) as caught:
        document_to_drawing(doc)
    assert str(caught.value) == message
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    code = main(["verify", str(f)])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


def test_crossing_rotation_is_read_only_from_rotations_false(tmp_path, capsys):
    # Crossing point 0 takes the id one above every graph vertex; its
    # rotation filed under that id in rotations.true is not its rotation.
    doc = drawing_to_document(balanced(4))
    w = max(doc["black"] + doc["white"]) + 1
    doc["rotations"]["true"][str(w)] = doc["rotations"]["false"].pop("0")
    with pytest.raises(FormatError, match=f"^rotation key {w} names no vertex$"):
        document_to_drawing(doc)
    f = tmp_path / "d.json"
    f.write_text(json.dumps(doc))
    assert run(["verify", str(f)], capsys)[0] == 2


def test_the_first_faulty_edge_is_the_one_named():
    doc = drawing_to_document(balanced(2))
    doc["edges"][1:1] = [[1, 1], [1, "a"]]
    with pytest.raises(FormatError, match="self-edge at 1$"):
        parse_document(doc)


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


# A forest: two edge components and an isolated vertex, so the layout takes
# both its no-face branch and its per-component offsets.
_FOREST = {
    "format_version": 1, "black": [0, 1, 5], "white": [2, 3, 4, 6],
    "edges": [[0, 2], [1, 2], [1, 3], [5, 6]], "crossings": [],
    "rotations": {"true": {"0": [[0, 1]], "1": [[1, 1], [2, 1]], "2": [[0, 0], [1, 0]],
                           "3": [[2, 0]], "4": [], "5": [[3, 1]], "6": [[3, 0]]},
                  "false": {}},
}

# sha256 of export_svg's output.  Four were recorded while the layout was
# still numpy's dense solve (with OPENBLAS_NUM_THREADS=1), and the sparse
# elimination that replaced it reproduces their bytes exactly.  Three were
# re-recorded when the hull and its ring start came to be chosen by vertex
# ids: the rings of both w3 drawings start at another vertex of the same
# face, and near_balanced(15, 200) takes another of its 213 longest faces.
_SVG_SHA256 = {
    "w3_family(3, 6)": (lambda: w3_family(3, 6),
                        "335657118215c83265c660a33c8459a6e1435ad9a9cea3721b9fb118d7ba61b4"),
    "balanced(4)": (lambda: balanced(4),
                    "b16a57929a7b87f46f22c546407605bf003f2c5b16495225e7caae30f1746e83"),
    "b_family(20, 103)": (lambda: b_family(20, 103),
                          "51b757146ee8a518495bf77111603178c06aea1e52050baf1574fc08f9a5fd49"),
    "balanced(200)": (lambda: balanced(200),
                      "589cb64bdd794642781ca156940848fccbd5b7408cad9b312d18a23b4bb81bfd"),
    # two interior hubs of degree about 570
    "w3_family(12, 600)": (lambda: w3_family(12, 600),
                           "586dd79dec14c9594d3d4a4815c2fce1275ea30932c67150823b23216d27e3cd"),
    "near_balanced(15, 200)": (lambda: near_balanced(15, 200),
                               "f039b25b19d565edf824fd34c46a84cef5578cace5b79ac0909ac73af65bcd3c"),
    "forest": (lambda: document_to_drawing(_FOREST),
               "1de5c7e0cf08565e080056bf8a85786084974145fb8fdee3363332919654c2b6"),
}


@pytest.mark.parametrize("make,sha256", _SVG_SHA256.values(), ids=_SVG_SHA256.keys())
def test_export_svg_bytes_are_unchanged(make, sha256):
    assert hashlib.sha256(export_svg(make()).encode()).hexdigest() == sha256


# sha256 over the concatenated documents, in list order, recorded before the
# builder spliced sketches through integer templates: every vertex, dart and
# edge id a construction hands out shows in its document's bytes.
_DOCUMENT_SHA256 = {
    "bench-fixed": (lambda: [w3_family(12, 600), b_family(20, 103), balanced(200),
                             near_balanced(15, 200)],
                    "87ddc19f5ef1f581a0adafda2ebbc373efa8f58bb8c7aa7ddff8414ed138a06d"),
    "best-known-x-le-8": (lambda: [best_known(x, y).drawing for x in range(1, 9)
                                   for y in range(x, 6 * x + 14)],
                          "31d0763d4c6d9c810707a775a1f46723bb9563f41de6b6dceba8138e334ca14a"),
}


@pytest.mark.parametrize("make,sha256", _DOCUMENT_SHA256.values(), ids=_DOCUMENT_SHA256.keys())
def test_construct_document_bytes_are_unchanged(make, sha256):
    digest = hashlib.sha256()
    for d in make():
        digest.update(dumps_document(drawing_to_document(d)).encode())
    assert digest.hexdigest() == sha256


@pytest.mark.parametrize("make", [
    lambda: onecross.constructions._BUILDERS["star"](1, 4),
    lambda: onecross.constructions._BUILDERS["double-star"](2, 4),
    lambda: onecross.constructions._BUILDERS["complete-small"](3, 4),
    lambda: w3_family(4, 14),
    lambda: b_family(5, 13),
    lambda: balanced(4),
    lambda: balanced(5),
    lambda: near_balanced(4, 6),
    lambda: balanced(200),
    lambda: w3_family(12, 600),
    lambda: document_to_drawing(_FOREST),
], ids=["star", "double-star", "complete-small", "w3", "b", "balanced4", "balanced5", "near",
        "balanced200", "w3-600", "forest"])
def test_tutte_layout_puts_each_interior_vertex_at_its_neighbours_mean(make):
    # Each component pins the ring of its hull to a circle, from angle 0:
    # the hull is read from the dart that makes the ranks of the vertices it
    # passes least, over the longest faces.  Every other vertex is the mean
    # of its neighbours, a neighbour counted once per dart.
    d = make()
    m = d.planified
    order = [*sorted(d.graph.vertices),
             *sorted(d.false_vertices, key=d.false_vertices.__getitem__)]
    pos = onecross.formats._tutte_positions(m, order)
    assert pos.keys() == m.rotations.keys()
    rank = {v: i for i, v in enumerate(order)}
    owner, roots = m.dart_vertex, onecross.plane_map._components(m)
    hulls = {}
    for walk in m.faces:
        root = roots[owner[walk[0]]]
        for i in range(len(walk)):
            darts = walk[i:] + walk[:i]
            reading = (-len(darts), [rank[owner[x]] for x in darts])
            if root not in hulls or reading < hulls[root][0]:
                hulls[root] = (reading, darts)
    pinned = set()
    for _, darts in hulls.values():
        ring = list(dict.fromkeys(owner[x] for x in darts))
        pinned.update(ring)
        centre = pos[ring[0]][0] - 100.0
        for i, v in enumerate(ring):
            a = 2 * math.pi * i / len(ring)
            assert abs(pos[v][0] - centre - 100.0 * math.cos(a)) <= 1e-9, v
            assert abs(pos[v][1] - 100.0 * math.sin(a)) <= 1e-9, v
    for v, rotation in m.rotations.items():
        if v in pinned or not rotation:
            continue
        nbrs = [pos[owner[m.opposite[dart]]] for dart in rotation]
        for axis in (0, 1):
            mean = sum(p[axis] for p in nbrs) / len(nbrs)
            assert abs(pos[v][axis] - mean) <= 1e-9, (v, axis)


def test_cli_caches_nothing_between_commands(tmp_path, capsys, monkeypatch):
    # Every load parses and certifies from scratch: verify, then export of
    # the same file, validate twice and trace faces twice, round after round.
    doc = tmp_path / "d.json"
    save_drawing(w3_family(3, 6), doc)
    calls = {"validate": 0, "trace_faces": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    validate_spy = counting("validate", onecross.drawing.validate)
    monkeypatch.setattr(onecross.drawing, "validate", validate_spy)
    monkeypatch.setattr(onecross.cli, "validate", validate_spy)
    monkeypatch.setattr(onecross.plane_map, "trace_faces",
                        counting("trace_faces", onecross.plane_map.trace_faces))
    for _ in range(2):
        calls.update(validate=0, trace_faces=0)
        assert main(["verify", str(doc), "--json"]) == 0
        assert main(["export", str(doc), "--format", "svg"]) == 0
        capsys.readouterr()
        assert calls == {"validate": 2, "trace_faces": 2}


def test_cli_bounds_json(capsys):
    code, out = run(["bounds", "--x", "3", "--y", "50", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["upper_final"] == 106 and data["lower_constructive"] == 106


def test_cli_bounds_json_and_csv_together_is_a_usage_error(capsys):
    assert main(["bounds", "--x", "3", "--y", "50", "--json", "--csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


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
    slow = tmp_path / "slow.json"
    save_drawing(best_known(4, 8).drawing, slow)
    assert load_drawing(slow).graph == slow_instance()
    code, out = run(["oracle", str(slow), "--budget", str(SLOW_BUDGET),
                     "--timeout", "0.5", "--checkpoint", str(tmp_path / "ck.json")],
                    capsys)
    assert code == 3 and out.startswith("unknown")


def test_cli_oracle_searches_up_to_the_crossing_cap_without_a_budget(capsys):
    # K5,5 needs 9 crossings and has room for at most 8: "no", unsearched.
    code, out = run(["oracle", "--complete-bipartite", "5", "5", "--json"], capsys)
    stats = json.loads(out)["stats"]
    assert (code, stats["lower_bound"], stats["cap"], len(stats["sizes"])) == (1, 9, 8, 9)
    assert sum(s["nodes"] for s in stats["sizes"]) == 0
    code, out = run(["oracle", "--complete-bipartite", "3", "4"], capsys)
    assert (code, out) == (0, "yes crossings=2 (assignments tested: 1)\n")


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
    assert stats["sizes"][2]["nodes"] > 0 and stats["sizes"][2]["rim_cuts"] > 0
    assert stats["sizes"][2]["corner_cuts"] > 0


@pytest.mark.parametrize("content", ["{bad", "[]"], ids=["not-json", "not-an-object"])
def test_cli_oracle_bad_checkpoint_is_an_input_error(tmp_path, capsys, content):
    ck = tmp_path / "ck.json"
    ck.write_text(content)
    code, _ = run(["oracle", "--complete-bipartite", "2", "2", "--budget", "0",
                   "--checkpoint", str(ck)], capsys)
    assert code == 2


@pytest.mark.parametrize("b, budget, size, next_root", [(3, 1, 5, 0), (4, 2, 2, 999),
                                                      (4, 2, 1, 5)],
                         ids=["beyond-budget", "beyond-orbits", "skipped-size"])
def test_cli_oracle_unreachable_checkpoint_is_an_input_error(tmp_path, capsys, b, budget,
                                                             size, next_root):
    # The search records none of these checkpoints: K3,4 has one first-level
    # orbit at size 2, and its counting bound, 2, skips sizes 0 and 1, where
    # nothing is recorded.  Each is an input error, not a resumed search.
    ck = tmp_path / "ck.json"
    edges = [[i, j] for i in range(3) for j in range(3, 3 + b)]
    ck.write_text(json.dumps({"fingerprint": {"edges": edges, "budget": budget,
                                              "rules": list(RULES)},
                              "size": size, "next_root": next_root}))
    args = ["oracle", "--complete-bipartite", "3", str(b), "--budget", str(budget)]
    code = main(args + ["--checkpoint", str(ck)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: checkpoint {ck}: ")
    assert run(args, capsys)[0] == 0


@pytest.mark.parametrize("argv", [
    ["construct", "--x", "3", "--y", "6", "--out", "{missing}/d.json"],
    ["export", "{doc}", "--format", "svg", "--out", "{missing}/x.svg"],
    ["oracle", "--complete-bipartite", "3", "3", "--budget", "1", "--out", "{missing}/w.json"],
    ["oracle", "--complete-bipartite", "3", "5", "--budget", "3",
     "--checkpoint", "{missing}/ck.json"],
], ids=["construct", "export", "oracle-witness", "oracle-checkpoint"])
def test_cli_unwritable_output_is_an_input_error(tmp_path, capsys, argv):
    # Exit 1 would read as "failure / no"; a failed write is exit 2, one line.
    doc = tmp_path / "d.json"
    save_drawing(w3_family(3, 6), doc)
    missing = tmp_path / "missing"
    argv = [a.format(doc=doc, missing=missing) for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {missing}/")
    assert captured.err.count("\n") == 1
    assert not missing.exists()


def test_cli_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    doc = tmp_path / "d.json"
    codes = [main(argv) for argv in (["construct", "--x", "3", "--y", "6", "--out", str(doc)],
                                     ["verify", str(doc), "--json"],
                                     ["bounds", "--x", "3", "--y", "6"],
                                     ["construct", "--x", "3"])]
    capsys.readouterr()
    assert codes == [0, 0, 0, 2]
    assert built == []
    onecross.cli.build_parser()  # the spy sees a build
    assert built


def test_cli_calls_share_no_arguments(capsys):
    construct = ["construct", "--x", "3", "--y", "6"]
    code, out = run(construct + ["--json"], capsys)
    assert code == 0 and json.loads(out)["edges"] == 18
    code, out = run(construct, capsys)
    assert code == 0 and out.startswith("family=w3 ")
    assert main(["construct", "--x", "3"]) == 2
    assert "required" in capsys.readouterr().err
    assert run(construct, capsys)[0] == 0
    for _ in range(2):
        code, out = run(["--help"], capsys)
        assert code == 0 and out.startswith("usage: onecross")


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
