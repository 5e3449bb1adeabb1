"""The record types: their fields, their mutability and what the CLI prints of them.

Immutable records are ``typing.NamedTuple`` classes; ``PlaneMap`` is a plain
class, since its cached views need an instance ``__dict__``; the search
counters ``SizeStats`` and ``SearchStats`` are plain mutable classes.  Every
record lists its fields in ``_fields``, in the order they were declared when
the records were dataclasses, and all but ``PlaneMap`` have ``_asdict``.
"""

import contextlib
import io
import json

import pytest

from onecross.bounds import conjecture_gap, ratio_table, size_bounds
from onecross.cli import main
from onecross.constructions import best_known
from onecross.drawing import BipartiteGraph, Graph, validate
from onecross.oracle import (SearchStats, SizeStats, gadget_planarize, is_one_planar,
                             planarity_test)
from onecross.plane_map import PlaneMap, build_map, euler_check
from onecross.sketch import compile_sketch


def _k33() -> BipartiteGraph:
    return BipartiteGraph.make([0, 1, 2], [3, 4, 5],
                               [(b, w) for b in range(3) for w in range(3, 6)])


def _records() -> dict:
    """One instance of every record type, by name."""
    best = best_known(3, 6)
    result = is_one_planar(_k33(), 1)
    m = build_map({0: [0], 1: [1]}, {0: 1, 1: 0})
    return {
        "EulerReport": euler_check(m),
        "PlaneMap": m,
        "Graph": Graph.make([0, 1], [(0, 1)]),
        "BipartiteGraph": _k33(),
        "OnePlanarDrawing": best.drawing,
        "ValidationReport": validate(best.drawing),
        "CompiledSketch": compile_sketch({"a": (0, 0), "b": (1, 0)}, [("a", "b")]),
        "BestKnown": best,
        "SizeBounds": size_bounds(3, 50),
        "ConjectureGap": conjecture_gap(3, 50),
        "RatioRow": ratio_table("fixed", [10], 3)[0],
        "PlanarityResult": planarity_test([(0, 1)]),
        "GadgetGraph": gadget_planarize(_k33(), []),
        "SizeStats": result.stats.sizes[0],
        "SearchStats": result.stats,
        "OneplanarResult": result,
    }


# The field order of each record as it was declared.
FIELDS = {
    "EulerReport": ("planar", "vertices", "edges", "faces", "components"),
    "PlaneMap": ("rotations", "opposite", "dart_edge"),
    "Graph": ("vertices", "edges"),
    "BipartiteGraph": ("black", "white", "edges"),
    "OnePlanarDrawing": ("graph", "planified", "false_vertices"),
    "ValidationReport": ("passed", "failures", "x", "y", "vertices", "edges", "crossings",
                         "crossing_ceiling", "exceeds_minimal_bound"),
    "CompiledSketch": ("edges", "names", "rotations", "wedges", "graph_edges", "crossings"),
    "BestKnown": ("drawing", "family"),
    "SizeBounds": ("x", "y", "n", "upper_general", "upper_unbalanced", "upper_x3",
                   "upper_final", "lower_constructive", "regime", "conjecture_bound"),
    "ConjectureGap": ("x", "y", "conjectured_upper", "proven_upper", "constructive_lower",
                      "open_interval", "conjecture_tight"),
    "RatioRow": ("y", "x", "n", "lower", "upper", "lower_ratio", "upper_ratio"),
    "PlanarityResult": ("planar", "witness", "edge_bound"),
    "GadgetGraph": ("edges", "false_nodes"),
    "SizeStats": ("size", "skipped", "leaves", "planarity_s", "witnesses", "nodes",
                  "rim_cuts", "corner_cuts"),
    "SearchStats": ("lower_bound", "cap", "sizes"),
    "OneplanarResult": ("verdict", "drawing", "crossings", "stats"),
}
MUTABLE = {"SizeStats", "SearchStats"}
RECORDS = _records()


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_fields_keep_their_order(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert type(record)._fields == FIELDS[name]
    if name != "PlaneMap":
        fields = [(f, getattr(record, f)) for f in FIELDS[name]]
        assert list(record._asdict().items()) == fields


@pytest.mark.parametrize("name", sorted(set(FIELDS) - MUTABLE))
def test_immutable_records_refuse_assignment(name):
    record = RECORDS[name]
    for field in FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.no_such_field = 1


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_search_counters_stay_mutable(name):
    record = RECORDS[name]
    for field in FIELDS[name]:
        value = getattr(record, field)
        setattr(record, field, value)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.no_such_field = 1


def test_search_counters_keep_their_defaults():
    assert SizeStats(4)._asdict() == {
        "size": 4, "skipped": False, "leaves": 0, "planarity_s": 0.0, "witnesses": 0,
        "nodes": 0, "rim_cuts": 0, "corner_cuts": 0}
    assert SearchStats(2, 4)._asdict() == {"lower_bound": 2, "cap": 4, "sizes": []}
    assert SearchStats(2, 4).sizes is not SearchStats(2, 4).sizes
    assert SizeStats(1, leaves=2) == SizeStats(1, leaves=2) != SizeStats(1, leaves=3)
    assert repr(SearchStats(1, 3, [SizeStats(0)])) == (
        "SearchStats(lower_bound=1, cap=3, sizes=[SizeStats(size=0, skipped=False, leaves=0, "
        "planarity_s=0.0, witnesses=0, nodes=0, rim_cuts=0, corner_cuts=0)])")


def test_plane_maps_compare_by_fields_and_are_unhashable():
    m = RECORDS["PlaneMap"]
    same = build_map({0: [0], 1: [1]}, {0: 1, 1: 0})
    assert m == same and not m != same
    assert m != build_map({0: [1], 1: [0]}, {0: 1, 1: 0})
    assert m != (m.rotations, m.opposite, m.dart_edge)
    assert PlaneMap(m.rotations, m.opposite, m.dart_edge) == m
    with pytest.raises(TypeError):
        hash(m)
    with pytest.raises(AttributeError):
        del m.rotations


def test_plane_map_repr_names_its_three_fields():
    assert repr(RECORDS["PlaneMap"]) == (
        "PlaneMap(rotations={0: (0,), 1: (1,)}, opposite={0: 1, 1: 0}, dart_edge={0: 0, 1: 0})")


def test_search_counters_are_unequal_to_other_classes():
    # ``_Counters.__eq__`` leaves another class to the default comparison.
    assert not SizeStats(0) == (0,)
    assert SizeStats(0) != (0,) and SearchStats(0, 0) != (0, 0, [])


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def test_bounds_output_text_is_pinned():
    assert _cli(["bounds", "--x", "3", "--y", "50", "--json"]) == (
        '{"conjecture_bound": 106, "lower_constructive": 106, "n": 53, "regime": "x3", '
        '"upper_final": 106, "upper_general": 150, "upper_unbalanced": 108, "upper_x3": 106, '
        '"x": 3, "y": 50}\n')
    assert _cli(["bounds", "--x", "3", "--y", "50", "--csv"]) == (
        "x,y,n,upper_general,upper_unbalanced,upper_x3,upper_final,lower_constructive,"
        "regime,conjecture_bound\r\n3,50,53,150,108,106,106,106,x3,106\r\n")
    assert _cli(["bounds", "--x", "3", "--y", "50"]) == (
        "x=3\ny=50\nn=53\nupper_general=150\nupper_unbalanced=108\nupper_x3=106\n"
        "upper_final=106\nlower_constructive=106\nregime=x3\nconjecture_bound=106\n")


def test_oracle_json_key_order_is_pinned():
    doc = json.loads(_cli(["oracle", "--complete-bipartite", "3", "4", "--budget", "2",
                           "--json"]))
    assert list(doc) == ["assignments_tested", "crossings", "stats", "verdict"]
    assert list(doc["stats"]) == ["cap", "lower_bound", "sizes"]
    assert doc["stats"]["cap"] == 5
    assert [list(s) for s in doc["stats"]["sizes"]] == [
        ["corner_cuts", "leaves", "nodes", "planarity_s", "rim_cuts", "size", "skipped",
         "witnesses"]] * 3
    assert (doc["verdict"], doc["crossings"], doc["assignments_tested"]) == ("yes", 2, 1)
