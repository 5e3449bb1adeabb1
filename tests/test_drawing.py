import hashlib
import itertools
import re

import pytest

import onecross.drawing
from onecross.drawing import (
    BipartiteGraph,
    DrawingError,
    Graph,
    OnePlanarDrawing,
    assemble_drawing,
    augment_degree2,
    black_extension,
    edge_key,
    remove_graph_edge,
    remove_graph_vertex,
    validate,
)
from onecross.constructions import best_known
from onecross.oracle import is_one_planar
from onecross.plane_map import MapEditor, PlaneMap, build_map, euler_check, trace_faces


def four_cycle_drawing():
    """C4 on blacks {0,2}, whites {1,3}, no crossings."""
    g = BipartiteGraph.make([0, 2], [1, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    return assemble_drawing(g, m, {})


def one_crossing_drawing():
    """Edges 0-1 and 2-3 crossing at false vertex 4 (blacks 0,2; whites 1,3)."""
    g = BipartiteGraph.make([0, 2], [1, 3], [(0, 1), (2, 3)])
    m = build_map(
        {0: [0], 1: [2], 2: [4], 3: [6], 4: [1, 5, 3, 7]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    # rotation at 4 alternates: 0-segment, 2-segment, 1-segment, 3-segment
    return assemble_drawing(g, m, {4: ((0, 1), (2, 3))})


def test_four_cycle_certifies():
    d = four_cycle_drawing()
    rep = validate(d)
    assert rep.passed
    assert (rep.x, rep.y, rep.edges, rep.crossings) == (2, 2, 4, 0)


def test_single_crossing_certifies():
    d = one_crossing_drawing()
    assert validate(d).passed
    assert len(d.crossings) == 1


def test_non_alternating_rotation_rejected():
    g = BipartiteGraph.make([0, 2], [1, 3], [(0, 1), (2, 3)])
    m = build_map(
        {0: [0], 1: [2], 2: [4], 3: [6], 4: [1, 3, 5, 7]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    with pytest.raises(DrawingError, match="non-alternating|non-planar"):
        assemble_drawing(g, m, {4: ((0, 1), (2, 3))})


def test_doubly_crossed_edge_reported():
    d = one_crossing_drawing()
    corrupt = OnePlanarDrawing(
        graph=BipartiteGraph.make([0, 2, 4], [1, 3, 5], [(0, 1), (2, 3), (4, 5)]),
        planified=d.planified,
        false_vertices={4: ((0, 1), (2, 3)), 6: ((0, 1), (4, 5))},
    )
    rep = validate(corrupt)
    assert not rep.passed
    assert "doubly-crossed edge: (0, 1)" in rep.failures


def test_pair_named_by_two_false_vertices_is_a_doubly_crossed_edge():
    # With the crossings read from the false vertices, a pair recorded at two
    # of them counts each of its edges twice.
    d = one_crossing_drawing()
    corrupt = d._replace(false_vertices={4: ((0, 1), (2, 3)), 5: ((0, 1), (2, 3))})
    rep = validate(corrupt)
    assert not rep.passed
    assert [f for f in rep.failures if f.startswith("doubly-crossed edge")] == \
        ["doubly-crossed edge: (0, 1)", "doubly-crossed edge: (2, 3)"]


def test_assemble_drawing_stores_pairs_in_crossing_key_order():
    d = one_crossing_drawing()
    flipped = assemble_drawing(d.graph, d.planified, {4: ((2, 3), (0, 1))})
    assert flipped.false_vertices == {4: ((0, 1), (2, 3))}
    assert flipped.crossings == frozenset({((0, 1), (2, 3))}) == d.crossings


def test_adjacent_crossing_pair_reported():
    d = one_crossing_drawing()
    corrupt = d._replace(false_vertices={4: ((0, 1), (0, 3))})
    rep = validate(corrupt)
    assert not rep.passed
    assert any("adjacent crossing pair" in f for f in rep.failures)


def test_validate_reports_ceiling_advisory_only():
    d = one_crossing_drawing()
    rep = validate(d)
    # x = 2 so the minimal-drawing ceiling is 0; exceeding it is advisory.
    assert rep.crossing_ceiling == 0
    assert rep.exceeds_minimal_bound is True
    assert rep.passed


def test_black_extension_identity_without_crossings():
    d = four_cycle_drawing()
    assert black_extension(d) == d.planified


def test_black_extension_single_crossing():
    d = one_crossing_drawing()
    m = black_extension(d)
    assert len(m.edge_darts) == len(d.planified.edge_darts) + 1
    new_edge = max(m.edge_darts)
    assert set(m.edge_endpoints(new_edge)) == {0, 2}
    assert euler_check(m).planar


def test_augment_zero_is_identity():
    d = four_cycle_drawing()
    assert augment_degree2(d, 0) is d


def test_augment_adds_degree2_vertices():
    d = four_cycle_drawing()
    d2 = augment_degree2(d, 2)
    assert validate(d2).passed
    assert d2.vertex_count == 6
    assert d2.edge_count == 8
    assert len(d2.crossings) == 0
    g = d2.graph
    assert len(g.black) == 2 and len(g.white) == 4


def test_augment_composition_matches_batch():
    import networkx as nx

    d = four_cycle_drawing()
    batch = augment_degree2(d, 3)
    steps = d
    for _ in range(3):
        steps = augment_degree2(steps, 1)

    def to_nx(dr):
        G = nx.Graph()
        G.add_nodes_from(dr.graph.vertices)
        G.add_edges_from(dr.graph.edges)
        return G

    assert nx.is_isomorphic(to_nx(batch), to_nx(steps))


def test_remove_graph_edge_heals_partner():
    d = one_crossing_drawing()
    d2 = remove_graph_edge(d, 0, 1)
    assert validate(d2).passed
    assert d2.edge_count == 1
    assert len(d2.crossings) == 0
    assert len(d2.edge_paths[(2, 3)]) == 1


def test_remove_graph_vertex():
    d = one_crossing_drawing()
    d2 = remove_graph_vertex(d, 1)
    assert validate(d2).passed
    assert d2.vertex_count == 3
    assert d2.edge_count == 1


SURGERY_SIZES = [(3, 4), (3, 6), (4, 7), (5, 5), (6, 6), (4, 12)]


def test_surgery_documents_are_unchanged():
    """Every single-vertex and single-edge removal from six best drawings,
    written as documents, hashes to the digest recorded for them."""
    from onecross.constructions import best_known
    from onecross.formats import drawing_to_document, dumps_document

    digest, count = hashlib.sha256(), 0
    for x, y in SURGERY_SIZES:
        d = best_known(x, y).drawing
        results = [remove_graph_vertex(d, v) for v in sorted(d.graph.vertices)]
        results += [remove_graph_edge(d, *e) for e in sorted(d.graph.edges)]
        for r in results:
            digest.update(dumps_document(drawing_to_document(r)).encode())
        count += len(results)
    assert count == 203
    assert digest.hexdigest() == \
        "205aad3057826a61f09cde9cefdde3f0f5a43b84d7c7553801afde0e9e110067"


def test_surgery_certifies_once(monkeypatch):
    from onecross.constructions import best_known

    d = best_known(4, 12).drawing
    hub = next(v for v in sorted(d.graph.vertices)
               if sum(v in e for e in d.graph.edges) == 9)
    crossed = min(e for pair in d.crossings for e in pair)
    calls = []
    check = onecross.drawing.validate
    monkeypatch.setattr(onecross.drawing, "validate", lambda x: calls.append(1) or check(x))
    remove_graph_vertex(d, hub)
    assert len(calls) == 1
    remove_graph_edge(d, *crossed)
    assert len(calls) == 2


def test_map_edge_budget_invariant():
    for d in (four_cycle_drawing(), one_crossing_drawing()):
        assert len(d.planified.edge_darts) == d.edge_count + 2 * len(d.crossings)


def _field_mutations():
    """Corruptions of small drawings, each with the failures ``validate`` reports."""
    from onecross.plane_map import MapEditor, PlaneMap

    d = one_crossing_drawing()
    g = d.graph
    cases = {}

    rot = dict(d.planified.rotations)
    rot[4] = (rot[4][1], rot[4][0], rot[4][2], rot[4][3])
    cases["non-alternating rotation at the false vertex"] = (
        d._replace(planified=PlaneMap(rot, d.planified.opposite, d.planified.dart_edge)),
        ("non-alternating rotation at false vertex 4",))

    cases["graph edge missing entirely"] = (
        d._replace(graph=BipartiteGraph(g.black, g.white, g.edges - {(0, 1)})),
        ("path/edge mismatch: crossing names unknown edge (0, 1)",))

    # False vertex 4 keeps only its segments to 0 and 2.
    ed = MapEditor(d.planified)
    for dart in (3, 7):
        ed.delete_edge(d.planified.dart_edge[dart])
    cases["false vertex of degree 2"] = (
        d._replace(planified=ed.finish()),
        ("path/edge mismatch: edge (0, 1) has no half from 4 to 1",
         "path/edge mismatch: edge (2, 3) has no half from 4 to 3",
         "false vertex degree != 4: vertex 4"))

    # A second segment beside each of 4-1 and 4-3, each bounding a digon.
    ed = MapEditor(d.planified)
    for spoke, v in ((3, 1), (7, 3)):
        a, b = ed.new_edge()
        ed.insert_darts(4, ed.rotations[4].index(spoke) + 1, [a])
        ed.insert_darts(v, 0, [b])
    cases["false vertex of degree 6"] = (
        d._replace(planified=ed.finish()),
        ("path/edge mismatch: map edge 4 is no undrawn spoke of 4",
         "path/edge mismatch: map edge 5 is no undrawn spoke of 4",
         "false vertex degree != 4: vertex 4",
         "face of size < 3 at a false vertex"))

    ed = MapEditor(d.planified)
    for v, dart in zip((0, 2), ed.new_edge()):
        ed.insert_darts(v, len(ed.rotations[v]), [dart])
    cases["stray planified edge nothing refers to"] = (
        d._replace(planified=ed.finish()),
        ("path/edge mismatch: map edge 4 is no undrawn uncrossed edge",))

    # Edges 0-1 and 0-3 cross at false vertex 4, whose two segments to 0
    # bound a face of two darts.
    digon = build_map({0: [0, 4], 1: [2], 3: [6], 4: [1, 5, 3, 7]},
                      {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6})
    cases["digon at a false vertex"] = (
        OnePlanarDrawing(BipartiteGraph.make([0], [1, 3], [(0, 1), (0, 3)]), digon,
                         {4: ((0, 1), (0, 3))}),
        ("adjacent crossing pair: (0, 1) x (0, 3)",
         "path/edge mismatch: map edge 2 is no undrawn spoke of 4",
         "non-alternating rotation at false vertex 4",
         "face of size < 3 at a false vertex"))

    # Crossings 0-1 x 2-3 at 8 and 4-5 x 6-7 at 9, with the segments 8-3 and
    # 6-9 rewired to 8-9 and 6-3: the two false vertices become adjacent.
    black, white = [0, 2, 4, 6], [1, 3, 5, 7]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7)]
    ends = [(0, 8), (8, 1), (2, 8), (8, 9), (4, 9), (9, 5), (6, 3), (9, 7)]
    rotations = {v: [] for v in range(10)}
    for me, (a, b) in enumerate(ends):
        rotations[a].append(2 * me)
        rotations[b].append(2 * me + 1)
    rotations[8] = [1, 5, 2, 6]
    rotations[9] = [9, 7, 10, 14]
    adjacent = build_map(rotations, {d: d ^ 1 for d in range(16)})
    cases["two adjacent false vertices"] = (
        OnePlanarDrawing(BipartiteGraph.make(black, white, edges), adjacent,
                         {8: ((0, 1), (2, 3)), 9: ((4, 5), (6, 7))}),
        ("path/edge mismatch: map edge 3 is no undrawn spoke of 8",
         "path/edge mismatch: map edge 6 is no undrawn uncrossed edge",
         "path/edge mismatch: edge (2, 3) has no half from 8 to 3",
         "path/edge mismatch: edge (6, 7) has no half from 9 to 6",
         "non-alternating rotation at false vertex 8",
         "non-alternating rotation at false vertex 9",
         "consecutive false vertices 8,9 on a face"))

    c4 = four_cycle_drawing()
    ed = MapEditor(c4.planified)
    for v, pos, dart in zip((0, 1), (1, 0), ed.new_edge()):
        ed.insert_darts(v, pos, [dart])  # beside the map edge of 0-1, bounding a digon
    cases["unused map edge parallel to an uncrossed edge"] = (
        c4._replace(planified=ed.finish()),
        ("path/edge mismatch: map edge 4 is no undrawn uncrossed edge",))
    return cases


def test_validator_catches_field_mutations():
    for name, (drawing, failures) in _field_mutations().items():
        rep = validate(drawing)
        assert (rep.passed, rep.failures) == (False, failures), name


@pytest.mark.parametrize("graph", [
    Graph(frozenset({0, 1, 2}), frozenset({(0, 1, 2)})),
    BipartiteGraph(frozenset({0}), frozenset({1, 2}), frozenset({(0, 1, 2)})),
], ids=["plain", "bipartite"])
def test_edge_that_is_not_a_vertex_pair_is_reported(graph):
    message = "non-bipartite or non-simple graph: edge (0, 1, 2) is not a vertex pair"
    m = build_map({0: [0], 1: [1], 2: []}, {0: 1, 1: 0})
    rep = validate(OnePlanarDrawing(graph, m, {}))
    assert not rep.passed
    assert rep.failures[0] == message
    with pytest.raises(DrawingError, match=re.escape(message)):
        if isinstance(graph, BipartiteGraph):
            BipartiteGraph.make(graph.black, graph.white, graph.edges)
        else:
            Graph.make(graph.vertices, graph.edges)


def _k5_witness():
    """The oracle's one-crossing drawing of K5, a drawing of a plain graph."""
    return is_one_planar(Graph.make(range(5), itertools.combinations(range(5), 2)), 1).drawing


def _without_map_edge(d, edge):
    """``d`` with map edge ``edge`` deleted from its map."""
    ed = MapEditor(d.planified)
    ed.delete_edge(edge)
    return d._replace(planified=ed.finish())


def _with_rotation(d, v, rot):
    """``d`` with vertex ``v``'s rotation replaced by ``rot``."""
    m = d.planified
    return d._replace(planified=PlaneMap(m.rotations | {v: rot}, m.opposite, m.dart_edge))


def _swap_first_two(d, v):
    """``d`` with the first two darts of vertex ``v``'s rotation swapped."""
    rot = d.planified.rotations[v]
    return _with_rotation(d, v, (rot[1], rot[0], *rot[2:]))


@pytest.mark.parametrize("call, message", [
    (lambda: Graph.make([0, 1], [(0, 1), (1, 1)]),
     "non-bipartite or non-simple graph: self-edge at 1"),
    (lambda: Graph.make([0, 1], [(0, 2)]), "edge (0,2) leaves the vertex set"),
    (lambda: BipartiteGraph.make([0, 1], [1, 2], [(0, 2)]),
     "non-bipartite or non-simple graph: classes overlap"),
    (lambda: augment_degree2(four_cycle_drawing(), -1), "negative augmentation count"),
    (lambda: augment_degree2(
        one_crossing_drawing()._replace(graph=Graph.make(range(4), [(0, 1), (2, 3)])), 1),
     "degree-2 augmentation needs a bipartite drawing"),
    (lambda: black_extension(_k5_witness()), "black extension needs a bipartite drawing"),
    (lambda: black_extension(_without_map_edge(one_crossing_drawing(), 0)),
     "false vertex 4 lacks two black spokes"),
    (lambda: black_extension(_with_rotation(one_crossing_drawing(), 4, (1, 3, 5, 7))),
     "black spokes not adjacent at false vertex 4"),
    (lambda: black_extension(_swap_first_two(best_known(3, 6).drawing, 0)),
     "black extension broke planarity"),
    (lambda: augment_degree2(best_known(1, 3).drawing, 1),
     "no eligible face for degree-2 augmentation"),
], ids=["self-edge", "edge-leaves-vertex-set", "classes-overlap", "negative-count",
        "augment-plain-graph", "extend-plain-graph", "extend-one-black-spoke",
        "extend-apart-black-spokes", "extend-nonplanar", "augment-one-black"])
def test_graph_and_augmentation_input_errors(call, message):
    with pytest.raises(DrawingError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: remove_graph_edge(one_crossing_drawing(), 0, 3), "missing element: edge (0, 3)"),
    (lambda: remove_graph_vertex(one_crossing_drawing(), 9), "missing element: vertex 9"),
], ids=["edge", "vertex"])
def test_surgery_rejects_a_missing_element(call, message):
    with pytest.raises(DrawingError, match=re.escape(message)):
        call()


def test_surgery_on_a_plain_graph_drawing():
    # The K5 witness's crossed edge (0, 1) goes, and its crossing is smoothed.
    d = _k5_witness()
    assert isinstance(d.graph, Graph) and any((0, 1) in c for c in d.crossings)
    out = remove_graph_edge(d, 0, 1)
    assert validate(out).passed
    assert isinstance(out.graph, Graph) and out.graph.edges == d.graph.edges - {(0, 1)}
    assert not out.false_vertices


_NOT_PAIRS = {
    "one-edge-pair": ("false_vertices", {4: ((0, 1),)},
                      "false vertex 4 does not name a pair of edges: ((0, 1),)"),
    "three-edge-pair": ("false_vertices", {4: ((0, 1), (2, 3), (4, 5))},
                        "false vertex 4 does not name a pair of edges: ((0, 1), (2, 3), (4, 5))"),
    "integer-pair": ("false_vertices", {4: 5}, "false vertex 4 does not name a pair of edges: 5"),
    "integer-edge": ("graph", Graph(frozenset({0, 1, 2, 3}), frozenset({(1, 2), 5})),
                     "non-bipartite or non-simple graph: edge 5 is not a vertex pair"),
    "unorderable-edge": ("graph", Graph(frozenset({0, 1}), frozenset({(0, 1), (0, "a")})),
                         "non-bipartite or non-simple graph: edge (0, 'a') is not a vertex pair"),
}


@pytest.mark.parametrize("field,value,message", _NOT_PAIRS.values(), ids=_NOT_PAIRS.keys())
def test_a_part_that_is_not_a_pair_is_reported(field, value, message):
    # validate reads each false vertex's entry as two edges and each graph
    # edge as two ends it can order; when one is not, that is a failure.
    d = one_crossing_drawing()._replace(**{field: value})
    rep = validate(d)
    assert (rep.passed, rep.failures[0]) == (False, message)
    with pytest.raises(DrawingError, match=re.escape(message)):
        assemble_drawing(*d)


@pytest.mark.parametrize("entry", [[(0, 1), (2, 3)], ((0, 1), [2, 3])], ids=["list-pair", "list-edge"])
def test_an_unhashable_false_vertex_entry_is_reported(entry):
    # A list cannot be a crossing: it is reported as a failure and left out
    # of the report's crossing count, never raised as a bare TypeError.
    message = f"false vertex 4 does not name a pair of edges: {entry}"
    d = one_crossing_drawing()._replace(false_vertices={4: entry})
    rep = validate(d)
    assert (rep.passed, rep.failures[0], rep.crossings) == (False, message, 0)
    with pytest.raises(DrawingError, match=re.escape(message)):
        assemble_drawing(*d)
