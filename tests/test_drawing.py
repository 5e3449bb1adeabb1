import hashlib
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
    crossing_count,
    edge_key,
    recover_graph,
    remove_graph_edge,
    remove_graph_vertex,
    validate,
)
from onecross.plane_map import build_map, euler_check, trace_faces


def four_cycle_drawing():
    """C4 on blacks {0,2}, whites {1,3}, no crossings."""
    g = BipartiteGraph.make([0, 2], [1, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    paths = {(0, 1): (0,), (1, 2): (1,), (2, 3): (2,), (0, 3): (3,)}
    return assemble_drawing(g, [], m, paths, {})


def one_crossing_drawing():
    """Edges 0-1 and 2-3 crossing at false vertex 4 (blacks 0,2; whites 1,3)."""
    g = BipartiteGraph.make([0, 2], [1, 3], [(0, 1), (2, 3)])
    m = build_map(
        {0: [0], 1: [2], 2: [4], 3: [6], 4: [1, 5, 3, 7]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    # rotation at 4 alternates: 0-segment, 2-segment, 1-segment, 3-segment
    paths = {(0, 1): (0, 1), (2, 3): (2, 3)}
    return assemble_drawing(g, [((0, 1), (2, 3))], m, paths, {4: ((0, 1), (2, 3))})


def test_four_cycle_certifies():
    d = four_cycle_drawing()
    rep = validate(d)
    assert rep.passed
    assert (rep.x, rep.y, rep.edges, rep.crossings) == (2, 2, 4, 0)


def test_single_crossing_certifies():
    d = one_crossing_drawing()
    assert validate(d).passed
    assert crossing_count(d) == 1


def test_non_alternating_rotation_rejected():
    g = BipartiteGraph.make([0, 2], [1, 3], [(0, 1), (2, 3)])
    m = build_map(
        {0: [0], 1: [2], 2: [4], 3: [6], 4: [1, 3, 5, 7]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    paths = {(0, 1): (0, 1), (2, 3): (2, 3)}
    with pytest.raises(DrawingError, match="non-alternating|non-planar"):
        assemble_drawing(g, [((0, 1), (2, 3))], m, paths, {4: ((0, 1), (2, 3))})


def test_doubly_crossed_edge_reported():
    d = one_crossing_drawing()
    corrupt = OnePlanarDrawing(
        graph=BipartiteGraph.make([0, 2, 4], [1, 3, 5], [(0, 1), (2, 3), (4, 5)]),
        crossings=frozenset({((0, 1), (2, 3)), ((0, 1), (4, 5))}),
        planified=d.planified,
        edge_paths=d.edge_paths,
        false_vertices=d.false_vertices,
    )
    rep = validate(corrupt)
    assert not rep.passed
    assert any("doubly-crossed edge" in f for f in rep.failures)


def test_adjacent_crossing_pair_reported():
    d = one_crossing_drawing()
    corrupt = OnePlanarDrawing(
        graph=d.graph,
        crossings=frozenset({((0, 1), (0, 3))}),
        planified=d.planified,
        edge_paths=d.edge_paths,
        false_vertices={4: ((0, 1), (0, 3))},
    )
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
    assert crossing_count(d2) == 0
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


def test_recover_graph_round_trip():
    d = four_cycle_drawing()
    assert recover_graph(d) is d.graph


def test_remove_graph_edge_heals_partner():
    d = one_crossing_drawing()
    d2 = remove_graph_edge(d, 0, 1)
    assert validate(d2).passed
    assert d2.edge_count == 1
    assert crossing_count(d2) == 0
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
        "34ca914a29fa31351e3b1e558b18617d9ddcab59c121052f0237b294f437256a"


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
        assert len(d.planified.edge_darts) == d.edge_count + 2 * crossing_count(d)


def _field_mutations():
    """Corruptions of small drawings, each with the failures ``validate`` reports."""
    from dataclasses import replace

    from onecross.plane_map import MapEditor, _make

    d = one_crossing_drawing()
    g = d.graph
    cases = {}

    cases["crossing dropped while the false vertex stays"] = (
        replace(d, crossings=frozenset()),
        ("path/edge mismatch: false vertices do not enumerate crossings",))

    rot = dict(d.planified.rotations)
    rot[4] = (rot[4][1], rot[4][0], rot[4][2], rot[4][3])
    cases["non-alternating rotation at the false vertex"] = (
        replace(d, planified=_make(rot, d.planified.opposite, d.planified.dart_edge)),
        ("non-alternating rotation at false vertex 4",))

    paths = dict(d.edge_paths)
    del paths[(0, 1)]
    cases["edge path removed"] = (
        replace(d, edge_paths=paths),
        ("path/edge mismatch: edge_paths keys differ from graph edges",
         "path/edge mismatch: planified map has unused edges",
         "non-alternating rotation at false vertex 4"))

    paths = dict(d.edge_paths)
    paths[(0, 1)] = (paths[(2, 3)][0], paths[(0, 1)][1])
    cases["path pointing at the wrong map edge"] = (
        replace(d, edge_paths=paths),
        ("path/edge mismatch: segments of (0, 1) do not chain",
         "path/edge mismatch: map edge 2 reused",
         "path/edge mismatch: planified map has unused edges",
         "non-alternating rotation at false vertex 4"))

    cases["graph edge missing entirely"] = (
        replace(d, graph=BipartiteGraph(g.black, g.white, g.edges - {(0, 1)})),
        ("path/edge mismatch: crossing names unknown edge (0, 1)",
         "path/edge mismatch: edge_paths keys differ from graph edges"))

    ed = MapEditor(d.planified)
    for v, dart in zip((0, 2), ed.new_edge()):
        ed.insert_darts(v, len(ed.rotations[v]), [dart])
    cases["stray planified edge nothing refers to"] = (
        replace(d, planified=ed.finish()),
        ("path/edge mismatch: planified map has unused edges",))

    # Edges 0-1 and 0-3 cross at false vertex 4, whose two segments to 0
    # bound a face of two darts.
    digon = build_map({0: [0, 4], 1: [2], 3: [6], 4: [1, 5, 3, 7]},
                      {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6})
    cases["digon at a false vertex"] = (
        OnePlanarDrawing(BipartiteGraph.make([0], [1, 3], [(0, 1), (0, 3)]),
                         frozenset({((0, 1), (0, 3))}), digon,
                         {(0, 1): (0, 1), (0, 3): (2, 3)}, {4: ((0, 1), (0, 3))}),
        ("adjacent crossing pair: (0, 1) x (0, 3)",
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
        OnePlanarDrawing(BipartiteGraph.make(black, white, edges),
                         frozenset({((0, 1), (2, 3)), ((4, 5), (6, 7))}), adjacent,
                         {e: (2 * i, 2 * i + 1) for i, e in enumerate(edges)},
                         {8: ((0, 1), (2, 3)), 9: ((4, 5), (6, 7))}),
        ("path/edge mismatch: segments of (2, 3) do not chain",
         "path/edge mismatch: segments of (6, 7) do not chain",
         "non-alternating rotation at false vertex 9",
         "consecutive false vertices 8,9 on a face"))

    c4 = four_cycle_drawing()
    ed = MapEditor(c4.planified)
    for v, pos, dart in zip((0, 1), (1, 0), ed.new_edge()):
        ed.insert_darts(v, pos, [dart])  # beside the path edge 0-1, bounding a digon
    cases["unused map edge parallel to a path"] = (
        replace(c4, planified=ed.finish()),
        ("path/edge mismatch: planified map has unused edges",))
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
    rep = validate(OnePlanarDrawing(graph, frozenset(), m, {(0, 1, 2): (0,)}, {}))
    assert not rep.passed
    assert rep.failures[0] == message
    with pytest.raises(DrawingError, match=re.escape(message)):
        if isinstance(graph, BipartiteGraph):
            BipartiteGraph.make(graph.black, graph.white, graph.edges)
        else:
            Graph.make(graph.vertices, graph.edges)
