import hashlib
import itertools
import json
import random
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from onecross.constructions import balanced, best_known
from onecross.drawing import (
    BipartiteGraph,
    Graph,
    crossing_key,
    edge_key,
    validate,
)
from onecross.formats import drawing_to_document, dumps_document
from onecross.oracle import (
    OracleError,
    PlanarityResult,
    _over_edge_bound,
    _gadget,
    _Search,
    _short_of_triangles,
    _two_color,
    _witness,
    gadget_planarize,
    is_one_planar,
    min_crossings,
    planarity_test,
)
import onecross.oracle
import onecross.plane_map
from onecross.planarity import lr_embedding, lr_planar
from onecross.plane_map import euler_check


def complete(n):
    return Graph.make(range(n), itertools.combinations(range(n), 2))


def complete_bipartite(a, b):
    blacks = list(range(a))
    whites = list(range(a, a + b))
    return BipartiteGraph.make(blacks, whites, [(i, j) for i in blacks for j in whites])


def cycle(n):
    return Graph.make(range(n), [(i, (i + 1) % n) for i in range(n)])


def relabel(graph, seed):
    """``graph`` with its vertex ids permuted by a seeded shuffle."""
    vertices = sorted(graph.vertices)
    to = dict(zip(vertices, random.Random(seed).sample(vertices, len(vertices))))
    edges = [(to[u], to[v]) for u, v in graph.edges]
    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph.make({to[v] for v in graph.black}, {to[v] for v in graph.white},
                                   edges)
    return Graph.make(to.values(), edges)


def slow_instance():
    """A search far longer than any time limit below: best_known(4, 8), 24
    edges, at budget SLOW_BUDGET answers "yes, 7" only after about 8 s and
    933,964 nodes on a 2-CPU Xeon host, about 16 times the longest limit
    (0.5 s); 16 s and 1,502,975 nodes before the face bound."""
    return best_known(4, 8).drawing.graph


SLOW_BUDGET = 7


# -- planarity test ----------------------------------------------------------


def test_planarity_k4_planar_with_witness():
    res = planarity_test(list(complete(4).edges))
    assert res.planar
    assert euler_check(res.witness).planar


def test_planarity_k5_k33_nonplanar():
    assert not planarity_test(list(complete(5).edges)).planar
    assert not planarity_test(list(complete_bipartite(3, 3).edges)).planar


def test_planarity_handles_parallel_edges():
    # The left-right test embeds simple graphs only: a parallel copy, in
    # either direction, is refused as a loop is, before the edge bound.
    for edges in ([(0, 1), (0, 1), (1, 2)], [(0, 1), (1, 2), (1, 0)],
                  list(complete(5).edges) * 2):
        with pytest.raises(OracleError, match="parallel edges"):
            planarity_test(edges)
    with pytest.raises(OracleError, match="loops"):
        planarity_test([(0, 1), (1, 1)])


def first_copies(edges):
    """``edges`` with only the first copy of each edge, in either direction."""
    first = {}
    for u, v in edges:
        first.setdefault(edge_key(u, v), (u, v))
    return list(first.values())


def forbid_nx_planarity(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("nx.check_planarity called")

    monkeypatch.setattr(onecross.oracle.nx, "check_planarity", forbidden)


def test_edge_bound_rejects_k5_without_networkx(monkeypatch):
    forbid_nx_planarity(monkeypatch)
    res = planarity_test(list(complete(5).edges))  # 10 > 3 * 5 - 6
    assert (res.planar, res.edge_bound) == (False, True)


def test_edge_bound_does_not_count_isolated_vertices():
    assert planarity_test(list(complete(4).edges), range(9)).planar
    k33 = planarity_test(list(complete_bipartite(3, 3).edges), range(9))
    assert not k33.planar and not k33.edge_bound  # 9 <= 3 * 6 - 6: the left-right test decides


def test_an_embedding_failing_the_euler_audit_raises(monkeypatch):
    embed = onecross.oracle.lr_embedding

    def swapped(n, edges):
        order = embed(n, edges)
        order[0][:2] = order[0][1::-1]  # two neighbours of one vertex swapped
        return order

    edges = list(complete(4).edges)
    assert planarity_test(edges).planar
    monkeypatch.setattr(onecross.oracle, "lr_embedding", swapped)
    with pytest.raises(OracleError, match="Euler audit"):
        planarity_test(edges)


def short_of_triangles(n, simple):
    """``_short_of_triangles`` on a simple graph within the 3N - 6 edge
    bound, with its non-isolated vertices counted from the edges."""
    return _short_of_triangles(n, simple, len({v for e in simple for v in e}))


def test_left_right_test_agrees_with_networkx_on_search_graphs(monkeypatch):
    # The gadget graph of every leaf of three searches, run to the end: no
    # leaf is accepted, and the rim and face bounds are switched off, so
    # the leaves above the 3N - 6 edge bound are built too.  The search
    # sends the kernel only those within the bound; the floors count them.
    # The triangle count, which the search applies first, rejects only
    # non-planar leaves, and some of them.
    monkeypatch.setattr(_Search, "viable",
                        lambda self, chosen, allowed, labels, j, clash, left, rims, corners:
                        candidates(allowed, labels, j, clash))
    graphs = []
    monkeypatch.setattr(_Search, "leaf", lambda self, chosen: graphs.append(
        (self.n + len(chosen), self.gadget(chosen))))
    for graph, budget in ((random_graph(7), 2), (random_graph(19), 2),
                          (complete_bipartite(3, 4), 3)):
        assert is_one_planar(graph, budget).verdict == "no"
    verdicts = Counter()
    short = 0
    for n, edges in graphs:
        g = nx.Graph(list(edges))
        g.add_nodes_from(range(n))
        want = nx.check_planarity(g)[0]
        assert lr_planar(n, edges) == want, edges
        verdicts[want, _over_edge_bound(edges)] += 1
        if not _over_edge_bound(edges) and short_of_triangles(n, edges):
            assert not want, edges
            short += 1
    assert verdicts[True, False] >= 100 and verdicts[False, False] >= 500
    assert verdicts[False, True] and not verdicts[True, True]
    assert short >= 500


K5_EDGES = list(itertools.combinations(range(5), 2))
K33_EDGES = [(b, w) for b in range(3) for w in range(3, 6)]


@st.composite
def multigraphs(draw):
    """(vertices, edges) of a small multigraph whose parts are random
    graphs, triangulations with a few edges moved, or subdivisions of K5
    or K3,3 (less one edge, sometimes); with parallel copies, isolated
    vertices and shuffled labels."""
    edges = []
    n = 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["random", "dense", "kuratowski"]))
        if kind == "random":
            k = draw(st.integers(2, 9))
            part = draw(st.lists(st.sampled_from(list(itertools.combinations(range(k), 2))),
                                 max_size=3 * k))
        elif kind == "dense":
            # A stacked triangulation has 3k - 6 edges: drop and add up to two.
            k = draw(st.integers(3, 12))
            faces, part = [(0, 1, 2), (0, 2, 1)], [(0, 1), (1, 2), (0, 2)]
            for v in range(3, k):
                a, b, c = faces.pop(draw(st.integers(0, len(faces) - 1)))
                faces += [(a, b, v), (b, c, v), (c, a, v)]
                part += [(a, v), (b, v), (c, v)]
            for _ in range(draw(st.integers(0, 2))):
                part.pop(draw(st.integers(0, len(part) - 1)))
            part += draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1))
                                  .filter(lambda e: e[0] != e[1]), max_size=2))
        else:
            base = draw(st.sampled_from([K5_EDGES, K33_EDGES]))
            k = 6
            part = []
            for u, v in base:
                path = [u, *range(k, k + draw(st.integers(0, 2))), v]
                k += len(path) - 2
                part += zip(path, path[1:])
            if draw(st.booleans()):
                part.pop(draw(st.integers(0, len(part) - 1)))
        edges += [(u + n, v + n) for u, v in part]
        n += k
    n += draw(st.integers(0, 2))  # isolated vertices
    if edges:
        for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=4)):
            edges.append(edges[i][::-1])  # a parallel copy
    to = draw(st.permutations(range(n)))
    return list(range(n)), [(to[u], to[v]) for u, v in edges]


def test_left_right_test_agrees_with_networkx_on_random_graphs():
    # The kernel is also asked about graphs above the 3N - 6 edge bound,
    # which its callers reject before calling it: K5 and K6, and whatever
    # the strategy draws (one of the 150 examples).  The triangle count is
    # asked about those within the bound: it rejects only non-planar
    # graphs, and some of them.
    above = []
    short = []

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(graph=multigraphs())
    @example(graph=(list(range(5)), K5_EDGES))
    @example(graph=(list(range(6)), list(itertools.combinations(range(6), 2))))
    def agree(graph):
        vertices, edges = graph
        g = nx.Graph(edges)
        g.add_nodes_from(vertices)
        want = nx.check_planarity(g)[0]
        simple = {edge_key(u, v) for u, v in edges}
        above.append(_over_edge_bound(simple))
        assert lr_planar(len(vertices), simple) == want
        assert planarity_test(first_copies(edges), vertices).planar == want
        if not above[-1] and short_of_triangles(len(vertices), simple):
            assert not want
            short.append(simple)

    agree()
    assert any(above)
    assert short


def assert_embeds_as_networkx(nodes, edges, monkeypatch):
    """Whether the multigraph is planar, after checking that ``planarity_test``,
    given the first copy of each edge, hands ``lr_embedding`` the graph as
    networkx's ``check_planarity`` copies it, and that ``lr_embedding``
    returns networkx's rotations there: each vertex's neighbours, in order,
    from the same first one."""
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edge_key(u, v) for u, v in edges)
    label = list(g)
    index = {v: i for i, v in enumerate(label)}
    simple = [(index[u], index[v]) for u, v in g.edges]
    ok, embedding = nx.check_planarity(g)
    got = lr_embedding(len(label), simple)
    assert (got is not None) == ok == lr_planar(len(label), simple)
    if ok:
        assert [(label[a], [label[b] for b in nbrs]) for a, nbrs in enumerate(got)] == \
            list(embedding.get_data().items())
    calls = []
    with monkeypatch.context() as m:
        m.setattr(onecross.oracle, "lr_embedding", lambda *a: calls.append(a) or lr_embedding(*a))
        res = planarity_test(first_copies(edges), nodes)
    assert res.planar == ok
    assert calls == ([] if res.edge_bound else [(len(label), simple)])
    return ok


def test_embedding_equals_networkx(monkeypatch):
    verdicts = Counter()
    graphs = [(g.vertices, list(g.edges)) for _, g, _ in DIFFERENTIAL]
    graphs += [(g.vertices, list(g.edges)) for g in (complete(4), complete(5),
                                                    complete_bipartite(3, 3))]
    accepted = []  # the gadget graphs of the leaves the outputs corpus accepts
    with monkeypatch.context() as m:
        m.setattr(onecross.oracle, "planarity_test", lambda edges, nodes:
                  accepted.append((nodes, edges)) or planarity_test(edges, nodes))
        for graph, budget in OUTPUTS_CORPUS.values():
            is_one_planar(graph, budget)
    assert len(accepted) == 3
    graphs += accepted
    for nodes, edges in graphs:
        verdicts[assert_embeds_as_networkx(nodes, edges, monkeypatch)] += 1
    assert verdicts[True] >= 25 and verdicts[False] >= 30

    # Labels, node order and edge order all shuffled; isolated vertices and
    # several components.
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(graph=multigraphs(), seed=st.integers(0, 2**16))
    def agree(graph, seed):
        rng = random.Random(seed)
        vertices, edges = graph
        verdicts[assert_embeds_as_networkx(rng.sample(vertices, len(vertices)),
                                           rng.sample(edges, len(edges)), monkeypatch)] += 1

    agree()
    assert verdicts[True] >= 100 and verdicts[False] >= 80


# -- gadget ------------------------------------------------------------------


def test_gadget_empty_assignment_is_identity():
    g = complete(4)
    gg = gadget_planarize(g, [])
    assert sorted(gg.edges) == sorted(g.edges)


@pytest.mark.parametrize("graph,pairs,message", [
    (cycle(4), [((0, 1), (1, 2))], "adjacent edges may not cross"),
    (complete(5), [((0, 1), (2, 3)), ((3, 4), (0, 1))], "not disjoint"),
    (cycle(4), [((0, 2), (1, 3))], "outside the graph"),
], ids=["adjacent", "not-disjoint", "outside-graph"])
def test_gadget_rejects_invalid_pairs(graph, pairs, message):
    with pytest.raises(OracleError, match=message):
        gadget_planarize(graph, pairs)


def test_gadget_keeps_each_repeated_rim_once_at_its_first_place():
    # The rim 0-2 repeats the kept edge and comes again in the second pair.
    assert list(_gadget(6, [(0, 2)], [(0, 1, 2, 3), (0, 4, 2, 5)])) == [
        (0, 2),
        (0, 6), (1, 6), (2, 6), (3, 6), (1, 2), (1, 3), (0, 3),
        (0, 7), (4, 7), (2, 7), (5, 7), (2, 4), (4, 5), (0, 5)]


def test_gadget_k5_single_pair_planar():
    g = complete(5)
    gg = gadget_planarize(g, [((0, 1), (2, 3))])
    res = planarity_test(gg.edges)
    assert res.planar


def _rotation_enumeration_accepts(graph: Graph, pair) -> bool:
    """Independent oracle: enumerate rotation systems of the planified graph
    with the crossing vertex's alternation pinned, and Euler-check each."""
    e, f = pair
    w = max(graph.vertices) + 1
    edges = [g for g in sorted(graph.edges) if g not in (e, f)]
    spokes = [(e[0], w), (e[1], w), (f[0], w), (f[1], w)]
    all_edges = edges + spokes
    incident = {v: [] for v in list(graph.vertices) + [w]}
    for i, (a, b) in enumerate(all_edges):
        incident[a].append(i)
        incident[b].append(i)

    spoke_idx = {v: len(edges) + k for k, (v, _) in enumerate(spokes)}
    a1, b1 = e
    a2, b2 = f
    alternations = [
        (spoke_idx[a1], spoke_idx[a2], spoke_idx[b1], spoke_idx[b2]),
        (spoke_idx[a1], spoke_idx[b2], spoke_idx[b1], spoke_idx[a2]),
    ]
    others = sorted(v for v in graph.vertices)
    pools = []
    for v in others:
        inc = incident[v]
        if len(inc) <= 2:
            pools.append([tuple(inc)])
        else:
            head, rest = inc[0], inc[1:]
            pools.append([(head, *p) for p in itertools.permutations(rest)])
    for warot in alternations:
        for combo in itertools.product(*pools):
            orders = {w: list(warot)}
            for v, rot in zip(others, combo):
                orders[v] = list(rot)
            rot_lists = {v: [sum(all_edges[i]) - v for i in orders[v]] for v in orders}
            from onecross.plane_map import map_from_rotation_lists

            m = map_from_rotation_lists(rot_lists)
            if euler_check(m).planar:
                return True
    return False


def test_gadget_agrees_with_rotation_enumeration_on_singles():
    path4 = Graph.make(range(4), [(0, 1), (1, 2), (2, 3)])
    k4_minus = Graph.make(range(4), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    c6 = cycle(6)
    theta = Graph.make(range(5), [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    k33_plus_far_edge = Graph.make(
        range(8),
        list(complete_bipartite(3, 3).edges) + [(6, 7)],
    )
    library = [
        (path4, ((0, 1), (2, 3))),
        (k4_minus, ((0, 2), (1, 3))),
        (c6, ((0, 1), (3, 4))),
        (c6, ((0, 1), (2, 3))),
        (theta, ((0, 2), (1, 3))),
        (complete(4), ((0, 1), (2, 3))),
        # The bipartite 3x3 graph cannot be drawn whose only crossing
        # involves a foreign edge: removing that edge would embed it.
        (k33_plus_far_edge, ((0, 3), (6, 7))),
    ]
    verdicts = []
    for graph, pair in library:
        gadget = gadget_planarize(graph, [pair])
        got = planarity_test(gadget.edges).planar
        want = _rotation_enumeration_accepts(graph, pair)
        assert got == want, (pair, got, want)
        verdicts.append(got)
    assert True in verdicts and False in verdicts


# -- decision procedure ------------------------------------------------------


def test_c4_yes_zero():
    res = is_one_planar(cycle(4), 0)
    assert res.verdict == "yes" and res.crossings == 0
    assert validate(res.drawing).passed


def test_k4_yes_zero():
    res = is_one_planar(complete(4), 0)
    assert res.verdict == "yes" and res.crossings == 0


@pytest.mark.parametrize("graph", [
    complete(3),  # three edges on one triangle each: the count needs N' >= 4
    Graph.make(range(4), complete(3).edges),  # N' counts only non-isolated vertices
    Graph.make(range(4), complete(4).edges - {(0, 1)}),  # 4 = 4(3N' - 6 - E) deficient edges
], ids=["K3", "K3+isolated", "K4-e"])
def test_triangle_count_limits_yes_zero(graph):
    res = is_one_planar(graph, 0)
    assert res.verdict == "yes" and res.crossings == 0
    assert validate(res.drawing).passed


def test_k5_min_one():
    assert not planarity_test(list(complete(5).edges)).planar
    assert min_crossings(complete(5), 2) == 1
    res = is_one_planar(complete(5), 1)
    assert res.verdict == "yes" and res.crossings == 1
    assert validate(res.drawing).passed


def test_k33_budget_zero_no_budget_one_yes():
    k33 = complete_bipartite(3, 3)
    assert is_one_planar(k33, 0).verdict == "no"
    res = is_one_planar(k33, 1)
    assert res.verdict == "yes" and res.crossings == 1
    assert validate(res.drawing).passed
    assert min_crossings(k33, 3) == 1


def test_k34_within_budget_two():
    res = is_one_planar(complete_bipartite(3, 4), 2)
    assert res.verdict == "yes" and res.crossings <= 2
    assert validate(res.drawing).passed


def test_budget_monotonicity():
    k33 = complete_bipartite(3, 3)
    assert is_one_planar(k33, 1).verdict == "yes"
    assert is_one_planar(k33, 2).verdict == "yes"
    assert is_one_planar(k33, 3).verdict == "yes"


def test_subgraph_monotonicity_random():
    rng = random.Random(425)
    k5 = complete(5)
    assert is_one_planar(k5, 1).verdict == "yes"
    edges = sorted(k5.edges)
    for _ in range(6):
        kept = [e for e in edges if rng.random() < 0.8]
        sub = Graph.make(range(5), kept)
        assert is_one_planar(sub, 1).verdict == "yes"


def test_balanced4_graph_needs_exactly_four_crossings():
    # The 4+4 ring construction uses 4 crossings; exhaustion shows none fewer
    # suffice, so the bracket [1, 4] closes at 4.
    g = balanced(4).graph
    assert min_crossings(g, 4) == 4


def test_balanced5_graph_is_one_planar_with_six_crossings():
    # 22 edges need at least 6 crossings; the search finds a witness at
    # exactly 6 in about 0.1 s (29,240 nodes, 1 leaf; 170,579 nodes and
    # about 1 s before the face bound).
    res = is_one_planar(balanced(5).graph, 6)
    assert (res.verdict, res.crossings) == ("yes", 6)
    assert validate(res.drawing).passed and res.drawing.graph == balanced(5).graph


def test_witness_draws_the_balanced5_crossings_without_a_search():
    # ``_witness`` on the construction's own crossings takes under 1 ms on a
    # 2-CPU Xeon host; the bound below only says that no search runs.
    d = balanced(5)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        w = _witness(d.graph, d.crossings, _two_color(d.graph))
        times.append(time.perf_counter() - start)
    assert validate(w).passed
    assert (w.graph, w.crossings) == (d.graph, d.crossings)
    assert min(times) < 0.01


def test_agreement_with_constructions_small():
    for d in (balanced(2), balanced(3), best_known(1, 5).drawing,
              best_known(2, 6).drawing, best_known(3, 5).drawing, best_known(4, 5).drawing):
        res = is_one_planar(d.graph, len(d.crossings))
        assert res.verdict == "yes"
        assert res.crossings <= len(d.crossings)


def test_oracle_drawing_is_bipartite_when_input_is():
    res = is_one_planar(complete_bipartite(3, 3), 1)
    assert isinstance(res.drawing.graph, BipartiteGraph)


def test_disconnected_graphs_supported():
    from onecross.formats import document_to_drawing, drawing_to_document, export_svg

    edges = [(0, 1), (1, 2), (2, 3), (3, 0)] + list(
        (u, v) for u in range(4, 8) for v in range(u + 1, 8))
    g = Graph.make(range(8), edges)
    res = is_one_planar(g, 0)
    assert res.verdict == "yes"
    assert validate(res.drawing).passed
    assert export_svg(res.drawing).startswith("<svg")
    assert validate(document_to_drawing(drawing_to_document(res.drawing))).passed


def test_disconnected_bipartite_graph_gets_bipartite_witness():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    res = is_one_planar(Graph.make(range(8), edges), 0)
    assert res.verdict == "yes"
    g = res.drawing.graph
    assert isinstance(g, BipartiteGraph)
    assert (g.black, g.white) == (frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7}))


def test_equal_graphs_get_the_same_witness():
    # A frozenset's iteration order depends on how it was built: these
    # pairs of equal graphs list their vertices in different orders, and
    # the witness is numbered, and a plain graph's components coloured, in
    # sorted vertex order, not in that one.
    blacks, whites = [0, 32, 64], [8, 40, 72, 104]
    k34 = [(b, w) for b in blacks for w in whites]
    two_c4 = [(0, 32), (32, 64), (64, 96), (96, 0), (8, 40), (40, 72), (72, 104), (104, 8)]
    cases = [(BipartiteGraph.make(blacks, whites, k34),
              BipartiteGraph.make(blacks[::-1], whites[::-1], k34[::-1]), 2),
             (Graph.make([0, 32, 64, 96, 8, 40, 72, 104], two_c4),
              Graph.make([0, 32, 64, 96, 40, 104, 72, 8], two_c4), 0)]
    for g, h, budget in cases:
        assert g == h and list(g.vertices) != list(h.vertices)
        docs = [dumps_document(drawing_to_document(is_one_planar(x, budget).drawing))
                for x in (g, h)]
        assert docs[0] == docs[1]


def test_isolated_vertex_drawn_without_crossings():
    res = is_one_planar(Graph.make([0, 1, 2], [(0, 1)]), 0)
    assert (res.verdict, res.crossings) == ("yes", 0)
    assert validate(res.drawing).passed


def test_k33_plus_isolated_black_vertex_needs_one_crossing():
    k33 = complete_bipartite(3, 3)
    res = is_one_planar(BipartiteGraph.make(k33.black | {6}, k33.white, k33.edges), 1)
    assert (res.verdict, res.crossings) == ("yes", 1)
    assert validate(res.drawing).passed
    assert res.drawing.graph.black == frozenset({0, 1, 2, 6})


def test_min_crossings_timeout_bounds_whole_search():
    with pytest.raises(OracleError, match="timed out"):
        min_crossings(slow_instance(), SLOW_BUDGET, timeout=0.2)


@pytest.mark.parametrize("timeout", [-1, -0.5, float("nan"), "1", True])
def test_invalid_timeout_is_rejected(timeout):
    with pytest.raises(OracleError, match="timeout"):
        min_crossings(complete_bipartite(3, 3), 1, timeout=timeout)


def test_negative_budget_is_rejected():
    with pytest.raises(OracleError, match="budget must be nonnegative"):
        is_one_planar(complete_bipartite(3, 3), -1)
    with pytest.raises(OracleError, match="budget must be an integer or None, got 2.5"):
        is_one_planar(complete_bipartite(3, 3), 2.5)
    with pytest.raises(OracleError, match="budget must be an integer or None, got '2'"):
        min_crossings(complete_bipartite(3, 3), "2")
    with pytest.raises(OracleError, match="budget must be an integer or None, got True"):
        is_one_planar(complete_bipartite(3, 4), True)


def test_zero_timeout_is_accepted():
    assert is_one_planar(complete_bipartite(3, 3), 0, timeout=0).verdict == "no"


def test_a_missing_module_is_not_found_at_import():
    with pytest.raises(ModuleNotFoundError):
        onecross.oracle._lazy_module("onecross_no_such_module")


def test_a_lazy_module_runs_on_its_first_attribute_read(tmp_path, monkeypatch):
    name = "onecross_lazy_probe"
    ran = tmp_path / "ran"
    (tmp_path / f"{name}.py").write_text(f"open({str(ran)!r}, 'w').close()\nvalue = 7\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        probe = onecross.oracle._lazy_module(name)
        assert not ran.exists()
        assert probe.value == 7 and ran.exists()
        assert onecross.oracle._lazy_module(name) is probe
    finally:
        sys.modules.pop(name, None)


def test_timeout_is_checked_before_every_planarity_call():
    graph = slow_instance()
    start = time.monotonic()
    res = is_one_planar(graph, SLOW_BUDGET, timeout=0.2)
    assert res.verdict == "unknown"
    assert time.monotonic() - start < 1.5


def test_timeout_returns_unknown(tmp_path):
    graph = slow_instance()
    ck = tmp_path / "ck.json"
    res = is_one_planar(graph, SLOW_BUDGET, timeout=0.5, checkpoint=ck)
    assert res.verdict == "unknown"
    assert ck.exists()
    # Resuming makes progress from the checkpoint without crashing.
    res2 = is_one_planar(graph, SLOW_BUDGET, timeout=0.5, checkpoint=ck)
    assert res2.verdict == "unknown"
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


# The K2,2 search at budget 0; "bad-size" and "beyond-budget" match its
# fingerprint.  A size above the budget would resume past every size and
# answer "no" for a planar graph.
K22_FINGERPRINT = {"edges": [[0, 2], [0, 3], [1, 2], [1, 3]], "budget": 0,
                   "rules": ["count", "twins", "small-orbits-first", "rims", "pair-swaps",
                             "crossing-cap", "faces"]}
BAD_CHECKPOINTS = {
    "not-json": "{bad",
    "not-an-object": "[]",
    "bad-size": json.dumps({"fingerprint": K22_FINGERPRINT, "size": "0", "next_root": 0}),
    "beyond-budget": json.dumps({"fingerprint": K22_FINGERPRINT, "size": 1, "next_root": 0}),
    # Size 0 searches one leaf and the search records no next_root there.
    "beyond-orbits": json.dumps({"fingerprint": K22_FINGERPRINT, "size": 0, "next_root": 1}),
}


@pytest.mark.parametrize("content", BAD_CHECKPOINTS.values(), ids=BAD_CHECKPOINTS.keys())
def test_bad_checkpoint_raises_oracle_error(tmp_path, content):
    ck = tmp_path / "ck.json"
    ck.write_text(content)
    with pytest.raises(OracleError, match="checkpoint"):
        is_one_planar(complete_bipartite(2, 2), 0, checkpoint=ck)


def test_checkpoint_of_another_rule_set_is_not_resumed(tmp_path):
    # A checkpoint claiming every first-level subtree of size 2 is done:
    # K3,4 has one first-level orbit there, so a finished size 2 records 1.
    k34 = complete_bipartite(3, 4)
    edges = [list(e) for e in sorted(k34.edges)]
    ck = tmp_path / "ck.json"

    def write(fingerprint):
        ck.write_text(json.dumps({"fingerprint": fingerprint, "size": 2, "next_root": 1}))

    write({"edges": edges, "budget": 2,
           "rules": ["count", "twins", "small-orbits-first", "rims", "pair-swaps",
                     "crossing-cap", "faces"]})
    assert is_one_planar(k34, 2, checkpoint=ck).verdict == "no"
    # Written before the face bound, before sizes stopped at the crossing
    # cap, before children kept the swaps that map their pair onto itself,
    # when inner nodes were also cut by a forced-uncrossed test, before the
    # rim bound, before orbits were ordered smallest first (its next_root
    # indexes orbits in another order), and before the rule set was
    # recorded: each cut other subtrees.
    for older in (["count", "twins", "small-orbits-first", "rims", "pair-swaps",
                   "crossing-cap"],
                  ["count", "twins", "small-orbits-first", "rims", "pair-swaps"],
                  ["count", "twins", "small-orbits-first", "rims"],
                  ["count", "twins", "forced", "small-orbits-first", "rims"],
                  ["count", "twins", "forced", "small-orbits-first"],
                  ["count", "twins", "forced"], None):
        write({"edges": edges, "budget": 2} | ({} if older is None else {"rules": older}))
        res = is_one_planar(k34, 2, checkpoint=ck)
        assert (res.verdict, res.crossings) == ("yes", 2)


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path, monkeypatch):
    graph = slow_instance()
    ck = tmp_path / "ck.json"
    is_one_planar(graph, SLOW_BUDGET, timeout=0.2, checkpoint=ck)
    before = ck.read_text()

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(onecross.oracle.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        is_one_planar(graph, SLOW_BUDGET, timeout=0.2, checkpoint=ck)
    assert ck.read_text() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]


def test_witness_rims_go_in_one_map_edit(monkeypatch):
    k34 = complete_bipartite(3, 4)
    crossings = is_one_planar(k34, 2).drawing.crossings
    made = []
    finish = onecross.plane_map.MapEditor.finish
    monkeypatch.setattr(onecross.plane_map.MapEditor, "finish",
                        lambda ed: made.append(1) or finish(ed))
    d = _witness(k34, crossings, _two_color(k34))
    gadget = gadget_planarize(k34, crossings)
    # The crossings are 03 x 14 and 05 x 16: of their eight rims, four are
    # uncrossed edges and 0-1 is shared, so three map edges are rims.
    rims = [e for e in gadget.edges if e[1] not in gadget.false_nodes and e not in k34.edges]
    assert (sorted(rims), len(made)) == ([(0, 1), (3, 4), (5, 6)], 1)
    assert validate(d).passed


def test_witness_deletes_a_rim_that_is_a_crossed_edge():
    # The rim 3-5 of 13 x 45 is the edge 35, which 24 x 35 crosses: in the
    # gadget graph it is a rim, deleted like the others, and 35 is drawn
    # through its crossing.
    graph = Graph.make(range(1, 6), [(1, 3), (1, 5), (2, 4), (3, 5), (4, 5)])
    pairs = [((2, 4), (3, 5)), ((1, 3), (4, 5))]
    d = _witness(graph, pairs, _two_color(graph))
    assert validate(d).passed and d.crossings == frozenset(pairs)
    assert [len(d.edge_paths[e]) for e in sorted(graph.edges)] == [2, 1, 2, 2, 2]


def test_a_leaf_that_planarity_test_rejects_raises(monkeypatch):
    # The search and the witness path test the same gadget graph; if they
    # ever disagreed, the oracle would say so rather than answer.
    monkeypatch.setattr(onecross.oracle, "planarity_test", lambda *a: PlanarityResult(False, None))
    with pytest.raises(OracleError, match="planarity_test rejects"):
        is_one_planar(complete_bipartite(3, 3), 1)


# Each graph is searched as given and relabelled.  The outputs digest holds
# every verdict, least crossing number, counting bound and witness
# document: what a caller sees, which no pruning rule may change.  The
# counters file holds the search counters of each size (planarity_s
# aside): they depend on every planarity verdict the search saw, so
# unchanged counters mean unchanged answers from every planarity test, not
# just from the final ones, and a new pruning rule changes them by design.
OUTPUTS_CORPUS = {"K3,4 at 2": (complete_bipartite(3, 4), 2), "K6 at 3": (complete(6), 3),
                  "K4,4 at 4": (complete_bipartite(4, 4), 4),
                  "K3,5 at 3": (complete_bipartite(3, 5), 3),
                  "K3,7 at 6": (complete_bipartite(3, 7), 6)}
OUTPUTS_DIGEST = "690ac9960e6834cc23e613e10ec7c19788a28c06998c414ffd6b0001adbd3ea1"
COUNTERS = Path(__file__).with_name("oracle_counters.json")
COUNTER_FIELDS = ("skipped", "nodes", "leaves", "rim_cuts", "corner_cuts", "witnesses")


def outputs_corpus_results():
    """(search, labelling, result) of every search of the outputs corpus."""
    for name, (graph, budget) in OUTPUTS_CORPUS.items():
        for labelling, g in (("given", graph), ("relabelled", relabel(graph, 7))):
            yield name, labelling, is_one_planar(g, budget)


def test_oracle_outputs_are_unchanged():
    outputs = hashlib.sha256()
    for _, _, res in outputs_corpus_results():
        outputs.update(json.dumps([res.verdict, res.crossings, res.stats.lower_bound]).encode())
        if res.drawing is not None:
            outputs.update(dumps_document(drawing_to_document(res.drawing)).encode())
    assert outputs.hexdigest() == OUTPUTS_DIGEST


def test_oracle_counters_equal_the_pinned_file():
    # The file maps each search and labelling to one row per size; a
    # failure names the search, labelling, size and field that moved.
    pinned = json.loads(COUNTERS.read_text())
    moved = []
    searched = set()
    for name, labelling, res in outputs_corpus_results():
        searched.add((name, labelling))
        rows = pinned.get(name, {}).get(labelling)
        if rows is None:
            moved.append(f"{name}, {labelling}: not in {COUNTERS.name}")
            continue
        sizes = [s.size for s in res.stats.sizes]
        if sizes != [row["size"] for row in rows]:
            moved.append(f"{name}, {labelling}: sizes {sizes}, pinned "
                         f"{[row['size'] for row in rows]}")
            continue
        for s, row in zip(res.stats.sizes, rows):
            assert set(row) == {"size", *COUNTER_FIELDS}, (name, labelling, s.size)
            for field in COUNTER_FIELDS:
                if getattr(s, field) != row[field]:
                    moved.append(f"{name}, {labelling}, size {s.size}: {field} "
                                 f"{getattr(s, field)}, pinned {row[field]}")
    assert searched == {(name, labelling) for name in pinned for labelling in pinned[name]}
    assert not moved, "\n".join(moved)


# -- pruning rules -------------------------------------------------------------


def candidate_pairs(edges):
    """Reference: the pairs (e, f), e before f in ``edges``, of edges with
    no common end."""
    out = []
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if not set(e) & set(f):
                out.append((e, f))
    return out


def assignments(pairs, size, start=0, used=frozenset()):
    """Reference: every set of ``size`` edge-disjoint pairs of ``pairs``, as
    lists in index order."""
    if size == 0:
        yield []
        return
    for i in range(start, len(pairs)):
        e, f = pairs[i]
        if e not in used and f not in used:
            for rest in assignments(pairs, size - 1, i + 1, used | {e, f}):
                yield [pairs[i]] + rest


def plain_search(graph, budget):
    """Reference: the least size of an assignment with a planar gadget graph
    (at most ``budget``), trying every assignment; None if there is none."""
    pairs = candidate_pairs(sorted(graph.edges))
    for size in range(budget + 1):
        for chosen in assignments(pairs, size):
            if planarity_test(gadget_planarize(graph, chosen).edges, graph.vertices).planar:
                return size
    return None


def rim_free_search(graph, budget):
    """Reference sharing no code with the search: the least size of an
    assignment (at most ``budget``) whose rim-free planarization
    ``networkx.check_planarity`` accepts; None if there is none.

    The rim-free planarization keeps the uncrossed edges and joins one new
    hub per pair to that pair's four ends, with no rims.  Its least planar
    size equals the least size with a planar gadget graph.  A planar gadget
    graph has a planar rim-free subgraph.  Conversely, in a planar rim-free
    embedding a hub around which the pair's edges do not alternate is a
    touching point that can be pulled apart, leaving a drawing with fewer
    crossings.  So at the least size every hub alternates: each rim joins
    the ends of two spokes consecutive around its hub and can be drawn
    beside them, through the face between them, so the gadget graph is
    planar.  The counting bound holds for that drawing too, so the oracle's
    skipped sizes hide nothing.
    """
    pairs = candidate_pairs(sorted(graph.edges))
    for size in range(budget + 1):
        for chosen in assignments(pairs, size):
            crossed = {e for pair in chosen for e in pair}
            planarization = nx.Graph(list(graph.edges - crossed))
            for hub, (e, f) in enumerate(chosen):
                planarization.add_edges_from((("hub", hub), v) for v in e + f)
            if nx.check_planarity(planarization)[0]:
                return size
    return None


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 8)
    pool = list(itertools.combinations(range(n), 2))
    edges = rng.sample(pool, rng.randint(2 * n, min(16, len(pool))))
    return Graph.make(range(n), edges)


def random_bipartite(seed):
    """A plain graph that two-colours: a random subgraph of K_{a,b}, with
    3 <= a <= b and a + b <= 8, of 2(a + b) - 3 or 2(a + b) - 2 edges, so
    that its counting bound is 1 or 2 when no vertex is isolated."""
    rng = random.Random(seed)
    a = rng.randint(3, 4)
    b = rng.randint(a, 8 - a)
    pool = [(u, w) for u in range(a) for w in range(a, a + b)]
    edges = rng.sample(pool, rng.randint(2 * (a + b) - 3, min(len(pool), 2 * (a + b) - 2)))
    return Graph.make(range(a + b), edges)


DIFFERENTIAL = (
    [(f"K{n}", complete(n), 3) for n in range(3, 7)]
    + [(f"K{a},{b}", complete_bipartite(a, b), 2)
       for a in range(1, 4) for b in range(a, 8 - a)]
    + [("K6-b2", complete(6), 2), ("K3,4-b1", complete_bipartite(3, 4), 1),
       ("K3,3-b0", complete_bipartite(3, 3), 0)]
    + [(f"random{seed}", random_graph(seed), 1 + seed % 3) for seed in range(40)]
    + [(f"bipartite{seed}", random_bipartite(seed), 2 + seed % 2) for seed in range(10)]
    # Counting bound 1, least size 3: sizes 1 and 2 are searched in full first.
    + [("K6+pendant-b3", Graph.make(range(7), list(complete(6).edges) + [(0, 6)]), 3)]
)


def candidates(allowed, labels, j, clash):
    """The candidates of a node entered by choosing orbit ``j``'s
    representative, which shares an edge with the pairs ``clash``, at a
    parent whose allowed pairs are ``allowed``, numbered ``labels``: the
    child list that ``_Search.branch`` built before ``viable`` made it."""
    return [p for p, k in zip(allowed, labels) if k >= j and p not in clash]


class Node(NamedTuple):
    """One node a search met: the arguments of its ``viable`` call, with
    its candidates as ``allowed``, the pairs it kept, and the pairs the rim
    and face bounds dropped."""

    search: _Search
    chosen: tuple[int, ...]
    allowed: list[int]
    left: int
    rims: int  # R
    corners: int  # T
    kept: list[int]
    rim_cuts: int
    corner_cuts: int


def record_nodes(monkeypatch):
    """Every node that the searches meet from now on, as a ``Node``,
    recorded by wrapping ``_Search.viable``."""
    nodes = []
    viable = _Search.viable

    def recording(self, chosen, allowed, labels, j, clash, left, rims, corners):
        cuts = self.stats.rim_cuts, self.stats.corner_cuts
        kept = viable(self, chosen, allowed, labels, j, clash, left, rims, corners)
        below = candidates(allowed, labels, j, clash)
        nodes.append(Node(self, tuple(chosen), below, left, rims, corners, list(kept),
                          self.stats.rim_cuts - cuts[0], self.stats.corner_cuts - cuts[1]))
        return kept

    monkeypatch.setattr(_Search, "viable", recording)
    return nodes


def record_groups(monkeypatch):
    """Every node that ``record_nodes`` records from now on, with its
    group, as ``(nodes, groups)``: ``groups[i]`` is the twin partition,
    the swaps and the orbit labels of ``nodes[i]``, the labels None when
    the node numbered no orbits."""
    nodes = record_nodes(monkeypatch)
    groups = {}
    branch, orbits = _Search.branch, _Search.orbits

    def branching(self, chosen, allowed, labels, cls, swaps, j, r, left, rims, corners):
        # The group of the child that chooses r, which branch builds only if
        # the rim and face bounds leave it pairs enough; the child's viable
        # call, next, records the child.
        if left > 1:
            groups[len(nodes)] = [*self.stabilizer(cls, swaps, r), None]
        return branch(self, chosen, allowed, labels, cls, swaps, j, r, left, rims, corners)

    def numbering(self, allowed, cls, swaps=()):
        labels, reps = orbits(self, allowed, cls, swaps)
        # Called right after the node's viable; the root is entered by no branch.
        group = groups.setdefault(len(nodes) - 1, [cls, swaps, None])
        assert (group[0], list(group[1])) == (cls, list(swaps))
        group[2] = labels
        return labels, reps

    monkeypatch.setattr(_Search, "branch", branching)
    monkeypatch.setattr(_Search, "orbits", numbering)
    return nodes, groups


def node_generators(search, chosen, swaps):
    """Vertex permutations generating the group of a node: the
    transpositions inside each twin class with the chosen endpoints taken
    out, and each swap, which moves v to w when it maps n + v to n + w."""
    fixed = {v for p in chosen for v in search.pair_ends[p]}
    members = {}
    for v, c in enumerate(search.classes):
        if v not in fixed:
            members.setdefault(c, []).append(v)
    generators = []
    for group in members.values():
        for u, v in zip(group, group[1:]):
            perm = list(range(search.n))
            perm[u], perm[v] = v, u
            generators.append(perm)
    for swap in swaps:
        perm = list(range(search.n))
        for x, y in swap.items():
            perm[x - search.n] = y - search.n
        generators.append(perm)
    return generators


def pair_image(search, perm, p):
    """The candidate pair that the vertex permutation ``perm`` maps ``p`` onto."""
    a, b, c, d = (perm[x] for x in search.pair_ends[p])
    ends = (*edge_key(a, b), *edge_key(c, d))
    return search.pair_ends.index(ends if ends[:2] < ends[2:] else ends[2:] + ends[:2])


GROUP_CASES = {"K3,7": [(complete_bipartite(3, 7), 6)], "K4,4": [(complete_bipartite(4, 4), 4)],
               "K6": [(complete(6), 3)], "K3,5": [(complete_bipartite(3, 5), 3)],
               "differential": [(graph, budget) for _, graph, budget in DIFFERENTIAL]}


@pytest.mark.parametrize("searches", GROUP_CASES.values(), ids=GROUP_CASES.keys())
def test_every_node_group_is_a_group_of_the_node(searches, monkeypatch):
    # At every node: each generator of its group (the transpositions inside
    # its classes, and its swaps) is an automorphism of the graph that maps
    # every chosen pair onto itself, the allowed and kept sets are closed
    # under every generator, and the orbit labels are the classes of a
    # brute-force union-find closure of the generators over the kept pairs.
    nodes, groups = record_groups(monkeypatch)
    for graph, budget in searches:
        for g in (graph, relabel(graph, 7)):
            is_one_planar(g, budget)
    swapped = Counter()
    for i, node in enumerate(nodes):
        search, chosen, allowed, kept = node.search, node.chosen, node.allowed, node.kept
        cls, swaps, labels = groups[i]
        fixed = {v for p in chosen for v in search.pair_ends[p]}
        assert cls == [search.n + v if v in fixed else c
                       for v, c in enumerate(search.classes)], chosen
        edges = set(search.edge_ends)
        generators = node_generators(search, chosen, swaps)
        for perm in generators:
            assert {edge_key(perm[u], perm[v]) for u, v in edges} == edges, chosen
            assert all(pair_image(search, perm, p) == p for p in chosen), (chosen, perm)
            assert {pair_image(search, perm, p) for p in allowed} == set(allowed), chosen
            assert {pair_image(search, perm, p) for p in kept} == set(kept), chosen
        swapped[bool(swaps)] += 1
        if labels is None:
            continue
        root = {p: p for p in kept}

        def find(p):
            while root[p] != p:
                p = root[p]
            return p

        for perm in generators:
            for p in kept:
                root[find(p)] = find(pair_image(search, perm, p))
        closure, numbered = {}, {}
        for p, label in zip(kept, labels):
            closure.setdefault(find(p), set()).add(p)
            numbered.setdefault(label, set()).add(p)
        assert sorted(map(sorted, closure.values())) == sorted(map(sorted, numbered.values())), \
            chosen
    assert swapped[True] and swapped[False], swapped


def tuple_keyed_orbits(search, allowed, cls, swaps=()):
    """``_Search.orbits`` with each twin orbit keyed by a tuple, the pair
    of its two edges' sorted class pairs, and a key built at every node,
    whatever its group: the reference for the integer-keyed one."""
    members = {}
    keys = []
    ends = search.pair_ends
    for p in allowed:
        a, b, c, d = ends[p]
        a, b, c, d = cls[a], cls[b], cls[c], cls[d]
        e = (a, b) if a <= b else (b, a)
        f = (c, d) if c <= d else (d, c)
        key = (e, f) if e <= f else (f, e)
        members.setdefault(key, []).append(p)
        keys.append(key)
    if swaps:
        root = {k: k for k in members}

        def find(k):
            while root[k] != k:
                k = root[k]
            return k

        for swap in swaps:
            get = swap.get
            for key in members:
                (a, b), (c, d) = key
                a, b, c, d = get(a, a), get(b, b), get(c, c), get(d, d)
                e = (a, b) if a <= b else (b, a)
                f = (c, d) if c <= d else (d, c)
                u, v = find(key), find((e, f) if e <= f else (f, e))
                if u != v:
                    root[v] = u
        top = {k: find(k) for k in members}
        joined = {}
        for key, pairs in members.items():
            joined.setdefault(top[key], []).extend(pairs)
        for pairs in joined.values():
            pairs.sort()
        members, keys = joined, [top[k] for k in keys]
    size = [0] * (2 * len(cls))
    for c in cls:
        size[c] += 1
    rows = []
    for k, pairs in members.items():
        (a, b), (c, d) = k
        rows.append((len(pairs), sorted((size[a], size[b], size[c], size[d])), pairs[0], k))
    rows.sort()
    number = {row[3]: j for j, row in enumerate(rows)}
    return [number[k] for k in keys], [row[2] for row in rows]


def test_orbits_equal_the_tuple_keyed_reference(monkeypatch):
    # At every node of the differential searches, ``orbits`` gives the
    # reference's labels and representatives: at nodes whose group is
    # trivial, where it builds no key, at nodes with swaps, where it
    # decodes its integer keys, and at the others.
    orbits = _Search.orbits
    kinds = Counter()

    def comparing(self, allowed, cls, swaps=()):
        got = orbits(self, allowed, cls, swaps)
        assert got == tuple_keyed_orbits(self, allowed, cls, swaps), (list(allowed), cls, swaps)
        trivial = not swaps and len(set(cls)) == len(cls)
        kinds["trivial" if trivial else "swaps" if swaps else "twins"] += 1
        return got

    monkeypatch.setattr(_Search, "orbits", comparing)
    for _, graph, budget in DIFFERENTIAL:
        for g in (graph, relabel(graph, 7)):
            is_one_planar(g, budget)
    assert kinds["trivial"] and kinds["swaps"] and kinds["twins"], kinds


def test_pruned_search_agrees_with_plain_search(monkeypatch):
    nodes = record_nodes(monkeypatch)
    nos = 0
    for name, graph, budget in DIFFERENTIAL:
        want = plain_search(graph, budget)
        nos += want is None
        for g in (graph, relabel(graph, 7)):
            res = is_one_planar(g, budget)
            assert res.crossings == want, name
            assert res.verdict == ("no" if want is None else "yes"), name
            if res.verdict == "yes":
                assert validate(res.drawing).passed, name
                assert res.drawing.graph.edges == g.edges, name
    assert nos >= 3
    # The comparison covers pairs that the rim bound and the face bound
    # dropped above the leaves.
    assert any(node.left > 1 and node.rim_cuts for node in nodes)
    assert any(node.left > 1 and node.corner_cuts for node in nodes)


def test_rim_free_reference_agrees_with_the_oracle():
    for name, graph, budget in DIFFERENTIAL:
        assert rim_free_search(graph, budget) == min_crossings(graph, budget), name


def rims_from_scratch(search, chosen):
    """R of a node by its definition: the distinct rims of its chosen pairs
    that are not uncrossed edges of the graph."""
    pairs = [search.pairs[p] for p in chosen]
    uncrossed = set(search.edges) - {e for pair in pairs for e in pair}
    rims = {edge_key(*rim) for (a, b), (c, d) in pairs for rim in ((a, c), (c, b), (b, d), (d, a))}
    return len(rims - uncrossed)


def within_rim_bound(node):
    """The pairs p of the node's allowed set with R(chosen + p) <=
    3n' - 6 - |E| + s, by a fresh count."""
    search, chosen = node.search, node.chosen
    room = 3 * len({v for e in search.edges for v in e}) - 6 - len(search.edges)
    return [p for p in node.allowed
            if rims_from_scratch(search, chosen + (p,)) <= room + len(chosen) + node.left]


FILTER_CASES = {"K3,7": (complete_bipartite(3, 7), 6), "K4,4": (complete_bipartite(4, 4), 4)}


@pytest.mark.parametrize("graph,budget", FILTER_CASES.values(), ids=FILTER_CASES.keys())
def test_rim_filter_keeps_exactly_the_pairs_within_the_bound(graph, budget, monkeypatch):
    # At every node, the rim bound drops exactly the pairs outside
    # {p : R(chosen + p) <= 3n' - 6 - |E| + s}, by a fresh count (the face
    # bound may drop more: see the next test), and the kept set is closed
    # under the node's group: the permutations inside the twin classes that
    # fix the chosen endpoints, and the node's swaps.
    nodes, groups = record_groups(monkeypatch)
    is_one_planar(graph, budget)
    drops = Counter()
    for i, node in enumerate(nodes):
        search, chosen, allowed, left, kept = (node.search, node.chosen, node.allowed, node.left,
                                               node.kept)
        assert node.rims == rims_from_scratch(search, chosen), chosen
        within = within_rim_bound(node)
        assert node.rim_cuts == len(allowed) - len(within), chosen
        assert set(kept) <= set(within), chosen
        if left == 1:  # within the rim bound is within the edge bound at a leaf
            assert within == [p for p in allowed
                              if not _over_edge_bound(search.gadget([*chosen, p]))], chosen
        for perm in node_generators(search, chosen, groups[i][1]):
            for p in kept:
                assert pair_image(search, perm, p) in kept, (chosen, p)
        drops[left == 1] += node.rim_cuts
    assert drops[True] and drops[False]  # at the leaves' parents and above them
    for search in {node.search for node in nodes}:  # every count is undone on the way up
        assert not any(search.rim_count)
        assert sorted(k for k, flag in enumerate(search.uncrossed) if flag) == \
            sorted(search.edge_rim)


def corners_from_scratch(search, chosen):
    """T of a node by its definition: the (chosen pair, rim) with the rim an
    edge of the graph that no chosen pair crosses."""
    pairs = [search.pairs[p] for p in chosen]
    uncrossed = set(search.edges) - {e for pair in pairs for e in pair}
    return sum(edge_key(*rim) in uncrossed
               for (a, b), (c, d) in pairs for rim in ((a, c), (c, b), (b, d), (d, a)))


def test_face_filter_keeps_exactly_the_pairs_within_both_bounds(monkeypatch):
    # At every node of the K3,7 and K4,4 searches, the carried T is a fresh
    # count, and the kept set is
    # {p within the rim bound : T(chosen + p) + 2(left - 1) >= 2|E| - 4n' + 8}.
    # The rim test's flags hold at every node: fresh[k] is 1 exactly when
    # no chosen pair has the rim k and k is no uncrossed edge.  When the
    # search ends, every flag and count is back at its start.
    nodes = record_nodes(monkeypatch)
    recording = _Search.viable

    def checking(self, chosen, allowed, labels, j, clash, left, rims, corners):
        assert self.fresh == bytearray(not (c or u) for c, u in
                                       zip(self.rim_count, self.uncrossed)), chosen
        return recording(self, chosen, allowed, labels, j, clash, left, rims, corners)

    monkeypatch.setattr(_Search, "viable", checking)
    for graph, budget in FILTER_CASES.values():
        is_one_planar(graph, budget)
    for search in {node.search for node in nodes}:
        start = _Search(search.graph, None)
        assert (search.rim_count, search.uncrossed, search.fresh) == \
            (start.rim_count, start.uncrossed, start.fresh)
    drops = Counter()
    for node in nodes:
        search, chosen, left = node.search, node.chosen, node.left
        floor = 2 * len(search.edges) - 4 * search.n + 8  # no vertex is isolated
        assert node.corners == corners_from_scratch(search, chosen), chosen
        within = within_rim_bound(node)
        want = [p for p in within
                if corners_from_scratch(search, chosen + (p,)) + 2 * (left - 1) >= floor]
        assert node.kept == want, chosen
        assert node.corner_cuts == len(within) - len(want), chosen
        drops[left == 1] += node.corner_cuts
    assert drops[True] and drops[False]  # at the leaves' parents and above them


def two_step_viable(search, chosen, allowed, labels, j, clash, left, rims, corners):
    """Reference: ``_Search.viable`` as it was made in two steps, the child
    list that ``branch`` built (``candidates``), then the filter pass over
    it, as (kept pairs, rim cuts, corner cuts); the search is not changed."""
    below = candidates(allowed, labels, j, clash)
    slack = search.rim_room + len(chosen) + left - rims
    room = corners + 2 * left - search.corner_floor
    faces = room < corners + 2
    if slack >= 6 and not faces:
        return below, 0, 0
    count, uncrossed, fresh = search.rim_count, search.uncrossed, search.fresh
    kept = []
    rim_cuts = 0
    for p in below:
        e, f, k1, k2, k3, k4 = search.pair_keys[p]
        if ((count[e] > 0) + (count[f] > 0)
                + fresh[k1] + fresh[k2] + fresh[k3] + fresh[k4] > slack):
            rim_cuts += 1
        elif (not faces or count[e] + count[f] + 2 - uncrossed[k1] - uncrossed[k2]
              - uncrossed[k3] - uncrossed[k4] <= room):
            kept.append(p)
    return kept, rim_cuts, len(below) - len(kept) - rim_cuts


def test_one_pass_filter_equals_the_child_list_then_the_filter(monkeypatch):
    # At every node of the outputs corpus's searches, as given and
    # relabelled, ``viable``'s one pass over the parent's allowed pairs
    # keeps the pairs, and counts the rim and corner cuts, that the child
    # list and then the filter pass over it gave.  The nodes include some
    # whose labels or clash set leave out allowed pairs, and some where
    # each bound cuts.
    viable = _Search.viable
    kinds = Counter()

    def comparing(self, chosen, allowed, labels, j, clash, left, rims, corners):
        want = two_step_viable(self, chosen, allowed, labels, j, clash, left, rims, corners)
        cuts = self.stats.rim_cuts, self.stats.corner_cuts
        kept = viable(self, chosen, allowed, labels, j, clash, left, rims, corners)
        assert (kept, self.stats.rim_cuts - cuts[0], self.stats.corner_cuts - cuts[1]) == want, \
            chosen
        kinds["labels"] += any(k < j for k in labels)
        kinds["clash"] += any(p in clash for p in allowed)
        kinds["rim cuts"] += want[1] > 0
        kinds["corner cuts"] += want[2] > 0
        kinds["uncut"] += want[1] == want[2] == 0
        return kept

    monkeypatch.setattr(_Search, "viable", comparing)
    for _ in outputs_corpus_results():
        pass
    assert len(kinds) == 5 and all(kinds.values()), kinds


def test_face_bound_holds_on_every_planar_assignment():
    # Lemma (face bound), apart from the search: in each graph below, which
    # two-colours, no assignment of the sizes listed with T < 2|E| - 4n' + 8
    # has a gadget graph that networkx finds planar, and in most of them
    # one with T equal to that floor has.  Assignments over the 3N - 6 edge
    # bound (the gadget graph's edges counted from their definition) are
    # not planar and are not handed to networkx, nor are those above the
    # floor, about which the lemma says nothing, nor those at the floor
    # once one of the graph's is planar.
    k44 = complete_bipartite(4, 4)
    cases = [(complete_bipartite(3, 3), (1, 2)), (complete_bipartite(3, 4), (2,)),
             (complete_bipartite(2, 5), (1, 2)),
             (BipartiteGraph.make(k44.black, k44.white, k44.edges - {(0, 4)}), (3,))]
    cases += [(random_bipartite(seed), (1, 2)) for seed in range(3)]
    tight = below = 0
    for graph, sizes in cases:
        touched = len({v for e in graph.edges for v in e})
        floor = 2 * len(graph.edges) - 4 * touched + 8
        pairs = candidate_pairs(sorted(graph.edges))
        found = False  # an assignment at the floor with a planar gadget graph
        for chosen in itertools.chain.from_iterable(assignments(pairs, s) for s in sizes):
            uncrossed = graph.edges - {e for pair in chosen for e in pair}
            rims = [edge_key(*rim) for (a, b), (c, d) in chosen
                    for rim in ((a, c), (c, b), (b, d), (d, a))]
            corners = sum(rim in uncrossed for rim in rims)
            simple = len(uncrossed) + 4 * len(chosen) + len(set(rims) - uncrossed)
            if (corners > floor or corners == floor and found
                    or simple > 3 * (touched + len(chosen)) - 6):
                continue
            edges = gadget_planarize(graph, chosen).edges
            assert len(edges) == simple
            planar = nx.check_planarity(nx.Graph(list(edges)))[0]
            assert corners == floor or not planar, chosen
            found |= planar
            below += corners < floor
        tight += found
    # A floor one higher fails, and the lemma rejects many assignments.
    assert tight >= 5 and below >= 1000


def test_the_rim_filter_drops_a_pair_that_adds_six_rims(monkeypatch):
    # p = (ab, cd) crosses a rim of each chosen pair, q1 = (a-y1, b-w1) and
    # q2 = (c-y2, d-w2), and its own four rims are non-edges: choosing it
    # adds six to R, the most one pair can add.  Four more edges leave the
    # node (q1, q2) at size 3 a slack of five, so p must go.  The labels put
    # q1 and q2 before p, so the search reaches that node.
    a, b, c, d, y1, w1, y2, w2 = 6, 7, 4, 5, 0, 1, 2, 3
    graph = Graph.make(range(8), [(a, b), (c, d), (a, y1), (b, w1), (c, y2), (d, w2),
                                  (a, y2), (a, w2), (b, y2), (b, w2)])
    nodes = record_nodes(monkeypatch)
    monkeypatch.setattr(_Search, "leaf", lambda self, chosen: None)  # search every leaf
    assert is_one_planar(graph, 3).verdict == "no"
    q1, q2, p = ((0, 6), (1, 7)), ((2, 4), (3, 5)), ((4, 5), (6, 7))
    [(search, rims, allowed, kept)] = [
        (node.search, node.rims, node.allowed, node.kept) for node in nodes
        if [node.search.pairs[q] for q in node.chosen] == [q1, q2]]
    assert search.rim_room + 3 - rims == 5
    assert rims_from_scratch(search, (search.pairs.index(q1), search.pairs.index(q2),
                                      search.pairs.index(p))) == rims + 6
    assert search.pairs.index(p) in allowed and search.pairs.index(p) not in kept


def spread(graph):
    """``graph`` with vertex v renamed 3v + 2, so that positions and labels differ."""
    edges = [(3 * u + 2, 3 * v + 2) for u, v in graph.edges]
    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph.make({3 * v + 2 for v in graph.black},
                                   {3 * v + 2 for v in graph.white}, edges)
    return Graph.make({3 * v + 2 for v in graph.vertices}, edges)


def test_search_tables_equal_their_definitions():
    # _Search.make_pairs builds the pair tables in one pass over the edge
    # positions; each equals its definition on the labelled edges.
    for _, graph, _ in DIFFERENTIAL:
        for g in (graph, relabel(graph, 7), spread(graph)):
            search = _Search(g, None)
            search.make_pairs()
            edges = sorted(g.edges)
            pairs = candidate_pairs(edges)
            edge_index = {e: i for i, e in enumerate(edges)}
            position = {v: i for i, v in enumerate(sorted(g.vertices))}
            n = len(position)
            pair_edges = [(edge_index[e], edge_index[f]) for e, f in pairs]
            pair_ends = [tuple(position[v] for v in e + f) for e, f in pairs]
            rim_ends = [tuple((u, v) if u < v else (v, u)
                              for u, v in ((a, c), (c, b), (b, d), (d, a)))
                        for a, b, c, d in pair_ends]
            pair_rims = [tuple(u * n + v for u, v in rims) for rims in rim_ends]
            edge_rim = [position[u] * n + position[v] for u, v in edges]
            meets = [{p for p, pe in enumerate(pair_edges) if i in pe} for i in range(len(edges))]
            assert search.pairs == pairs
            assert search.pair_edges == pair_edges
            assert search.pair_ends == pair_ends
            assert search.edge_rim == edge_rim
            assert search.pair_keys == [(edge_rim[e], edge_rim[f], *rims)
                                        for (e, f), rims in zip(pair_edges, pair_rims)]
            assert search.meets == meets


def test_integer_gadget_graphs_equal_the_labelled_ones(monkeypatch):
    # At every leaf, the position-pair graph the search tests is the simple
    # graph of gadget_planarize on the same pairs, with each vertex renamed
    # by its position and the false node of the i-th chosen pair by n + i,
    # and the search's verdict is planarity_test's.
    tested = []
    gadget, leaf = _Search.gadget, _Search.leaf

    def building(self, chosen):
        simple = gadget(self, chosen)
        tested.append([self, list(chosen), simple])
        return simple

    def deciding(self, chosen):
        found = leaf(self, chosen)
        assert tested[-1][1] == chosen  # the leaf tested the graph it built
        tested[-1].append(found is not None)
        return found

    monkeypatch.setattr(_Search, "gadget", building)
    monkeypatch.setattr(_Search, "leaf", deciding)
    assert is_one_planar(complete_bipartite(3, 7), 6).verdict == "no"
    assert min_crossings(spread(complete_bipartite(4, 4)), 4) == 4
    for _, graph, budget in DIFFERENTIAL:
        is_one_planar(spread(graph), budget)
    verdicts = Counter()
    for search, chosen, simple, verdict in tested:
        pairs = [search.pairs[p] for p in chosen]
        labelled = gadget_planarize(search.graph, pairs)
        name = {v: i for i, v in enumerate(sorted(search.graph.vertices))}
        for w, pair in labelled.false_nodes.items():
            name[w] = len(search.graph.vertices) + [crossing_key(*q) for q in pairs].index(pair)
        assert simple == {edge_key(name[u], name[v]) for u, v in labelled.edges}, chosen
        assert verdict == planarity_test(labelled.edges, search.graph.vertices).planar, chosen
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_two_colouring_equals_networkx():
    def nx_two_color(graph):
        g = nx.Graph()
        g.add_nodes_from(sorted(graph.vertices))
        g.add_edges_from(graph.edges)
        try:
            color = nx.bipartite.color(g)
        except nx.NetworkXError:
            return None
        a = frozenset(v for v, c in color.items() if c == 0)
        b = frozenset(graph.vertices) - a
        return (a, b) if (len(a), sorted(a)) <= (len(b), sorted(b)) else (b, a)

    disconnected = [
        Graph.make(range(12), [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8),
                               (8, 9), (9, 5), (10, 11)]),  # C4, isolated 4, C5, K2
        Graph.make(range(11), [(0, 1), (1, 2), (2, 3), (3, 0), (5, 6), (6, 7), (7, 8),
                               (8, 5), (9, 10)]),
        Graph.make(range(9), [(1, 2), (2, 3), (6, 7)]),
        Graph.make(range(4), []),
    ]
    graphs = [Graph.make(g.vertices, g.edges) for _, g, _ in DIFFERENTIAL] + disconnected
    answers = Counter()
    for graph in graphs:
        for g in (graph, relabel(graph, 7), spread(graph)):
            want = nx_two_color(g)
            assert _two_color(g) == want, g.edges
            answers[want is None] += 1
    assert answers[True] and answers[False]


def test_edge_bound_agrees_with_networkx_on_gadget_graphs():
    rng = random.Random(11)
    verdicts = Counter()
    for name, graph, budget in DIFFERENTIAL:
        pairs = candidate_pairs(sorted(graph.edges))
        for _ in range(4):
            size, chosen, used = rng.randint(0, budget), [], set()
            for e, f in rng.sample(pairs, len(pairs)):
                if len(chosen) < size and not {e, f} & used:
                    chosen.append((e, f))
                    used |= {e, f}
            gadget = gadget_planarize(graph, chosen)
            res = planarity_test(gadget.edges, graph.vertices)
            g = nx.Graph(list(gadget.edges))
            g.add_nodes_from(graph.vertices)
            want = nx.check_planarity(g)[0]
            assert res.planar == want, (name, chosen)
            verdicts[res.planar, res.edge_bound] += 1
    assert set(verdicts) == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("graph,budget", [(complete_bipartite(3, 4), 2), (complete(6), 3),
                                          (complete_bipartite(3, 5), 3),
                                          (complete_bipartite(3, 7), 6)],
                         ids=["K3,4", "K6", "K3,5", "K3,7"])
def test_search_stats_account_for_every_planarity_call(graph, budget, monkeypatch):
    calls = []
    leaf = _Search.leaf
    monkeypatch.setattr(_Search, "leaf", lambda *a: calls.append(1) or leaf(*a))
    nodes = record_nodes(monkeypatch)
    embeds = []
    embed = onecross.oracle.lr_embedding
    monkeypatch.setattr(onecross.oracle, "lr_embedding", lambda *a: embeds.append(1) or embed(*a))
    # The witness path, which the benchmark's oracle spans time: each step
    # once on a "yes", never on a "no".  The gadget graph it embeds is simple.
    witness = {name: [] for name in ("gadget_planarize", "planarity_test", "assemble_drawing")}

    def recording(name, real):
        def call(*args):
            witness[name].append(real(*args))
            return witness[name][-1]
        return call

    for name in witness:
        monkeypatch.setattr(onecross.oracle, name, recording(name, getattr(onecross.oracle, name)))
    res = is_one_planar(graph, budget)
    assert [len(results) for results in witness.values()] == [res.verdict == "yes"] * 3
    for gadget in witness["gadget_planarize"]:
        assert len({edge_key(*e) for e in gadget.edges}) == len(gadget.edges)
    stats = res.stats
    assert [s.size for s in stats.sizes] == list(range(budget + 1))
    for s in stats.sizes:
        assert s.skipped == (s.size < stats.lower_bound)
        if s.skipped:
            assert s.leaves == s.nodes == s.rim_cuts == s.corner_cuts == 0
    assert sum(s.nodes for s in stats.sizes) == len(nodes)
    assert sum(s.rim_cuts + s.corner_cuts for s in stats.sizes) == \
        sum(len(node.allowed) - len(node.kept) for node in nodes)
    # The face bound cuts these searches of two-coloured graphs, and never K6's.
    assert (sum(s.corner_cuts for s in stats.sizes) > 0) == (_two_color(graph) is not None)
    assert sum(s.leaves for s in stats.sizes) == len(calls) == res.assignments_tested
    # Only the accepted leaf is embedded: never one during a "no".
    assert len(embeds) == sum(s.witnesses for s in stats.sizes)
    assert sum(s.witnesses for s in stats.sizes) == (res.verdict == "yes")


def test_counting_bound_answers_no_without_planarity_calls(monkeypatch):
    def forbidden(*args):
        raise AssertionError("planarity test called")

    monkeypatch.setattr(onecross.oracle, "planarity_test", forbidden)
    res = is_one_planar(complete_bipartite(3, 7), 4)  # 21 - (2 * 10 - 4) = 5 > 4
    assert res.verdict == "no"
    assert res.stats.lower_bound == 5
    assert all(s.skipped and s.leaves == 0 for s in res.stats.sizes)


NO_PAIR_CASES = {"K25,25 at 0": (complete_bipartite(25, 25), 0),  # bound 529, cap 48
                 "K3,7 at 4": (complete_bipartite(3, 7), 4),  # bound 5
                 "K5,5 at 10": (complete_bipartite(5, 5), 10)}  # bound 9, cap 8


@pytest.mark.parametrize("graph,budget", NO_PAIR_CASES.values(), ids=NO_PAIR_CASES.keys())
def test_a_counting_bound_no_enumerates_no_pair(graph, budget, monkeypatch):
    # When the counting bound is above the budget or the crossing cap, no
    # size is searched and the "no" is arithmetic: the search makes no pair
    # (K25,25 would make 180,000).  A search that does search a size, K3,4
    # at 2, makes every candidate pair.
    searches = []
    init = _Search.__init__

    def recording(self, *args):
        init(self, *args)
        searches.append(self)

    monkeypatch.setattr(_Search, "__init__", recording)
    res = is_one_planar(graph, budget)
    assert res.verdict == "no" and all(s.skipped for s in res.stats.sizes)
    k34 = complete_bipartite(3, 4)
    assert is_one_planar(k34, 2).verdict == "yes"
    assert [len(getattr(search, "pairs", ())) for search in searches] == \
        [0, len(candidate_pairs(sorted(k34.edges)))]


def test_counting_bound_skips_sizes_below_it(monkeypatch):
    k44 = complete_bipartite(4, 4)  # 16 - (2 * 8 - 4) = 4
    sizes = []
    leaf = _Search.leaf

    def recording(self, chosen):
        sizes.append(len(chosen))
        return leaf(self, chosen)

    monkeypatch.setattr(_Search, "leaf", recording)
    assert min_crossings(k44, 4) == 4
    assert sizes and set(sizes) == {4}


def test_counting_bound_ignores_isolated_vertices_and_uses_3n_minus_6():
    from onecross.oracle import _counting_bound

    def bound(graph):
        return _Search(graph, None).lower_bound

    k5 = complete(5)
    assert bound(k5) == 10 - 9
    assert bound(Graph.make(range(9), k5.edges)) == 1
    assert bound(complete(6)) == 15 - 12
    assert bound(complete_bipartite(3, 5)) == 15 - 12
    assert bound(Graph.make(range(2), [(0, 1)])) == 0
    # The arithmetic alone: 3n - 6 edges fit otherwise, 2n - 4 when two-coloured.
    assert _counting_bound(10, 5, False) == 10 - 9
    assert _counting_bound(15, 8, True) == 15 - 12
    assert _counting_bound(9, 5, True) == 9 - 6
    assert _counting_bound(5, 5, True) == 0
    assert _counting_bound(1, 2, False) == _counting_bound(3, 2, True) == 0


@pytest.mark.parametrize("graph", [complete(5), complete_bipartite(3, 4)], ids=["K5", "K3,4"])
def test_plain_search_finds_no_planar_gadget_graph_above_the_crossing_cap(graph):
    # The crossing cap lemma, checked by trying every assignment above the
    # cap, n' - 2: 3 on K5, 5 on K3,4.
    cap = len({v for e in graph.edges for v in e}) - 2
    pairs = candidate_pairs(sorted(graph.edges))
    tried = 0
    for size in range(cap + 1, len(graph.edges) // 2 + 1):
        for chosen in assignments(pairs, size):
            tried += 1
            assert not planarity_test(gadget_planarize(graph, chosen).edges,
                                      graph.vertices).planar, chosen
    assert tried > 0
    assert is_one_planar(graph, cap + 2).stats.cap == cap


def test_crossing_cap_bounds_the_sizes_searched():
    # A budget above the cap searches the same sizes as the cap, and no
    # budget at all means the cap.
    k37 = complete_bipartite(3, 7)
    runs = [is_one_planar(k37, budget) for budget in (8, 20, None)]
    assert [(r.verdict, r.stats.cap, len(r.stats.sizes)) for r in runs] == [("no", 8, 9)] * 3
    counts = [[(s.size, s.nodes, s.leaves) for s in r.stats.sizes] for r in runs]
    assert counts[0] == counts[1] == counts[2]
    assert is_one_planar(Graph.make(range(3), [])).crossings == 0  # size 0 needs no cap


def test_counting_bound_above_the_crossing_cap_answers_no_without_a_search():
    # K5,5: 25 - (2 * 10 - 4) = 9 crossings needed, at most 10 - 2 = 8 possible.
    res = is_one_planar(complete_bipartite(5, 5), 10)
    assert (res.verdict, res.stats.lower_bound, res.stats.cap) == ("no", 9, 8)
    assert [s.size for s in res.stats.sizes] == list(range(9))
    assert all(s.skipped and s.nodes == s.leaves == 0 for s in res.stats.sizes)


# -- orbit order -----------------------------------------------------------------


def test_k37_search_is_small_for_its_plain_labels(monkeypatch):
    # 13,590 planarity calls when orbits were numbered by their least pair,
    # 2,541 when each size decided its forced-uncrossed verdicts afresh,
    # 1,764 before the rim bound, 635 before it filtered the allowed sets
    # (when inner nodes were tested too), 93 leaves and 1,992 nodes before
    # children kept their pair's swaps, 68 leaves and 1,244 nodes before
    # the face bound; 52 leaves and 668 nodes now.  Every leaf went to the
    # left-right test before the triangle count, which rejects 41 of the
    # 52; 11 reach it now, also with an isolated vertex, which the count's
    # N' leaves out.
    calls = []
    monkeypatch.setattr(onecross.oracle, "lr_planar", lambda *a: calls.append(1) or lr_planar(*a))
    k37 = complete_bipartite(3, 7)
    for graph in (k37, BipartiteGraph.make(k37.black, k37.white | {10}, k37.edges)):
        calls.clear()
        res = is_one_planar(graph, 6)
        assert res.verdict == "no"
        assert sum(s.leaves for s in res.stats.sizes) <= 55
        assert sum(s.nodes for s in res.stats.sizes) <= 700
        assert len(calls) <= 11


def test_k38_search_is_small():
    # "no" by Zarankiewicz's crossing number 12 of K3,8: 20,223 nodes
    # before children kept their pair's swaps, 12,695 before the face
    # bound, 9,068 now.
    res = is_one_planar(complete_bipartite(3, 8), 8)
    assert res.verdict == "no"
    assert sum(s.nodes for s in res.stats.sizes) <= 9500


def test_best46_search_is_small():
    # best_known(4, 6): twin classes of sizes 3, 3, 3 and 1 leave the orbit
    # branching with little symmetry.  138,425 planarity calls before the
    # rim bound, 7,900 before it filtered the allowed sets, 261 before pair
    # swaps, 240 (and 10,890 nodes) before the face bound, 66 (and 5,036
    # nodes) now.
    res = is_one_planar(best_known(4, 6).drawing.graph, 6)
    assert (res.verdict, res.crossings) == ("yes", 6)
    assert sum(s.leaves for s in res.stats.sizes) <= 70


def test_k55_less_three_independent_edges_search_is_small():
    # balanced(5)'s graph: K5,5 less the edges 0-5, 1-6 and 2-7, "yes" at
    # its counting bound 6.  170,579 nodes before the face bound, 29,240 now.
    graph = balanced(5).graph
    assert graph.edges == complete_bipartite(5, 5).edges - {(0, 5), (1, 6), (2, 7)}
    res = is_one_planar(graph, 6)
    assert (res.verdict, res.crossings) == ("yes", 6)
    assert sum(s.nodes for s in res.stats.sizes) <= 30000


def test_k46_sharing_a_white_vertex_is_no_through_budget_8():
    # One of the three 22-edge subgraphs of K4,6: the two missing edges
    # share a white vertex.  The counting bound asks for 6 crossings; the
    # rim and face bounds empty sizes 6 to 8 by counting alone (10 leaves
    # were tested at size 6 before the face bound; 3,574 / 3,688 / 4,249
    # planarity calls before the rim filter).
    k46 = complete_bipartite(4, 6)
    graph = BipartiteGraph.make(k46.black, k46.white, k46.edges - {(0, 4), (1, 4)})
    # Every searched size's nodes, rim cuts, corner cuts and leaves are
    # pinned, so a change to how the search branches must keep each count.
    res = is_one_planar(graph, 8)
    assert (res.verdict, res.stats.lower_bound) == ("no", 6)
    assert [(s.size, s.nodes, s.rim_cuts, s.corner_cuts, s.leaves)
            for s in res.stats.sizes if not s.skipped] == [
        (6, 1019, 2126, 1020, 0), (7, 9228, 40124, 2502, 0), (8, 26938, 140056, 1865, 0)]


def root_orbit_shapes(graph):
    """(orbit size, sorted endpoint class sizes) of each first-level orbit, in order."""
    search = _Search(graph, None)
    search.make_pairs()
    labels, reps = search.orbits(range(len(search.pairs)), search.classes)
    sizes = Counter(labels)
    class_size = Counter(search.classes)
    return [(sizes[j], sorted(class_size[search.classes[v]] for v in search.pair_ends[r]))
            for j, r in enumerate(reps)]


@pytest.mark.parametrize("graph", [complete_bipartite(3, 7), complete_bipartite(4, 4),
                                   best_known(4, 6).drawing.graph],
                         ids=["K3,7", "K4,4", "best46"])
def test_root_orbit_order_does_not_depend_on_labels(graph):
    shapes = root_orbit_shapes(graph)
    assert [size for size, _ in shapes] == sorted(size for size, _ in shapes)
    for seed in (1, 2, 3):
        assert root_orbit_shapes(relabel(graph, seed)) == shapes
