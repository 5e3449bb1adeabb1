import hashlib
import itertools
import json
import random
import time
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from onecross.constructions import balanced, best_known
from onecross.drawing import (
    BipartiteGraph,
    Graph,
    crossing_count,
    crossing_key,
    edge_key,
    recover_graph,
    validate,
)
from onecross.formats import drawing_to_document, dumps_document
from onecross.oracle import (
    CrossingAssignment,
    OracleError,
    _candidate_pairs,
    _over_edge_bound,
    _Search,
    _two_color,
    gadget_planarize,
    is_one_planar,
    min_crossings,
    planarity_test,
)
import onecross.oracle
import onecross.plane_map
from onecross.planarity import is_planar
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
    """A search far longer than any time limit below: K4,6 less two disjoint
    edges, 22 edges, at budget SLOW_BUDGET is a "no" after 77,931 planarity
    calls, about 20 s on a 2-CPU host, forty times the longest limit."""
    k46 = complete_bipartite(4, 6)
    return BipartiteGraph.make(k46.black, k46.white, k46.edges - {(0, 4), (1, 5)})


SLOW_BUDGET = 8


# -- planarity test ----------------------------------------------------------


def test_planarity_k4_planar_with_witness():
    res = planarity_test(list(complete(4).edges))
    assert res.planar
    assert euler_check(res.witness).planar


def test_planarity_k5_k33_nonplanar():
    assert not planarity_test(list(complete(5).edges)).planar
    assert not planarity_test(list(complete_bipartite(3, 3).edges)).planar


def test_planarity_handles_parallel_edges():
    res = planarity_test([(0, 1), (0, 1), (1, 2)])
    assert res.planar
    assert len(res.witness.edge_darts) == 3


def forbid_nx_planarity(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("nx.check_planarity called")

    monkeypatch.setattr(onecross.oracle.nx, "check_planarity", forbidden)


def test_edge_bound_rejects_k5_without_networkx(monkeypatch):
    forbid_nx_planarity(monkeypatch)
    res = planarity_test(list(complete(5).edges))  # 10 > 3 * 5 - 6
    assert (res.planar, res.edge_bound) == (False, True)


def test_edge_bound_counts_neither_parallel_copies_nor_isolated_vertices():
    doubled = planarity_test(list(complete(4).edges) * 2)  # 12 edges, 6 of them simple
    assert doubled.planar and not doubled.edge_bound
    assert euler_check(doubled.witness).planar
    assert planarity_test(list(complete(4).edges), range(9)).planar
    k33 = planarity_test(list(complete_bipartite(3, 3).edges), range(9))
    assert not k33.planar and not k33.edge_bound  # 9 <= 3 * 6 - 6: the left-right test decides


def test_networkx_disagreeing_with_the_left_right_test_raises(monkeypatch):
    monkeypatch.setattr(onecross.oracle.nx, "check_planarity", lambda *a, **k: (False, None))
    edges = list(complete(4).edges)
    assert is_planar(edges)
    with pytest.raises(OracleError, match="left-right"):
        planarity_test(edges)


def test_left_right_test_agrees_with_networkx_on_search_graphs(monkeypatch):
    # Every graph that passes the edge bound, and so reaches the left-right
    # test, in two searches: K3,7 at budget 6, a "no", and K4,4 up to its
    # least size, 4, with the accepted leaf's witness test.  The rim bound
    # is switched off: it cuts most subtrees before their graphs are built,
    # and without it the searches test every graph they test with it, and
    # the graphs of the leaves and inner nodes below its cuts besides.
    monkeypatch.setattr(_Search, "rim_cut", lambda *a: False)
    graphs = []
    kernel = onecross.oracle.lr_planar
    monkeypatch.setattr(onecross.oracle, "lr_planar",
                        lambda n, edges: graphs.append((n, list(edges))) or kernel(n, edges))
    assert is_one_planar(complete_bipartite(3, 7), 6).verdict == "no"
    assert min_crossings(complete_bipartite(4, 4), 4) == 4
    verdicts = Counter()
    for n, edges in graphs:
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        want = nx.check_planarity(g)[0]
        assert kernel(n, edges) == want, edges
        verdicts[want] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 500


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


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(graph=multigraphs())
def test_left_right_test_agrees_with_networkx_on_random_graphs(graph):
    vertices, edges = graph
    g = nx.Graph(edges)
    g.add_nodes_from(vertices)
    want = nx.check_planarity(g)[0]
    assert is_planar(edges) == want
    assert planarity_test(edges, vertices).planar == want


# -- gadget ------------------------------------------------------------------


def test_gadget_empty_assignment_is_identity():
    g = complete(4)
    gg = gadget_planarize(g, [])
    assert sorted(gg.edges) == sorted(g.edges)


def test_gadget_rejects_adjacent_pair():
    g = cycle(4)
    with pytest.raises(OracleError, match="adjacent"):
        CrossingAssignment.make([(((0, 1)), ((1, 2)))])


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
            rot_lists = {
                v: [( all_edges[i][0] if all_edges[i][1] == v else all_edges[i][1], i)
                    for i in orders[v]]
                for v in orders
            }
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


def test_planarity_witness_stacks_parallel_copies():
    # Each pair of vertices carries two or three copies; the witness embeds
    # every copy, and the Euler audit inside planarity_test accepts it.
    edges = [(0, 1), (1, 0), (1, 2), (2, 1), (1, 2), (2, 0), (0, 2), (2, 3)]
    res = planarity_test(edges)
    assert res.planar
    assert len(res.witness.edge_darts) == len(edges)
    assert euler_check(res.witness).planar
    assert not planarity_test(list(complete(5).edges) * 2).planar


def test_balanced4_graph_needs_exactly_four_crossings():
    # The 4+4 ring construction uses 4 crossings; exhaustion shows none fewer
    # suffice, so the bracket [1, 4] closes at 4.
    g = balanced(4).graph
    assert min_crossings(g, 4) == 4


def test_agreement_with_constructions_small():
    for d in (balanced(2), balanced(3), best_known(1, 5).drawing,
              best_known(2, 6).drawing, best_known(3, 5).drawing, best_known(4, 5).drawing):
        res = is_one_planar(recover_graph(d), crossing_count(d))
        assert res.verdict == "yes"
        assert res.crossings <= crossing_count(d)


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


@pytest.mark.parametrize("timeout", [-1, -0.5, float("nan")])
def test_negative_or_nan_timeout_is_rejected(timeout):
    with pytest.raises(OracleError, match="timeout"):
        min_crossings(complete_bipartite(3, 3), 1, timeout=timeout)


def test_zero_timeout_is_accepted():
    assert is_one_planar(complete_bipartite(3, 3), 0, timeout=0).verdict == "no"


def test_a_missing_module_is_not_found_at_import():
    with pytest.raises(ModuleNotFoundError):
        onecross.oracle._lazy_module("onecross_no_such_module")


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
                   "rules": ["count", "twins", "forced", "small-orbits-first", "rims"]}
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

    rules = ["count", "twins", "forced", "small-orbits-first", "rims"]
    write({"edges": edges, "budget": 2, "rules": rules})
    assert is_one_planar(k34, 2, checkpoint=ck).verdict == "no"
    # Written before the rim bound: its subtrees were cut by other rules.
    write({"edges": edges, "budget": 2, "rules": rules[:-1]})
    res = is_one_planar(k34, 2, checkpoint=ck)
    assert (res.verdict, res.crossings) == ("yes", 2)
    write({"edges": edges, "budget": 2})  # written before the rule set was recorded
    res = is_one_planar(k34, 2, checkpoint=ck)
    assert (res.verdict, res.crossings) == ("yes", 2)
    # Written before orbits were ordered smallest first: its next_root
    # indexes orbits in another order.
    write({"edges": edges, "budget": 2, "rules": rules[:3]})
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
    from onecross.oracle import _drawing_from_gadget

    k34 = complete_bipartite(3, 4)
    crossings = is_one_planar(k34, 2).drawing.crossings
    gadget = gadget_planarize(k34, crossings)
    witness = planarity_test(gadget.edges, k34.vertices).witness
    made = []
    make = onecross.plane_map._make
    monkeypatch.setattr(onecross.plane_map, "_make", lambda *a: made.append(1) or make(*a))
    d = _drawing_from_gadget(k34, gadget, witness)
    assert (len(gadget.rims), len(made)) == (8, 1)
    assert validate(d).passed


# Each graph is searched as given and relabelled.  The outputs digest holds
# every verdict, least crossing number, counting bound and witness
# document: what a caller sees, which no pruning rule may change.  The
# counters digest holds the per-size search counters (planarity_s aside):
# they depend on every planarity verdict the search saw, so an unchanged
# digest means unchanged answers from every planarity test, not just from
# the final ones, and a new pruning rule changes it by design.
OUTPUTS_CORPUS = [(complete_bipartite(3, 4), 2), (complete(6), 3), (complete_bipartite(4, 4), 4),
                  (complete_bipartite(3, 5), 3), (complete_bipartite(3, 7), 6)]
OUTPUTS_DIGEST = "690ac9960e6834cc23e613e10ec7c19788a28c06998c414ffd6b0001adbd3ea1"
COUNTERS_DIGEST = "95e5165ab5ad44dd1a8d2ed74c72b34527ab8429fdb1b97d2ac7a7b5a6faf8ca"


def test_oracle_outputs_are_unchanged():
    outputs, counters = hashlib.sha256(), hashlib.sha256()
    for graph, budget in OUTPUTS_CORPUS:
        for g in (graph, relabel(graph, 7)):
            res = is_one_planar(g, budget)
            outputs.update(json.dumps([res.verdict, res.crossings,
                                       res.stats.lower_bound]).encode())
            if res.drawing is not None:
                outputs.update(dumps_document(drawing_to_document(res.drawing)).encode())
            sizes = res.stats.to_json()["sizes"]
            for size in sizes:
                del size["planarity_s"]
            counters.update(json.dumps(sizes).encode())
    assert outputs.hexdigest() == OUTPUTS_DIGEST
    assert counters.hexdigest() == COUNTERS_DIGEST


# -- pruning rules -------------------------------------------------------------


def plain_search(graph, budget):
    """Reference: the least size of an assignment with a planar gadget graph
    (at most ``budget``), trying every assignment; None if there is none."""
    pairs = _candidate_pairs(sorted(graph.edges))

    def assignments(size, start, used):
        if size == 0:
            yield []
            return
        for i in range(start, len(pairs)):
            e, f = pairs[i]
            if e not in used and f not in used:
                for rest in assignments(size - 1, i + 1, used | {e, f}):
                    yield [pairs[i]] + rest

    for size in range(budget + 1):
        for chosen in assignments(size, 0, frozenset()):
            if planarity_test(gadget_planarize(graph, chosen).edges, graph.vertices).planar:
                return size
    return None


def random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 8)
    pool = list(itertools.combinations(range(n), 2))
    edges = rng.sample(pool, rng.randint(2 * n, min(16, len(pool))))
    return Graph.make(range(n), edges)


DIFFERENTIAL = (
    [(f"K{n}", complete(n), 3) for n in range(3, 7)]
    + [(f"K{a},{b}", complete_bipartite(a, b), 2)
       for a in range(1, 4) for b in range(a, 8 - a)]
    + [("K6-b2", complete(6), 2), ("K3,4-b1", complete_bipartite(3, 4), 1),
       ("K3,3-b0", complete_bipartite(3, 3), 0)]
    + [(f"random{seed}", random_graph(seed), 1 + seed % 3) for seed in range(40)]
    # Counting bound 1, least size 3: size 3 reuses verdicts that size 2 decided.
    + [("K6+pendant-b3", Graph.make(range(7), list(complete(6).edges) + [(0, 6)]), 3)]
)


def record_nodes(monkeypatch):
    """Every node that the searches meet from now on, as (search, chosen,
    R, size, cut), recorded by wrapping ``_Search.rim_cut``."""
    nodes = []
    rim_cut = _Search.rim_cut

    def recording(self, chosen, rims, more):
        cut = rim_cut(self, chosen, rims, more)
        nodes.append((self, tuple(chosen), rims, len(chosen) + more, cut))
        return cut

    monkeypatch.setattr(_Search, "rim_cut", recording)
    return nodes


def test_pruned_search_agrees_with_plain_search(monkeypatch):
    nodes = record_nodes(monkeypatch)
    nos = reusing = 0
    for name, graph, budget in DIFFERENTIAL:
        want = plain_search(graph, budget)
        nos += want is None
        for g in (graph, relabel(graph, 7)):
            res = is_one_planar(g, budget)
            reusing += any(s.forced_reused for s in res.stats.sizes)
            assert res.crossings == want, name
            assert res.verdict == ("no" if want is None else "yes"), name
            if res.verdict == "yes":
                assert validate(res.drawing).passed, name
                assert recover_graph(res.drawing).edges == g.edges, name
    assert nos >= 3
    assert reusing >= 1  # the comparison covers verdicts reused across sizes
    # ... and subtrees that the rim bound cut above their leaves.
    assert sum(cut and len(chosen) < size for _, chosen, _, size, cut in nodes) >= 1


def rims_from_scratch(search, chosen):
    """R of a node by its definition: the distinct rims of its chosen pairs
    that are not uncrossed edges of the graph."""
    pairs = [search.pairs[p] for p in chosen]
    uncrossed = set(search.edges) - {e for pair in pairs for e in pair}
    rims = {edge_key(*rim) for (a, b), (c, d) in pairs for rim in ((a, c), (c, b), (b, d), (d, a))}
    return len(rims - uncrossed)


@pytest.mark.parametrize("graph,budget", [(complete_bipartite(3, 7), 6),
                                          (complete_bipartite(4, 4), 4)], ids=["K3,7", "K4,4"])
def test_incremental_rim_count_equals_a_fresh_count(graph, budget, monkeypatch):
    nodes = record_nodes(monkeypatch)
    is_one_planar(graph, budget)
    seen = {}
    leaves = Counter()
    for search, chosen, rims, size, cut in nodes:
        assert rims == rims_from_scratch(search, chosen), chosen
        assert rims >= seen.get(chosen[:-1], 0), chosen  # R never falls down the tree
        seen[chosen] = rims
        if len(chosen) == size:
            # At a leaf the cut is exactly the edge bound on its gadget graph.
            gadget = gadget_planarize(graph, [search.pairs[p] for p in chosen])
            assert cut == _over_edge_bound({edge_key(*e) for e in gadget.edges}), chosen
            leaves[cut] += 1
    assert leaves[True] and leaves[False]
    for search in {node[0] for node in nodes}:  # every count is undone on the way up
        assert not any(search.rim_count)
        assert sorted(k for k, flag in enumerate(search.uncrossed) if flag) == \
            sorted(search.edge_rim)


def spread(graph):
    """``graph`` with vertex v renamed 3v + 2, so that positions and labels differ."""
    edges = [(3 * u + 2, 3 * v + 2) for u, v in graph.edges]
    if isinstance(graph, BipartiteGraph):
        return BipartiteGraph.make({3 * v + 2 for v in graph.black},
                                   {3 * v + 2 for v in graph.white}, edges)
    return Graph.make({3 * v + 2 for v in graph.vertices}, edges)


def test_integer_gadget_graphs_equal_the_labelled_ones(monkeypatch):
    # At every forced test and leaf, the position-pair graph the search
    # tests is the simple graph of gadget_planarize on the same pairs, with
    # each vertex renamed by its position and the false node of the i-th
    # chosen pair by n + i, and the search's verdict is planarity_test's.
    tested = []
    gadget, planar = _Search.gadget, _Search.planar

    def building(self, chosen, crossable):
        simple = gadget(self, chosen, crossable)
        tested.append([self, list(chosen), set(crossable), simple])
        return simple

    def deciding(self, simple, hubs):
        verdict = planar(self, simple, hubs)
        assert simple is tested[-1][3] and hubs == len(tested[-1][1])
        tested[-1].append(verdict)
        return verdict

    monkeypatch.setattr(_Search, "gadget", building)
    monkeypatch.setattr(_Search, "planar", deciding)
    assert is_one_planar(complete_bipartite(3, 7), 6).verdict == "no"
    assert min_crossings(spread(complete_bipartite(4, 4)), 4) == 4
    for _, graph, budget in DIFFERENTIAL:
        is_one_planar(spread(graph), budget)
    kinds = Counter()
    for search, chosen, crossable, simple, verdict in tested:
        pairs = [search.pairs[p] for p in chosen]
        kept = [e for i, e in enumerate(search.edges) if i not in crossable]
        sub = Graph(search.graph.vertices, frozenset(kept + [e for pair in pairs for e in pair]))
        labelled = gadget_planarize(sub, pairs)
        name = {v: i for i, v in enumerate(sorted(search.graph.vertices))}
        for w, pair in labelled.false_nodes.items():
            name[w] = len(search.graph.vertices) + [crossing_key(*q) for q in pairs].index(pair)
        assert simple == {edge_key(name[u], name[v]) for u, v in labelled.edges}, chosen
        assert verdict == planarity_test(labelled.edges, search.graph.vertices).planar, chosen
        kinds[len(crossable) > 2 * len(chosen), verdict] += 1
    assert set(kinds) == {(False, False), (False, True), (True, False), (True, True)}


def test_two_colouring_equals_networkx():
    def nx_two_color(graph):
        g = nx.Graph()
        g.add_nodes_from(graph.vertices)
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
        pairs = _candidate_pairs(sorted(graph.edges))
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
            assert is_planar(gadget.edges) == want, (name, chosen)
            verdicts[res.planar, res.edge_bound] += 1
    assert set(verdicts) == {(True, False), (False, False), (False, True)}


@pytest.mark.parametrize("graph,budget", [(complete_bipartite(3, 4), 2), (complete(6), 3),
                                          (complete_bipartite(3, 5), 3),
                                          (complete_bipartite(3, 7), 6)],
                         ids=["K3,4", "K6", "K3,5", "K3,7"])
def test_search_stats_account_for_every_planarity_call(graph, budget, monkeypatch):
    calls = []
    planar = _Search.planar
    monkeypatch.setattr(_Search, "planar", lambda *a: calls.append(1) or planar(*a))
    nodes = record_nodes(monkeypatch)
    nx_calls = []
    check = onecross.oracle.nx.check_planarity
    monkeypatch.setattr(onecross.oracle.nx, "check_planarity",
                        lambda *a, **k: nx_calls.append(1) or check(*a, **k))
    res = is_one_planar(graph, budget)
    stats = res.stats
    assert [s.size for s in stats.sizes] == list(range(budget + 1))
    for s in stats.sizes:
        assert s.planarity_calls == s.leaves + s.forced_tests
        assert s.forced_cuts <= s.forced_tests
        # The rim bound answers every leaf that the edge bound would.
        assert s.edge_bound_rejects <= s.forced_tests
        assert s.skipped == (s.size < stats.lower_bound)
        if s.skipped:
            assert s.planarity_calls == s.forced_reused == s.rim_cuts == 0
    assert sum(s.rim_cuts for s in stats.sizes) == sum(node[-1] for node in nodes)
    # Verdicts are reused from smaller sizes only: K3,7 searches sizes 5 and 6.
    searched = [s.forced_reused for s in stats.sizes if not s.skipped]
    assert searched[0] == 0 and all(searched[1:])
    assert sum(s.planarity_calls for s in stats.sizes) == len(calls)
    # networkx only embeds the accepted leaf: never during a "no".
    assert len(nx_calls) == sum(s.witnesses for s in stats.sizes)
    assert res.assignments_tested == sum(s.leaves for s in stats.sizes)
    assert sum(s.witnesses for s in stats.sizes) == (res.verdict == "yes")


def test_counting_bound_answers_no_without_planarity_calls(monkeypatch):
    def forbidden(*args):
        raise AssertionError("planarity test called")

    monkeypatch.setattr(onecross.oracle, "planarity_test", forbidden)
    res = is_one_planar(complete_bipartite(3, 7), 4)  # 21 - (2 * 10 - 4) = 5 > 4
    assert res.verdict == "no"
    assert res.stats.lower_bound == 5
    assert all(s.skipped and s.planarity_calls == 0 for s in res.stats.sizes)


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

    k5 = complete(5)
    assert _counting_bound(k5) == 10 - 9
    assert _counting_bound(Graph.make(range(9), k5.edges)) == 1
    assert _counting_bound(complete(6)) == 15 - 12
    assert _counting_bound(complete_bipartite(3, 5)) == 15 - 12
    assert _counting_bound(Graph.make(range(2), [(0, 1)])) == 0


# -- orbit order -----------------------------------------------------------------


def test_k37_search_is_small_for_its_plain_labels():
    # 13,590 planarity calls when orbits were numbered by their least pair,
    # 2,541 when each size decided its forced verdicts afresh, 1,764 before
    # the rim bound; 635 now.
    res = is_one_planar(complete_bipartite(3, 7), 6)
    assert res.verdict == "no"
    assert sum(s.planarity_calls for s in res.stats.sizes) <= 700


def test_best46_search_is_small():
    # best_known(4, 6): twin classes of sizes 3, 3, 3 and 1 leave the orbit
    # branching with little symmetry.  138,425 planarity calls before the
    # rim bound, 7,900 now.
    res = is_one_planar(best_known(4, 6).drawing.graph, 6)
    assert (res.verdict, res.crossings) == ("yes", 6)
    assert sum(s.planarity_calls for s in res.stats.sizes) <= 10_000


def test_every_forced_verdict_equals_a_fresh_test(monkeypatch):
    # K3,6 minus an edge at budget 4 searches sizes 3 and 4 from several
    # first-level orbits, and size 4 meets size-3 nodes of both verdicts.
    k36 = complete_bipartite(3, 6)
    graph = BipartiteGraph.make(k36.black, k36.white, k36.edges - {(0, 3)})
    calls = []
    forced_planar = _Search.forced_planar

    def recording(self, chosen, below):
        planar = forced_planar(self, chosen, below)
        calls.append((tuple(chosen), list(below), planar))
        return planar

    monkeypatch.setattr(_Search, "forced_planar", recording)
    assert is_one_planar(graph, 4).crossings == 4
    monkeypatch.undo()
    fresh = {}
    repeated = set()
    for chosen, below, planar in calls:
        if chosen in fresh:
            repeated.add(planar)
        else:
            fresh[chosen] = _Search(graph, None).forced_planar(list(chosen), below)
        assert planar == fresh[chosen], chosen
    assert repeated == {True, False}


def test_k37_planarizes_each_forced_subgraph_once(monkeypatch):
    k37 = complete_bipartite(3, 7)
    forced = Counter()
    gadget = _Search.gadget

    def recording(self, chosen, crossable):
        if len(crossable) > 2 * len(chosen):  # a forced test, not a leaf
            forced[tuple(chosen)] += 1
        return gadget(self, chosen, crossable)

    monkeypatch.setattr(_Search, "gadget", recording)
    res = is_one_planar(k37, 6)
    assert res.verdict == "no"
    assert forced and max(forced.values()) == 1
    assert sum(forced.values()) == sum(s.forced_tests for s in res.stats.sizes)


def root_orbit_shapes(graph):
    """(orbit size, sorted endpoint class sizes) of each first-level orbit, in order."""
    search = _Search(graph, None)
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
