"""Acceptance suite: every exit criterion at its stated tolerance (exact).

Each criterion is one test that prints a single PASS line on success; run
``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import json
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from onecross.bounds import conjecture_gap, lower_bound, upper_bound
from onecross.cli import main
from onecross.constructions import (
    b_family,
    balanced,
    best_known,
    family_formulas,
    k36_family,
    near_balanced,
    w3_family,
)
from onecross.drawing import (
    BipartiteGraph,
    Graph,
    black_extension,
    validate,
)
from onecross.formats import document_to_drawing, drawing_to_document, parse_document
from onecross.oracle import is_one_planar, min_crossings
from onecross.plane_map import MapError, PlaneMap, euler_check


def _classes(d):
    return tuple(sorted((len(d.graph.black), len(d.graph.white))))


@pytest.fixture(scope="module")
def w3_grid():
    out = {}
    for x in range(3, 13):
        for y in (6 * x - 12, 6 * x - 10, 6 * x - 6):
            out[(x, y)] = w3_family(x, y)
    return out


@pytest.fixture(scope="module")
def b_grid():
    out = {}
    for x in range(3, 21):
        for y in range(max(x, 6), 6 * x - 12 + 1):
            if (x, y) == (11, 11):
                continue
            out[(x, y)] = b_family(x, y)
    return out


@pytest.fixture(scope="module")
def balanced_grid():
    sizes = list(range(2, 41, 2)) + list(range(7, 22, 2)) + [3, 5]
    return {x: balanced(x) for x in sizes}


@pytest.fixture(scope="module")
def near_grid():
    out = {}
    for x in range(4, 16):
        for z in range(0, 11):
            out[(x, x + z)] = near_balanced(x, x + z)
    return out


def test_criterion_01_w3_family_exactness(w3_grid):
    for (x, y), d in w3_grid.items():
        assert validate(d).passed, (x, y)
        assert _classes(d) == (x, y)
        assert d.edge_count == 2 * (x + y) + 4 * x - 12, (x, y)
        assert len(d.crossings) == 6 * x - 12, (x, y)
    print(f"\nACCEPTANCE 1 PASS: w3 family exact on {len(w3_grid)} grid points")


def test_criterion_02_b_family_exactness(b_grid):
    for (x, y), d in b_grid.items():
        assert validate(d).passed, (x, y)
        assert _classes(d) == (x, y)
        floor_form = math.ceil(Fraction(5 * (x + y), 2) + Fraction(x, 2) - Fraction(17, 2))
        assert d.edge_count >= floor_form, (x, y)
        u = y % 6
        if u == 0:
            assert d.edge_count == 3 * (x + y - (y // 6 + 2)), (x, y)
        else:
            assert d.edge_count == (5 * (x + y) + x + u) // 2 - 9, (x, y)
    print(f"\nACCEPTANCE 2 PASS: b family exact on {len(b_grid)} grid points")


def test_criterion_03_balanced_exactness(balanced_grid):
    for x, d in balanced_grid.items():
        assert validate(d).passed, x
        assert _classes(d) == (x, x)
        if x == 3:
            assert d.edge_count == 9
        elif x == 5:
            assert d.edge_count == 22
        elif x % 2 == 0:
            assert d.edge_count == 6 * x - 8, x
        else:
            k = x // 2
            assert d.edge_count == 12 * k - 2 == 3 * (4 * k + 2) - 8, x
    print(f"\nACCEPTANCE 3 PASS: balanced family exact on {len(balanced_grid)} sizes")


def test_criterion_04_near_balanced_exactness(near_grid):
    for (x, y), d in near_grid.items():
        z = y - x
        assert validate(d).passed, (x, y)
        assert _classes(d) == (x, y)
        assert d.edge_count == 3 * (2 * x + z) - 8 - z, (x, y)
    print(f"\nACCEPTANCE 4 PASS: near-balanced exact on {len(near_grid)} grid points")


def test_criterion_05_x3_tight_regime():
    for y in range(6, 101):
        d = k36_family(y)
        assert validate(d).passed, y
        assert _classes(d) == (3, y)
        assert d.edge_count == 2 * (3 + y), y
        assert upper_bound(3, y) == 2 * (3 + y), y
    print("\nACCEPTANCE 5 PASS: x=3 regime fully reproduced for 6 <= y <= 100")


def test_criterion_06_bound_consistency():
    for x in range(1, 301):
        for y in range(x, 301):
            assert lower_bound(x, y) <= upper_bound(x, y), (x, y)
    # Generators realize the closed forms: count edges of built drawings on a
    # subgrid (kept below the one-minute budget) plus larger spot checks.
    checked = 0
    for x in range(1, 13):
        for y in range(x, 41):
            bk = best_known(x, y)
            assert bk.edges == lower_bound(x, y), (x, y)
            checked += 1
    for x, y in ((3, 200), (20, 30), (15, 100), (40, 40), (8, 36)):
        assert best_known(x, y).edges == lower_bound(x, y), (x, y)
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: grid consistent to 300; {checked} drawings "
          "match their closed forms")


def test_criterion_07_oracle_ground_truth():
    import itertools

    def complete(n):
        return Graph.make(range(n), itertools.combinations(range(n), 2))

    def complete_bipartite(a, b):
        blacks = list(range(a))
        whites = list(range(a, a + b))
        return BipartiteGraph.make(blacks, whites,
                                   [(i, j) for i in blacks for j in whites])

    c4 = Graph.make(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    checks = []
    res = is_one_planar(c4, 0)
    checks.append(("C4", res, 0))
    res = is_one_planar(complete(4), 0)
    checks.append(("K4", res, 0))
    assert min_crossings(complete(5), 2) == 1
    checks.append(("K5", is_one_planar(complete(5), 1), 1))
    assert min_crossings(complete_bipartite(3, 3), 2) == 1
    checks.append(("K3,3", is_one_planar(complete_bipartite(3, 3), 1), 1))
    checks.append(("K3,4", is_one_planar(complete_bipartite(3, 4), 2), None))
    for name, res, want in checks:
        assert res.verdict == "yes", name
        if want is not None:
            assert res.crossings == want, name
        assert validate(res.drawing).passed, name
    print("\nACCEPTANCE 7 PASS: oracle ground truths with certified witnesses")


def test_criterion_08_crossing_ceiling(w3_grid, b_grid, balanced_grid, near_grid):
    total = 0
    for grid in (w3_grid, b_grid, near_grid):
        for (x, _), d in grid.items():
            if x >= 2:
                assert len(d.crossings) <= 6 * x - 12, (x, d.edge_count)
                total += 1
    for x, d in balanced_grid.items():
        if x >= 2:
            assert len(d.crossings) <= 6 * x - 12, x
            total += 1
    print(f"\nACCEPTANCE 8 PASS: crossing ceiling respected by {total} drawings")


def _networkx_planar(m):
    """networkx's verdict on the embedding of the simple map ``m``."""
    owner, opp = m.dart_vertex, m.opposite
    embedding = nx.PlanarEmbedding()
    embedding.set_data({v: [owner[opp[dart]] for dart in rot] for v, rot in m.rotations.items()})
    assert all(len(embedding[v]) == len(rot) for v, rot in m.rotations.items() if rot), \
        "map is not simple"
    try:
        embedding.check_structure()
    except nx.NetworkXException:
        return False
    return True


def test_euler_check_agrees_with_networkx_on_family_drawings(w3_grid, b_grid, balanced_grid,
                                                             near_grid):
    # The certifier's planarity verdict against an implementation it shares
    # no code with, on every drawing of the four grids.
    drawings = [d for grid in (w3_grid, b_grid, balanced_grid, near_grid)
                for d in grid.values()]
    assert len(drawings) == 1022
    for d in drawings:
        m = d.planified
        assert (euler_check(m).planar, _networkx_planar(m)) == (True, True), (d.x, d.y)


def test_euler_check_agrees_with_networkx_on_rotation_transpositions(w3_grid, b_grid,
                                                                     balanced_grid, near_grid):
    # Swap two darts in the rotation of one true or false vertex of degree at
    # least 3, or mirror the whole drawing.  Both checks must give the same
    # verdict on the mutant, and the mutant drawing may pass validate only
    # if networkx calls it planar and it survives a round trip through its
    # document.
    rng = random.Random(2015)
    sources = [w3_grid[(4, 14)], b_grid[(5, 13)], balanced_grid[5], balanced_grid[8],
               near_grid[(4, 6)], near_grid[(6, 12)]]
    mutants = [_mirror(d) for d in sources]
    at_false = 0
    for k in range(300):
        d = sources[k % len(sources)]
        m = d.planified
        v = rng.choice([u for u, rot in m.rotations.items() if len(rot) >= 3])
        rot = list(m.rotations[v])
        i, j = rng.sample(range(len(rot)), 2)
        rot[i], rot[j] = rot[j], rot[i]
        mutants.append(d._replace(planified=PlaneMap({**m.rotations, v: rot}, m.opposite)))
        at_false += v in d.false_vertices
    assert 0 < at_false < 300
    passed = 0
    for k, mutant in enumerate(mutants):
        planar = _networkx_planar(mutant.planified)
        assert euler_check(mutant.planified).planar is planar, k
        if validate(mutant).passed:
            assert planar, k
            assert _round_trips(mutant), k
            passed += 1
    assert passed == len(sources)  # the mirror images; no transposition passes


def _mirror(d):
    """``d`` with every rotation reversed: the mirror image, another drawing of its graph."""
    m = d.planified
    return d._replace(planified=PlaneMap({v: rot[::-1] for v, rot in m.rotations.items()},
                                         m.opposite))


def _round_trips(d):
    """Whether ``d`` is written to a document and parsed back as a valid drawing."""
    return validate(parse_document(drawing_to_document(d))).passed


def _spokes_match_pairs(d):
    """Whether each false vertex's four neighbours are the ends of its pair."""
    m = d.planified
    return all(sorted(m.dart_vertex[m.opposite[dart]] for dart in m.rotations[w]) == sorted(e + f)
               for w, (e, f) in d.false_vertices.items())


def test_partner_swaps_and_dart_repairings_pass_only_as_valid_drawings(w3_grid, b_grid,
                                                                       balanced_grid, near_grid):
    # Two more corruptions of six grid drawings: the partners of two
    # crossings swapped (w1 gets e1 x f2, w2 gets e2 x f1), and the darts of
    # two map edges re-paired.  A mutant may pass validate only if networkx
    # accepts its map, each false vertex still sees the ends of its pair and
    # it survives a round trip through its document.  Each source's mirror
    # image is one more mutant, one that must pass.
    rng = random.Random(2015)
    sources = [w3_grid[(4, 14)], b_grid[(5, 13)], balanced_grid[5], balanced_grid[8],
               near_grid[(4, 6)], near_grid[(6, 12)]]
    mutants = [_mirror(d) for d in sources]
    loops = 0
    for k in range(300):
        d = sources[k % len(sources)]
        fv = d.false_vertices
        w1, w2 = rng.sample(sorted(fv), 2)
        (e1, f1), (e2, f2) = fv[w1], fv[w2]
        mutants.append(d._replace(false_vertices={**fv, w1: (e1, f2), w2: (e2, f1)}))
        m = d.planified
        (a, b), (c, x) = rng.sample(m.edge_darts, 2)
        if rng.random() < 0.5:
            c, x = x, c
        opposite = list(m.opposite)
        opposite[a], opposite[c], opposite[b], opposite[x] = c, a, x, b
        try:  # darts a and c now pair, and so do b and x
            mutants.append(d._replace(planified=PlaneMap(m.rotations, opposite)))
        except MapError:  # a re-pairing that makes a loop is no map
            loops += 1
    assert 0 < loops < 300
    passed = 0
    for k, mutant in enumerate(mutants):
        if validate(mutant).passed:
            assert _networkx_planar(mutant.planified), k
            assert _spokes_match_pairs(mutant), k
            assert _round_trips(mutant), k
            passed += 1
    assert passed == len(sources)  # the mirror images; no swap or re-pairing passes


def test_edge_paths_read_from_the_map_use_each_map_edge_once(w3_grid, b_grid, balanced_grid,
                                                             near_grid):
    # An uncrossed edge is one map edge joining its ends; a crossed edge is
    # two, one from each of its ends to its own false vertex.  The same
    # holds for each drawing parsed back from its document.
    drawings = [d for grid in (w3_grid, b_grid, balanced_grid, near_grid)
                for d in grid.values()]
    assert len(drawings) == 1022
    for d in [*drawings, *(parse_document(drawing_to_document(d)) for d in drawings)]:
        m, paths = d.planified, d.edge_paths
        assert paths.keys() == d.graph.edges
        assert sorted(me for path in paths.values() for me in path) == \
            [me for me, _ in m.edge_darts]
        at = {e: w for w, pair in d.false_vertices.items() for e in pair}
        for e, path in paths.items():
            want = {frozenset(e)} if e not in at else {frozenset((t, at[e])) for t in e}
            assert path == tuple(sorted(path)) and len(path) == len(want), (d.x, d.y, e)
            ends = {frozenset((m.dart_vertex[me], m.dart_vertex[m.opposite[me]])) for me in path}
            assert ends == want, (d.x, d.y, e)


def test_criterion_09_black_extension(w3_grid):
    for (x, y), d in w3_grid.items():
        m = black_extension(d)
        assert len(m.edge_darts) == len(d.planified.edge_darts) + len(d.crossings)
        new_edges = set(m.edge_darts) - set(d.planified.edge_darts)
        black = d.graph.black
        for a, b in new_edges:
            assert m.dart_vertex[a] in black and m.dart_vertex[b] in black, (x, y)
        assert euler_check(m).planar, (x, y)
    print(f"\nACCEPTANCE 9 PASS: black extension planar on {len(w3_grid)} drawings")


def test_criterion_10_conjecture_report(capsys):
    code = main(["table", "--xmax", "8", "--ymax", "60", "--conjecture", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)
    assert rows, "conjecture table is empty"
    for row in rows:
        x, y = row["x"], row["y"]
        assert x >= 3 and y >= 6 * x - 12
        assert row["lower"] <= row["conjectured_upper"]
        assert row["conjectured_upper"] <= max(row["proven_upper"],
                                               row["conjectured_upper"])
        lo, hi = row["open_interval"]
        assert lo <= hi
        if x == 3:
            assert row["conjecture_tight"], (x, y)
        else:
            assert not row["conjecture_tight"], (x, y)
            assert row["proven_upper"] > row["lower"], (x, y)
    with capsys.disabled():
        print(f"\nACCEPTANCE 10 PASS: conjecture table over {len(rows)} rows")


def test_criterion_11_optional_k37_not_drawable():
    blacks = list(range(3))
    whites = list(range(3, 10))
    k37 = BipartiteGraph.make(blacks, whites,
                              [(i, j) for i in blacks for j in whites])
    res = is_one_planar(k37, 6, timeout=120)
    assert res.verdict == "no"
    print(f"\nACCEPTANCE 11 PASS: K3,7 not drawable with 6 crossings "
          f"({res.assignments_tested} assignments tested)")


@pytest.mark.parametrize("smaller,ratio", [
    (math.isqrt, 2.075), (lambda n: n // 8, 2.494), (lambda n: n // 2, 2.997),
], ids=["sqrt-n", "n/8", "n/2"])
def test_headline_ratio_at_n_2500(smaller, ratio):
    # The paper's headline in certified drawings: about 2n edges when the
    # smaller class is sublinear in n, and not when it is a fixed share.
    n = 2500
    x = smaller(n)
    d = document_to_drawing(drawing_to_document(best_known(x, n - x).drawing))
    assert _classes(d) == (x, n - x)
    assert d.edge_count == lower_bound(x, n - x)
    assert round(d.edge_count / n, 3) == ratio
