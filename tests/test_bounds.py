from fractions import Fraction

import pytest

from onecross.bounds import (
    conjecture_gap,
    lower_bound,
    ratio_table,
    size_bounds,
    upper_bound,
)
from onecross.drawing import BipartiteGraph, DrawingError
from onecross.oracle import is_one_planar


@pytest.mark.parametrize("x,y,expected", [
    (5, 5, 22),   # even-order rule
    (3, 7, 20),   # x = 3 cap
    (3, 3, 9),    # order-6 exception
    (2, 8, 16),   # planar bipartite cap
    (1, 1, 1),    # complete-bipartite corner
    (2, 2, 4),
])
def test_upper_examples(x, y, expected):
    assert upper_bound(x, y) == expected


@pytest.mark.parametrize("x,y,expected", [
    (3, 6, 18),
    (10, 12, 56),
    (4, 12, 36),
    (1, 9, 9),
    (2, 7, 14),
])
def test_lower_examples(x, y, expected):
    assert lower_bound(x, y) == expected


def test_domain_checks():
    with pytest.raises(DrawingError):
        upper_bound(3, 2)
    with pytest.raises(DrawingError):
        lower_bound(0, 5)


def test_upper_at_most_complete_bipartite():
    for x in range(1, 40):
        for y in range(x, 80):
            assert upper_bound(x, y) <= x * y


def test_upper_nondecreasing_in_y():
    for x in range(1, 30):
        for y in range(x, 80):
            assert upper_bound(x, y) <= upper_bound(x, y + 1)


def test_x3_regime_fully_determined():
    for y in range(6, 101):
        assert lower_bound(3, y) == upper_bound(3, y) == 2 * (3 + y)


def test_conjecture_gap_examples():
    g = conjecture_gap(3, 6)
    assert g.conjecture_tight and g.open_interval == (18, 18)
    g = conjecture_gap(4, 12)
    assert not g.conjecture_tight
    assert (g.constructive_lower, g.conjectured_upper, g.proven_upper) == (36, 36, 40)
    g = conjecture_gap(3, 100)
    assert g.conjecture_tight and g.constructive_lower == 206


def test_conjecture_gap_domain():
    with pytest.raises(DrawingError):
        conjecture_gap(4, 6)
    with pytest.raises(DrawingError):
        conjecture_gap(2, 20)


def test_conjecture_ordering_holds_where_applicable():
    for x in range(3, 9):
        for y in range(6 * x - 12, 61):
            g = conjecture_gap(x, y)
            assert g.constructive_lower <= g.conjectured_upper <= max(
                g.proven_upper, g.conjectured_upper)
            assert g.constructive_lower == g.conjectured_upper


def test_size_bounds_fields():
    sb = size_bounds(3, 50)
    assert sb.upper_x3 == 106
    assert sb.upper_final == 106
    assert sb.lower_constructive == 106
    assert sb.regime == "x3"
    sb = size_bounds(2, 9)
    assert sb.regime == "planar"
    assert sb.conjecture_bound is None


def test_ratio_fixed_x3_pins_two():
    for row in ratio_table("fixed", range(6, 60), value=3):
        assert row.lower_ratio == row.upper_ratio == Fraction(2)


def test_ratio_sqrt_converges_toward_two():
    rows = ratio_table("sqrt", [100, 400, 1600, 6400, 25600])
    uppers = [row.upper_ratio for row in rows]
    assert all(u > 2 for u in uppers)
    assert all(a >= b for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] - 2 < Fraction(1, 20)


@pytest.mark.parametrize("rule, value, message", [
    ("fixed", None, "fixed rule needs a value for x"),
    ("alpha", None, "alpha rule needs a coefficient"),
    ("cube", 2, "unknown rule 'cube'"),
], ids=["fixed-without-value", "alpha-without-coefficient", "unknown-rule"])
def test_ratio_table_rejects(rule, value, message):
    with pytest.raises(DrawingError, match=message):
        ratio_table(rule, [10], value)


def test_ratio_linear_rule_stays_away_from_two():
    rows = ratio_table("alpha", [200, 2000, 20000], value=0.1)
    assert all(row.upper_ratio - 2 > Fraction(1, 10) for row in rows)
    assert all(row.lower_ratio >= 2 for row in rows)


def _complete_less(x, y, missing=()):
    """K_{x,y} on blacks 0..x-1 and whites x..x+y-1, less the ``missing`` edges."""
    edges = [(u, w) for u in range(x) for w in range(x, x + y) if (u, w) not in missing]
    return BipartiteGraph.make(range(x), range(x, x + y), edges)


# One graph per class, up to relabelling, of K_{x,y} less xy - upper_bound - 1
# edges, for each cell with x >= 3, x + y <= 10 and upper_bound < xy.  At
# (5, 5) two missing edges either share a vertex (a black one or, by the class
# swap, a white one) or are disjoint.
ONE_ABOVE_UPPER = {
    "K3,7": _complete_less(3, 7),
    "K4,5 less one edge": _complete_less(4, 5, [(0, 4)]),
    "K4,6 less one edge": _complete_less(4, 6, [(0, 4)]),
    "K5,5 less two edges sharing a vertex": _complete_less(5, 5, [(0, 5), (0, 6)]),
    "K5,5 less two disjoint edges": _complete_less(5, 5, [(0, 5), (1, 6)]),
}


def test_the_classes_one_above_upper_cover_every_small_cell_below_complete():
    cells = [(x, y) for x in range(3, 6) for y in range(x, 11 - x) if upper_bound(x, y) < x * y]
    assert cells == [(3, 7), (4, 5), (4, 6), (5, 5)]
    assert sorted({(len(g.black), len(g.white)) for g in ONE_ABOVE_UPPER.values()}) == cells


# What each of those searches does, per size from 0 to its crossing cap:
# (nodes, leaves, rim cuts, corner cuts).  174,230 nodes in all, so a change
# to how a node is searched is checked on real searches, not only on the
# small ones of tests/oracle_counters.json.
ONE_ABOVE_UPPER_SEARCHES = {
    "K3,7": [(0, 0, 0, 0)] * 5 + [(54, 40, 145, 154), (614, 12, 2697, 310),
                                  (1963, 0, 8678, 250), (4222, 0, 18300, 69)],
    "K4,5 less one edge": [(0, 0, 0, 0)] * 5 + [(248, 4, 580, 274), (1759, 0, 7990, 402),
                                                (5140, 0, 23253, 226)],
    "K4,6 less one edge": [(0, 0, 0, 0)] * 7 + [(1142, 0, 4185, 1022),
                                                (10599, 0, 62701, 2488)],
    "K5,5 less two edges sharing a vertex": [(0, 0, 0, 0)] * 7 + [(2478, 0, 7054, 1616),
                                                                  (22520, 0, 129312, 4459)],
    "K5,5 less two disjoint edges": [(0, 0, 0, 0)] * 7 + [(11736, 0, 36630, 5412),
                                                          (111755, 0, 665236, 18107)],
}


@pytest.mark.parametrize("graph,searched", zip(ONE_ABOVE_UPPER.values(),
                                               ONE_ABOVE_UPPER_SEARCHES.values()),
                         ids=ONE_ABOVE_UPPER.keys())
def test_the_oracle_draws_no_graph_one_edge_above_upper(graph, searched):
    # A "yes" here would come with a certified witness against a proven bound.
    assert len(graph.edges) == upper_bound(len(graph.black), len(graph.white)) + 1
    res = is_one_planar(graph, None)
    assert res.verdict == "no"
    assert [(s.nodes, s.leaves, s.rim_cuts, s.corner_cuts) for s in res.stats.sizes] == searched
