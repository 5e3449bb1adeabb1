"""Exhaustive ground truth for small graphs: can they be drawn with at most
one crossing per edge?

The decision procedure searches crossing assignments (sets of disjoint,
non-adjacent edge pairs) in increasing size, replaces each chosen pair by a
wheel gadget (a new degree-4 vertex plus the 4-cycle through the pair's
endpoints, which any plane embedding must wrap around the hub, forcing the
rotation to alternate), and tests planarity of the gadget multigraph.  A
planar gadget embedding is converted back into a certified drawing, so every
``yes`` is independently validated; ``no`` means no assignment up to the
crossing budget has a planar gadget graph.

Three pruning rules keep that exhaustive; each is proved where it is coded:

- counting bound (``_counting_bound``): deleting one edge per crossing
  leaves a planar graph, so a drawing needs at least |E| - (2n - 4)
  crossings when the graph two-colours and |E| - (3n - 6) otherwise; the
  smaller sizes are skipped, and a bound above the budget answers ``no``
  without a planarity test;
- twin symmetry (``_twin_classes``, ``_Search.orbits``, ``_Search.expand``):
  permuting vertices with equal open or closed neighbourhoods is an
  automorphism, so each node branches only on one representative pair per
  orbit of the twin group fixing the chosen endpoints.  A node's orbits are
  branched on smallest first, then by the sorted class sizes of the
  representative's endpoints, then by least pair: the order depends on the
  vertex labels only to break ties, and the large orbits, branched last,
  are left with few pairs below them;
- rim bound (``_Search.viable``): a leaf's gadget graph has more than
  3N - 6 edges exactly when its chosen pairs have more than
  3n' - 6 - |E| + s rims (4-cycle edges of the gadgets that are not
  uncrossed edges), and that count never falls as pairs are added, so
  every node drops from its allowed set each pair that would take it over,
  before its orbits are numbered.  Whole orbits go, and the leaves left
  are those within the edge bound.  ``_Search.branch`` carries the count
  down incrementally.

So only leaves are tested, and most subtrees end by counting alone: K3,7
at budget 6 is a ``no`` after 1,992 nodes and 93 leaf tests.

The search works on integers throughout.  A vertex is named by its
position in sorted order and the hub of the i-th chosen pair by n + i, so
a leaf's gadget graph (``_Search.gadget``) is a set of position pairs,
built from the chosen pairs with no ``Graph`` or ``GadgetGraph`` and
handed to ``planarity.lr_planar``, which builds no embedding, as it is
(``_Search.planar``).  The search returns the labelled pairs of the leaf
it accepts, and ``_witness`` is the one route from pairs to a drawing:
``gadget_planarize`` (which normalises and checks the pairs),
``planarity_test`` (the 3N - 6 edge bound of ``_over_edge_bound``, then
``planarity.lr_embedding``, the same left-right test with its embedding
phase), the rims
deleted in one map edit, and ``assemble_drawing``.  ``is_one_planar``
calls it once, on the leaf it accepts, and reports what each size cost in
``SearchStats``.  Long runs accept a timeout, checked at every node the
search enters, and write a coarse resumable checkpoint.

No run of the oracle reads networkx: the left-right test, its embedding
and the two-colouring of a ``Graph`` (``_two_color``) are all in-house.
``nx`` is still bound, lazily, so that importing this module runs none of
networkx: it puts a lazy module into ``sys.modules``, and networkx runs
its own ``__init__`` only on a first attribute read.  The binding stays
only because the benchmark's ``oracle.nx_check_planarity`` span finds
``networkx.check_planarity`` through it; tests that reach networkx
through ``nx`` see the very object in ``sys.modules["networkx"]``.  This
module is itself loaded on demand: ``import onecross`` imports it on the
first read of one of its exported names, and the command line only for
``oracle``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from types import ModuleType
from typing import Collection, Iterable, Sequence

from . import plane_map as pm
from .drawing import (
    BipartiteGraph,
    Crossing,
    Edge,
    Graph,
    OnePlanarDrawing,
    assemble_drawing,
    crossing_key,
    edge_key,
)
from .plane_map import PlaneMap
from .planarity import lr_embedding, lr_planar


def _lazy_module(name: str) -> ModuleType:
    """``sys.modules[name]``, put there as a lazy module if not yet imported.

    importlib's ``LazyLoader`` recipe: the module's code runs on its first
    attribute read.  A module that is not installed raises
    ``ModuleNotFoundError`` here, as an eager import would.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# No run reads nx; the benchmark's oracle.nx_check_planarity span resolves through it.
nx = _lazy_module("networkx")


class OracleError(ValueError):
    """Raised for invalid oracle inputs or internal contradictions."""


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    witness: PlaneMap | None
    edge_bound: bool = False  # rejected by the edge bound, before the left-right test


def _over_edge_bound(simple: Collection[tuple[int, int]]) -> bool:
    """Whether a simple graph has more than 3N - 6 edges on the N >= 3
    vertices that have one, which makes it non-planar (see ``_counting_bound``)."""
    n = len({v for e in simple for v in e})
    return n >= 3 and len(simple) > 3 * n - 6


def planarity_test(edges: Sequence[tuple[int, int]],
                   nodes: Iterable[int] = ()) -> PlanarityResult:
    """Planarity of a multigraph, with an embedding witness when planar.

    Parallel copies do not change planarity, so only the first copy of each
    edge is tested: first by the edge bound (``_over_edge_bound``), then by
    ``planarity.lr_embedding``, which gives the verdict and, for a planar
    graph, the rotations in one call.  It sees the vertices numbered as
    networkx's ``check_planarity`` would copy them (``nodes`` first, then
    new endpoints in edge order) and the edges node-major, in the order of
    that copy's edge list, so the rotations, and every witness, are the
    ones networkx gives.  In the witness the copies of an edge are stacked
    beside it, in one order around one end and the reverse order around
    the other, so consecutive copies bound a digon face.  Every witness is
    audited with the Euler face count; map edge ids equal input indices.
    """
    first: dict[tuple[int, int], int] = {}
    copies: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(edges):
        if u == v:
            raise OracleError("loops are not supported")
        j = first.setdefault((u, v) if u <= v else (v, u), i)
        if j != i:
            copies.setdefault(j, []).append(i)
    if _over_edge_bound(first):
        return PlanarityResult(False, None, edge_bound=True)
    label = list(dict.fromkeys([*nodes, *(v for e in first for v in e)]))  # networkx's node order
    index = {v: a for a, v in enumerate(label)}
    adj: list[list[int]] = [[] for _ in label]
    for u, v in first:
        adj[index[u]].append(index[v])
        adj[index[v]].append(index[u])
    order = lr_embedding(len(label), [(a, b) for a in range(len(label)) for b in adj[a] if b > a])
    if order is None:
        return PlanarityResult(False, None)

    rotations: dict[int, list[int]] = {}
    for v, nbrs in zip(label, order):
        darts = []
        for w in map(label.__getitem__, nbrs):
            i = first[(v, w) if v <= w else (w, v)]
            stack = [i, *copies.get(i, ())]
            for j in (stack if v < w else reversed(stack)):
                darts.append(2 * j if v == edges[j][0] else 2 * j + 1)
        rotations[v] = darts
    witness = pm.map_from_paired_darts(rotations, len(edges))  # edge i: darts 2i, 2i + 1
    if not pm.euler_check(witness).planar:
        raise OracleError("embedding witness failed the Euler audit")
    return PlanarityResult(True, witness)


@dataclass(frozen=True)
class GadgetGraph:
    """Planarization of a graph under a crossing assignment."""

    edges: tuple[tuple[int, int], ...]
    kept: dict[int, Edge]             # multigraph index -> original edge
    spokes: dict[int, tuple[int, Edge]]  # index -> (false node, original edge)
    rims: tuple[int, ...]
    false_nodes: dict[int, tuple[Edge, Edge]]


def gadget_planarize(graph: Graph | BipartiteGraph,
                     pairs: Iterable[tuple[Edge, Edge]]) -> GadgetGraph:
    """Replace each crossing pair by the alternation-forcing wheel gadget.

    The pairs are normalised (``edge_key`` on each edge, ``crossing_key`` on
    each pair, then sorted) and must be disjoint, non-adjacent edges of
    ``graph``; otherwise :class:`OracleError` is raised.  The pair (ab, cd)
    becomes a new vertex joined to a, b, c, d plus the 4-cycle a-c-b-d-a
    routed alongside the segments; unpaired edges remain.  The result may
    contain parallel edges.
    """
    pairs = sorted(crossing_key(edge_key(*e), edge_key(*f)) for e, f in pairs)
    crossed: set[Edge] = set()
    for e, f in pairs:
        if e in crossed or f in crossed or e == f:
            raise OracleError("assignment pairs are not disjoint")
        if set(e) & set(f):
            raise OracleError(f"adjacent edges may not cross: {e} x {f}")
        crossed.update((e, f))
    edge_set = set(graph.edges)
    if not crossed <= edge_set:
        raise OracleError("assignment names an edge outside the graph")
    out: list[tuple[int, int]] = []
    kept: dict[int, Edge] = {}
    spokes: dict[int, tuple[int, Edge]] = {}
    rims: list[int] = []
    false_nodes: dict[int, tuple[Edge, Edge]] = {}
    nxt = max(graph.vertices, default=-1) + 1
    for e in sorted(edge_set - crossed):
        kept[len(out)] = e
        out.append(e)
    for e, f in pairs:
        w = nxt
        nxt += 1
        false_nodes[w] = (e, f)
        (a, b), (c, d) = e, f
        for end, owner in ((a, e), (b, e), (c, f), (d, f)):
            spokes[len(out)] = (w, owner)
            out.append((end, w))
        for rim in ((a, c), (c, b), (b, d), (d, a)):
            rims.append(len(out))
            out.append(rim)
    return GadgetGraph(tuple(out), kept, spokes, tuple(rims), false_nodes)


@dataclass
class SizeStats:
    """What the search did at one assignment size."""

    size: int
    skipped: bool = False     # below the counting bound: nothing of this size was tried
    leaves: int = 0           # full assignments sent to the planarity test
    planarity_calls: int = 0  # one per leaf
    planarity_s: float = 0.0
    witnesses: int = 0        # planar leaves converted into certified drawings
    nodes: int = 0            # inner nodes expanded, the root included
    rim_cuts: int = 0         # allowed pairs the rim bound dropped, each a subtree cut


@dataclass
class SearchStats:
    """Per-size counters of one :func:`is_one_planar` run."""

    lower_bound: int  # the counting bound on the number of crossings
    sizes: list[SizeStats] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"lower_bound": self.lower_bound, "sizes": [asdict(s) for s in self.sizes]}


@dataclass(frozen=True)
class OneplanarResult:
    verdict: str  # "yes" | "no" | "unknown"
    drawing: OnePlanarDrawing | None
    crossings: int | None
    stats: SearchStats

    @property
    def assignments_tested(self) -> int:
        return sum(s.leaves for s in self.stats.sizes)


def _two_color(graph: Graph | BipartiteGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    """The two colour classes of ``graph``, the black one first; None when
    it has an odd cycle.

    A ``BipartiteGraph`` keeps its own classes.  Otherwise each component
    is coloured from its first vertex in ``graph.vertices``, which gets
    colour 1, by a depth-first search that takes the next vertex off a
    stack; isolated vertices get colour 0.  That is the colouring of
    ``networkx.bipartite.color`` on the graph with the vertices added in
    that order.  The black class is the smaller one, or on a tie the one
    whose sorted vertices come first.
    """
    if isinstance(graph, BipartiteGraph):
        return graph.black, graph.white
    nbrs: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    color: dict[int, int] = {}
    for root in graph.vertices:
        if root in color:
            continue
        color[root] = 1 if nbrs[root] else 0
        stack = [root]
        while stack:
            v = stack.pop()
            c = 1 - color[v]
            for w in nbrs[v]:
                if w not in color:
                    color[w] = c
                    stack.append(w)
                elif color[w] != c:
                    return None
    a = frozenset(v for v, c in color.items() if c == 0)
    b = frozenset(graph.vertices) - a
    if (len(a), sorted(a)) > (len(b), sorted(b)):
        a, b = b, a
    return a, b


def _witness(graph: Graph | BipartiteGraph,
             pairs: Iterable[tuple[Edge, Edge]]) -> OnePlanarDrawing | None:
    """The certified drawing of ``graph`` whose crossings are ``pairs``, or
    None when their gadget graph is not planar.

    The one route from an assignment to a drawing: ``gadget_planarize``,
    ``planarity_test`` for the embedding, the rims deleted in one
    ``MapEditor`` session, then ``assemble_drawing``.
    """
    gadget = gadget_planarize(graph, pairs)
    witness = planarity_test(gadget.edges, graph.vertices).witness
    if witness is None:
        return None
    ed = pm.MapEditor(witness)
    for rim in gadget.rims:
        ed.delete_edge(rim)
    paths: dict[Edge, list[int]] = {}
    for idx, e in gadget.kept.items():
        paths[e] = [idx]
    for idx, (w, e) in sorted(gadget.spokes.items()):
        paths.setdefault(e, []).append(idx)
    crossings = [crossing_key(e, f) for e, f in gadget.false_nodes.values()]
    colored = _two_color(graph)
    if colored is not None and not isinstance(graph, BipartiteGraph):
        graph = BipartiteGraph.make(colored[0], colored[1], graph.edges)
    return assemble_drawing(graph, crossings, ed.finish(),
                            {e: tuple(p) for e, p in paths.items()},
                            dict(gadget.false_nodes))


# Recorded in every checkpoint: a checkpoint written under another rule set
# indexes other subtrees, so it must not be resumed.
RULES = ("count", "twins", "small-orbits-first", "rims")


def _candidate_pairs(edges: list[Edge]) -> list[tuple[Edge, Edge]]:
    out = []
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if not set(e) & set(f):
                out.append((e, f))
    return out


def _counting_bound(graph: Graph | BipartiteGraph) -> int:
    """Fewest crossings any drawing of ``graph`` can have, by counting edges.

    Lemma (counting bound).  Delete one edge from each crossing of a drawing
    with k crossings: what is left is a plane drawing of a simple subgraph
    with at least |E| - k edges on the n vertices that have an edge (isolated
    vertices change no drawing).  For n >= 3 a simple planar graph has at
    most 3n - 6 edges, and at most 2n - 4 if it is two-coloured, as every
    subgraph of a two-coloured graph is.  So k >= |E| - (2n - 4) when
    ``graph`` two-colours and k >= |E| - (3n - 6) otherwise.
    """
    n = len({v for e in graph.edges for v in e})
    if n < 3:
        return 0
    planar_edges = 2 * n - 4 if _two_color(graph) is not None else 3 * n - 6
    return max(0, len(graph.edges) - planar_edges)


def _twin_classes(graph: Graph | BipartiteGraph) -> list[int]:
    """The twin class of each vertex, in sorted vertex order.

    Lemma (twins).  If u and v have the same open neighbourhood, or the same
    closed one, swapping them maps edges onto edges; so every permutation
    inside a class of such vertices is an automorphism, and the product of
    the symmetric groups on the classes is a subgroup of Aut(G).  No vertex
    has both kinds of twin: if N(u) = N(v) and N[u] = N[w], then w lies in
    N(u) = N(v), so v lies in N[w] = N[u] and is adjacent to u, while
    N(u) = N(v) makes u and v non-adjacent.  A class is named by the
    position of its least vertex.
    """
    order = sorted(graph.vertices)
    nbrs: dict[int, set[int]] = {v: set() for v in order}
    for u, v in graph.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    cls: dict[int, int] = {}
    for closed in (False, True):
        groups: dict[frozenset[int], list[int]] = {}
        for i, v in enumerate(order):
            if v not in cls:
                groups.setdefault(frozenset(nbrs[v] | {v} if closed else nbrs[v]), []).append(i)
        for members in groups.values():
            if closed or len(members) > 1:
                for i in members:
                    cls[order[i]] = members[0]
    return [cls[v] for v in order]


class _OutOfTime(Exception):
    """The time limit passed before the search entered a node."""


class _Search:
    """Depth-first search over crossing assignments of one size at a time.

    A node is a list of chosen pair indices, in the order chosen (orbit
    order, not index order), the pair indices still allowed below it
    (increasing), and a twin partition ``cls``: a class number per vertex,
    in sorted vertex order, whose group of permutations inside the classes
    fixes every chosen endpoint.  Vertices are named by that position, 0 to
    n - 1, and the hub of the i-th chosen pair by n + i: a leaf's gadget
    graph is a set of such pairs (``gadget``).  The search returns the
    labelled pairs of the first leaf that tests planar, for ``_witness`` to
    draw; nothing labelled is built before.  ``rim_count`` and
    ``uncrossed`` describe the chosen pairs of the node being searched
    (``viable``): ``branch`` updates them for the pair it chooses and
    restores them when it returns.
    """

    def __init__(self, graph: Graph | BipartiteGraph, deadline: float | None):
        self.graph = graph
        self.deadline = deadline
        self.edges = sorted(graph.edges)
        self.pairs = _candidate_pairs(self.edges)
        edge_index = {e: i for i, e in enumerate(self.edges)}
        self.pair_edges = [(edge_index[e], edge_index[f]) for e, f in self.pairs]
        position = {v: i for i, v in enumerate(sorted(graph.vertices))}
        self.n = len(position)
        self.edge_ends = [(position[u], position[v]) for u, v in self.edges]  # u < v
        self.pair_ends = [tuple(position[v] for v in e + f) for e, f in self.pairs]
        self.meets: list[set[int]] = [set() for _ in self.edges]  # the pairs containing each edge
        for p, (e, f) in enumerate(self.pair_edges):
            self.meets[e].add(p)
            self.meets[f].add(p)
        self.classes = _twin_classes(graph)
        self.stats = SizeStats(0)
        # The rims a-c, c-b, b-d and d-a of each pair (ab, cd), each as (u, v), u < v.
        self.rim_ends = [tuple((u, v) if u < v else (v, u)
                               for u, v in ((a, c), (c, b), (b, d), (d, a)))
                         for a, b, c, d in self.pair_ends]
        # For ``viable``, edges and rims are also named by one number:
        # u * n + v for the vertex positions u < v they join.
        n = self.n
        self.edge_rim = [u * n + v for u, v in self.edge_ends]
        self.pair_rims = [tuple(u * n + v for u, v in rims) for rims in self.rim_ends]
        # What choosing each pair can add to R: its two edges, then its rims.
        self.pair_keys = [(self.edge_rim[e], self.edge_rim[f], *rims)
                          for (e, f), rims in zip(self.pair_edges, self.pair_rims)]
        self.rim_count = [0] * (n * n)     # chosen pairs having each rim
        self.uncrossed = bytearray(n * n)  # 1 on the graph's edges that no chosen pair crosses
        for k in self.edge_rim:
            self.uncrossed[k] = 1
        touched = len({v for e in self.edges for v in e})
        self.rim_room = 3 * touched - 6 - len(self.edges)

    def gadget(self, chosen: list[int]) -> set[tuple[int, int]]:
        """The simple edge set of the gadget graph of ``chosen``, on vertex
        positions.

        The graph's edges that no chosen pair contains, plus, for the i-th
        chosen pair (ab, cd), the hub ``n + i`` with its spokes to a, b, c
        and d and the rims a-c, c-b, b-d and d-a.  A rim that is also a
        kept edge is one pair of the set, as parallel copies change no
        planarity verdict.  Every pair is (u, v) with u < v.
        """
        crossed = {i for p in chosen for i in self.pair_edges[p]}
        simple = {e for i, e in enumerate(self.edge_ends) if i not in crossed}
        for h, p in enumerate(chosen, self.n):
            a, b, c, d = self.pair_ends[p]
            simple.update(((a, h), (b, h), (c, h), (d, h)))
            simple.update(self.rim_ends[p])
        return simple

    def planar(self, simple: Collection[tuple[int, int]], hubs: int) -> bool:
        """The left-right verdict on a gadget graph from ``gadget`` with
        ``hubs`` hubs, on vertices ``range(n + hubs)``; no embedding is
        built.  The graph is within the 3N - 6 edge bound: ``viable`` kept
        no leaf above it, and size 0 is searched only when the counting
        bound is 0."""
        t = time.perf_counter()
        planar = lr_planar(self.n + hubs, simple)
        self.stats.planarity_s += time.perf_counter() - t
        self.stats.planarity_calls += 1
        return planar

    def viable(self, chosen: list[int], allowed: Sequence[int], left: int,
               rims: int) -> Sequence[int]:
        """The pairs of ``allowed`` that some planar leaf choosing ``left``
        more pairs below the node ``chosen`` may contain, by the rim bound.

        ``rims`` is the node's R: the number of distinct rims (a-c, c-b,
        b-d and d-a of a chosen pair (ab, cd)) that are not uncrossed
        edges of the graph.

        Lemma (rim bound).  Let the graph have |E| edges on n' non-isolated
        vertices, and let a leaf have s >= 1 pairs.
        Count: n' >= 4, as a pair has four distinct endpoints.  The leaf's
        gadget graph has N = n' + s vertices, the n' and a hub per pair,
        none isolated.  Its simple edges are the |E| - 2s uncrossed edges,
        the 4s spokes (each meets its own hub) and R rims: a rim that is an
        uncrossed edge only adds a parallel copy.  So the graph has more
        than 3N - 6 edges, and is not planar (``_counting_bound``), exactly
        when R > 3n' - 6 - |E| + s.
        Monotone: if S is a subset of T, then T has every rim of S and a
        subset of its uncrossed edges, so R(S) <= R(T).
        Filter: a pair p with R(chosen + p) > 3n' - 6 - |E| + s lies in no
        planar leaf of size s below the node, so it is dropped.  The node's
        group fixes every chosen pair and maps the graph onto itself, so it
        keeps R(chosen + p): whole orbits are dropped, the kept set stays
        invariant, as orbit branching needs, and the orbits kept keep their
        order.  At a leaf the filter is exactly the edge bound.
        A pair p adds to R one for each of its two edges that is a chosen
        rim, and one for each of its rims that is new and not an uncrossed
        edge (none is an edge of p), so at most six.
        """
        slack = self.rim_room + len(chosen) + left - rims
        self.stats.nodes += 1
        if slack >= 6:
            return allowed
        count, uncrossed = self.rim_count, self.uncrossed
        kept = []
        keys = self.pair_keys
        for p in allowed:
            e, f, k1, k2, k3, k4 = keys[p]
            if ((count[e] > 0) + (count[f] > 0)
                    + (not (count[k1] or uncrossed[k1])) + (not (count[k2] or uncrossed[k2]))
                    + (not (count[k3] or uncrossed[k3])) + (not (count[k4] or uncrossed[k4]))
                    <= slack):
                kept.append(p)
        self.stats.rim_cuts += len(allowed) - len(kept)
        return kept

    def orbits(self, allowed: Sequence[int], cls: list[int]) -> tuple[list[int], list[int]]:
        """The orbit number of each allowed pair, and each orbit's representative.

        Lemma (twin orbits).  Under the permutations inside the classes of
        ``cls``, two candidate pairs lie in one orbit exactly when they have
        the same key: the multiset, over the pair's two edges, of the
        multiset of the edge's endpoint classes.  Equal keys give a
        class-preserving matching of the four endpoints, which are distinct,
        and such a map extends to a permutation inside every class.  Each
        orbit's representative is its least pair.

        Orbits are numbered in increasing order of (orbit size, the sorted
        class sizes of the representative's four endpoints, least pair).
        Orbit branching holds for any fixed total order of a node's orbits;
        this one puts the small orbits first, so that the large ones, which
        ``branch`` may only combine with orbits numbered after them, have
        few pairs left below them, and it uses the labels only to break ties.
        """
        members: dict[tuple, list[int]] = {}
        keys: list[tuple] = []
        ends = self.pair_ends
        for p in allowed:
            a, b, c, d = ends[p]
            a, b, c, d = cls[a], cls[b], cls[c], cls[d]
            e = (a, b) if a <= b else (b, a)
            f = (c, d) if c <= d else (d, c)
            key = (e, f) if e <= f else (f, e)
            members.setdefault(key, []).append(p)
            keys.append(key)
        size = [0] * (2 * len(cls))  # class names run below 2n (see ``branch``)
        for c in cls:
            size[c] += 1
        ranked = sorted(members, key=lambda k: (
            len(members[k]), sorted((size[k[0][0]], size[k[0][1]], size[k[1][0]], size[k[1][1]])),
            members[k][0]))
        number = {k: j for j, k in enumerate(ranked)}
        return [number[k] for k in keys], [members[k][0] for k in ranked]

    def expand(self, chosen: list[int], allowed: Sequence[int], cls: list[int],
               left: int, rims: int) -> list[Crossing] | None:
        """Choose ``left`` more pairs below a node with ``rims`` rims: the
        pairs of a planar leaf, or None.

        Lemma (orbit branching).  Let H, the group of ``cls``, fix every
        chosen endpoint and leave ``allowed`` invariant, and number H's
        orbits on ``allowed`` in any fixed total order (``orbits`` gives
        the one used).  Every set S of ``left`` edge-disjoint allowed pairs
        has an image under H that the search visits.  Let j be the orbit
        meeting S that comes first in that order, and h in H map S's pair
        in orbit j onto r_j.  h(S) contains r_j, its other pairs lie in
        orbits numbered >= j and share no edge with r_j, so they are
        allowed in r_j's child; the child's group, H's pointwise stabiliser
        of r_j's endpoints, fixes r_j and keeps every H-orbit, so it leaves
        that set invariant; and induction covers h(S) minus r_j.  h fixes
        the chosen pairs, so the image is an assignment of the same graph,
        with a planar gadget exactly when S has one.
        """
        allowed = self.viable(chosen, allowed, left, rims)
        if len(allowed) < left:
            return None
        labels, reps = self.orbits(allowed, cls)
        for j, r in enumerate(reps):
            found = self.branch(chosen, allowed, labels, cls, j, r, left, rims)
            if found is not None:
                return found
        return None

    def branch(self, chosen: list[int], allowed: Sequence[int], labels: list[int],
               cls: list[int], j: int, r: int, left: int, rims: int) -> list[Crossing] | None:
        """Choose ``r``, the representative of orbit ``j``, below a node
        whose chosen pairs have ``rims`` rims; search below it."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OutOfTime
        chosen = chosen + [r]
        if left == 1:
            return self.leaf(chosen)
        e, f = self.pair_edges[r]
        clash = self.meets[e] | self.meets[f]
        below = [p for p, k in zip(allowed, labels) if k >= j and p not in clash]
        n = len(cls)
        fixed = list(cls)
        for v in self.pair_ends[r]:
            fixed[v] = n + v  # a class of its own: class names below n are taken
        count, uncrossed = self.rim_count, self.uncrossed
        # The two edges r crosses leave the uncrossed edges: a rim on
        # either starts to count.  Then r's own rims, none of which is e
        # or f, count where they are new and not uncrossed edges.
        for k in (self.edge_rim[e], self.edge_rim[f]):
            uncrossed[k] = 0
            rims += count[k] > 0
        for k in self.pair_rims[r]:
            count[k] += 1
            rims += count[k] == 1 and not uncrossed[k]
        try:
            return self.expand(chosen, below, fixed, left - 1, rims)
        finally:
            for k in self.pair_rims[r]:
                count[k] -= 1
            uncrossed[self.edge_rim[e]] = uncrossed[self.edge_rim[f]] = 1

    def leaf(self, chosen: list[int]) -> list[Crossing] | None:
        """The labelled pairs of the assignment ``chosen`` if its gadget
        graph is planar; None otherwise."""
        planar = self.planar(self.gadget(chosen), len(chosen))
        self.stats.leaves += 1
        return [self.pairs[p] for p in chosen] if planar else None


def _read_checkpoint(path: str | Path | None, fingerprint: dict) -> tuple[int, int]:
    """Where a checkpoint of this search resumes: (size, first-level orbit), or (0, 0)."""
    if path is None or not Path(path).exists():
        return 0, 0
    try:
        state = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise OracleError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise OracleError(f"checkpoint {path} is not a JSON object")
    if state.get("fingerprint") != fingerprint:
        return 0, 0
    resume = state.get("size", 0), state.get("next_root", 0)
    if any(type(v) is not int or v < 0 for v in resume):
        raise OracleError(f"checkpoint {path}: size and next_root must be nonnegative integers")
    if resume[0] > fingerprint["budget"]:
        # Resuming would search no size at all and answer "no" unsearched.
        raise OracleError(f"checkpoint {path}: size {resume[0]} is above the budget "
                          f"{fingerprint['budget']}")
    return resume


def is_one_planar(graph: Graph | BipartiteGraph, max_crossings: int,
                  timeout: float | None = None,
                  checkpoint: str | Path | None = None) -> OneplanarResult:
    """Decide drawability with at most ``max_crossings`` crossings.

    Searches assignment sizes in increasing order, so a ``yes`` uses the
    fewest crossings possible; sizes below the counting bound are skipped.
    Within a size, the first level branches on the orbit representatives,
    under the twin group, of the candidate pairs that the rim bound keeps,
    in the order of ``_Search.orbits``.
    ``yes`` returns a certified drawing; ``no`` is exhaustive within the
    budget; ``unknown`` is only returned when ``timeout`` seconds pass
    before the search enters a node (a negative or NaN ``timeout`` raises
    :class:`OracleError`), with progress saved to ``checkpoint`` (a JSON
    file recording the size and the first orbit of the first level not yet
    fully explored) when given; a checkpoint the search could not have
    written raises :class:`OracleError`.  ``stats`` counts the work at each
    size.
    """
    if max_crossings < 0:
        raise OracleError("budget must be nonnegative")
    if timeout is not None and not timeout >= 0:
        raise OracleError(f"timeout must be a nonnegative number of seconds, got {timeout}")
    search = _Search(graph, None if timeout is None else time.monotonic() + timeout)
    fingerprint = {"edges": [list(e) for e in search.edges], "budget": max_crossings,
                   "rules": list(RULES)}
    resume_size, resume_root = _read_checkpoint(checkpoint, fingerprint)

    def save_checkpoint(size: int, next_root: int) -> None:
        if checkpoint is None:
            return
        # Written beside the checkpoint and renamed over it, so a cut write
        # leaves the previous checkpoint.
        tmp = Path(checkpoint).with_name(f".{Path(checkpoint).name}.tmp")
        try:
            tmp.write_text(json.dumps({
                "fingerprint": fingerprint,
                "size": size,
                "next_root": next_root,
            }, indent=1))
            os.replace(tmp, checkpoint)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    stats = SearchStats(_counting_bound(graph))
    for size in range(resume_size, max_crossings + 1):
        search.stats = SizeStats(size, skipped=size < stats.lower_bound)
        stats.sizes.append(search.stats)
        root = resume_root if size == resume_size else 0
        if root and (size == 0 or search.stats.skipped):
            # Size 0 is one leaf and a skipped size is not searched: the
            # search records no first-level orbit at either.
            raise OracleError(f"checkpoint {checkpoint}: next_root {root} at size {size}, "
                              "which branches on no first-level orbit")
        if search.stats.skipped:
            continue
        try:
            if size == 0:
                found = search.leaf([])
            else:
                allowed = search.viable([], range(len(search.pairs)), size, 0)
                labels, reps = search.orbits(allowed, search.classes)
                if root > len(reps):
                    # A finished size records len(reps); more would skip the
                    # size unsearched and could answer "no".
                    raise OracleError(f"checkpoint {checkpoint}: next_root {root} is above "
                                      f"the {len(reps)} first-level orbits of size {size}")
                found = None
                while found is None and root < len(reps):
                    found = search.branch([], allowed, labels, search.classes,
                                          root, reps[root], size, 0)
                    if found is None:
                        root += 1
                        save_checkpoint(size, root)
        except _OutOfTime:
            save_checkpoint(size, root)
            return OneplanarResult("unknown", None, None, stats)
        if found is not None:
            d = _witness(graph, found)
            if d is None:
                raise OracleError("the search accepted an assignment whose gadget graph "
                                  "planarity_test rejects")
            search.stats.witnesses += 1
            return OneplanarResult("yes", d, size, stats)

    return OneplanarResult("no", None, None, stats)


def min_crossings(graph: Graph | BipartiteGraph, cap: int,
                  timeout: float | None = None) -> int | None:
    """Least number of crossings over accepting assignments, or None beyond cap.

    One :func:`is_one_planar` search with budget ``cap``: sizes are tried in
    increasing order, so the first accepting size is the least.  ``timeout``
    bounds the whole search; running out raises :class:`OracleError`.
    """
    res = is_one_planar(graph, cap, timeout=timeout)
    if res.verdict == "unknown":
        raise OracleError("timed out during the crossing search")
    return res.crossings
