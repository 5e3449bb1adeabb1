"""Exhaustive ground truth for small graphs: can they be drawn with at most
one crossing per edge?

The decision procedure searches crossing assignments (sets of disjoint,
non-adjacent edge pairs) in increasing size, replaces each chosen pair by a
wheel gadget (a new degree-4 vertex plus the 4-cycle through the pair's
endpoints, which any plane embedding must wrap around the hub, forcing the
rotation to alternate), and tests planarity of the simple gadget graph.  A
planar gadget embedding is converted back into a certified drawing, so every
``yes`` is independently validated; ``no`` means no assignment up to the
crossing budget has a planar gadget graph.

``RULES`` names the pruning rules that keep that search exhaustive while
it tests far fewer assignments.  Each is proved as a lemma in the
docstring of the functions named; ``_Search.__init__`` derives every
rule's input once: |E|, the number n' of vertices that have an edge, the
colouring, and from them each rule's constant.

- count: sizes below the fewest crossings a drawing can have are skipped,
  and a bound above the budget answers ``no`` (``_counting_bound``);
- twins: each node branches on one pair per orbit of its twin group
  (``_twin_classes``, ``_Search.orbits``, ``_Search.branch``);
- small-orbits-first: a node's orbits are branched on smallest first, an
  order orbit branching allows (``_Search.branch``);
- rims: each node drops the pairs that would take its leaves over the
  3N - 6 edge bound (``_Search.viable``);
- pair-swaps: a child's group keeps the swaps that map its chosen pair
  onto itself (``_Search.stabilizer``, ``_Search.orbits``);
- crossing-cap: no size above n' - 2 is searched (``_crossing_cap``);
- faces: in a graph that two-colours, each node drops the pairs after
  which its leaves could not close enough triangular faces
  (``_Search.viable``).

One builder, ``_gadget``, makes every gadget graph, simple and on
integers: a vertex is named by its position in sorted order and the hub
of the i-th chosen pair by n + i.  The search hands a leaf's graph
(``_Search.gadget``), as it is, to the triangle count and then, unless
that rejects it, to ``planarity.lr_planar``, which builds no embedding
(``_Search.leaf``); it returns the labelled pairs of the leaf it
accepts.  ``_witness`` is the one route from pairs to a
drawing: ``gadget_planarize`` (which checks the pairs and names
``_gadget``'s graph by labels), ``planarity_test`` (the 3N - 6 edge bound
of ``_over_edge_bound``, then ``planarity.lr_embedding``, the same
left-right test with its embedding phase), the rims deleted in one map
edit, and ``assemble_drawing``.  ``is_one_planar`` calls it once, on the
leaf it accepts, and reports what each size cost in ``SearchStats``.
Long runs accept a timeout, checked at every node the search enters, and
write a coarse resumable checkpoint.

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
from pathlib import Path
from types import ModuleType
from typing import Collection, Iterable, KeysView, NamedTuple, Sequence

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


class PlanarityResult(NamedTuple):
    planar: bool
    witness: PlaneMap | None
    edge_bound: bool = False  # rejected by the edge bound, before the left-right test


def _over_edge_bound(simple: Collection[tuple[int, int]]) -> bool:
    """Whether a simple graph has more than 3N - 6 edges on the N >= 3
    vertices that have one, which makes it non-planar (see ``_counting_bound``)."""
    n = len({v for e in simple for v in e})
    return n >= 3 and len(simple) > 3 * n - 6


def _short_of_triangles(n: int, simple: Collection[tuple[int, int]], touched: int) -> bool:
    """Whether a simple graph on vertices ``range(n)``, ``touched`` of them
    non-isolated, has too many edges on fewer than two triangles to be
    planar, by the lemma below.

    Lemma (triangle count).  Let H be a simple plane graph with N' >= 4
    non-isolated vertices and E edges.  Then at most 4(3N' - 6 - E) edges
    uv have |N(u) & N(v)| < 2.
    Proof.  With c components, Euler gives sum over faces f of
    (len f - 3) = 3N' - 3 - 3c - E <= s := 3N' - 6 - E, where len f is the
    total length of f's boundary walks.  Each walk has length >= 2, so a
    face of length 3 is bounded by one triangle.  Take an edge with both
    sides on triangular faces.  Its two apexes are distinct unless H = K3.
    So each deficient edge has a side on a face of length >= 4.
    Those faces hold at most sum len f <= 4 sum (len f - 3) <= 4s
    edge-sides.
    """
    if touched < 4:
        return False
    room = 4 * (3 * touched - 6 - len(simple))
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in simple:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for u, v in simple:
        if len(nbrs[u] & nbrs[v]) < 2:
            room -= 1
            if room < 0:
                return True
    return False


def planarity_test(edges: Sequence[tuple[int, int]],
                   nodes: Iterable[int] = ()) -> PlanarityResult:
    """Planarity of a simple graph, with an embedding witness when planar.

    A loop or a parallel copy raises :class:`OracleError`: the left-right
    test embeds simple graphs only.  The graph is tested first by the edge
    bound (``_over_edge_bound``), then by ``planarity.lr_embedding``, which
    gives the verdict and, for a planar graph, the rotations in one call.
    It sees the vertices numbered as networkx's ``check_planarity`` would
    copy them (``nodes`` first, then new endpoints in edge order) and the
    edges node-major, in the order of that copy's edge list, so the
    rotations, and every witness, are the ones networkx gives.  Every
    witness is audited with the Euler face count; edge i owns darts 2i and
    2i + 1.
    """
    index: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(edges):
        if u == v:
            raise OracleError("loops are not supported")
        if index.setdefault((u, v) if u < v else (v, u), i) != i:
            raise OracleError(f"parallel edges are not supported: {u}-{v}")
    if _over_edge_bound(index):
        return PlanarityResult(False, None, edge_bound=True)
    label = list(dict.fromkeys([*nodes, *(v for e in index for v in e)]))  # networkx's node order
    position = {v: a for a, v in enumerate(label)}
    ends = [tuple(sorted((position[u], position[v]))) for u, v in index]
    order = lr_embedding(len(label), sorted(ends, key=lambda e: e[0]))  # node-major, stably
    if order is None:
        return PlanarityResult(False, None)

    rotations: dict[int, list[int]] = {}
    for v, nbrs in zip(label, order):
        ids = [index[(v, w) if v < w else (w, v)] for w in map(label.__getitem__, nbrs)]
        rotations[v] = [2 * i if v == edges[i][0] else 2 * i + 1 for i in ids]
    witness = pm.map_from_paired_darts(rotations, len(edges))  # edge i: darts 2i, 2i + 1
    if not pm.euler_check(witness).planar:
        raise OracleError("embedding witness failed the Euler audit")
    return PlanarityResult(True, witness)


def _gadget(n: int, kept: Iterable[tuple[int, int]],
            quads: Iterable[tuple[int, int, int, int]]) -> KeysView[tuple[int, int]]:
    """The simple gadget graph, on vertex positions below ``n``, of the pairs
    (ab, cd) with ends ``quads``, each with a < b, c < d and a < c: the
    uncrossed edges ``kept``, then for the i-th pair its hub ``n + i``, the
    spokes from a, b, c and d and the rims a-c, c-b, b-d and d-a, each edge
    a pair (u, v) with u < v.  A rim that repeats a kept edge or another
    rim is kept once, at its first place: a copy changes no verdict, and
    the witness deletes every rim.  The edges are a dict's keys: so
    ordered, and equal to the set of the same pairs.
    """
    edges = list(kept)
    for h, (a, b, c, d) in enumerate(quads, n):
        edges += ((a, h), (b, h), (c, h), (d, h), (a, c), (c, b) if c < b else (b, c),
                  (b, d) if b < d else (d, b), (a, d))
    return dict.fromkeys(edges).keys()


class GadgetGraph(NamedTuple):
    """Planarization of a graph under a crossing assignment."""

    edges: tuple[tuple[int, int], ...]
    false_nodes: dict[int, tuple[Edge, Edge]]  # hub -> the pair it stands for


def gadget_planarize(graph: Graph | BipartiteGraph,
                     pairs: Iterable[tuple[Edge, Edge]]) -> GadgetGraph:
    """Replace each crossing pair by the alternation-forcing wheel gadget.

    The pairs are normalised (``edge_key`` on each edge, ``crossing_key`` on
    each pair, then sorted) and must be disjoint, non-adjacent edges of
    ``graph``; otherwise :class:`OracleError` is raised.  The pair (ab, cd)
    becomes a new vertex joined to a, b, c, d plus the 4-cycle a-c-b-d-a
    routed alongside the segments; unpaired edges remain.  The graph is
    ``_gadget``'s on the vertices numbered in sorted order, named back by
    their labels, with the hub of the i-th pair named ``max + 1 + i``.
    """
    pairs = sorted(crossing_key(edge_key(*e), edge_key(*f)) for e, f in pairs)
    crossed: set[Edge] = set()
    for e, f in pairs:
        if e in crossed or f in crossed or e == f:
            raise OracleError("assignment pairs are not disjoint")
        if set(e) & set(f):
            raise OracleError(f"adjacent edges may not cross: {e} x {f}")
        crossed.update((e, f))
    if not crossed <= graph.edges:
        raise OracleError("assignment names an edge outside the graph")
    label = sorted(graph.vertices)
    position = {v: i for i, v in enumerate(label)}
    label += [max(position, default=-1) + 1 + i for i in range(len(pairs))]
    simple = _gadget(len(position),
                     [(position[u], position[v]) for u, v in sorted(graph.edges - crossed)],
                     [tuple(map(position.__getitem__, e + f)) for e, f in pairs])
    return GadgetGraph(tuple((label[u], label[v]) for u, v in simple),
                       dict(zip(label[len(position):], pairs)))


class _Counters:
    """A mutable record whose ``_fields`` are its ``__slots__``, in order.

    ``_fields`` and ``_asdict`` read as a ``NamedTuple``'s do; two records
    are equal when their classes and fields are.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    __hash__ = None  # type: ignore[assignment]

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class SizeStats(_Counters):
    """What the search did at one assignment size."""

    __slots__ = _fields = ("size", "skipped", "leaves", "planarity_s", "witnesses", "nodes",
                           "rim_cuts", "corner_cuts")

    def __init__(self, size: int, skipped: bool = False, leaves: int = 0,
                 planarity_s: float = 0.0, witnesses: int = 0, nodes: int = 0,
                 rim_cuts: int = 0, corner_cuts: int = 0) -> None:
        self.size = size
        self.skipped = skipped  # below the counting bound: nothing of this size was tried
        self.leaves = leaves  # full assignments given a verdict, by triangles or left-right
        self.planarity_s = planarity_s  # the time of those verdicts, both tests
        self.witnesses = witnesses  # planar leaves converted into certified drawings
        self.nodes = nodes  # inner nodes expanded, the root included
        self.rim_cuts = rim_cuts  # allowed pairs the rim bound dropped, each a subtree cut
        self.corner_cuts = corner_cuts  # pairs within the rim bound that the face bound dropped


class SearchStats(_Counters):
    """Per-size counters of one :func:`is_one_planar` run."""

    __slots__ = _fields = ("lower_bound", "cap", "sizes")

    def __init__(self, lower_bound: int, cap: int, sizes: list[SizeStats] | None = None) -> None:
        self.lower_bound = lower_bound  # the counting bound on the number of crossings
        self.cap = cap  # the crossing cap: no size above it is searched
        self.sizes = [] if sizes is None else sizes

    def to_json(self) -> dict:
        return {"lower_bound": self.lower_bound, "cap": self.cap,
                "sizes": [s._asdict() for s in self.sizes]}


class OneplanarResult(NamedTuple):
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
    is coloured from its least vertex, which gets colour 1, by a
    depth-first search that takes the next vertex off a stack; isolated
    vertices get colour 0.  That is the colouring of
    ``networkx.bipartite.color`` on the graph with the vertices added in
    sorted order, however the vertex set was built.  The black class is
    the smaller one, or on a tie the one whose sorted vertices come first.
    """
    if isinstance(graph, BipartiteGraph):
        return graph.black, graph.white
    nbrs: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    color: dict[int, int] = {}
    for root in sorted(graph.vertices):
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


def _witness(graph: Graph | BipartiteGraph, pairs: Iterable[tuple[Edge, Edge]],
             colored: tuple[frozenset[int], frozenset[int]] | None) -> OnePlanarDrawing | None:
    """The certified drawing of ``graph`` whose crossings are ``pairs``, or
    None when their gadget graph is not planar.

    The one route from an assignment to a drawing: ``gadget_planarize``,
    ``planarity_test`` for the embedding, the rims deleted in one
    ``MapEditor`` session, then ``assemble_drawing``.  A map edge at a hub
    is a spoke of the pair's edge that holds its other end, an uncrossed
    edge of ``graph`` is kept, and any other edge is a rim.  ``colored`` is
    ``_two_color(graph)``; the drawing's graph is bipartite when it is not
    None.
    """
    gadget = gadget_planarize(graph, pairs)
    witness = planarity_test(gadget.edges, sorted(graph.vertices)).witness
    if witness is None:
        return None
    hubs = gadget.false_nodes
    crossed = {e for pair in hubs.values() for e in pair}
    ed = pm.MapEditor(witness)
    for i, (u, v) in enumerate(gadget.edges):  # hubs are named above every vertex, and u < v
        if v not in hubs and ((u, v) not in graph.edges or (u, v) in crossed):
            ed.delete_edge(2 * i)
    if colored is not None and not isinstance(graph, BipartiteGraph):
        graph = BipartiteGraph.make(colored[0], colored[1], graph.edges)
    return assemble_drawing(graph, ed.finish(), hubs)


# Recorded in every checkpoint: a checkpoint written under another rule set
# indexes other subtrees, so it must not be resumed.
RULES = ("count", "twins", "small-orbits-first", "rims", "pair-swaps", "crossing-cap",
         "faces")


def _counting_bound(edges: int, n: int, two_colours: bool) -> int:
    """Fewest crossings any drawing can have, by counting edges: of a graph
    with ``edges`` edges on ``n`` vertices that have one, two-coloured when
    ``two_colours``.

    Lemma (counting bound).  Delete one edge from each crossing of a drawing
    with k crossings: what is left is a plane drawing of a simple subgraph
    with at least |E| - k edges on the n vertices that have an edge (isolated
    vertices change no drawing).  For n >= 3 a simple planar graph has at
    most 3n - 6 edges, and at most 2n - 4 if it is two-coloured, as every
    subgraph of a two-coloured graph is.  So k >= |E| - (2n - 4) when the
    graph two-colours and k >= |E| - (3n - 6) otherwise.
    """
    if n < 3:
        return 0
    return max(0, edges - (2 * n - 4 if two_colours else 3 * n - 6))


def _crossing_cap(touched: int) -> int:
    """Most crossings any drawing can have, on ``touched`` vertices that have
    an edge: assignments above it need no search.

    Lemma (crossing cap; Czap and Hudák, *1-planarity of complete
    multipartite graphs*, Discrete Appl. Math. 2012).  Take a drawing with
    k >= 1 crossings, each edge crossed at most once and no two adjacent
    edges crossing (the oracle's pairs are never adjacent).  Let H have as
    vertices the n_X endpoints of crossed edges and the k crossing points,
    and as edges the 4k half-edges from a crossing point to an endpoint.
    H is part of the planarization, so it is plane.  It is simple, since a
    crossing point meets four distinct endpoints, each by the one crossing
    of its edge.  It is bipartite: endpoints against crossing points.  A
    simple bipartite plane graph on N >= 3 vertices has at most 2N - 4
    edges (``_counting_bound``), so 4k <= 2(n_X + k) - 4, that is
    k <= n_X - 2 <= touched - 2.  An assignment with a planar gadget graph
    is the crossing set of such a drawing (``_witness``), so no assignment
    of more than ``touched`` - 2 pairs has one; size 0 stays allowed.
    """
    return max(0, touched - 2)


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
    (increasing), and its group.  A child is entered with its parent's
    allowed pairs and their orbit numbers, the number of the orbit it
    chose from and the pairs that clash with its pair: ``viable`` makes
    the child's allowed pairs from them and applies the rim and face
    bounds in one pass, so no child list is built that the bounds would
    then empty.  The group is a twin partition ``cls``, a class number
    per vertex, in sorted vertex order, whose permutations inside the
    classes fix every chosen endpoint, and ``swaps``, permutations of the
    chosen endpoints that map every chosen pair onto itself
    (``stabilizer``).  Vertices are named by that position, 0 to
    n - 1, and the hub of the i-th chosen pair by n + i: a leaf's gadget
    graph is a collection of such pairs (``gadget``).  The search returns the
    labelled pairs of the first leaf that tests planar, for ``_witness`` to
    draw; nothing labelled is built before.  ``rim_count``, ``uncrossed``
    and ``fresh`` describe the chosen pairs of the node being searched
    (``viable``), each indexed by the number u * n + v of a vertex pair:
    how many chosen pairs have it as a rim, whether it is a graph edge
    that no chosen pair crosses, and whether it is fresh, that is
    ``fresh[k] == (rim_count[k] == 0 and not uncrossed[k])``, so that a
    rim of a new pair adds to R exactly where it is fresh.  ``branch``
    updates all three for the pair it chooses and restores them when it
    returns, in straight-line code: a pair has two edges and four rims.
    The pair tables (``make_pairs``) are made only when some size
    is searched, so a "no" by the counting bound enumerates no pair.
    ``pair_facts`` holds each pair's clash set: the pairs sharing an edge
    with it, which its children may not choose.  ``branch`` makes a pair's
    clash set the first time it chooses the pair above the last level and
    reuses it at every later node.  Many pairs are never chosen there
    (K6 at budget 3 chooses 2 of its 45, K3,7 at budget 6 63 of 126), and
    a table made with the other pair tables would pay for them too.
    """

    def __init__(self, graph: Graph | BipartiteGraph, deadline: float | None):
        self.graph = graph
        self.deadline = deadline
        self.edges = edges = sorted(graph.edges)
        position = {v: i for i, v in enumerate(sorted(graph.vertices))}
        self.n = n = len(position)
        self.edge_ends = ends = [(position[u], position[v]) for u, v in edges]  # u < v
        # For ``viable``, edges and rims are also named by one number:
        # u * n + v for the vertex positions u < v they join.
        self.edge_rim = edge_rim = [u * n + v for u, v in ends]
        self.classes = _twin_classes(graph)
        self.stats = SizeStats(0)
        self.rim_count = [0] * (n * n)     # chosen pairs having each rim
        self.uncrossed = bytearray(n * n)  # 1 on the graph's edges that no chosen pair crosses
        self.fresh = bytearray(b"\x01") * (n * n)  # 1 where both of the above are 0
        for k in edge_rim:
            self.uncrossed[k] = 1
            self.fresh[k] = 0
        # Every rule's input, derived here once: n', the colouring, and
        # from them and |E| each rule's constant.
        self.touched = touched = len({v for e in edges for v in e})  # n': non-isolated vertices
        self.colored = _two_color(graph)  # for ``_witness``
        two_colours = self.colored is not None
        self.lower_bound = _counting_bound(len(edges), touched, two_colours)
        self.cap = _crossing_cap(touched)
        self.rim_room = 3 * touched - 6 - len(edges)  # R may reach this plus s (``viable``)
        # The least T of a planar leaf by the face bound (``viable``): when
        # the graph two-colours, twice the counting bound, which is
        # 2|E| - 4n' + 8 where that is positive; 0, which every node meets,
        # when it does not.
        self.corner_floor = 2 * self.lower_bound if two_colours else 0

    def make_pairs(self) -> None:
        """Make the pair tables: every candidate pair and what the search
        reads of it.  ``is_one_planar`` calls this once, and only when some
        size is searched: a graph whose counting bound is above its budget
        or its crossing cap is answered from ``__init__``'s constants."""
        edges, ends, edge_rim, n = self.edges, self.edge_ends, self.edge_rim, self.n
        self.pairs: list[tuple[Edge, Edge]] = []  # (e, f), e before f, with no common end
        self.pair_edges: list[tuple[int, int]] = []  # the indices of each pair's edges
        self.pair_ends: list[tuple[int, int, int, int]] = []  # a, b, c, d of each (ab, cd)
        # What choosing each pair (ab, cd) can add to R: its two edges, then
        # its rims a-c, c-b, b-d and d-a, each as the number u * n + v, u < v.
        self.pair_keys: list[tuple[int, ...]] = []
        self.meets: list[set[int]] = [set() for _ in edges]  # the pairs containing each edge
        # Edges are sorted, so in a pair (ab, cd) of ends with no common
        # vertex a < c < d: the rims a-c and d-a need no ordering.
        for i, (a, b) in enumerate(ends):
            for j in range(i + 1, len(ends)):
                c, d = ends[j]
                if c == b or d == b or c == a:
                    continue
                self.meets[i].add(len(self.pairs))
                self.meets[j].add(len(self.pairs))
                self.pairs.append((edges[i], edges[j]))
                self.pair_edges.append((i, j))
                self.pair_ends.append((a, b, c, d))
                self.pair_keys.append((edge_rim[i], edge_rim[j], a * n + c,
                                       c * n + b if c < b else b * n + c,
                                       b * n + d if b < d else d * n + b, a * n + d))
        # Each pair's clash set, made on its first branch (see the class).
        self.pair_facts: list[set[int] | None] = [None] * len(self.pairs)

    def gadget(self, chosen: list[int]) -> KeysView[tuple[int, int]]:
        """``_gadget`` of the graph's edges that no pair of ``chosen`` crosses
        and of the chosen pairs, the i-th with the hub ``n + i``."""
        crossed = {i for p in chosen for i in self.pair_edges[p]}
        return _gadget(self.n, [e for i, e in enumerate(self.edge_ends) if i not in crossed],
                       [self.pair_ends[p] for p in chosen])

    def viable(self, chosen: list[int], allowed: Sequence[int], labels: Sequence[int], j: int,
               clash: Collection[int], left: int, rims: int, corners: int) -> list[int]:
        """The candidates of the node ``chosen`` that some planar leaf
        choosing ``left`` more pairs below it may contain, by the rim bound
        and the face bound.

        The node was entered by choosing the representative of orbit ``j``
        at its parent, whose allowed pairs are ``allowed`` with orbit
        numbers ``labels``; ``clash`` holds the pairs sharing an edge with
        the pair chosen.  Its candidates are the parent's allowed pairs
        numbered ``j`` or above and not in ``clash`` (``branch``); one loop
        makes them and applies both bounds, and only candidates count as
        cuts.  The root passes its pairs with labels 0, ``j`` = 0 and no
        clash.

        ``rims`` is the node's R: the number of distinct rims (a-c, c-b,
        b-d and d-a of a chosen pair (ab, cd)) that are not uncrossed
        edges of the graph.  ``corners`` is the node's T: the number of
        (chosen pair, rim) with the rim an uncrossed edge of the graph,
        each a hub corner that an uncrossed edge can close.

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

        Lemma (face bound).  Let the graph two-colour, with |E| >= 2 edges
        on n' non-isolated vertices, and let a set S of s pairs have a
        planar gadget graph.  Then T(S) >= 2|E| - 4n' + 8, which is the
        ``corner_floor`` where it is positive.
        Proof.  The planarization P, the |E| - 2s uncrossed edges and the
        4s spokes, is a subgraph of the gadget graph, so it is planar.  It
        is simple, as each spoke meets its own hub, and it has N = n' + s
        vertices, none isolated, and E_P = |E| + 2s >= 2 edges.  Embed it
        with c >= 1 components: Euler gives F = E_P - N + 1 + c >=
        E_P - N + 2 faces.  With two edges or more, every face has length
        (the total length of its boundary walks) at least 3, and a face
        of length 3 is bounded by a triangle.  The graph has no triangle
        and no two hubs are adjacent, so a triangle of P is a hub and two
        ends of its pair (ab, cd) joined by an uncrossed edge: neither ab
        nor cd, so a rim of that pair.  Each such triangle bounds one face
        at most, since P is no triangle (a hub has degree 4).  So the F3
        faces of length 3 number at most T(S), and summing face lengths,
        2E_P >= 3 F3 + 4(F - F3), so T(S) >= F3 >= 4F - 2E_P >=
        2E_P - 4N + 8 = 2|E| - 4n' + 8.
        Filter: the ends a, b of ab, and c, d of cd, have unlike colours,
        so two of a pair's rims join like colours, and each pair adds at
        most 2 to T.  Choosing p = (e, f) at a node takes from T the
        chosen pairs with a rim on e or on f, which leave the uncrossed
        edges, and adds p's rims that are uncrossed edges.  So a pair p
        with T(chosen + p) + 2(left - 1) below the floor lies in no planar
        leaf below the node, and is dropped.  The node's group keeps T and
        the floor, so whole orbits are dropped, as by the rim bound.  A
        pair loses at most T, since each chosen pair with a rim on e or f
        counts in T, and gains at least 0: no pair is dropped while
        T + 2 left - floor >= T + 2, and so none ever on a graph whose
        floor is 0.
        """
        slack = self.rim_room + len(chosen) + left - rims
        room = corners + 2 * left - self.corner_floor  # a pair may take T down by this
        self.stats.nodes += 1
        faces = room < corners + 2  # whether the face bound can drop a pair here
        if slack >= 6 and not faces:
            return [p for p, k in zip(allowed, labels) if k >= j and p not in clash]
        count, uncrossed, fresh = self.rim_count, self.uncrossed, self.fresh
        keys = self.pair_keys
        kept = []
        rim_cuts = corner_cuts = 0
        if not faces:
            for p, k in zip(allowed, labels):
                if k >= j and p not in clash:
                    e, f, k1, k2, k3, k4 = keys[p]
                    if ((count[e] > 0) + (count[f] > 0)
                            + fresh[k1] + fresh[k2] + fresh[k3] + fresh[k4] > slack):
                        rim_cuts += 1
                    else:
                        kept.append(p)
        else:
            for p, k in zip(allowed, labels):
                if k >= j and p not in clash:
                    e, f, k1, k2, k3, k4 = keys[p]
                    if ((count[e] > 0) + (count[f] > 0)
                            + fresh[k1] + fresh[k2] + fresh[k3] + fresh[k4] > slack):
                        rim_cuts += 1
                    elif (count[e] + count[f] + 2 - uncrossed[k1] - uncrossed[k2]
                          - uncrossed[k3] - uncrossed[k4] <= room):
                        kept.append(p)
                    else:
                        corner_cuts += 1
        self.stats.rim_cuts += rim_cuts
        self.stats.corner_cuts += corner_cuts
        return kept

    def orbits(self, allowed: Sequence[int], cls: list[int],
               swaps: Sequence[dict[int, int]] = ()) -> tuple[list[int], list[int]]:
        """The orbit number of each allowed pair, and each orbit's
        representative, under the node's group: the permutations inside the
        classes of ``cls``, extended by ``swaps`` (see ``stabilizer``).

        Lemma (twin orbits).  Under the permutations inside the classes of
        ``cls``, two candidate pairs lie in one orbit exactly when they have
        the same key: the multiset, over the pair's two edges, of the
        multiset of the edge's endpoint classes.  Equal keys give a
        class-preserving matching of the four endpoints, which are distinct,
        and such a map extends to a permutation inside every class.

        Lemma (swap orbits).  A swap moves only vertices in classes of their
        own, onto such vertices, so it maps every class onto a class: it
        normalises the group of the classes, and maps the twin orbit of a
        key onto the twin orbit of that key with its class names renamed by
        the swap.  So the node's group is the group of the classes times
        the group of the swaps, and its orbits are the unions of twin
        orbits that the swaps join: union-find over the keys, joining each
        key k to s(k) for every swap s.  ``allowed`` is invariant under the
        group, so s(k) is the key of an allowed pair.  Each orbit's
        representative is its least pair.

        Orbits are numbered in increasing order of (orbit size, the sorted
        class sizes of the representative's four endpoints, least pair).
        A swap maps classes of one vertex onto classes of one vertex, so
        the twin orbits it joins have the same class sizes.
        Orbit branching holds for any fixed total order of a node's orbits;
        this one puts the small orbits first, so that the large ones, which
        ``branch`` may only combine with orbits numbered after them, have
        few pairs left below them, and it uses the labels only to break ties.
        The orbits are sorted as rows (size, class sizes, least pair, key):
        distinct orbits have disjoint pairs, so no two rows tie before the
        key, and keys are never compared.

        A key is one integer.  With m = 2n, above every class name, an
        edge whose endpoint classes are x <= y is x * m + y, below m², and
        a pair whose edges are g <= h is g * m² + h; the union-find and
        the row sort decode it by ``divmod``.  Each edge is keyed once per
        call, and a pair's key is made from its two edges' keys
        (``pair_edges``).  When every class of ``cls``
        has one vertex and there are no swaps, the node's group is trivial:
        by the twin orbits above, equal keys then need equal endpoints, so
        each allowed pair is an orbit of its own.  Every row then has size
        1 and class sizes 1, 1, 1, 1, and ``allowed`` is increasing, so the
        orbits are numbered 0 to k - 1 in ``allowed`` order, each its own
        representative, and no key is built.
        """
        if not swaps and len(set(cls)) == len(cls):
            return list(range(len(allowed))), list(allowed)
        m = 2 * len(cls)  # class names run below 2n (see ``stabilizer``)
        mm = m * m
        edge_keys = []
        for a, b in self.edge_ends:
            a, b = cls[a], cls[b]
            edge_keys.append(a * m + b if a <= b else b * m + a)
        members: dict[int, list[int]] = {}
        keys: list[int] = []
        pair_edges = self.pair_edges
        for p in allowed:
            g, h = pair_edges[p]
            e, f = edge_keys[g], edge_keys[h]
            key = e * mm + f if e <= f else f * mm + e
            members.setdefault(key, []).append(p)
            keys.append(key)
        if swaps:
            root = {k: k for k in members}

            def find(k: int) -> int:
                while root[k] != k:
                    k = root[k]
                return k

            for swap in swaps:
                get = swap.get
                for key in members:
                    e, f = divmod(key, mm)
                    a, b = divmod(e, m)
                    c, d = divmod(f, m)
                    a, b, c, d = get(a, a), get(b, b), get(c, c), get(d, d)
                    e = a * m + b if a <= b else b * m + a
                    f = c * m + d if c <= d else d * m + c
                    u, v = find(key), find(e * mm + f if e <= f else f * mm + e)
                    if u != v:
                        root[v] = u
            top = {k: find(k) for k in members}
            joined: dict[int, list[int]] = {}
            for key, pairs in members.items():
                joined.setdefault(top[key], []).extend(pairs)
            for pairs in joined.values():
                pairs.sort()
            members, keys = joined, [top[k] for k in keys]
        size = [0] * m
        for c in cls:
            size[c] += 1
        rows = []
        for k, pairs in members.items():
            e, f = divmod(k, mm)
            a, b = divmod(e, m)
            c, d = divmod(f, m)
            rows.append((len(pairs), sorted((size[a], size[b], size[c], size[d])), pairs[0], k))
        rows.sort()
        number = {row[3]: j for j, row in enumerate(rows)}
        return [number[k] for k in keys], [row[2] for row in rows]

    def branch(self, chosen: list[int], allowed: Sequence[int], labels: list[int],
               cls: list[int], swaps: Sequence[dict[int, int]], j: int, r: int, left: int,
               rims: int, corners: int) -> list[Crossing] | None:
        """Choose ``r``, the representative of orbit ``j`` at the node
        ``chosen`` (allowed pairs ``allowed``, numbered ``labels``; group
        ``cls`` and ``swaps``; R ``rims`` and T ``corners``, see ``viable``),
        then ``left`` - 1 more pairs below it: a planar leaf's pairs, or None.

        Lemma (orbit branching).  Let H, the node's group (``stabilizer``),
        map every chosen pair onto itself and leave ``allowed`` invariant,
        and number H's orbits on ``allowed`` in any fixed total order
        (``orbits`` gives the one used).  Every set S of ``left``
        edge-disjoint allowed pairs has an image under H that the search
        visits.  Let j be the orbit meeting S that comes first in that
        order, and h in H map S's pair in orbit j onto r_j.  h(S) contains
        r_j, its other pairs lie in orbits numbered >= j and share no edge
        with r_j, so they are candidates of r_j's child (``viable``); the
        child's group is a subgroup of H that maps r_j and every chosen pair
        onto itself and leaves that set invariant (``stabilizer``); and
        induction covers h(S) minus r_j.  h maps the chosen pairs onto
        themselves, so the image is an assignment of the same graph, with a
        planar gadget exactly when S has one.  The group is built only at
        nodes that the rim and face bounds leave enough pairs to branch on.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OutOfTime
        chosen = chosen + [r]
        if left == 1:
            return self.leaf(chosen)
        clash = self.pair_facts[r]
        if clash is None:
            e, f = self.pair_edges[r]
            clash = self.pair_facts[r] = self.meets[e] | self.meets[f]
        ke, kf, k1, k2, k3, k4 = self.pair_keys[r]
        count, uncrossed, fresh = self.rim_count, self.uncrossed, self.fresh
        # The two edges r crosses leave the uncrossed edges: a rim on
        # either starts to count in R and stops counting in T.  Then r's
        # own rims count in R where they are fresh, and in T where they
        # are uncrossed edges.  The four rims are distinct and none is e
        # or f (``viable``), so no update below reads another's write.
        ce, cf = count[ke], count[kf]
        uncrossed[ke] = uncrossed[kf] = 0
        fresh[ke], fresh[kf] = not ce, not cf
        rims += (ce > 0) + (cf > 0) + fresh[k1] + fresh[k2] + fresh[k3] + fresh[k4]
        corners += uncrossed[k1] + uncrossed[k2] + uncrossed[k3] + uncrossed[k4] - ce - cf
        count[k1] += 1
        count[k2] += 1
        count[k3] += 1
        count[k4] += 1
        fresh[k1] = fresh[k2] = fresh[k3] = fresh[k4] = 0
        left -= 1
        try:
            allowed = self.viable(chosen, allowed, labels, j, clash, left, rims, corners)
            if len(allowed) < left:
                return None
            cls, swaps = self.stabilizer(cls, swaps, r)
            labels, reps = self.orbits(allowed, cls, swaps)
            for j, r in enumerate(reps):
                found = self.branch(chosen, allowed, labels, cls, swaps, j, r, left, rims, corners)
                if found is not None:
                    return found
            return None
        finally:
            count[k1] -= 1
            count[k2] -= 1
            count[k3] -= 1
            count[k4] -= 1
            fresh[k1] = not (count[k1] or uncrossed[k1])
            fresh[k2] = not (count[k2] or uncrossed[k2])
            fresh[k3] = not (count[k3] or uncrossed[k3])
            fresh[k4] = not (count[k4] or uncrossed[k4])
            uncrossed[ke] = uncrossed[kf] = 1
            fresh[ke] = fresh[kf] = 0

    def stabilizer(self, cls: list[int], swaps: Sequence[dict[int, int]],
                   r: int) -> tuple[list[int], list[dict[int, int]]]:
        """The group of the child that chooses ``r`` at a node whose group
        is given by ``cls`` and ``swaps``, as its classes and its swaps.

        Lemma (pair swaps).  Let r = (ab, cd), and let H be the node's
        group.  Below r, a, b, c and d get classes of their own, the class
        of v named n + v, and a swap is an involution of such names: it
        stands for the vertex permutation moving v to w when it maps n + v
        to n + w.  The child's group K is generated by the permutations
        inside the new classes and by the child's swaps: each of
        (a c)(b d), (a d)(b c), (a b) and (c d) that maps every vertex to
        one of its class in ``cls`` (these generate every class-preserving
        permutation of a, b, c and d that maps r onto itself), and each
        swap of the node that maps r onto itself.  K is a child's group as
        ``branch`` needs it:
        - K lies in H: a class-preserving permutation is in the group of
          ``cls``, and the carried swaps are H's;
        - K maps r and every earlier chosen pair onto itself: a new swap
          moves only endpoints of r that share a class with another vertex,
          which no chosen endpoint does, and a carried swap mapped the
          earlier pairs onto themselves at the node;
        - so K leaves the child's allowed pairs invariant: it keeps every
          H-orbit, and maps the pairs sharing an edge with r onto such
          pairs;
        - every swap moves only vertices in classes of their own onto such
          vertices, as ``orbits`` needs: a new swap's vertices are split off
          here, and a carried swap's were at the node.
        The root has no swaps, so its orbits, which checkpoints count, are
        the twin orbits.
        """
        a, b, c, d = self.pair_ends[r]
        n = len(cls)
        A, B, C, D = n + a, n + b, n + c, n + d  # class names below n are taken
        fixed = list(cls)
        fixed[a], fixed[b], fixed[c], fixed[d] = A, B, C, D
        kept = []
        for swap in swaps:
            get = swap.get
            w, x, y, z = get(A, A), get(B, B), get(C, C), get(D, D)
            g = (w, x) if w < x else (x, w)
            h = (y, z) if y < z else (z, y)
            if g == (A, B) and h == (C, D) or g == (C, D) and h == (A, B):
                kept.append(swap)
        ca, cb, cc, cd = cls[a], cls[b], cls[c], cls[d]
        if ca == cc and cb == cd:
            kept.append({A: C, C: A, B: D, D: B})
        if ca == cd and cb == cc:
            kept.append({A: D, D: A, B: C, C: B})
        if ca == cb:
            kept.append({A: B, B: A})
        if cc == cd:
            kept.append({C: D, D: C})
        return fixed, kept

    def leaf(self, chosen: list[int]) -> list[Crossing] | None:
        """The labelled pairs of the assignment ``chosen`` if its gadget
        graph (``gadget``, with ``hubs`` = ``len(chosen)``, on vertices
        ``range(n + hubs)``) is planar; None otherwise.  No embedding is
        built.  The graph is within the 3N - 6 edge bound: ``viable`` kept
        no leaf above it, and size 0 is searched only when the counting
        bound is 0.  At 3N - 6 edges a planar graph is a triangulation, so
        the triangle count (``_short_of_triangles``, on the N' =
        ``touched`` + ``hubs`` non-isolated vertices: every hub has spokes,
        and every touched vertex keeps an uncrossed edge or a spoke) rejects
        most such leaves; the left-right test decides the rest."""
        simple, hubs = self.gadget(chosen), len(chosen)
        t = time.perf_counter()
        planar = (not _short_of_triangles(self.n + hubs, simple, self.touched + hubs)
                  and lr_planar(self.n + hubs, simple))
        self.stats.planarity_s += time.perf_counter() - t
        self.stats.leaves += 1
        return [self.pairs[p] for p in chosen] if planar else None


def _read_checkpoint(path: str | Path | None, fingerprint: dict) -> tuple[int, int]:
    """Where a checkpoint of this search resumes: (size, first-level orbit), or (0, 0)."""
    if path is None or not Path(path).exists():
        return 0, 0
    try:
        state = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # as in formats.read_document
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
        raise OracleError(f"checkpoint {path}: size {resume[0]} is above the largest size "
                          f"searched, {fingerprint['budget']}")
    return resume


def is_one_planar(graph: Graph | BipartiteGraph, max_crossings: int | None = None,
                  timeout: float | None = None,
                  checkpoint: str | Path | None = None) -> OneplanarResult:
    """Decide drawability with at most ``max_crossings`` crossings, or with
    any number when it is None; a budget that is not a nonnegative integer
    (a bool is not one) raises :class:`OracleError`.

    Searches assignment sizes in increasing order, so a ``yes`` uses the
    fewest crossings possible; sizes below the counting bound are skipped,
    and none above the crossing cap is searched.  Within a size, the first
    level branches on the orbit representatives, under the twin group, of
    the candidate pairs that the rim and face bounds keep, in the order of
    ``_Search.orbits``.
    ``yes`` returns a certified drawing; ``no`` is exhaustive within the
    budget, and without a budget means that no drawing exists; ``unknown``
    is only returned when ``timeout`` seconds pass before the search enters
    a node, with progress saved to ``checkpoint`` (a JSON file recording
    the size and the first orbit of the first level not yet fully explored)
    when given.  A ``timeout`` that is negative, NaN, a bool or no number,
    and a checkpoint the search could not have written, raise
    :class:`OracleError`.  ``stats`` counts the work at each size.
    """
    if max_crossings is not None:
        if type(max_crossings) is not int:  # a bool is refused, as in a checkpoint
            raise OracleError(f"budget must be an integer or None, got {max_crossings!r}")
        if max_crossings < 0:
            raise OracleError("budget must be nonnegative")
    if timeout is not None and (isinstance(timeout, bool) or not isinstance(timeout, (int, float))
                                or not timeout >= 0):
        raise OracleError(f"timeout must be a nonnegative number of seconds, got {timeout!r}")
    search = _Search(graph, None if timeout is None else time.monotonic() + timeout)
    stats = SearchStats(search.lower_bound, search.cap)
    top = stats.cap if max_crossings is None else min(max_crossings, stats.cap)
    # The budget recorded is the largest size searched: budgets above the
    # cap search the same sizes, and so share a checkpoint.
    fingerprint = {"edges": [list(e) for e in search.edges], "budget": top,
                   "rules": list(RULES)}
    resume_size, resume_root = _read_checkpoint(checkpoint, fingerprint)
    if max(resume_size, stats.lower_bound) <= top:  # some size is searched
        search.make_pairs()

    def save_checkpoint(size: int, next_root: int) -> None:
        if checkpoint is None:
            return
        # Written beside the checkpoint and renamed over it, so a cut write
        # leaves the previous checkpoint.  Compact: with an indent, json
        # encodes in Python through closures that form a reference cycle.
        tmp = Path(checkpoint).with_name(f".{Path(checkpoint).name}.tmp")
        try:
            tmp.write_text(json.dumps({
                "fingerprint": fingerprint,
                "size": size,
                "next_root": next_root,
            }))
            os.replace(tmp, checkpoint)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    for size in range(resume_size, top + 1):
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
                allowed = search.viable([], range(len(search.pairs)), [0] * len(search.pairs),
                                        0, (), size, 0, 0)
                labels, reps = search.orbits(allowed, search.classes)
                if root > len(reps):
                    # A finished size records len(reps); more would skip the
                    # size unsearched and could answer "no".
                    raise OracleError(f"checkpoint {checkpoint}: next_root {root} is above "
                                      f"the {len(reps)} first-level orbits of size {size}")
                found = None
                while found is None and root < len(reps):
                    found = search.branch([], allowed, labels, search.classes, (),
                                          root, reps[root], size, 0, 0)
                    if found is None:
                        root += 1
                        save_checkpoint(size, root)
        except _OutOfTime:
            save_checkpoint(size, root)
            return OneplanarResult("unknown", None, None, stats)
        if found is not None:
            d = _witness(graph, found, search.colored)
            if d is None:
                raise OracleError("the search accepted an assignment whose gadget graph "
                                  "planarity_test rejects")
            search.stats.witnesses += 1
            return OneplanarResult("yes", d, size, stats)

    return OneplanarResult("no", None, None, stats)


def min_crossings(graph: Graph | BipartiteGraph, max_crossings: int | None,
                  timeout: float | None = None) -> int | None:
    """Least number of crossings over accepting assignments, or None beyond
    ``max_crossings``.

    One :func:`is_one_planar` search with that budget: sizes are tried in
    increasing order, so the first accepting size is the least.  ``timeout``
    bounds the whole search; running out raises :class:`OracleError`.
    """
    res = is_one_planar(graph, max_crossings, timeout=timeout)
    if res.verdict == "unknown":
        raise OracleError("timed out during the crossing search")
    return res.crossings
