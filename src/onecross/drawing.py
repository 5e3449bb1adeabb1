"""One-crossing-per-edge drawings: the certified data model and its surgery.

A drawing couples an abstract simple graph with a *planified* combinatorial
map in which every crossing is a degree-4 false vertex that names the two
crossed edges and whose rotation alternates between them.  These three
parts are the whole record: the ends of each map edge say which graph edge
it draws.  The validator re-derives every invariant from scratch, so a
drawing object that passes :func:`validate` is a self-contained
certificate of a plane drawing with at most one crossing per edge.

Drawings are immutable; operations return new certified drawings.  Internal
construction steps may pass an uncertified *draft*, a drawing built
directly from its parts; :func:`certify` or :func:`augment_degree2` ends
such a build with its one certification, as each surgery ends its one map
edit.  Independent drawings may be validated concurrently.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping, NamedTuple

from . import plane_map as pm
from .plane_map import PlaneMap

Edge = tuple[int, int]
Crossing = tuple[Edge, Edge]


class DrawingError(ValueError):
    """Raised when drawing data violates an invariant."""


def edge_key(u: int, v: int) -> Edge:
    if u == v:
        raise DrawingError(f"non-bipartite or non-simple graph: self-edge at {u}")
    return (u, v) if u < v else (v, u)


def crossing_key(e: Edge, f: Edge) -> Crossing:
    return (e, f) if e <= f else (f, e)


def _is_vertex_pair(e: object) -> bool:
    """Whether ``e`` is a tuple of two ends that compare, as :func:`edge_key` needs."""
    try:
        return isinstance(e, tuple) and len(sorted(e)) == 2
    except TypeError:
        return False


def _edge_keys(edges: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    """The :func:`edge_key` of every edge; ``edges`` is read again to name a non-pair."""
    try:
        return frozenset(edge_key(u, v) for u, v in edges)
    except DrawingError:
        raise
    except (TypeError, ValueError):
        bad = next(e for e in edges if not _is_vertex_pair(e))
        raise DrawingError(
            f"non-bipartite or non-simple graph: edge {bad} is not a vertex pair") from None


class Graph(NamedTuple):
    """A plain simple graph; the oracle certifies non-bipartite inputs too."""

    vertices: frozenset[int]
    edges: frozenset[Edge]

    @staticmethod
    def make(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> "Graph":
        vs = frozenset(vertices)
        es = _edge_keys(edges)
        for u, v in es:
            if u not in vs or v not in vs:
                raise DrawingError(f"edge ({u},{v}) leaves the vertex set")
        return Graph(vs, es)


class BipartiteGraph(NamedTuple):
    """A simple bipartite graph with black (smaller) and white vertex classes."""

    black: frozenset[int]
    white: frozenset[int]
    edges: frozenset[Edge]

    @staticmethod
    def make(black: Iterable[int], white: Iterable[int],
             edges: Iterable[tuple[int, int]]) -> "BipartiteGraph":
        b, w = frozenset(black), frozenset(white)
        if b & w:
            raise DrawingError("non-bipartite or non-simple graph: classes overlap")
        es = _edge_keys(edges)
        for u, v in es:
            if not ((u in b and v in w) or (u in w and v in b)):
                raise DrawingError(
                    f"non-bipartite or non-simple graph: edge ({u},{v}) is not black-white")
        return BipartiteGraph(b, w, es)

    @property
    def vertices(self) -> frozenset[int]:
        return self.black | self.white


class OnePlanarDrawing(NamedTuple):
    """An abstract graph, the planified map, and the pair crossing at each false vertex.

    A map edge between two true vertices is the graph edge joining them; one
    from a true vertex t to a false vertex w is the half at t of the edge of
    w's pair that ends at t.  ``crossings`` and ``edge_paths`` are read
    from the three parts.
    """

    graph: BipartiteGraph | Graph
    planified: PlaneMap
    false_vertices: dict[int, Crossing]

    @property
    def crossings(self) -> frozenset[Crossing]:
        return frozenset(self.false_vertices.values())

    @property
    def edge_paths(self) -> dict[Edge, tuple[int, ...]]:
        """Each graph edge's map edges in increasing order, read from a certified drawing."""
        false_vertices, owner = self.false_vertices, self.planified.dart_vertex
        paths: dict[Edge, tuple[int, ...]] = {}
        for me, (a, b) in sorted(self.planified.edge_darts.items()):
            t, w = owner[a], owner[b]
            if t in false_vertices:
                t, w = w, t
            pair = false_vertices.get(w)
            key = edge_key(t, w) if pair is None else pair[0] if t in pair[0] else pair[1]
            paths[key] = paths.get(key, ()) + (me,)
        return paths

    @property
    def x(self) -> int | None:
        g = self.graph
        return min(len(g.black), len(g.white)) if isinstance(g, BipartiteGraph) else None

    @property
    def y(self) -> int | None:
        g = self.graph
        return max(len(g.black), len(g.white)) if isinstance(g, BipartiteGraph) else None

    @property
    def vertex_count(self) -> int:
        return len(self.graph.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.graph.edges)


class ValidationReport(NamedTuple):
    """Per-invariant outcome of validating a drawing."""

    passed: bool
    failures: tuple[str, ...]
    x: int | None
    y: int | None
    vertices: int
    edges: int
    crossings: int
    crossing_ceiling: int | None
    exceeds_minimal_bound: bool | None


def crossing_ceiling(x: int) -> int:
    """Crossings of a crossing-minimal drawing never exceed ``6x - 12``.

    ``x`` is the size of the smaller vertex class; meaningful for ``x >= 2``.
    """
    return 6 * x - 12


def validate(d: OnePlanarDrawing) -> ValidationReport:
    """Check every drawing invariant; failures are report entries, not errors.

    Each map edge must draw one part of the graph, an uncrossed edge or a
    crossed edge's half at one end (see :class:`OnePlanarDrawing`), and
    each part must be drawn once.  The ``6x - 12`` crossing ceiling applies
    only to crossing-minimal drawings, so exceeding it is an advisory flag,
    never a failure.  Every check runs on every call; the only thing shared
    with other calls is the planified map's derived views (dart owners,
    edge darts, faces), which the map builds once from its own data.
    """
    failures: list[str] = []
    g = d.graph
    edges = g.edges
    try:
        if isinstance(g, BipartiteGraph):
            BipartiteGraph.make(g.black, g.white, edges)
        else:
            Graph.make(g.vertices, edges)
    except DrawingError as exc:
        failures.append(str(exc))
        edges = frozenset(filter(_is_vertex_pair, edges))  # the checks below sort edges

    false_vertices = d.false_vertices
    crossed: dict[Edge, int] = {}  # each crossed graph edge -> how many false vertices name it
    spokes: dict[tuple[int, int], Edge] = {}  # (w, t) -> the edge of w's pair that ends at t
    named: set[Crossing] = set()  # d.crossings, less any entry that cannot be hashed
    for w, pair in false_vertices.items():
        try:
            named.add(pair)
            e, f = (e0, e1), (f0, f1) = pair
            spokes[w, e0] = spokes[w, e1] = e
            spokes[w, f0] = spokes[w, f1] = f
        except (TypeError, ValueError):
            failures.append(f"false vertex {w} does not name a pair of edges: {pair}")
            continue
        for edge in pair:
            if edge in edges:
                crossed[edge] = crossed.get(edge, 0) + 1
            else:
                failures.append(f"path/edge mismatch: crossing names unknown edge {edge}")
        if len({e0, e1, f0, f1}) != 4:
            failures.append(f"adjacent crossing pair: {e} x {f}")
    for edge in sorted(e for e, k in crossed.items() if k > 1):
        failures.append(f"doubly-crossed edge: {edge}")

    m = d.planified
    true_vertices = set(g.vertices)
    map_vertices = set(m.rotations)
    false_set = set(false_vertices)
    if not true_vertices <= map_vertices:
        failures.append("path/edge mismatch: graph vertex missing from planified map")
    if map_vertices - true_vertices != false_set or false_set & true_vertices:
        failures.append("path/edge mismatch: false vertex set does not match planified map")

    # Each map edge takes an undrawn uncrossed edge or an undrawn spoke, the
    # half from a false vertex w to an end t of the edge of w's pair at t.
    owner = m.dart_vertex
    plain: set[Edge] = set()  # the uncrossed edges drawn
    half: dict[int, Edge] = {}  # each map edge at a false vertex -> the crossed edge it halves
    for me, (a, b) in m.edge_darts.items():
        t, w = owner[a], owner[b]
        if t in false_vertices:
            t, w = w, t
        if w in false_vertices:
            half[me] = edge = spokes.pop((w, t), None)
            if edge is None:
                failures.append(f"path/edge mismatch: map edge {me} is no undrawn spoke of {w}")
            continue
        edge = (t, w) if t < w else (w, t)
        if edge in plain or edge in crossed or edge not in edges:
            failures.append(f"path/edge mismatch: map edge {me} is no undrawn uncrossed edge")
        else:
            plain.add(edge)
    for (w, t), edge in spokes.items():
        failures.append(f"path/edge mismatch: edge {edge} has no half from {w} to {t}")
    if len(plain) + len(crossed) != len(edges):
        for edge in sorted(edges - plain - crossed.keys()):
            failures.append(f"path/edge mismatch: edge {edge} is not drawn")

    rotations, dart_edge = m.rotations, m.dart_edge
    false_darts: set[int] = set()
    for w in sorted(false_set & map_vertices):
        rot = rotations[w]
        false_darts.update(rot)
        if len(rot) != 4:
            failures.append(f"false vertex degree != 4: vertex {w}")
            continue
        owners = [half.get(dart_edge[dart]) for dart in rot]
        if None in owners or owners[0] != owners[2] or owners[1] != owners[3] \
                or owners[0] == owners[1]:
            failures.append(f"non-alternating rotation at false vertex {w}")

    if not pm.euler_check(m).planar:
        failures.append("non-planar planified map")

    # A walk steps from each dart's vertex to the far end of its edge, so a
    # face has consecutive false vertices only if a map edge joins two.
    opp = m.opposite
    joined = any(opp[dart] in false_darts for dart in false_darts)
    for walk in m.faces:
        if len(walk) >= 3 and not joined or false_darts.isdisjoint(walk):
            continue
        if len(walk) < 3:
            failures.append("face of size < 3 at a false vertex")
        verts = [owner[dart] for dart in walk]
        for a, b in zip(verts, verts[1:] + verts[:1]):
            if a in false_set and b in false_set:
                failures.append(f"consecutive false vertices {a},{b} on a face")
                break

    x = d.x
    ceiling = crossing_ceiling(x) if x is not None and x >= 2 else None
    return ValidationReport(
        passed=not failures,
        failures=tuple(dict.fromkeys(failures)),
        x=x,
        y=d.y,
        vertices=d.vertex_count,
        edges=d.edge_count,
        crossings=len(named),
        crossing_ceiling=ceiling,
        exceeds_minimal_bound=(len(named) > ceiling) if ceiling is not None else None,
    )


def assemble_drawing(graph: BipartiteGraph | Graph,
                     planified: PlaneMap,
                     false_vertices: Mapping[int, Crossing]) -> OnePlanarDrawing:
    """Construct a drawing and certify it, raising on the first failure.

    Each false vertex's pair is stored in :func:`crossing_key` order.
    """
    report = validate(OnePlanarDrawing(graph, planified, false_vertices))
    if not report.passed:
        raise DrawingError(report.failures[0])
    return OnePlanarDrawing(graph, planified,
                            {w: crossing_key(*c) for w, c in false_vertices.items()})


def certify(draft: OnePlanarDrawing) -> OnePlanarDrawing:
    """The drawing ``draft`` describes, certified by :func:`assemble_drawing`."""
    return assemble_drawing(*draft)


def black_extension(d: OnePlanarDrawing) -> PlaneMap:
    """Join the two black endpoints at every crossing by a new uncrossed edge.

    For each false vertex, one new black-black edge is drawn alongside the
    two crossing-edge segments that lead to black vertices, inside the face
    spanned by the corner between those segments.  The result is a plane
    multigraph with exactly one extra edge per crossing.
    """
    if not isinstance(d.graph, BipartiteGraph):
        raise DrawingError("black extension needs a bipartite drawing")
    black = d.graph.black
    m = d.planified
    ed = pm.MapEditor(m)
    for w in sorted(d.false_vertices):
        rot = m.rotations[w]
        spoke_to = {dart: (set(m.edge_endpoints(m.dart_edge[dart])) - {w}).pop()
                    for dart in rot}
        black_darts = [dart for dart in rot if spoke_to[dart] in black]
        if len(black_darts) != 2:
            raise DrawingError(f"false vertex {w} lacks two black spokes")
        t_p, t_q = black_darts
        if m._successor[t_p] != t_q:
            t_p, t_q = t_q, t_p
        if m._successor[t_p] != t_q:
            raise DrawingError(f"black spokes not adjacent at false vertex {w}")
        p, q = spoke_to[t_p], spoke_to[t_q]
        at_p, at_q = ed.new_edge()
        ed.insert_darts(p, ed.rotations[p].index(m.opposite[t_p]), [at_p])  # just before the segment
        ed.insert_darts(q, ed.rotations[q].index(m.opposite[t_q]) + 1, [at_q])  # just after it
    m = ed.finish()
    if len(m.edge_darts) != len(d.planified.edge_darts) + len(d.false_vertices):
        raise DrawingError("black extension produced a wrong edge count")
    if not pm.euler_check(m).planar:
        raise DrawingError("black extension broke planarity")
    return m


def _anchor_corners(m: PlaneMap, black: AbstractSet[int]) -> tuple[tuple[int, ...], int, int]:
    """The first face with two distinct black corners, and their walk positions."""
    for walk in m.faces:
        corners = [m.dart_vertex[dart] for dart in walk]
        for j in range(len(corners)):
            for i in range(j):
                a, b = corners[i], corners[j]
                if a != b and a in black and b in black:
                    return walk, i, j
    raise DrawingError("no eligible face for degree-2 augmentation")


def augment_degree2(d: OnePlanarDrawing, count: int) -> OnePlanarDrawing:
    """Insert ``count`` white degree-2 vertices joined to one black anchor pair.

    The anchors are the first two black vertices on the first eligible face
    in face-trace order; every new vertex joins the same pair without
    crossings.  The new vertices nest inside that face, each later one
    between its predecessor and the stretch of boundary that holds the
    face's first dart.  All spokes go into the face's two anchor corners, in
    insertion order at one anchor and reversed at the other, so faces are
    traced once.  ``d`` may be an uncertified draft: the result, which is
    ``d`` itself when ``count`` is 0, is certified once, and that checks
    the new graph too.  Adds ``count`` vertices and ``2 * count`` edges.
    """
    if count < 0:
        raise DrawingError("negative augmentation count")
    if count == 0:
        certify(d)
        return d
    g = d.graph
    if not isinstance(g, BipartiteGraph):
        raise DrawingError("degree-2 augmentation needs a bipartite drawing")
    m = d.planified
    walk, i, j = _anchor_corners(m, g.black)
    anchors = (m.dart_vertex[walk[i]], m.dart_vertex[walk[j]])
    ed = pm.MapEditor(m)
    # New vertex k joins anchors[0] by the edge of darts dart + 4k and
    # dart + 4k + 1, and anchors[1] by the next edge; the first dart of each
    # lies at its anchor.
    dart, _ = ed.new_edges(2 * count)
    new = [ed.add_vertex(darts=[dart + 4 * k + 3, dart + 4 * k + 1]) for k in range(count)]
    spokes = [list(range(dart + 2 * side, dart + 4 * count, 4)) for side in (0, 1)]
    # Later vertices nest toward walk[0], which reverses the order at
    # anchors[0] unless it is the walk's first corner, else at anchors[1].
    spokes[0 if i else 1].reverse()
    for side, pos in enumerate((i, j)):
        ed.insert_at_corner(walk[pos - 1], walk[pos], spokes[side])
    new_graph = BipartiteGraph(g.black, g.white | frozenset(new),
                               g.edges | {edge_key(v, a) for v in new for a in anchors})
    return assemble_drawing(new_graph, ed.finish(), d.false_vertices)


def remove_graph_edge(d: OnePlanarDrawing, u: int, v: int) -> OnePlanarDrawing:
    """Delete one graph edge; a crossed partner edge is healed to uncrossed."""
    e = edge_key(u, v)
    if e not in d.graph.edges:
        raise DrawingError(f"missing element: edge {e}")
    return _remove(d, {e}, set())


def remove_graph_vertex(d: OnePlanarDrawing, v: int) -> OnePlanarDrawing:
    """Delete a vertex with all incident edges, healing crossings en route."""
    if v not in d.graph.vertices:
        raise DrawingError(f"missing element: vertex {v}")
    return _remove(d, {e for e in d.graph.edges if v in e}, {v})


def _remove(d: OnePlanarDrawing, edges: set[Edge], vertices: set[int]) -> OnePlanarDrawing:
    """``d`` without ``edges``, then ``vertices``, in one map edit and one certification.

    Each crossing that loses an edge is smoothed, which leaves its partner
    one map edge; adjacent edges never cross in the certified ``d``, so none
    loses both.
    """
    ed = pm.MapEditor(d.planified)
    paths = d.edge_paths
    for e in edges:
        for me in paths[e]:
            ed.delete_edge(me)
    false_vertices = {}
    for w, (e, f) in d.false_vertices.items():
        if e in edges or f in edges:
            ed.smooth(w)
        else:
            false_vertices[w] = (e, f)
    for v in vertices:
        ed.delete_vertex(v)
    g = d.graph
    if isinstance(g, BipartiteGraph):
        new_graph: BipartiteGraph | Graph = BipartiteGraph(
            g.black - vertices, g.white - vertices, g.edges - edges)
    else:
        new_graph = Graph(g.vertices - vertices, g.edges - edges)
    return assemble_drawing(new_graph, ed.finish(), false_vertices)
