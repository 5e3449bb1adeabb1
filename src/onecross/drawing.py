"""One-crossing-per-edge drawings: the certified data model and its surgery.

A drawing couples an abstract simple graph with a set of crossing pairs and a
*planified* combinatorial map in which every crossing appears as a degree-4
false vertex whose rotation alternates between the two crossed edges.  The
validator re-derives every invariant from scratch, so a drawing object that
passes :func:`validate` is a self-contained certificate of a plane drawing
with at most one crossing per edge.

Drawings are immutable; operations return new certified drawings.  Internal
construction steps may pass an uncertified *draft*, a drawing built
directly from its parts; :func:`certify` or :func:`augment_degree2` ends
such a build with its one certification, as each surgery ends its one map
edit.  Independent drawings may be validated concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterable, Mapping

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


def _edge_keys(edges: Iterable[tuple[int, int]]) -> frozenset[Edge]:
    """The :func:`edge_key` of every edge; ``edges`` is read again to name a non-pair."""
    try:
        return frozenset(edge_key(u, v) for u, v in edges)
    except DrawingError:
        raise
    except ValueError:
        bad = next(e for e in edges if len(e) != 2)
        raise DrawingError(f"non-bipartite or non-simple graph: edge {bad} is not a vertex pair")


@dataclass(frozen=True)
class Graph:
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


@dataclass(frozen=True)
class BipartiteGraph:
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


@dataclass(frozen=True)
class OnePlanarDrawing:
    """An abstract graph, its crossing pairs, and the planified map.

    ``edge_paths`` realizes every graph edge as one map edge or as two map
    edges through one false vertex; ``false_vertices`` names the map vertex
    standing for each crossing.
    """

    graph: BipartiteGraph | Graph
    crossings: frozenset[Crossing]
    planified: PlaneMap
    edge_paths: dict[Edge, tuple[int, ...]]
    false_vertices: dict[int, Crossing]

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


@dataclass(frozen=True)
class ValidationReport:
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

    The ``6x - 12`` crossing ceiling applies only to crossing-minimal
    drawings, so exceeding it is reported as an advisory flag, never as a
    failure.  Every check runs on every call; the only thing shared with
    other calls is the planified map's derived views (dart owners, edge
    darts, faces), which the map builds once from its own data.
    """
    failures: list[str] = []
    g = d.graph
    bip = isinstance(g, BipartiteGraph)

    try:
        if bip:
            BipartiteGraph.make(g.black, g.white, g.edges)
        else:
            Graph.make(g.vertices, g.edges)
    except DrawingError as exc:
        failures.append(str(exc))

    seen: dict[Edge, int] = {}
    for e, f in d.crossings:
        for edge in (e, f):
            seen[edge] = seen.get(edge, 0) + 1
            if edge not in g.edges:
                failures.append(f"path/edge mismatch: crossing names unknown edge {edge}")
        if len({*e, *f}) != 4:
            failures.append(f"adjacent crossing pair: {e} x {f}")
    doubly = sorted(e for e, k in seen.items() if k > 1)
    for edge in doubly:
        failures.append(f"doubly-crossed edge: {edge}")

    m = d.planified
    true_vertices = set(g.vertices)
    map_vertices = set(m.rotations)
    false_set = set(d.false_vertices)
    if not true_vertices <= map_vertices:
        failures.append("path/edge mismatch: graph vertex missing from planified map")
    if map_vertices - true_vertices != false_set or false_set & true_vertices:
        failures.append("path/edge mismatch: false vertex set does not match planified map")
    if sorted(d.false_vertices.values()) != sorted(d.crossings) or \
            len(d.false_vertices) != len(d.crossings):
        failures.append("path/edge mismatch: false vertices do not enumerate crossings")

    # Edge paths partition the map edges: one per uncrossed edge, two per
    # crossed edge through its false vertex.
    crossed = {e for pair in d.crossings for e in pair}
    used: dict[int, Edge] = {}
    path_ok = set(d.edge_paths) == set(g.edges)
    if not path_ok:
        failures.append("path/edge mismatch: edge_paths keys differ from graph edges")
    edge_darts, owner, paths, false_vertices = m.edge_darts, m.dart_vertex, d.edge_paths, \
        d.false_vertices
    for e in sorted(paths):
        path = paths[e]
        if len(path) == 1:
            me = path[0]
            if me not in edge_darts:
                failures.append(f"path/edge mismatch: unknown map edge in path of {e}")
                continue
            if me in used:
                failures.append(f"path/edge mismatch: map edge {me} reused")
            used[me] = e
            a, b = edge_darts[me]
            ends = (owner[a], owner[b])
            if ends != e and ends[::-1] != e and set(ends) != set(e):
                failures.append(f"path/edge mismatch: wrong endpoints for {e}")
            if e in crossed:
                failures.append(f"path/edge mismatch: crossed edge {e} has a direct path")
            continue
        if not all(map(edge_darts.__contains__, path)):
            failures.append(f"path/edge mismatch: unknown map edge in path of {e}")
            continue
        for me in path:
            if me in used:
                failures.append(f"path/edge mismatch: map edge {me} reused")
            used[me] = e
        if len(path) != 2:
            failures.append(f"path/edge mismatch: path of {e} has length {len(path)}")
            continue
        # The segments must share exactly one end w; their far ends are e's.
        a, b = edge_darts[path[0]]
        a0, b0 = owner[a], owner[b]
        a, b = edge_darts[path[1]]
        a1, b1 = owner[a], owner[b]
        if a0 == a1 or a0 == b1:
            w, far0 = a0, b0
        elif b0 == a1 or b0 == b1:
            w, far0 = b0, a0
        else:
            failures.append(f"path/edge mismatch: segments of {e} do not chain")
            continue
        far1 = b1 if a1 == w else a1
        if far0 == far1 or \
                (far0, far1) != e and (far1, far0) != e and {far0, far1} != set(e):
            failures.append(f"path/edge mismatch: segments of {e} do not chain")
        elif w not in false_vertices or e not in false_vertices.get(w, ()):
            failures.append(f"path/edge mismatch: edge {e} routed through foreign vertex {w}")
    if len(used) != len(edge_darts):
        failures.append("path/edge mismatch: planified map has unused edges")

    rotations, dart_edge = m.rotations, m.dart_edge
    false_darts: set[int] = set()
    for w in sorted(false_set & map_vertices):
        rot = rotations[w]
        false_darts.update(rot)
        if len(rot) != 4:
            failures.append(f"false vertex degree != 4: vertex {w}")
            continue
        owners = [used.get(dart_edge[dart]) for dart in rot]
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

    x = d.x if bip else None
    ceiling = crossing_ceiling(x) if bip and x is not None and x >= 2 else None
    return ValidationReport(
        passed=not failures,
        failures=tuple(dict.fromkeys(failures)),
        x=x,
        y=d.y if bip else None,
        vertices=d.vertex_count,
        edges=d.edge_count,
        crossings=len(d.crossings),
        crossing_ceiling=ceiling,
        exceeds_minimal_bound=(len(d.crossings) > ceiling) if ceiling is not None else None,
    )


def assemble_drawing(graph: BipartiteGraph | Graph,
                     crossings: Iterable[Crossing],
                     planified: PlaneMap,
                     edge_paths: Mapping[Edge, tuple[int, ...]],
                     false_vertices: Mapping[int, Crossing]) -> OnePlanarDrawing:
    """Construct a drawing and certify it, raising on the first failure."""
    d = OnePlanarDrawing(
        graph=graph,
        crossings=frozenset(crossing_key(*c) for c in crossings),
        planified=planified,
        edge_paths={edge_key(*e): tuple(p) for e, p in edge_paths.items()},
        false_vertices=dict(false_vertices),
    )
    report = validate(d)
    if not report.passed:
        raise DrawingError(report.failures[0])
    return d


def certify(draft: OnePlanarDrawing) -> OnePlanarDrawing:
    """The drawing ``draft`` describes, certified by :func:`assemble_drawing`."""
    return assemble_drawing(draft.graph, draft.crossings, draft.planified,
                            draft.edge_paths, draft.false_vertices)


def crossing_count(d: OnePlanarDrawing) -> int:
    return len(d.crossings)


def recover_graph(d: OnePlanarDrawing) -> BipartiteGraph | Graph:
    """The abstract graph of the drawing (round-trip identity)."""
    return d.graph


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
    if len(m.edge_darts) != len(d.planified.edge_darts) + len(d.crossings):
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
    ``d`` itself when ``count`` is 0, is certified once.  Adds ``count``
    vertices and ``2 * count`` edges.
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
    new: list[int] = []
    edge_paths = dict(d.edge_paths)
    spokes: tuple[list[int], list[int]] = ([], [])
    for _ in range(count):
        # (dart at the anchor, dart at the new vertex) for each anchor.
        darts = [ed.new_edge() for _ in anchors]
        v = ed.add_vertex(darts=[darts[1][1], darts[0][1]])
        for side, (spoke, _) in enumerate(darts):
            spokes[side].append(spoke)
            edge_paths[edge_key(v, anchors[side])] = (ed.dart_edge[spoke],)
        new.append(v)
    # Later vertices nest toward walk[0], which reverses the order at
    # anchors[0] unless it is the walk's first corner, else at anchors[1].
    spokes[0 if i else 1].reverse()
    for side, pos in enumerate((i, j)):
        ed.insert_at_corner(walk[pos - 1], walk[pos], spokes[side])
    new_graph = BipartiteGraph.make(g.black, g.white | set(new), edge_paths.keys())
    return assemble_drawing(new_graph, d.crossings, ed.finish(), edge_paths, d.false_vertices)


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

    Each crossing that loses an edge is smoothed into its partner's new path;
    adjacent edges never cross in the certified ``d``, so none loses both.
    """
    ed = pm.MapEditor(d.planified)
    edge_paths = dict(d.edge_paths)
    for e in edges:
        for me in edge_paths.pop(e):
            ed.delete_edge(me)
    false_vertices = {}
    for w, (e, f) in d.false_vertices.items():
        if e in edges or f in edges:
            edge_paths[f if e in edges else e] = (ed.smooth(w),)
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
    return assemble_drawing(new_graph, false_vertices.values(), ed.finish(), edge_paths,
                            false_vertices)
