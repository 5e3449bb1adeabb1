"""Generators for extremal bipartite drawings with one crossing per edge.

Every generator returns a :class:`~onecross.drawing.OnePlanarDrawing` that
was certified exactly once: its steps pass an uncertified draft, and the
generator ends with :func:`~onecross.drawing.certify` or, for the families
with degree-2 whites, :func:`~onecross.drawing.augment_degree2`.
:func:`family_formulas` is the one statement of each family's domain and
edge count: a generator reads its count from that table, raises
:class:`~onecross.drawing.DrawingError` where its family does not apply, and
raises it again if the finished drawing misses the count.  Each family is a
host map without coordinates (a stacked triangulation, nested 4-cycles or a
star) with straight-line sketches of at most 9 points (see
:mod:`onecross.sketch`) spliced into its faces.  The one-crossing drawing of
the complete (3, 3) graph is a single sketch; the balanced (5, 5) drawing,
found by the search in ``scripts/find_balanced5.py``, ships as a JSON
template under ``onecross/data`` and is parsed without a certification of
its own.

All generators are pure functions of their parameters and cache no drawing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Mapping, Sequence

from . import plane_map as pm
from .drawing import (
    BipartiteGraph,
    DrawingError,
    OnePlanarDrawing,
    augment_degree2,
    certify,
    crossing_key,
    edge_key,
)
from .plane_map import PlaneMap
from .sketch import CompiledSketch, compile_sketch

# --------------------------------------------------------------------------
# Insertion patterns for triangular faces.  Three white vertices are placed
# inside a black triangle, every white joined to all three corners with three
# mutually crossing pairs; variants add one to three black vertices of degree
# three joined to the whites (the second and third need one extra crossing
# each).
# --------------------------------------------------------------------------

_CORNERS = {"A": (0.0, 2.0), "B": (-1.0, 0.0), "C": (1.0, 0.0)}
_W3_POINTS = {"w1": (0.0, 1.2), "w2": (-0.5, 0.35), "w3": (0.5, 0.35)}
_W3_EDGES = [
    ("w1", "A"), ("w2", "B"), ("w3", "C"),
    ("w1", "B"), ("w2", "A"),
    ("w2", "C"), ("w3", "B"),
    ("w3", "A"), ("w1", "C"),
]
_W3_CROSSINGS = [
    (("w1", "B"), ("w2", "A")),
    (("w2", "C"), ("w3", "B")),
    (("w3", "A"), ("w1", "C")),
]
_EXTRA_BLACKS = {
    "u1": ((0.0, 0.6), []),
    "u2": ((-0.28, 0.6), [(("u2", "w3"), ("u1", "w2"))]),
    "u3": ((-0.15, 0.78), [(("u3", "w2"), ("u2", "w1")),
                           (("u3", "w3"), ("u1", "w1"))]),
}


@lru_cache(maxsize=None)
def _face_pattern(extra_blacks: int, whites: int = 3) -> CompiledSketch:
    """The white-triple pattern with ``extra_blacks`` added black vertices.

    Only the first ``whites`` of w1, w2, w3 are kept; every edge at a dropped
    white goes with it, and so does every crossing on such an edge.
    """
    points = dict(_CORNERS) | dict(_W3_POINTS)
    edges = list(_W3_EDGES)
    crossings = list(_W3_CROSSINGS)
    for name in list(_EXTRA_BLACKS)[:extra_blacks]:
        pt, extra_cross = _EXTRA_BLACKS[name]
        points[name] = pt
        edges += [(name, "w1"), (name, "w2"), (name, "w3")]
        crossings += extra_cross
    for name in list(_W3_POINTS)[whites:]:
        del points[name]
        edges = [e for e in edges if name not in e]
        crossings = [c for c in crossings if name not in c[0] + c[1]]
    return compile_sketch(points, edges, crossings, corners=("A", "B", "C"))


def _pattern_classes(extra_blacks: int) -> dict[str, str]:
    classes = {"w1": "white", "w2": "white", "w3": "white"}
    for name in list(_EXTRA_BLACKS)[:extra_blacks]:
        classes[name] = "black"
    return classes


# --------------------------------------------------------------------------
# Drawing assembly
# --------------------------------------------------------------------------


class _Builder:
    """Graph bookkeeping over one map edit; ``draft`` ends the build."""

    def __init__(self, base: PlaneMap | None = None, black: Iterable[int] = (),
                 white: Iterable[int] = ()):
        self.map = pm.MapEditor(base)
        self.black = set(black)
        self.white = set(white)
        self.graph_edges: set[tuple[int, int]] = set()
        self.edge_paths: dict[tuple[int, int], tuple[int, ...]] = {}
        self.crossings: set = set()
        self.false_vertices: dict[int, tuple] = {}

    def splice(self, sk: CompiledSketch, classes: Mapping[str, str],
               walk: Sequence[int] = ()) -> None:
        """Add a compiled sketch; a fragment splices into the host face ``walk``.

        Pattern corner ``i`` is the host vertex at ``walk[i]``, and its wedge
        goes into the corner the walk enters by ``walk[i - 1]``.
        """
        ed = self.map
        dart_ids: dict[tuple[str, str], int] = {}

        def dart(at: str, toward: str) -> int:
            if (at, toward) not in dart_ids:
                dart_ids[(at, toward)], dart_ids[(toward, at)] = ed.new_edge()
            return dart_ids[(at, toward)]

        host: dict[str, int] = {}
        for name in sk.true_names + sk.false_names:
            if name in sk.corners:
                continue
            cls = classes.get(name)
            if cls is None and name not in sk.false_names:
                raise DrawingError(f"sketch vertex {name} has no class")
            vid = host[name] = ed.add_vertex(darts=[dart(name, t) for t in sk.rotations[name]])
            if cls == "black":
                self.black.add(vid)
            elif cls == "white":
                self.white.add(vid)
        for i, corner in enumerate(sk.corners):
            wedge = [dart(corner, t) for t in sk.corner_wedges[corner]]
            host[corner] = ed.insert_at_corner(walk[i - 1], walk[i], wedge)

        def gedge(u: str, v: str) -> tuple[int, int]:
            return edge_key(host[u], host[v])

        for (u, v) in sk.graph_edges:
            e = gedge(u, v)
            self.graph_edges.add(e)
            self.edge_paths[e] = tuple(ed.dart_edge[dart_ids[p]] for p in sk.edge_paths[(u, v)])
        for pair in sk.crossings:
            self.crossings.add(crossing_key(gedge(*pair[0]), gedge(*pair[1])))
        for fname, pair in sk.false_of.items():
            self.false_vertices[host[fname]] = crossing_key(gedge(*pair[0]),
                                                            gedge(*pair[1]))

    def draft(self) -> OnePlanarDrawing:
        """The drawing built so far, not yet certified."""
        graph = BipartiteGraph.make(self.black, self.white, self.graph_edges)
        return OnePlanarDrawing(graph, frozenset(self.crossings), self.map.finish(),
                                self.edge_paths, self.false_vertices)


# --------------------------------------------------------------------------
# Parameter arithmetic shared by generators and the bounds module
# --------------------------------------------------------------------------


def _split(x: int, yy: int) -> tuple[int, int]:
    """(s, t) with x = yy/6 + 2 + 3s + t, for ``yy`` a multiple of six."""
    rem = x - (yy // 6 + 2)
    if rem < 0:
        raise DrawingError("class sizes outside the intermediate regime")
    return rem // 3, rem % 3


# --------------------------------------------------------------------------
# Triangulation host
# --------------------------------------------------------------------------


def stacked_triangulation(x: int) -> PlaneMap:
    """Deterministic planar triangulation on ``x`` vertices with 2x-4 faces.

    Starts from a triangle and repeatedly inserts a degree-3 vertex into the
    first face in trace order.
    """
    if x < 3:
        raise DrawingError("a triangulation needs at least 3 vertices")
    m = pm.build_map(
        {0: [0, 4], 1: [1, 2], 2: [3, 5]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
    )
    for _ in range(x - 3):
        walk = m.faces[0]
        corners = [m.dart_vertex[d] for d in walk]
        m, _ = pm.insert_vertex_in_face(m, 0, corners)
    return m


_Pattern = tuple[Sequence[int], CompiledSketch, Mapping[str, str]]


def _fill(host: PlaneMap, white: Iterable[int], patterns: Iterable[_Pattern]) -> _Builder:
    """Splice each (face walk, sketch, classes) pattern into ``host``.

    The host's vertices are graph vertices: ``white`` are white, the rest
    black.  A host edge between the two classes stays as an uncrossed graph
    edge; a host edge inside one class is a helper and is deleted.
    """
    white = set(white)
    builder = _Builder(host, black=set(host.rotations) - white, white=white)
    for walk, sk, classes in patterns:
        builder.splice(sk, classes, walk)
    for e, (d, o) in host.edge_darts.items():
        u, v = host.dart_vertex[d], host.dart_vertex[o]
        if (u in white) == (v in white):
            builder.map.delete_edge(e)
        else:
            builder.graph_edges.add(edge_key(u, v))
            builder.edge_paths[edge_key(u, v)] = (e,)
    return builder


def _fill_triangulation(x_corners: int, faces: list[tuple[int, int]]) -> _Builder:
    """Fill each face ``i`` of a stacked triangulation with the ``faces[i]``
    (extra blacks, whites) pattern; the all-black triangulation edges go."""
    tri = stacked_triangulation(x_corners)
    if len(faces) != len(tri.faces):
        raise DrawingError("one pattern kind per face required")
    return _fill(tri, (), [(walk, _face_pattern(extra, whites), _pattern_classes(extra))
                           for walk, (extra, whites) in zip(tri.faces, faces)])


# --------------------------------------------------------------------------
# Families
# --------------------------------------------------------------------------


def w3_family(x: int, y: int) -> OnePlanarDrawing:
    """Unbalanced extremal family: classes (x, y), 2(x+y) + 4x - 12 edges.

    A triangulation on the x black vertices receives the white-triple pattern
    in each of its 2x-4 faces and then loses its own edges; extra whites of
    degree 2 absorb any y beyond 6x - 12.  The drawing is certified once,
    by :func:`~onecross.drawing.augment_degree2`.
    """
    count = _table_edges("w3", x, y)
    builder = _fill_triangulation(x, [(0, 3)] * (2 * x - 4))
    return _exact(augment_degree2(builder.draft(), y - len(builder.white)), "w3", count)


def k36_family(y: int) -> OnePlanarDrawing:
    """Tight x = 3 family: classes (3, y), exactly 2(3 + y) edges.

    Realized as the x = 3 member of the unbalanced family, whose core is the
    complete bipartite graph on 3 + 6 vertices, plus y - 6 degree-2 whites.
    """
    return w3_family(3, y)


def b_family(x: int, y: int) -> OnePlanarDrawing:
    """Intermediate regime: classes (x, y) with max(x, 6) <= y <= 6x - 12.

    For y = 6r the edge count is 3(x + y - (y/6 + 2)).  Otherwise, with
    y = 6r + u, the faces are laid out as for the next multiple of six but
    the first two plain faces keep only u whites between them (the first
    keeps max(u - 3, 0), the second min(u, 3); w1 is kept first), giving
    (5(x+y) + x + u)/2 - 9 edges.  The drawing is certified once.  The pair
    (11, 11) is the one size this construction cannot reach and is served
    by :func:`balanced`.
    """
    if (x, y) == (11, 11):
        return balanced(11)
    count = _table_edges("b", x, y)
    u = y % 6
    yy = y - u + 6 if u else y
    base = yy // 6 + 2
    s, t = _split(x, yy)
    faces = [(3, 3)] * s + ([(t, 3)] if t else [])
    trimmed = [(0, max(u - 3, 0)), (0, min(u, 3))] if u else []
    plain = 2 * base - 4 - len(faces)
    if plain < len(trimmed):
        raise DrawingError("triangulation too small for the requested split")
    faces += trimmed + [(0, 3)] * (plain - len(trimmed))
    return _exact(certify(_fill_triangulation(base, faces).draft()), "b", count)


# -- balanced families -------------------------------------------------------


def _ring_vertex(axis: int, i: int) -> int:
    """The host id of ring ``i``'s vertex on ``axis`` (0..3 for x1, y1, x2, y2)."""
    return 4 * (i - 1) + axis


def _web(k: int, odd: bool) -> PlaneMap:
    """The ring host: k nested 4-cycles x1_i y1_i x2_i y2_i, ring 1 innermost.

    The axes x1, y1, x2, y2 run counterclockwise; x is black, y white.
    Helper rungs join each axis's vertices on consecutive rings.  Built from
    closed-form rotations: counterclockwise, each vertex sees its outward
    rung, the next axis's vertex, its inward rung and the previous axis's
    vertex.  When ``odd``, the (x1, y1) quadrant swaps its ring edges for the
    chords x1_i y1_{i+2}.
    """
    def at(axis: int, i: int) -> int | None:
        return _ring_vertex(axis % 4, i) if 1 <= i <= k else None

    shift = 2 if odd else 0  # the (x1, y1) quadrant joins x1_i to y1_{i + shift}
    edge_ids: dict[frozenset[int], int] = {}
    lists = {}
    for i in range(1, k + 1):
        for axis in range(4):
            v = _ring_vertex(axis, i)
            around = [at(axis, i + 1), at(axis + 1, i + shift * (axis == 0)),
                      at(axis, i - 1), at(axis - 1, i - shift * (axis == 1))]
            lists[v] = [(w, edge_ids.setdefault(frozenset((v, w)), len(edge_ids)))
                        for w in around if w is not None]
    return pm.map_from_rotation_lists(lists)


def _walk(m: PlaneMap, u: int, v: int) -> tuple[int, ...]:
    """The face walk that starts with the dart from ``u`` to ``v``."""
    start = next(d for d in m.rotations[u] if m.dart_vertex[m.opposite[d]] == v)
    walk = [start]
    while (d := m.next_dart(walk[-1])) != start:
        walk.append(d)
    return tuple(walk)


@lru_cache(maxsize=None)
def _x_tile() -> CompiledSketch:
    """The two diagonals of a 4-face, crossing once."""
    points = {"a": (0.0, 0.0), "b": (0.0, 1.0), "c": (1.0, 1.0), "d": (1.0, 0.0)}
    return compile_sketch(points, [("a", "c"), ("b", "d")], [(("a", "c"), ("b", "d"))],
                          corners=("a", "b", "c", "d"))


@lru_cache(maxsize=None)
def _cap() -> CompiledSketch:
    """The 6-face cap of an odd ring drawing, corners c0..c5 in face-walk order.

    Its vertex u joins c0, c1, c2 and c4; u c2 crosses the chord c1 c3 and
    u c4 crosses the chord c0 c3.
    """
    points = {"c0": (0.0, 2.0), "c1": (2.0, 1.0), "c2": (2.0, -1.0), "c3": (0.0, -2.0),
              "c4": (-2.0, -1.0), "c5": (-2.0, 1.0), "u": (0.6, 0.4)}
    edges = [("c0", "c3"), ("c1", "c3"), ("u", "c0"), ("u", "c1"), ("u", "c2"), ("u", "c4")]
    crossings = [(("u", "c2"), ("c1", "c3")), (("u", "c4"), ("c0", "c3"))]
    return compile_sketch(points, edges, crossings, corners=tuple(points)[:6])


def _k33_sketch() -> tuple[CompiledSketch, dict[str, str]]:
    """The complete (3, 3) graph drawn with a single crossing."""
    points = {
        "b1": (0.0, 0.0), "b2": (1.0, 0.0), "b3": (0.5, 1.0),
        "w_in": (0.5, 0.33), "w_bot": (0.55, -0.5), "w_top": (0.5, 1.8),
    }
    classes = {n: ("black" if n.startswith("b") else "white") for n in points}
    edges = [(b, w) for b in ("b1", "b2", "b3") for w in ("w_in", "w_bot", "w_top")]
    crossings = [(("w_bot", "b3"), ("w_in", "b2"))]
    return compile_sketch(points, edges, crossings), classes


def _balanced_draft(x: int) -> OnePlanarDrawing:
    """The uncertified balanced drawing on classes (x, x); x = 5 parses the template."""
    if x == 5:
        from .formats import parse_document

        text = resources.files("onecross").joinpath("data/balanced5.json").read_text()
        return parse_document(json.loads(text))
    if x == 3:
        builder = _Builder()
        builder.splice(*_k33_sketch())
        return builder.draft()
    k, odd = divmod(x, 2)
    host = _web(k, bool(odd))
    v = _ring_vertex
    # Every 4-face between two rings gets an X tile; odd sizes skip the
    # (x1, y1) quadrant here and tile its 4-faces between chords below.
    patterns: list[_Pattern] = [(_walk(host, v(axis, i), v((axis + 1) % 4, i)), _x_tile(), {})
                               for axis in range(odd, 4) for i in range(1, k)]
    if odd:
        patterns += [(_walk(host, v(0, i), v(1, i + 2)), _x_tile(), {}) for i in range(1, k - 2)]
        # One cap fits both 6-faces: the inner one from y1_1 with a black u,
        # the outer one from x1_k with a white u.
        patterns += [(_walk(host, v(1, 1), v(1, 2)), _cap(), {"u": "black"}),
                     (_walk(host, v(0, k), v(0, k - 1)), _cap(), {"u": "white"})]
    white = [v(axis, i) for axis in (1, 3) for i in range(1, k + 1)]
    return _fill(host, white, patterns).draft()


def balanced(x: int) -> OnePlanarDrawing:
    """Balanced family: classes (x, x) with 6x - 8 edges (9 when x = 3).

    Even sizes x = 2k fill the ring host :func:`_web` on k rings with one
    X tile per 4-face between rings.  Odd sizes x = 2k + 1 >= 7 use the odd
    host, whose (x1, y1) quadrant has the chords x1_i y1_{i+2}; its two
    6-faces get a cap each, adding one black and one white vertex of degree
    4.  x = 3 is the one-crossing drawing of the complete (3, 3) graph and
    x = 5 the stored template.  The size-6 graph caps at 9 edges, so x = 3
    cannot reach 6x - 8 = 10.  The drawing is certified once.
    """
    count = _table_edges("balanced", x, x)
    return _exact(certify(_balanced_draft(x)), "balanced", count)


def near_balanced(x: int, y: int) -> OnePlanarDrawing:
    """Almost balanced family: classes (x, y = x + z) and 3(x+y) - 8 - z edges.

    The balanced drawing on (x, x) gains z whites of degree 2, and the
    result is certified once.  Needs x >= 4: a balanced 6x - 8 edge base
    does not exist for x = 3.
    """
    count = _table_edges("near", x, y)
    return _exact(augment_degree2(_balanced_draft(x), y - x), "near", count)


# -- trivial and fallback families ------------------------------------------


def _star(y: int) -> OnePlanarDrawing:
    """Star on classes (1, y); planar with y edges."""
    count = _table_edges("star", 1, y)
    whites = range(1, y + 1)
    host = pm.map_from_rotation_lists({0: [(w, w) for w in whites]}
                                      | {w: [(0, w)] for w in whites})
    return _exact(certify(_fill(host, whites, ()).draft()), "star", count)


def _double_star(y: int) -> OnePlanarDrawing:
    """Complete bipartite graph on classes (2, y); planar with 2y edges."""
    count = _table_edges("double-star", 2, y)
    whites = range(2, y + 2)
    # Blacks 0 and 1 see the whites in opposite cyclic orders.
    lists = {0: [(w, 2 * w) for w in whites], 1: [(w, 2 * w + 1) for w in reversed(whites)]}
    lists |= {w: [(0, 2 * w), (1, 2 * w + 1)] for w in whites}
    host = pm.map_from_rotation_lists(lists)
    return _exact(certify(_fill(host, whites, ()).draft()), "double-star", count)


def _complete_x3_small(y: int) -> OnePlanarDrawing:
    """Complete bipartite graph on classes (3, y) for y in 3..5.

    The (3, 6) core with its second face keeping only y - 3 whites, built in
    one pass and certified once.
    """
    count = _table_edges("complete-small", 3, y)
    d = certify(_fill_triangulation(3, [(0, 3), (0, y - 3)]).draft())
    return _exact(d, "complete-small", count)


# -- dispatcher ---------------------------------------------------------------


@dataclass(frozen=True)
class BestKnown:
    """Best construction for given class sizes, with the winning family name."""

    drawing: OnePlanarDrawing
    family: str

    @property
    def edges(self) -> int:
        return self.drawing.edge_count


def family_formulas(x: int, y: int) -> list[tuple[str, int]]:
    """Closed-form edge counts of every family applicable at (x, y).

    This table is the only statement of each family's domain and count.  It
    drives the constructive lower bound, the dispatcher (rows are listed in
    tie-break order) and every generator's check of its own drawing, so all
    three agree by construction.
    """
    if not 1 <= x <= y:
        raise DrawingError("need 1 <= x <= y")
    out: list[tuple[str, int]] = []
    n = x + y
    if x == 1:
        out.append(("star", y))
    if x == 2:
        out.append(("double-star", 2 * y))
    if x == 3 and y < 6:
        out.append(("complete-small", 3 * y))
    if x >= 3 and y >= 6 * x - 12:
        out.append(("w3", 2 * n + 4 * x - 12))
    if x >= 3 and max(x, 6) <= y <= 6 * x - 12 and (x, y) != (11, 11):
        u = y % 6
        if u == 0:
            out.append(("b", 3 * (n - (y // 6 + 2))))
        else:
            out.append(("b", (5 * n + x + u) // 2 - 9))
    if x == y and x >= 2:
        out.append(("balanced", 9 if x == 3 else 6 * x - 8))
    if x >= 4:
        out.append(("near", 3 * n - 8 - (y - x)))
    return out


def _table_edges(family: str, x: int, y: int) -> int:
    """The edge count :func:`family_formulas` gives ``family`` at (x, y)."""
    for name, count in family_formulas(x, y):
        if name == family:
            return count
    raise DrawingError(f"the {family} family does not apply to classes ({x}, {y})")


def _exact(d: OnePlanarDrawing, family: str, count: int) -> OnePlanarDrawing:
    """``d`` itself, once its edge count is the table's ``count``."""
    if d.edge_count != count:
        raise DrawingError(f"family {family} drew {d.edge_count} edges at "
                           f"({d.x}, {d.y}); its closed form gives {count}")
    return d


_BUILDERS = {
    "star": lambda x, y: _star(y),
    "double-star": lambda x, y: _double_star(y),
    "complete-small": lambda x, y: _complete_x3_small(y),
    "w3": w3_family,
    "b": b_family,
    "balanced": lambda x, y: balanced(x),
    "near": near_balanced,
}


def best_known(x: int, y: int) -> BestKnown:
    """Build the applicable family with the most edges (ties: table order)."""
    family, _ = max(family_formulas(x, y), key=lambda row: row[1])
    return BestKnown(drawing=_BUILDERS[family](x, y), family=family)
