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
:mod:`onecross.sketch`) spliced into its faces.  Two small drawings are a
single standalone sketch each: the one-crossing drawing of the complete
(3, 3) graph and the balanced (5, 5) drawing with 22 edges and 6 crossings.
A compiled sketch holds local integer ids
(:class:`~onecross.sketch.CompiledSketch`), so a splice takes the map
edges it adds in one block, and its darts, edges and vertices are offsets
from the first new ids.  A draft is a drawing's three parts: the graph of
the edge keys the splices and the host hold, the edited map and the false
vertices, unchecked until the one certification.

All generators are pure functions of their parameters and cache no
drawing; each compiled sketch, the two standalone ones included, is
compiled once and cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

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

_CORNERS = {"A": (0, 200), "B": (-100, 0), "C": (100, 0)}
_W3_POINTS = {"w1": (0, 120), "w2": (-50, 35), "w3": (50, 35)}
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
    "u1": ((0, 60), []),
    "u2": ((-28, 60), [(("u2", "w3"), ("u1", "w2"))]),
    "u3": ((-15, 78), [(("u3", "w2"), ("u2", "w1")),
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
        self.edges: set[tuple[int, int]] = set()
        self.false_vertices: dict[int, tuple] = {}

    def splice(self, sk: CompiledSketch, classes: Mapping[str, str],
               walk: Sequence[int] = ()) -> None:
        """Add a compiled sketch; a fragment splices into the host face ``walk``.

        Pattern corner ``i`` is the host vertex at ``walk[i]``, and its wedge
        goes into the corner the walk enters by ``walk[i - 1]``.  The sketch's
        local darts and map edges get the next free ids, as offsets from the
        first new ones.
        """
        kinds = [classes.get(name) for name in sk.names]
        if None in kinds:
            raise DrawingError(f"sketch vertex {sk.names[kinds.index(None)]} has no class")
        ed = self.map
        dart0, _ = ed.new_edges(sk.edges)
        host = [ed.add_vertex([dart0 + d for d in rot]) for rot in sk.rotations]
        for vid, kind in zip(host, kinds):
            if kind == "black":
                self.black.add(vid)
            elif kind == "white":
                self.white.add(vid)
        host += [ed.insert_at_corner(walk[i - 1], walk[i], [dart0 + d for d in wedge])
                 for i, wedge in enumerate(sk.wedges)]
        keys = [edge_key(host[u], host[v]) for u, v in sk.graph_edges]
        self.edges.update(keys)
        for w, a, b in sk.crossings:
            self.false_vertices[host[w]] = crossing_key(keys[a], keys[b])

    def draft(self) -> OnePlanarDrawing:
        """The drawing built so far, not yet certified.

        Its edges were keyed as they were added; the certification checks
        the graph, as it checks everything else.
        """
        graph = BipartiteGraph(frozenset(self.black), frozenset(self.white),
                               frozenset(self.edges))
        return OnePlanarDrawing(graph, self.map.finish(), self.false_vertices)


# --------------------------------------------------------------------------
# Triangulation host
# --------------------------------------------------------------------------


def stacked_triangulation(x: int) -> PlaneMap:
    """Deterministic planar triangulation on ``x`` vertices with 2x-4 faces.

    Starts from a triangle and repeatedly inserts a degree-3 vertex into the
    face of dart 0, the first face in trace order, in one editor session.
    After an insertion that face is (dart 0, the new spoke at its second
    corner, the new vertex's hub toward its first corner), so the walk is
    known without tracing a face.
    """
    if x < 3:
        raise DrawingError("a triangulation needs at least 3 vertices")
    ed = pm.MapEditor()
    ed.new_edges(3)  # edge i has darts 2i and 2i + 1
    for rot in ([0, 4], [1, 2], [3, 5]):
        ed.add_vertex(rot)
    walk = (0, 2, 5)  # the triangle's face of dart 0
    for _ in range(x - 3):
        _, d = ed.add_star(walk, range(3))
        walk = (walk[0], d + 2, d + 1)
    return ed.finish()


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
            builder.edges.add(edge_key(u, v))
    return builder


def _fill_triangulation(x_corners: int, faces: list[tuple[int, int]]) -> _Builder:
    """Fill each face ``i`` of a stacked triangulation with the ``faces[i]``
    (extra blacks, whites) pattern; the all-black triangulation edges go."""
    tri = stacked_triangulation(x_corners)
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
    complete bipartite graph on 3 + 6 vertices, plus y - 6 degree-2 whites;
    so y >= 6, the w3 domain y >= 6x - 12 at x = 3.
    """
    if y < 6:
        raise DrawingError(f"the k36 family does not apply to classes (3, {y}): it needs y >= 6")
    return w3_family(3, y)


def b_family(x: int, y: int) -> OnePlanarDrawing:
    """Intermediate regime: classes (x, y) with max(x, 6) <= y <= 6x - 12.

    For y = 6r the edge count is 3(x + y - (y/6 + 2)).  Otherwise, with
    y = 6r + u, the faces are laid out as for the next multiple of six but
    the first two plain faces keep only u whites between them (the first
    keeps max(u - 3, 0), the second min(u, 3); w1 is kept first), giving
    (5(x+y) + x + u)/2 - 9 edges.  The drawing is certified once.  The pair
    (11, 11) is the one size in that range this construction cannot reach,
    so :func:`family_formulas` leaves it out and it raises
    :class:`~onecross.drawing.DrawingError`; :func:`balanced` draws it.
    """
    count = _table_edges("b", x, y)
    u = y % 6
    yy = y - u + 6 if u else y
    base = yy // 6 + 2
    s, t = divmod(x - base, 3)
    faces = [(3, 3)] * s + ([(t, 3)] if t else [])
    trimmed = [(0, max(u - 3, 0)), (0, min(u, 3))] if u else []
    plain = 2 * base - 4 - len(faces)
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
    lists = {}
    for i in range(1, k + 1):
        for axis in range(4):
            around = [at(axis, i + 1), at(axis + 1, i + shift * (axis == 0)),
                      at(axis, i - 1), at(axis - 1, i - shift * (axis == 1))]
            lists[_ring_vertex(axis, i)] = [w for w in around if w is not None]
    return pm.map_from_rotation_lists(lists)


@lru_cache(maxsize=None)
def _x_tile() -> CompiledSketch:
    """The two diagonals of a 4-face, crossing once."""
    points = {"a": (0, 0), "b": (0, 1), "c": (1, 1), "d": (1, 0)}
    return compile_sketch(points, [("a", "c"), ("b", "d")], [(("a", "c"), ("b", "d"))],
                          corners=("a", "b", "c", "d"))


@lru_cache(maxsize=None)
def _cap() -> CompiledSketch:
    """The 6-face cap of an odd ring drawing, corners c0..c5 in face-walk order.

    Its vertex u joins c0, c1, c2 and c4; u c2 crosses the chord c1 c3 and
    u c4 crosses the chord c0 c3.
    """
    points = {"c0": (0, 10), "c1": (10, 5), "c2": (10, -5), "c3": (0, -10),
              "c4": (-10, -5), "c5": (-10, 5), "u": (3, 2)}
    edges = [("c0", "c3"), ("c1", "c3"), ("u", "c0"), ("u", "c1"), ("u", "c2"), ("u", "c4")]
    crossings = [(("u", "c2"), ("c1", "c3")), (("u", "c4"), ("c0", "c3"))]
    return compile_sketch(points, edges, crossings, corners=tuple(points)[:6])


@lru_cache(maxsize=None)
def _k33_sketch() -> tuple[CompiledSketch, dict[str, str]]:
    """The complete (3, 3) graph drawn with a single crossing."""
    points = {
        "b1": (0, 0), "b2": (100, 0), "b3": (50, 100),
        "w_in": (50, 33), "w_bot": (55, -50), "w_top": (50, 180),
    }
    classes = {n: ("black" if n.startswith("b") else "white") for n in points}
    edges = [(b, w) for b in ("b1", "b2", "b3") for w in ("w_in", "w_bot", "w_top")]
    crossings = [(("w_bot", "b3"), ("w_in", "b2"))]
    return compile_sketch(points, edges, crossings), classes


@lru_cache(maxsize=None)
def _k55_sketch() -> tuple[CompiledSketch, dict[str, str]]:
    """The (5, 5) graph with 22 edges, drawn with 6 crossings.

    It is the only such graph: the complete (5, 5) graph less three
    independent edges (here b1 w1, b2 w2 and b3 w3), since removing a star
    or a path leaves a subgraph that exceeds the known caps on nine vertices.
    """
    points = {
        "b1": (62, -24), "b2": (258, 117), "b3": (105, -9), "b4": (127, 46), "b5": (48, -183),
        "w1": (142, 37), "w2": (81, -28), "w3": (-4, 169), "w4": (34, 114), "w5": (99, -38),
    }
    classes = {n: ("black" if n.startswith("b") else "white") for n in points}
    edges = [(f"b{i}", f"w{j}") for i in range(1, 6) for j in range(1, 6) if i != j or i > 3]
    crossings = [(("b1", "w3"), ("b5", "w4")), (("b1", "w5"), ("b5", "w2")),
                 (("b2", "w4"), ("b4", "w3")), (("b2", "w5"), ("b5", "w1")),
                 (("b3", "w1"), ("b4", "w5")), (("b3", "w4"), ("b4", "w2"))]
    return compile_sketch(points, edges, crossings), classes


def _balanced_draft(x: int) -> OnePlanarDrawing:
    """The uncertified balanced drawing on classes (x, x)."""
    if x in (3, 5):
        builder = _Builder()
        builder.splice(*(_k33_sketch() if x == 3 else _k55_sketch()))
        return builder.draft()
    k, odd = divmod(x, 2)
    host = _web(k, bool(odd))
    v = _ring_vertex
    at = {d: (face, i) for face in host.faces for i, d in enumerate(face)}

    def walk(a: int, b: int) -> tuple[int, ...]:
        """The host face walk that starts with the dart from ``a`` to ``b``."""
        face, i = at[next(d for d in host.rotations[a]
                          if host.dart_vertex[host.opposite[d]] == b)]
        return face[i:] + face[:i]

    # Every 4-face between two rings gets an X tile; odd sizes skip the
    # (x1, y1) quadrant here and tile its 4-faces between chords below.
    patterns: list[_Pattern] = [(walk(v(axis, i), v((axis + 1) % 4, i)), _x_tile(), {})
                               for axis in range(odd, 4) for i in range(1, k)]
    if odd:
        patterns += [(walk(v(0, i), v(1, i + 2)), _x_tile(), {}) for i in range(1, k - 2)]
        # One cap fits both 6-faces: the inner one from y1_1 with a black u,
        # the outer one from x1_k with a white u.
        patterns += [(walk(v(1, 1), v(1, 2)), _cap(), {"u": "black"}),
                     (walk(v(0, k), v(0, k - 1)), _cap(), {"u": "white"})]
    white = [v(axis, i) for axis in (1, 3) for i in range(1, k + 1)]
    return _fill(host, white, patterns).draft()


def balanced(x: int) -> OnePlanarDrawing:
    """Balanced family: classes (x, x) with 6x - 8 edges (9 when x = 3).

    Even sizes x = 2k fill the ring host :func:`_web` on k rings with one
    X tile per 4-face between rings.  Odd sizes x = 2k + 1 >= 7 use the odd
    host, whose (x1, y1) quadrant has the chords x1_i y1_{i+2}; its two
    6-faces get a cap each, adding one black and one white vertex of degree
    4.  x = 3 and x = 5 are one sketch each.  The size-6 graph caps at 9
    edges, so x = 3 cannot reach 6x - 8 = 10.  The drawing is certified once.
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
    host = pm.map_from_rotation_lists({0: whites} | {w: [0] for w in whites})
    return _exact(certify(_fill(host, whites, ()).draft()), "star", count)


def _double_star(y: int) -> OnePlanarDrawing:
    """Complete bipartite graph on classes (2, y); planar with 2y edges."""
    count = _table_edges("double-star", 2, y)
    whites = range(2, y + 2)
    # Blacks 0 and 1 see the whites in opposite cyclic orders.
    host = pm.map_from_rotation_lists({0: whites, 1: whites[::-1]}
                                      | {w: [0, 1] for w in whites})
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


class BestKnown(NamedTuple):
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
