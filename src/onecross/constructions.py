"""Generators for extremal bipartite drawings with one crossing per edge.

Every generator returns a :class:`~onecross.drawing.OnePlanarDrawing` that
was certified exactly once: its steps pass an uncertified draft, and the
generator ends with :func:`~onecross.drawing.certify` or, for the families
with degree-2 whites, :func:`~onecross.drawing.augment_degree2`.
:func:`family_formulas` is the one statement of each family's domain and
edge count: a generator reads its count from that table, raises
:class:`~onecross.drawing.DrawingError` where its family does not apply, and
raises it again if the finished drawing misses the count.  The per-face
insertion patterns, the nested-ring families and the one-crossing drawing of
the complete (3, 3) graph are specified as geometric sketches (see
:mod:`onecross.sketch`); the balanced (5, 5) drawing, found by the search in
``scripts/find_balanced5.py``, ships as a JSON template under
``onecross/data`` and is parsed without a certification of its own.

All generators are pure functions of their parameters and cache no drawing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import cos, pi, sin
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
_BOUNDARY = [("A", "B"), ("B", "C"), ("C", "A")]
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
    edges: list[tuple] = list(_BOUNDARY) + list(_W3_EDGES)
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
    return compile_sketch(points, edges, crossings,
                          boundary=_BOUNDARY, corners=("A", "B", "C"))


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

    def __init__(self, base: PlaneMap | None = None, black: Iterable[int] = ()):
        self.map = pm.MapEditor(base)
        self.black = set(black)
        self.white: set[int] = set()
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


def _sketch_draft(sk: CompiledSketch, classes: Mapping[str, str]) -> OnePlanarDrawing:
    builder = _Builder()
    builder.splice(sk, classes)
    return builder.draft()


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


def _fill_triangulation(x_corners: int, faces: list[tuple[int, int]]) -> _Builder:
    """Splice one pattern per face of a stacked triangulation, then drop its edges.

    ``faces[i]`` is the (extra blacks, whites) pair of the pattern in face ``i``.
    """
    tri = stacked_triangulation(x_corners)
    walks = tri.faces
    if len(faces) != len(walks):
        raise DrawingError("one pattern kind per face required")
    builder = _Builder(tri, black=tri.rotations)
    for walk, (extra, whites) in zip(walks, faces):
        builder.splice(_face_pattern(extra, whites), _pattern_classes(extra), walk)
    for e in tri.edge_darts:
        builder.map.delete_edge(e)
    return builder


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


def _ring_points(k: int) -> tuple[dict[str, tuple[float, float]], dict[str, str]]:
    """Points and classes of k nested rings: blacks on the x axis, whites on the y axis."""
    points: dict[str, tuple[float, float]] = {}
    classes: dict[str, str] = {}
    for i in range(1, k + 1):
        points[f"x1_{i}"] = (float(i), 0.0)
        points[f"y1_{i}"] = (0.0, float(i))
        points[f"x2_{i}"] = (float(-i), 0.0)
        points[f"y2_{i}"] = (0.0, float(-i))
        classes[f"x1_{i}"] = classes[f"x2_{i}"] = "black"
        classes[f"y1_{i}"] = classes[f"y2_{i}"] = "white"
    return points, classes


@lru_cache(maxsize=64)
def _ring_sketch(k: int) -> tuple[CompiledSketch, dict[str, str]]:
    """k nested 4-cycles with four crossings per consecutive pair."""
    points, classes = _ring_points(k)
    edges: list[tuple] = []
    crossings: list[tuple] = []
    for i in range(1, k + 1):
        edges += [(f"x1_{i}", f"y1_{i}"), (f"y1_{i}", f"x2_{i}"),
                  (f"x2_{i}", f"y2_{i}"), (f"y2_{i}", f"x1_{i}")]
    for i in range(1, k):
        for a, b in (("x1", "y1"), ("x2", "y1"), ("x2", "y2"), ("x1", "y2")):
            outward = (f"{a}_{i}", f"{b}_{i + 1}")
            inward = (f"{a}_{i + 1}", f"{b}_{i}")
            edges += [outward, inward]
            crossings.append((outward, inward))
    return compile_sketch(points, edges, crossings), classes


@lru_cache(maxsize=64)
def _odd_sketch(k: int) -> tuple[CompiledSketch, dict[str, str]]:
    """The 4k + 2 vertex balanced drawing with 12k - 2 edges, k >= 3.

    Modifies the nested-ring drawing in one quadrant: the clockwise chords
    and the middle ring edges there are dropped, longer chords are added, and
    one black and one white vertex of degree 4 are attached, the white one
    reaching around the outside to the far corner of the outer ring.
    """
    if k < 3:
        raise DrawingError("odd balanced construction needs k >= 3")
    points, classes = _ring_points(k)
    points["ub"] = (0.1, 1.05)
    points["uw"] = (k - 0.6, 0.25)
    classes["ub"] = "black"
    classes["uw"] = "white"

    edges: list[tuple] = []
    crossings: list[tuple] = []
    for i in range(1, k + 1):
        edges += [(f"y1_{i}", f"x2_{i}"), (f"x2_{i}", f"y2_{i}"), (f"y2_{i}", f"x1_{i}")]
        if i == 1 or i == k:
            edges.append((f"x1_{i}", f"y1_{i}"))
    for i in range(1, k):
        edges.append((f"x1_{i}", f"y1_{i + 1}"))  # the surviving top chord
        for a, b in (("x2", "y1"), ("x2", "y2"), ("x1", "y2")):
            outward = (f"{a}_{i}", f"{b}_{i + 1}")
            inward = (f"{a}_{i + 1}", f"{b}_{i}")
            edges += [outward, inward]
            crossings.append((outward, inward))
    for i in range(1, k - 1):
        edges.append((f"x1_{i}", f"y1_{i + 2}"))
    for i in range(1, k - 2):
        long = (f"x1_{i}", f"y1_{i + 3}")
        edges.append(long)
        crossings.append((long, (f"x1_{i + 1}", f"y1_{i + 2}")))

    edges += [("ub", "y1_1"), ("ub", "y1_2"), ("ub", "y1_3"), ("ub", "y2_1")]
    crossings += [
        (("ub", "y1_3"), ("x1_1", "y1_2")),
        (("ub", "y2_1"), ("x1_1", "y1_1")),
    ]
    radius = k + 1.0
    arc = [(radius * cos(a * pi / 180), radius * sin(a * pi / 180))
           for a in range(30, 166, 15)]
    edges += [
        ("uw", f"x1_{k}"), ("uw", f"x1_{k - 1}"), ("uw", f"x1_{k - 2}"),
        ("uw", f"x2_{k}", arc),
    ]
    crossings += [
        (("uw", f"x1_{k - 2}"), (f"x1_{k - 1}", f"y1_{k}")),
        (("uw", f"x2_{k}"), (f"x1_{k}", f"y1_{k}")),
    ]
    return compile_sketch(points, edges, crossings), classes


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
        return _sketch_draft(*_k33_sketch())
    if x % 2 == 0:
        return _sketch_draft(*_ring_sketch(x // 2))
    return _sketch_draft(*_odd_sketch(x // 2))


def balanced(x: int) -> OnePlanarDrawing:
    """Balanced family: classes (x, x) with 6x - 8 edges (9 when x = 3).

    Even sizes come from nested 4-cycles, odd sizes at least 7 from the
    modified ring drawing, x = 3 from the one-crossing drawing of the
    complete (3, 3) graph, and x = 5 from the stored template.  The size-6
    graph caps at 9 edges, so x = 3 cannot reach 6x - 8 = 10.  The drawing
    is certified once.
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
    points = {"b": (0.0, 0.0)}
    classes = {"b": "black"}
    edges = []
    for j in range(y):
        name = f"w{j}"
        a = 2 * pi * j / max(y, 1)
        points[name] = (cos(a), sin(a))
        classes[name] = "white"
        edges.append(("b", name))
    sk = compile_sketch(points, edges)
    return _exact(certify(_sketch_draft(sk, classes)), "star", count)


def _double_star(y: int) -> OnePlanarDrawing:
    """Complete bipartite graph on classes (2, y); planar with 2y edges."""
    count = _table_edges("double-star", 2, y)
    points = {"b0": (0.0, 1.0), "b1": (0.0, -1.0)}
    classes = {"b0": "black", "b1": "black"}
    edges = []
    for j in range(y):
        name = f"w{j}"
        points[name] = (float(j + 1), 0.0)
        classes[name] = "white"
        edges += [("b0", name), ("b1", name)]
    sk = compile_sketch(points, edges)
    return _exact(certify(_sketch_draft(sk, classes)), "double-star", count)


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
