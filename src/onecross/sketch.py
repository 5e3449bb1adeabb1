"""Compile coordinate sketches of drawings into combinatorial form.

Construction patterns are specified as straight-line sketches: named points,
edges that are single segments between two of them, and the exact set of
edge pairs meant to cross.  The compiler intersects every pair of segments,
verifies that the realized crossing set equals the declared one (any other
pair of edges must be disjoint except at shared endpoints), places one
subdivision point per crossing, and reads off every rotation by sorting the
directions toward each point's neighbours.  The output is purely
combinatorial; coordinates never leave this module.

A sketch that names corner vertices is a fragment meant to be spliced into a
face of a host map.  Consecutive corners (last to first) are joined by
boundary edges, which the compiler adds itself; it then also extracts, for
each corner, the fan of interior edge-ends lying between its two boundary
edges, in splice order.

Names are the compiler's input only.  Its result, a :class:`CompiledSketch`,
holds the sketch in local integer ids, so that splicing it into a host map
is offset arithmetic rather than a lookup by name per dart.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .plane_map import PlaneMap, euler_check, map_from_rotation_lists, trace_faces

Point = tuple[float, float]
Name = str
EdgeKey = tuple[Name, Name]

_EPS = 1e-9


class SketchError(ValueError):
    """Raised when a sketch does not realize its declared crossing pattern."""


def _ekey(u: Name, v: Name) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


def _seg_intersection(p1: Point, p2: Point, p3: Point, p4: Point):
    """Interior intersection point of two segments, or None."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < _EPS:
        cross = d1[0] * (p3[1] - p1[1]) - d1[1] * (p3[0] - p1[0])
        if abs(cross) < _EPS:  # collinear: refuse any overlap
            t0 = (p3[0] - p1[0]) * d1[0] + (p3[1] - p1[1]) * d1[1]
            t1 = (p4[0] - p1[0]) * d1[0] + (p4[1] - p1[1]) * d1[1]
            length = d1[0] * d1[0] + d1[1] * d1[1]
            lo, hi = min(t0, t1), max(t0, t1)
            if hi > _EPS * length and lo < (1 - _EPS) * length:
                raise SketchError("collinear overlapping segments")
        return None
    t = ((p3[0] - p1[0]) * d2[1] - (p3[1] - p1[1]) * d2[0]) / denom
    s = ((p3[0] - p1[0]) * d1[1] - (p3[1] - p1[1]) * d1[0]) / denom
    interior_t = _EPS < t < 1 - _EPS
    interior_s = _EPS < s < 1 - _EPS
    if interior_t and interior_s:
        return p1[0] + t * d1[0], p1[1] + t * d1[1]
    if (interior_t or interior_s) and -_EPS <= t <= 1 + _EPS and -_EPS <= s <= 1 + _EPS:
        raise SketchError("segments touch without crossing cleanly")
    return None


class CompiledSketch(NamedTuple):
    """A verified sketch in local integer ids, ready to splice into a host map.

    The splice adds ``edges`` new map edges; local map edge ``j`` owns the
    local darts ``2j`` and ``2j + 1``.  It places one vertex per slot: first
    the true interior vertices ``names``, then the false vertex of each of
    ``crossings`` in order, then the corners in splice order.  A walk over
    the interior rotations in slot order, then the corner wedges, numbers
    each map edge at its first end met, which takes the even dart; a splice
    adds the host's next free ids to these numbers.
    """

    edges: int
    names: tuple[Name, ...]  # the true interior vertices, at slots 0, 1, ...
    rotations: tuple[tuple[int, ...], ...]  # local darts around each interior slot
    wedges: tuple[tuple[int, ...], ...]  # local darts going into each corner
    graph_edges: tuple[tuple[int, int, tuple[int, ...]], ...]  # slots and local map-edge path
    crossings: tuple[tuple[int, int, int], ...]  # false vertex slot, two graph edge indices


def compile_sketch(points: Mapping[Name, Point],
                   edges: Sequence[tuple[Name, Name]],
                   crossings: Sequence[tuple[tuple[Name, Name], tuple[Name, Name]]] = (),
                   corners: Sequence[Name] = ()) -> CompiledSketch:
    """Verify a straight-line sketch and compile it to local ids.

    Each of ``edges`` is one ``(u, v)`` segment.  Given ``corners``, the
    sketch is a fragment: the compiler adds the boundary edges joining
    consecutive corners (last to first), which take part in the geometry but
    are left out of the emitted graph.
    """
    keys: list[EdgeKey] = []
    for u, v in [*zip(corners, [*corners[1:], *corners[:1]]), *edges]:
        if _ekey(u, v) in keys:
            raise SketchError(f"duplicate edge {_ekey(u, v)}")
        keys.append(_ekey(u, v))
    boundary_keys = set(keys[:len(corners)])
    keys.sort()

    declared = {frozenset((_ekey(*a), _ekey(*b))) for a, b in crossings}
    found: set[frozenset[EdgeKey]] = set()
    at: dict[EdgeKey, Point] = {}  # the crossing point on each crossed edge
    for i, e1 in enumerate(keys):
        for e2 in keys[i + 1:]:
            pt = _seg_intersection(points[e1[0]], points[e1[1]], points[e2[0]], points[e2[1]])
            if pt is None:
                continue
            if frozenset((e1, e2)) not in declared:
                raise SketchError(f"undeclared crossing between {e1} and {e2}")
            if e1 in at or e2 in at:
                raise SketchError("an edge participates in two crossings")
            found.add(frozenset((e1, e2)))
            at[e1] = at[e2] = pt
    if found != declared:
        missing = sorted(tuple(sorted(p)) for p in declared - found)
        raise SketchError(f"declared crossings not realized: {missing}")

    coords: dict[Name, Point] = {n: tuple(p) for n, p in points.items()}
    false_of: dict[Name, tuple[EdgeKey, EdgeKey]] = {}
    crossed_at: dict[EdgeKey, Name] = {}
    for pair in sorted(tuple(sorted(p)) for p in declared):
        name = f"#{len(false_of)}"
        false_of[name] = pair
        crossed_at[pair[0]] = crossed_at[pair[1]] = name
        coords[name] = at[pair[0]]

    # Each map edge is a whole segment or the half of a crossed one; every
    # edge end points at the neighbour it leads to.
    paths: dict[EdgeKey, tuple[EdgeKey, ...]] = {}
    incident: dict[Name, list[tuple[float, Name]]] = {n: [] for n in coords}
    for u, v in keys:
        w = crossed_at.get((u, v))
        paths[(u, v)] = ((u, v),) if w is None else (_ekey(u, w), _ekey(w, v))
        for a, b in paths[(u, v)]:
            for here, there in ((a, b), (b, a)):
                (x0, y0), (x1, y1) = coords[here], coords[there]
                incident[here].append((math.atan2(y1 - y0, x1 - x0), there))
    rotations: dict[Name, tuple[Name, ...]] = {}
    for n, items in incident.items():
        items.sort()
        for (a1, _), (a2, _) in zip(items, items[1:]):
            if a2 - a1 < 1e-7:
                raise SketchError(f"ambiguous rotation at {n}: near-parallel edge ends")
        rotations[n] = tuple(t for _, t in items)

    for name, (e1, _) in false_of.items():
        if [t in e1 for t in rotations[name]] not in ([True, False, True, False],
                                                      [False, True, False, True]):
            raise SketchError(f"crossing point {name} does not alternate")

    # The whole sketch, boundary included, as a map; vertex i is order[i].
    order = (*sorted(points), *false_of)
    ids = {n: i for i, n in enumerate(order)}
    eids: dict[EdgeKey, int] = {}
    for n in sorted(rotations):
        for t in rotations[n]:
            eids.setdefault(_ekey(n, t), len(eids))
    m = map_from_rotation_lists(
        {ids[n]: [(ids[t], eids[_ekey(n, t)]) for t in rotations[n]] for n in rotations})
    if not euler_check(m).planar:
        raise SketchError("sketch does not assemble into a plane embedding")
    wedges = _corner_wedges(corners, rotations, boundary_keys, m, order) if corners else {}

    names = tuple(n for n in sorted(points) if n not in wedges)
    interior = (*names, *false_of)
    slot = {n: i for i, n in enumerate((*interior, *wedges))}
    darts: dict[tuple[Name, Name], int] = {}

    def local(at: Name, towards: Sequence[Name]) -> tuple[int, ...]:
        """The local darts at ``at`` toward each of ``towards``."""
        out = []
        for t in towards:
            d = darts.get((at, t))
            if d is None:  # a new map edge: its first end met takes the even dart
                d = darts[(at, t)] = len(darts)
                darts[(t, at)] = d + 1
            out.append(d)
        return tuple(out)

    local_rotations = tuple([local(n, rotations[n]) for n in interior])
    local_wedges = tuple([local(x, wedge) for x, wedge in wedges.items()])
    graph_edges = [k for k in keys if k not in boundary_keys]
    index = {e: i for i, e in enumerate(graph_edges)}
    return CompiledSketch(
        edges=len(darts) // 2,
        names=names,
        rotations=local_rotations,
        wedges=local_wedges,
        graph_edges=tuple([(slot[u], slot[v], tuple([darts[p] >> 1 for p in paths[(u, v)]]))
                           for u, v in graph_edges]),
        crossings=tuple([(slot[w], index[e], index[f]) for w, (e, f) in false_of.items()]),
    )


def _corner_wedges(corners: Sequence[Name], rotations: Mapping[Name, tuple[Name, ...]],
                   boundary_keys: set[EdgeKey], m: PlaneMap,
                   order: Sequence[Name]) -> dict[Name, tuple[Name, ...]]:
    """Each corner's interior fan, keyed in the fragment's corner order.

    Vertex ``i`` of the sketch's map ``m`` is ``order[i]``.
    """
    # The face walked entirely along boundary edges fixes the outer corner
    # order; the fragment's interior order is its reverse.
    outer_order: tuple[Name, ...] | None = None
    for walk in trace_faces(m):
        ends = {_ekey(order[m.dart_vertex[d]], order[m.dart_vertex[m.opposite[d]]]) for d in walk}
        if ends <= boundary_keys:
            outer_order = tuple(order[m.dart_vertex[d]] for d in walk)
            break
    if outer_order is None:
        raise SketchError("no pure-boundary face; corners do not bound the fragment")
    inner_order = tuple(reversed(outer_order))
    start = inner_order.index(corners[0])
    inner_order = inner_order[start:] + inner_order[:start]

    # A corner's wedge: the ends strictly after its previous corner and
    # before its next one in its rotation.
    wedges: dict[Name, tuple[Name, ...]] = {}
    k = len(inner_order)
    for i, x in enumerate(inner_order):
        rot = rotations[x]
        ip = rot.index(inner_order[i - 1])
        if rot[ip - 1] != inner_order[(i + 1) % k]:
            raise SketchError(f"interior edges on both sides of corner {x}")
        wedges[x] = (rot[ip + 1:] + rot[:ip])[:-1]
    return wedges
