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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

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


@dataclass(frozen=True)
class CompiledSketch:
    """Combinatorial content of a verified sketch.

    Rotations list, for every planified vertex, the cyclic sequence of its
    neighbours; each map edge is identified by its endpoint-name pair.
    False vertices are named ``#0``, ``#1``, ... and carry their crossing.
    """

    true_names: tuple[Name, ...]
    false_names: tuple[Name, ...]
    rotations: dict[Name, tuple[Name, ...]]
    graph_edges: tuple[EdgeKey, ...]
    crossings: tuple[tuple[EdgeKey, EdgeKey], ...]
    edge_paths: dict[EdgeKey, tuple[tuple[Name, Name], ...]]
    false_of: dict[Name, tuple[EdgeKey, EdgeKey]]
    corners: tuple[Name, ...]
    corner_wedges: dict[Name, tuple[Name, ...]]

    def to_plane_map(self) -> PlaneMap:
        """The sketch's map; vertex i is name i of ``true_names + false_names``."""
        ids = {n: i for i, n in enumerate(self.true_names + self.false_names)}
        eids: dict[tuple[Name, Name], int] = {}
        for n in sorted(self.rotations):
            for t in self.rotations[n]:
                eids.setdefault(_ekey(n, t), len(eids))
        return map_from_rotation_lists(
            {ids[n]: [(ids[t], eids[_ekey(n, t)]) for t in self.rotations[n]]
             for n in self.rotations})


def compile_sketch(points: Mapping[Name, Point],
                   edges: Sequence[tuple[Name, Name]],
                   crossings: Sequence[tuple[tuple[Name, Name], tuple[Name, Name]]] = (),
                   corners: Sequence[Name] = ()) -> CompiledSketch:
    """Verify a straight-line sketch and extract its combinatorial structure.

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
    edge_paths: dict[EdgeKey, tuple[tuple[Name, Name], ...]] = {}
    incident: dict[Name, list[tuple[float, Name]]] = {n: [] for n in coords}
    for u, v in keys:
        w = crossed_at.get((u, v))
        path = ((u, v),) if w is None else (_ekey(u, w), _ekey(w, v))
        if (u, v) not in boundary_keys:
            edge_paths[(u, v)] = path
        for a, b in path:
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

    compiled = CompiledSketch(
        true_names=tuple(sorted(points)),
        false_names=tuple(false_of),
        rotations=rotations,
        graph_edges=tuple(k for k in keys if k not in boundary_keys),
        crossings=tuple(false_of.values()),
        edge_paths=edge_paths,
        false_of=false_of,
        corners=tuple(corners),
        corner_wedges={},
    )
    m = compiled.to_plane_map()
    if not euler_check(m).planar:
        raise SketchError("sketch does not assemble into a plane embedding")
    if corners:
        return _with_corner_wedges(compiled, boundary_keys, m)
    return compiled


def _with_corner_wedges(c: CompiledSketch, boundary_keys: set[EdgeKey],
                        m: PlaneMap) -> CompiledSketch:
    """Compute each corner's interior fan and the fragment's corner order."""
    # The face walked entirely along boundary edges fixes the outer corner
    # order; the fragment's interior order is its reverse.
    names = c.true_names + c.false_names  # indexed by vertex id, as in to_plane_map
    outer_order: tuple[Name, ...] | None = None
    for walk in trace_faces(m):
        ends = {_ekey(names[m.dart_vertex[d]], names[m.dart_vertex[m.opposite[d]]]) for d in walk}
        if ends <= boundary_keys:
            outer_order = tuple(names[m.dart_vertex[d]] for d in walk)
            break
    if outer_order is None:
        raise SketchError("no pure-boundary face; corners do not bound the fragment")
    inner_order = tuple(reversed(outer_order))
    start = inner_order.index(c.corners[0])
    inner_order = inner_order[start:] + inner_order[:start]

    # A corner's wedge: the ends strictly after its previous corner and
    # before its next one in its rotation.
    wedges: dict[Name, tuple[Name, ...]] = {}
    k = len(inner_order)
    for i, x in enumerate(inner_order):
        rot = c.rotations[x]
        ip = rot.index(inner_order[i - 1])
        if rot[ip - 1] != inner_order[(i + 1) % k]:
            raise SketchError(f"interior edges on both sides of corner {x}")
        wedges[x] = (rot[ip + 1:] + rot[:ip])[:-1]
    return replace(c, corners=inner_order, corner_wedges=wedges)
