"""Compile coordinate sketches of drawings into combinatorial form.

Construction templates are specified as straight-line (or polyline) sketches:
named points, edges with optional waypoints, and the exact set of edge pairs
meant to cross.  The compiler intersects all polylines, verifies that the
realized crossing set equals the declared one (any other pair of edges must
be disjoint except at shared endpoints), places one subdivision point per
crossing, and reads off every rotation by sorting edge-end directions around
each point.  The output is purely combinatorial; coordinates never leave
this module.

A sketch may declare boundary edges and corner vertices, in which case it is
a fragment meant to be spliced into a face of a host map; the compiler then
also extracts, for each corner, the fan of interior edge-ends lying between
the two boundary edges, in splice order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        return t, s, (p1[0] + t * d1[0], p1[1] + t * d1[1])
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

    def to_plane_map(self) -> tuple[PlaneMap, dict[Name, int]]:
        """Instantiate with dense integer ids (standalone sketches only)."""
        ids = {n: i for i, n in enumerate(list(self.true_names) + list(self.false_names))}
        eids: dict[tuple[Name, Name], int] = {}
        for n in sorted(self.rotations):
            for t in self.rotations[n]:
                eids.setdefault(_ekey(n, t), len(eids))
        m = map_from_rotation_lists(
            {ids[n]: [(ids[t], eids[_ekey(n, t)]) for t in self.rotations[n]]
             for n in self.rotations})
        return m, ids


def compile_sketch(points: Mapping[Name, Point],
                   edges: Sequence[tuple],
                   crossings: Sequence[tuple[tuple[Name, Name], tuple[Name, Name]]] = (),
                   boundary: Sequence[tuple[Name, Name]] = (),
                   corners: Sequence[Name] = ()) -> CompiledSketch:
    """Verify a sketch and extract its combinatorial structure.

    ``edges`` entries are ``(u, v)`` or ``(u, v, [waypoints])``.  Boundary
    edges take part in the geometry but are excluded from the emitted graph;
    they must form a cycle through ``corners``.
    """
    polylines: dict[EdgeKey, list[Point]] = {}
    for item in edges:
        u, v = item[0], item[1]
        way = list(item[2]) if len(item) > 2 else []
        key = _ekey(u, v)
        if key in polylines:
            raise SketchError(f"duplicate edge {key}")
        if u <= v:
            polylines[key] = [tuple(points[u]), *map(tuple, way), tuple(points[v])]
        else:
            polylines[key] = [tuple(points[v]), *map(tuple, reversed(way)), tuple(points[u])]

    declared = {frozenset((_ekey(*a), _ekey(*b))) for a, b in crossings}
    boundary_keys = {_ekey(u, v) for u, v in boundary}

    hits: dict[EdgeKey, tuple[float, Point, EdgeKey]] = {}
    found: set[frozenset[EdgeKey]] = set()
    keys = sorted(polylines)
    for i, e1 in enumerate(keys):
        for e2 in keys[i + 1:]:
            pts1, pts2 = polylines[e1], polylines[e2]
            cross_here = []
            for a in range(len(pts1) - 1):
                for b in range(len(pts2) - 1):
                    got = _seg_intersection(pts1[a], pts1[a + 1], pts2[b], pts2[b + 1])
                    if got is not None:
                        cross_here.append((a, b, got))
            if set(e1) & set(e2):
                if cross_here:
                    raise SketchError(f"edges {e1} and {e2} share an endpoint but intersect")
                continue
            if len(cross_here) > 1:
                raise SketchError(f"edges {e1} and {e2} cross more than once")
            if cross_here:
                pair = frozenset((e1, e2))
                if pair not in declared:
                    raise SketchError(f"undeclared crossing between {e1} and {e2}")
                if e1 in hits or e2 in hits:
                    raise SketchError("an edge participates in two crossings")
                a, b, (t, s, pt) = cross_here[0]
                found.add(pair)
                hits[e1] = (a + t, pt, e2)
                hits[e2] = (b + s, pt, e1)
    if found != declared:
        missing = sorted(tuple(sorted(p)) for p in declared - found)
        raise SketchError(f"declared crossings not realized: {missing}")

    false_names: list[Name] = []
    false_of: dict[Name, tuple[EdgeKey, EdgeKey]] = {}
    cross_name: dict[frozenset[EdgeKey], Name] = {}
    for pair in sorted(tuple(sorted(p)) for p in declared):
        name = f"#{len(false_names)}"
        false_names.append(name)
        false_of[name] = pair
        cross_name[frozenset(pair)] = name

    pieces: dict[tuple[Name, Name], list[Point]] = {}
    edge_paths: dict[EdgeKey, tuple[tuple[Name, Name], ...]] = {}
    for key in keys:
        u, v = key
        pts = polylines[key]
        if key in hits:
            pos, pt, other = hits[key]
            seg = int(pos)
            w = cross_name[frozenset((key, other))]
            pieces[_ekey(u, w)] = pts[: seg + 1] + [pt]
            pieces[_ekey(w, v)] = [pt] + pts[seg + 1:]
            if key not in boundary_keys:
                edge_paths[key] = (_ekey(u, w), _ekey(w, v))
        else:
            pieces[key] = pts
            if key not in boundary_keys:
                edge_paths[key] = (key,)

    coords: dict[Name, Point] = {n: tuple(p) for n, p in points.items()}
    for name in false_names:
        coords[name] = hits[false_of[name][0]][1]
    incident: dict[Name, list[tuple[float, Name]]] = {n: [] for n in coords}
    for (x, y), pts in pieces.items():
        for here, there in ((x, y), (y, x)):
            poly = pts if tuple(pts[0]) == coords[here] else list(reversed(pts))
            dx = poly[1][0] - poly[0][0]
            dy = poly[1][1] - poly[0][1]
            incident[here].append((math.atan2(dy, dx), there))
    rotations: dict[Name, tuple[Name, ...]] = {}
    for n, items in incident.items():
        items.sort()
        for (a1, _), (a2, _) in zip(items, items[1:]):
            if a2 - a1 < 1e-7:
                raise SketchError(f"ambiguous rotation at {n}: near-parallel edge ends")
        rotations[n] = tuple(t for _, t in items)

    for name in false_names:
        rot = rotations[name]
        if len(rot) != 4:
            raise SketchError(f"crossing point {name} has degree {len(rot)}")
        e1 = set(false_of[name][0])
        if [t in e1 for t in rot] not in ([True, False, True, False],
                                          [False, True, False, True]):
            raise SketchError(f"crossing point {name} does not alternate")

    compiled = CompiledSketch(
        true_names=tuple(sorted(points)),
        false_names=tuple(false_names),
        rotations=rotations,
        graph_edges=tuple(k for k in keys if k not in boundary_keys),
        crossings=tuple(sorted(tuple(sorted(p)) for p in declared)),
        edge_paths=edge_paths,
        false_of=false_of,
        corners=tuple(corners),
        corner_wedges={},
    )
    m, _ = compiled.to_plane_map()
    if not euler_check(m).planar:
        raise SketchError("sketch does not assemble into a plane embedding")
    if corners:
        return _with_corner_wedges(compiled, boundary_keys, m)
    return compiled


def _with_corner_wedges(c: CompiledSketch, boundary_keys: set[EdgeKey],
                        m: PlaneMap) -> CompiledSketch:
    """Compute each corner's interior fan and the fragment's corner order."""
    corner_set = set(c.corners)
    deg: dict[Name, int] = {x: 0 for x in corner_set}
    for u, v in boundary_keys:
        if u not in corner_set or v not in corner_set:
            raise SketchError("boundary edge not between corners")
        deg[u] += 1
        deg[v] += 1
    if any(d != 2 for d in deg.values()):
        raise SketchError("corners must form a boundary cycle")

    # The face walked entirely along boundary edges fixes the outer corner
    # order; the fragment's interior order is its reverse.
    ids = {n: i for i, n in enumerate(list(c.true_names) + list(c.false_names))}
    names = {i: n for n, i in ids.items()}
    boundary_ids = {frozenset((ids[u], ids[v])) for u, v in boundary_keys}
    outer_order: tuple[Name, ...] | None = None
    for walk in trace_faces(m):
        ends = [frozenset((m.dart_vertex[d], m.dart_vertex[m.opposite[d]])) for d in walk]
        if all(e in boundary_ids for e in ends):
            outer_order = tuple(names[m.dart_vertex[d]] for d in walk)
            break
    if outer_order is None:
        raise SketchError("no pure-boundary face; corners do not bound the fragment")
    inner_order = tuple(reversed(outer_order))
    start = inner_order.index(c.corners[0])
    inner_order = inner_order[start:] + inner_order[:start]

    wedges: dict[Name, tuple[Name, ...]] = {}
    k = len(inner_order)
    for i, x in enumerate(inner_order):
        prev_c = inner_order[(i - 1) % k]
        next_c = inner_order[(i + 1) % k]
        rot = c.rotations[x]
        ip, id_ = rot.index(prev_c), rot.index(next_c)
        if (id_ + 1) % len(rot) != ip:
            raise SketchError(f"interior edges on both sides of corner {x}")
        run = []
        j = (ip + 1) % len(rot)
        while j != id_:
            run.append(rot[j])
            j = (j + 1) % len(rot)
        wedges[x] = tuple(run)

    return CompiledSketch(
        true_names=c.true_names,
        false_names=c.false_names,
        rotations=c.rotations,
        graph_edges=c.graph_edges,
        crossings=c.crossings,
        edge_paths=c.edge_paths,
        false_of=c.false_of,
        corners=inner_order,
        corner_wedges=wedges,
    )
