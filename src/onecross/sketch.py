"""Compile coordinate sketches of drawings into combinatorial form.

Construction patterns are specified as straight-line sketches: named points
with integer coordinates, edges that are single segments between two of
them, and the exact set of edge pairs meant to cross.  Every decision is an
exact integer sign, so no tolerance and no scale enters a verdict.  The
compiler tests every pair of segments that can meet for a crossing interior
to both, verifies that the realized crossing set equals the declared one
(any other pair of edges must be disjoint except at shared endpoints),
places one false vertex per crossing, and reads off every rotation by
sorting the directions of the segments at each point.  It skips a pair of
segments whose closed bounding boxes are disjoint, and a pair that shares an
end point and is not parallel.  The output is purely combinatorial;
coordinates never leave this module.

A sketch that names corner vertices is a fragment meant to be spliced into a
face of a host map.  Consecutive corners (last to first) are joined by
boundary edges, which the compiler adds itself.  Everything else must lie in
the interior, which here means inside the corner polygon; the compiler then
also extracts, for each corner, the fan of interior edge-ends lying between
its two boundary edges, in splice order.

Names are the compiler's input only.  Its result, a :class:`CompiledSketch`,
holds the sketch in local integer ids, so that splicing it into a host map
is offset arithmetic rather than a lookup by name per dart.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .plane_map import euler_check, map_from_paired_darts
# No run reads trace_faces here; the benchmark's sketch.trace_faces probe resolves through it.
from .plane_map import trace_faces

Point = tuple[int, int]
Name = str
EdgeKey = tuple[Name, Name]


class SketchError(ValueError):
    """Raised when a sketch does not realize its declared crossing pattern."""


def _ekey(u: Name, v: Name) -> EdgeKey:
    return (u, v) if u <= v else (v, u)


def _seg_intersection(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Whether segment p1 p2 crosses segment p3 p4 at a point interior to both.

    They cross exactly when each one's ends lie strictly on both sides of the
    other's line.  An end of one on the other's line and inside the other is a
    touch, and two collinear segments may share at most an end point; each of
    these raises a :class:`SketchError`.
    """
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
    dx, dy, ex, ey = x2 - x1, y2 - y1, x4 - x3, y4 - y3
    sides_of_1 = (ex * (y1 - y3) - ey * (x1 - x3)) * (ex * (y2 - y3) - ey * (x2 - x3))
    sides_of_3 = (dx * (y3 - y1) - dy * (x3 - x1)) * (dx * (y4 - y1) - dy * (x4 - x1))
    if sides_of_1 > 0 or sides_of_3 > 0:
        return False
    if sides_of_1 < 0 and sides_of_3 < 0:
        return True
    if sides_of_1 or sides_of_3:
        raise SketchError("segments touch without crossing cleanly")
    if dx * ey == dy * ex:  # collinear: refuse any overlap
        t3 = (x3 - x1) * dx + (y3 - y1) * dy
        t4 = (x4 - x1) * dx + (y4 - y1) * dy
        if max(t3, t4) > 0 and min(t3, t4) < dx * dx + dy * dy:
            raise SketchError("collinear overlapping segments")
    return False


def _scanned_pairs(points: Mapping[Name, Point],
                   keys: Sequence[EdgeKey]) -> list[tuple[EdgeKey, EdgeKey]]:
    """The pairs of segments, in scan order, that :func:`_seg_intersection` must test.

    Scan order takes each pair ``(keys[i], keys[j])``, ``i < j``, once,
    ordered by ``i`` and then ``j``, and gives each segment ``(u, v)`` of
    ``keys`` as ``points[u]`` to ``points[v]``.  A pair is left out only when
    the test returns False for it, for the reason noted at each skip.
    """
    segments = []  # each segment's closed bounding box, direction and ends
    for u, v in keys:
        (x0, y0), (x1, y1) = points[u], points[v]
        segments.append((min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1),
                         x1 - x0, y1 - y0, u, v))
    pairs = []
    for i, (x0, x1, y0, y1, dx, dy, u1, v1) in enumerate(segments):
        for a0, a1, b0, b1, ex, ey, u2, v2 in segments[i + 1:]:
            if a0 > x1 or a1 < x0 or b0 > y1 or b1 < y0:
                continue  # disjoint closed boxes: the segments share no point
            if (u1 == u2 or u1 == v2 or v1 == u2 or v1 == v2) and dx * ey != dy * ex:
                continue  # lines that are not parallel meet only at the shared end
            pairs.append(((u1, v1), (u2, v2)))
    return pairs


class CompiledSketch(NamedTuple):
    """A verified sketch in local integer ids, ready to splice into a host map.

    The splice adds ``edges`` new map edges; local map edge ``j`` owns the
    local darts ``2j`` and ``2j + 1``.  It places one vertex per slot: first
    the true interior vertices ``names``, then the false vertex of each of
    ``crossings`` in order, then the corners in splice order.  A walk over
    the interior rotations in slot order, then the corner wedges, numbers
    each map edge at its first end met, which takes the even dart; a splice
    adds the host's next free ids to these numbers.  The compiler numbers
    the boundary edges last, from ``edges`` up, and no splice adds them.
    A graph edge is the slots of its two ends: which map edges draw it
    follows from the spliced map and the false vertices.  Splice order runs
    clockwise round the corner polygon, whichever way the corners are
    given: the sign of its area decides.
    """

    edges: int
    names: tuple[Name, ...]  # the true interior vertices, at slots 0, 1, ...
    rotations: tuple[tuple[int, ...], ...]  # local darts around each interior slot
    wedges: tuple[tuple[int, ...], ...]  # local darts going into each corner
    graph_edges: tuple[tuple[int, int], ...]  # the slots of each graph edge's ends
    crossings: tuple[tuple[int, int, int], ...]  # false vertex slot, two graph edge indices


def compile_sketch(points: Mapping[Name, Point],
                   edges: Sequence[tuple[Name, Name]],
                   crossings: Sequence[tuple[tuple[Name, Name], tuple[Name, Name]]] = (),
                   corners: Sequence[Name] = ()) -> CompiledSketch:
    """Verify a straight-line sketch and compile it to local ids.

    Each of ``edges`` is one ``(u, v)`` segment, of positive length, between
    points whose coordinates are integers.  Given ``corners``, the sketch is
    a fragment: the compiler adds the boundary edges joining consecutive
    corners (last to first), which take part in the geometry but are left
    out of the emitted graph.  The segments are tested pairwise in the order
    of :func:`_scanned_pairs`, which leaves out only pairs that meet at no
    point or only at a shared end, so the first error found is the one a
    test of every pair would find first.
    """
    reach = 0  # R, the largest absolute coordinate
    for name, point in points.items():
        for c in point:
            if not isinstance(c, int):
                raise SketchError(f"point {name} has a non-integer coordinate: {point}")
            reach = max(reach, abs(c))
    keys: list[EdgeKey] = []
    seen: set[EdgeKey] = set()
    for u, v in [*zip(corners, [*corners[1:], *corners[:1]]), *edges]:
        key = _ekey(u, v)
        if key in seen:
            raise SketchError(f"duplicate edge {key}")
        if points[u] == points[v]:
            raise SketchError(f"edge {key} has length 0")
        seen.add(key)
        keys.append(key)
    boundary_keys = set(keys[:len(corners)])
    keys.sort()

    declared = {frozenset((_ekey(*a), _ekey(*b))) for a, b in crossings}
    found: set[frozenset[EdgeKey]] = set()
    crossed: set[EdgeKey] = set()
    for e1, e2 in _scanned_pairs(points, keys):
        if not _seg_intersection(points[e1[0]], points[e1[1]], points[e2[0]], points[e2[1]]):
            continue
        if frozenset((e1, e2)) not in declared:
            raise SketchError(f"undeclared crossing between {e1} and {e2}")
        if e1 in crossed or e2 in crossed:
            raise SketchError("an edge participates in two crossings")
        found.add(frozenset((e1, e2)))
        crossed.update((e1, e2))
    if found != declared:
        missing = sorted(tuple(sorted(p)) for p in declared - found)
        raise SketchError(f"declared crossings not realized: {missing}")

    false_of: dict[Name, tuple[EdgeKey, EdgeKey]] = {}
    crossed_at: dict[EdgeKey, Name] = {}
    for pair in sorted(tuple(sorted(p)) for p in declared):
        name = f"#{len(false_of)}"
        false_of[name] = pair
        crossed_at[pair[0]] = crossed_at[pair[1]] = name

    # Each map edge is a whole segment or the half of a crossed one; every
    # edge end points at the neighbour it leads to, along its own segment,
    # since a crossing point lies inside both of its segments.  Ends sort by
    # angle on (-pi, pi]: by half-plane, then by -dx/dy times m, floored, as
    # distinct slopes with |dy| <= 2R differ by at least 1/(4R**2).  The pair
    # tests leave no two ends at one point in the same direction.
    m = 4 * reach * reach + 1
    ends: dict[Name, list[tuple[tuple[int, int], Name]]] = {n: [] for n in (*points, *false_of)}
    for u, v in keys:
        (x0, y0), (x1, y1) = points[u], points[v]
        dx, dy = x1 - x0, y1 - y0
        half, cot = (2 if dy > 0 else 0, -dx * m // dy) if dy else (1 if dx > 0 else 3, 0)
        ahead, back = (half, cot), ((half + 2) % 4, cot)
        w = crossed_at.get((u, v))
        for a, b in ((u, v),) if w is None else ((u, w), (w, v)):
            ends[a].append((ahead, b))
            ends[b].append((back, a))
    rotations = {n: tuple(t for _, t in sorted(items)) for n, items in ends.items()}

    # Splice order runs clockwise round the corner polygon from its first
    # corner, so that each corner's wedge turns counterclockwise from its
    # previous corner to its next one.
    xy = [points[x] for x in corners]
    ring = (*corners,)
    if sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(xy, xy[1:] + xy[:1])) > 0:
        ring = (*ring[:1], *reversed(ring[1:]))
    names = tuple(n for n in sorted(points) if n not in ring)
    interior = (*names, *false_of)
    slot = {n: i for i, n in enumerate((*interior, *ring))}
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

    # A corner's wedge: its ends after its previous corner in its rotation,
    # up to its next one.  Ends past the next corner are numbered with it, so
    # that content outside the corners still makes a map to reject.
    local_rotations = tuple([local(n, rotations[n]) for n in interior])
    local_wedges, two_sided = [], []
    for i, x in enumerate(ring):
        rot, prev, after = rotations[x], ring[i - 1], ring[(i + 1) % len(ring)]
        j = rot.index(prev) + 1 if prev in rot else 0
        fan = rot[j:] + rot[:j]
        local_wedges.append(local(x, [t for t in fan if t not in (prev, after)]))
        if fan[-2] != after:
            two_sided.append(x)
    edges = len(darts) // 2
    # The boundary edges, numbered last, take the map edges from ``edges`` up.
    corner_rotations = [local(x, rotations[x]) for x in ring]
    m = map_from_paired_darts(dict(enumerate((*local_rotations, *corner_rotations))),
                              len(darts) // 2)
    if not euler_check(m).planar:
        raise SketchError("sketch does not assemble into a plane embedding")
    if ring and not any(all(d >> 1 >= edges for d in walk) for walk in m.faces):
        raise SketchError("no pure-boundary face; corners do not bound the fragment")
    if two_sided:
        raise SketchError(f"interior edges on both sides of corner {two_sided[0]}")

    graph_edges = [k for k in keys if k not in boundary_keys]
    index = {e: i for i, e in enumerate(graph_edges)}
    return CompiledSketch(
        edges=edges,
        names=names,
        rotations=local_rotations,
        wedges=tuple(local_wedges),
        graph_edges=tuple([(slot[u], slot[v]) for u, v in graph_edges]),
        crossings=tuple([(slot[w], index[e], index[f]) for w, (e, f) in false_of.items()]),
    )
