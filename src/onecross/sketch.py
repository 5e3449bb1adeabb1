"""Compile coordinate sketches of drawings into combinatorial form.

Construction patterns are specified as straight-line sketches: named points,
edges that are single segments between two of them, and the exact set of
edge pairs meant to cross.  The compiler intersects every pair of segments
that can meet, verifies that the realized crossing set equals the declared
one (any other pair of edges must be disjoint except at shared endpoints),
places one subdivision point per crossing, and reads off every rotation by
sorting the directions toward each point's neighbours.  It skips two kinds
of pair, each only where a lemma of :func:`_scanned_pairs` shows that the
intersection test would find nothing: segments sharing an end point at a
clear angle, whose parameters along each other come out at their ends, and
segments whose bounding boxes lie farther apart than every tolerance and
rounding error of the test.  The output is purely
combinatorial; coordinates never leave this module.

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

import math
from itertools import chain
from typing import Mapping, NamedTuple, Sequence

from .plane_map import euler_check, map_from_paired_darts
# No run reads trace_faces here; the benchmark's sketch.trace_faces probe resolves through it.
from .plane_map import trace_faces

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


def _scanned_pairs(points: Mapping[Name, Point],
                   keys: Sequence[EdgeKey]) -> list[tuple[EdgeKey, EdgeKey]]:
    """The pairs of segments, in scan order, that :func:`_seg_intersection` must test.

    Scan order takes each pair ``(keys[i], keys[j])``, ``i < j``, once,
    ordered by ``i`` and then ``j``, and gives each segment ``(u, v)`` of
    ``keys`` as ``points[u]`` to ``points[v]``.  A pair is left out only when
    one of the lemmas below shows that the test returns None for it.  They
    speak of the test's computed values: its direction cross product ``D``,
    its parameters ``t`` and ``s``, and the cross product ``C`` of its
    collinear branch.  Its tolerances are relative in ``t`` and ``s``
    (``_EPS`` of a segment) and absolute in ``D`` and ``C`` (``_EPS``).  Let
    ``R`` be the largest absolute coordinate of the sketch and ``u = 2**-53``
    the unit roundoff, so that each computed difference of two coordinates
    is off by at most ``2uR`` and each computed cross product of two such
    differences by at most ``16uR**2``.

    *Lemma 1 (shared end).*  Let two segments share an end point and have
    ``|D| >= _EPS``.  If the shared point is the first point of either, or
    the second point of the first and the first point of the second, the
    test's ``t`` and ``s`` are exactly 0 or 1, so neither is interior and it
    returns None.  Proof: the difference it takes between the two start
    points is then zero, the first direction or the negated second one, bit
    for bit (floating-point subtraction is antisymmetric and multiplication
    commutes), so each numerator is 0 or exactly ``D``.  If both segments
    end at the shared point, the numerators equal ``D`` only up to rounding:
    each is off from it by at most ``56uR**2``, so ``t`` and ``s`` lie
    within ``_EPS`` of 1 once ``|D| >= 1e-5 * R**2``, and only then is such
    a pair left out.

    *Lemma 2 (boxes apart).*  Let ``64uR**2 <= _EPS`` and grow each
    segment's bounding box by ``pad = slack + 3 * _EPS / length``, where
    ``slack = 2e-5 * R**3 + 5e-9 * R``.  If the grown boxes of two segments
    are disjoint, the test returns None.  Proof: it reports a pair only in
    two ways.  With ``|D| >= _EPS`` it needs ``t`` and ``s`` in
    ``[-_EPS, 1 + _EPS]``; ``|D|`` is then at least ``3/4 * _EPS`` before
    rounding, so the exact parameters differ from the computed ones by at
    most ``43uR**2 / _EPS + 2u``, and the two points they name on the
    segments' lines, which coincide up to ``2uR``, lie within
    ``4 * _EPS * R + 172uR**3 / _EPS + 15uR <= slack`` of both boxes in each
    coordinate.  With ``|D| < _EPS`` it needs ``|C| < _EPS``, which puts both
    ends of the second segment within ``(2 * _EPS + 32uR**2) / length + 10uR``
    of the first one's line, ``length`` being the first one's, and the
    projections of the two onto that line to overlap: the boxes then lie
    within ``(2 * _EPS + 64uR**2) / length + 12uR <= 3 * _EPS / length +
    slack`` of each other.  When ``64uR**2 > _EPS`` no box is grown finitely
    and this lemma leaves out nothing; neither does it for a segment of
    length 0.
    """
    reach = max(map(abs, chain.from_iterable(points.values())), default=0.0)  # R
    unit = 2.0 ** -53
    slack = 2e-5 * reach ** 3 + 5e-9 * reach if 64 * unit * reach ** 2 <= _EPS else math.inf
    end_limit = max(_EPS, 1e-5 * reach ** 2)
    segments = []  # each segment's grown box, direction and ends
    for u, v in keys:
        (x0, y0), (x1, y1) = points[u], points[v]
        dx, dy = x1 - x0, y1 - y0
        pad = slack + 3 * _EPS / math.hypot(dx, dy) if dx or dy else math.inf
        if x0 > x1:
            x0, x1 = x1, x0
        if y0 > y1:
            y0, y1 = y1, y0
        segments.append((x0 - pad, x1 + pad, y0 - pad, y1 + pad, dx, dy, u, v))
    pairs = []
    for i, (x0, x1, y0, y1, dx, dy, u1, v1) in enumerate(segments):
        for a0, a1, b0, b1, ex, ey, u2, v2 in segments[i + 1:]:
            if a0 > x1 or a1 < x0 or b0 > y1 or b1 < y0:
                continue  # Lemma 2
            if u1 == u2 or u1 == v2 or v1 == u2:
                if abs(dx * ey - dy * ex) >= _EPS:
                    continue  # Lemma 1, exact
            elif v1 == v2 and abs(dx * ey - dy * ex) >= end_limit:
                continue  # Lemma 1, both ending at the shared point
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

    Each of ``edges`` is one ``(u, v)`` segment.  Given ``corners``, the
    sketch is a fragment: the compiler adds the boundary edges joining
    consecutive corners (last to first), which take part in the geometry but
    are left out of the emitted graph.  The segments are tested pairwise in
    the order of :func:`_scanned_pairs`, which leaves out only pairs the test
    provably passes, so the first error found is the one a test of every
    pair would find first.
    """
    keys: list[EdgeKey] = []
    seen: set[EdgeKey] = set()
    for u, v in [*zip(corners, [*corners[1:], *corners[:1]]), *edges]:
        key = _ekey(u, v)
        if key in seen:
            raise SketchError(f"duplicate edge {key}")
        seen.add(key)
        keys.append(key)
    boundary_keys = set(keys[:len(corners)])
    keys.sort()

    declared = {frozenset((_ekey(*a), _ekey(*b))) for a, b in crossings}
    found: set[frozenset[EdgeKey]] = set()
    at: dict[EdgeKey, Point] = {}  # the crossing point on each crossed edge
    for e1, e2 in _scanned_pairs(points, keys):
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
    incident: dict[Name, list[tuple[float, Name]]] = {n: [] for n in coords}
    for u, v in keys:
        w = crossed_at.get((u, v))
        for a, b in ((u, v),) if w is None else ((u, w), (w, v)):
            (x0, y0), (x1, y1) = coords[a], coords[b]
            angle = math.atan2(y1 - y0, x1 - x0)
            # The end at b points the other way, at angle -+ pi up to
            # rounding; at angle 0 the signs of zeros decide between -pi and pi.
            back = (math.atan2(y0 - y1, x0 - x1) if angle == 0
                    else angle - math.pi if angle > 0 else angle + math.pi)
            incident[a].append((angle, b))
            incident[b].append((back, a))
    rotations: dict[Name, tuple[Name, ...]] = {}
    for n, items in incident.items():
        items.sort()
        for (a1, _), (a2, _) in zip(items, items[1:]):
            if a2 - a1 < 1e-7:
                raise SketchError(f"ambiguous rotation at {n}: near-parallel edge ends")
        rotations[n] = tuple(t for _, t in items)

    for name, (e1, e2) in false_of.items():
        if [t in e1 for t in rotations[name]] not in ([True, False, True, False],
                                                      [False, True, False, True]):
            raise SketchError(f"crossing of {e1} and {e2} is numerically degenerate: "
                              "its ends do not alternate round the computed point")

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
