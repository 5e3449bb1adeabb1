"""Combinatorial maps: rotation systems with face tracing and Euler certification.

A map is a set of darts (edge ends).  Two structures define the embedding:
the *rotation*, a cyclic sequence of darts around each vertex in a globally
consistent orientation, and the *opposite* involution pairing the two darts
of every edge.  Faces are the orbits of the next-dart permutation

    phi(d) = rotation-successor of opposite(d)

and Euler's formula applied per connected component (V - E + F = 2, where F
counts face orbits of the component; a component without darts counts one
face) certifies that the rotation system describes a plane embedding.

Maps are immutable values; every derived map, surgery included, is edited
through one :class:`MapEditor` session and checked once.  Maps may contain
parallel edges but never loops.  The derived views of a map (dart owners,
edge darts, rotation successors, faces, components) are built at most once
per map: the dart owners by the structure check that admits the map, the
edge darts of a map of paired darts by its builder, and the rest on first
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence


class MapError(ValueError):
    """Raised when map data violates a structural invariant."""


@dataclass(frozen=True)
class EulerReport:
    """Outcome of an Euler-formula planarity check."""

    planar: bool
    vertices: int
    edges: int
    faces: int
    components: int


@dataclass(frozen=True)
class PlaneMap:
    """An embedded multigraph given by vertex rotations and a dart pairing.

    ``rotations`` maps each vertex id to the cyclic tuple of its darts,
    ``opposite`` pairs the two darts of each edge, and ``dart_edge`` names the
    edge owning each dart.  Instances should be built via :func:`build_map`
    or the operations in this module, which validate all invariants.
    """

    rotations: dict[int, tuple[int, ...]]
    opposite: dict[int, int]
    dart_edge: dict[int, int]

    # -- derived views -----------------------------------------------------

    @cached_property
    def dart_vertex(self) -> dict[int, int]:
        owner: dict[int, int] = {}
        for v, rot in self.rotations.items():
            for d in rot:
                owner[d] = v
        return owner

    @cached_property
    def edge_darts(self) -> dict[int, tuple[int, int]]:
        pairs: dict[int, tuple[int, int]] = {}
        for d, e in self.dart_edge.items():
            o = self.opposite[d]
            if d < o:
                pairs[e] = (d, o)
        return pairs

    @cached_property
    def _successor(self) -> dict[int, int]:
        succ: dict[int, int] = {}
        for rot in self.rotations.values():
            n = len(rot)
            for i, d in enumerate(rot):
                succ[d] = rot[(i + 1) % n]
        return succ

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The face walks of :func:`trace_faces`, traced once per map."""
        return trace_faces(self)

    @cached_property
    def components(self) -> dict[int, int]:
        """Each vertex's component root, from :func:`_components`, found once per map."""
        return _components(self)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self.rotations))

    @property
    def edges(self) -> tuple[int, ...]:
        return tuple(sorted(self.edge_darts))

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        d, o = self.edge_darts[edge]
        return self.dart_vertex[d], self.dart_vertex[o]

    def degree(self, vertex: int) -> int:
        return len(self.rotations[vertex])

    def next_dart(self, dart: int) -> int:
        """The face-walk successor: rotation-successor of the opposite dart."""
        return self._successor[self.opposite[dart]]


def _raise_duplicate_dart(rotations: Mapping[int, Sequence[int]]) -> None:
    """Raise :class:`MapError` for the first dart met in a second rotation."""
    seen: set[int] = set()
    for rot in rotations.values():
        for d in rot:
            if d in seen:
                raise MapError(f"duplicate dart {d} (dart in two rotations)")
            seen.add(d)


def _check_structure(rotations: Mapping[int, Sequence[int]],
                     opposite: Mapping[int, int]) -> dict[int, int]:
    """Raise :class:`MapError` unless the data form a loopless map; return its dart owners."""
    owner: dict[int, int] = {}
    for v, rot in rotations.items():
        size = len(owner)
        owner.update(dict.fromkeys(rot, v))
        if len(owner) != size + len(rot):
            _raise_duplicate_dart(rotations)
    if opposite.keys() != owner.keys():
        missing = set(owner).symmetric_difference(opposite)
        raise MapError(f"unpaired dart: pairing domain mismatch {sorted(missing)[:4]}")
    partner = opposite.get
    for d, o in opposite.items():
        if partner(o) != d or o == d:
            raise MapError(f"unpaired dart {d}: opposite is not a fixed-point-free involution")
        if owner[o] == owner[d]:
            raise MapError(f"loop edge at vertex {owner[d]} (darts {d},{o})")
    return owner


def build_map(vertex_rotations: Mapping[int, Sequence[int]],
              opposite: Mapping[int, int]) -> PlaneMap:
    """Build a structurally valid map from rotations and a dart pairing.

    Edge ids are assigned densely in increasing order of each edge's smaller
    dart id, so construction is reproducible.  Raises :class:`MapError` on a
    duplicate dart, an unpaired dart, a dart in two rotations, or a loop.
    """
    owner = _check_structure(vertex_rotations, opposite)
    dart_edge: dict[int, int] = {}
    eid = 0
    for d in sorted(opposite):
        if d < opposite[d]:
            dart_edge[d] = dart_edge[opposite[d]] = eid
            eid += 1
    return _admitted(vertex_rotations, dict(opposite), dart_edge, owner)


def _admitted(rotations: Mapping[int, Sequence[int]], opposite: dict[int, int],
              dart_edge: dict[int, int], owner: dict[int, int]) -> PlaneMap:
    """The map of fresh dicts whose structure check returned ``owner``.

    ``owner`` becomes the map's ``dart_vertex``, the value that cached
    property would derive, so the map does not derive it a second time.
    """
    m = PlaneMap({v: tuple(rot) for v, rot in rotations.items()}, opposite, dart_edge)
    m.__dict__["dart_vertex"] = owner
    return m


def _make(rotations: Mapping[int, Sequence[int]], opposite: Mapping[int, int],
          dart_edge: Mapping[int, int]) -> PlaneMap:
    """Internal constructor preserving explicit edge ids; still validates."""
    owner = _check_structure(rotations, opposite)
    return _admitted(rotations, dict(opposite), dict(dart_edge), owner)


def map_from_paired_darts(rotations: Mapping[int, Sequence[int]], edges: int) -> PlaneMap:
    """Build a map whose edge ``i`` owns darts ``2i`` and ``2i + 1``, for i < ``edges``.

    ``rotations`` gives each vertex's darts in rotation order.  Raises
    :class:`MapError` when the darts are not exactly those of the edges,
    each in one rotation, or an edge is a loop.
    """
    opposite = {d: d ^ 1 for d in range(2 * edges)}
    m = _admitted(rotations, opposite, {d: d >> 1 for d in opposite},
                  _check_structure(rotations, opposite))
    m.__dict__["edge_darts"] = {e: (2 * e, 2 * e + 1) for e in range(edges)}
    return m


def trace_faces(m: PlaneMap) -> tuple[tuple[int, ...], ...]:
    """Decompose the darts into face walks.

    Every dart appears in exactly one walk; walks follow
    ``next = rotation-successor of opposite(dart)``.  Faces are listed in
    increasing order of their smallest dart, each walk starting there.
    """
    opp = m.opposite
    step: dict[int, int] = {}  # dart -> its face-walk successor, until walked
    for rot in m.rotations.values():
        if rot:
            prev = rot[-1]
            for d in rot:
                step[opp[prev]] = d
                prev = d
    pop = step.pop
    faces: list[tuple[int, ...]] = []
    for start in sorted(opp):
        if start not in step:
            continue
        walk = [start]
        d = pop(start)
        while d != start:
            walk.append(d)
            d = pop(d)
        faces.append(tuple(walk))
    return tuple(faces)


def _components(m: PlaneMap) -> dict[int, int]:
    """Depth-first search over the rotations; maps each vertex to its component's first vertex."""
    rotations, owner, opp = m.rotations, m.dart_vertex, m.opposite
    root: dict[int, int] = {}
    for s in rotations:
        if s in root:
            continue
        root[s] = s
        stack = [s]
        while stack:
            for d in rotations[stack.pop()]:
                w = owner[opp[d]]
                if w not in root:
                    root[w] = s
                    stack.append(w)
    return root


def euler_check(m: PlaneMap) -> EulerReport:
    """Certify planarity of the embedding via Euler's formula.

    The verdict is ``planar`` iff every connected component satisfies
    V - E + F = 2, where F counts the face orbits whose darts lie in the
    component (a dartless component contributes its single surrounding face).
    """
    roots = m.components
    rotations, owner = m.rotations, m.dart_vertex
    comp_v: dict[int, int] = {}
    comp_d: dict[int, int] = {}
    comp_f: dict[int, int] = {}
    for v, r in roots.items():
        comp_v[r] = comp_v.get(r, 0) + 1
        comp_d[r] = comp_d.get(r, 0) + len(rotations[v])
    for walk in m.faces:
        r = roots[owner[walk[0]]]
        comp_f[r] = comp_f.get(r, 0) + 1
    planar = True
    total_faces = 0
    for r, nv in comp_v.items():
        ne = comp_d[r] // 2
        nf = comp_f.get(r, 0) if ne else 1
        total_faces += nf
        if nv - ne + nf != 2:
            planar = False
    return EulerReport(
        planar=planar,
        vertices=len(m.rotations),
        edges=len(m.edge_darts),
        faces=total_faces,
        components=len(comp_v),
    )


def _resolve_attachments(corners: Sequence[int],
                         attachments: Sequence[int]) -> list[int]:
    """Match attachment vertices to walk positions, in cyclic walk order.

    Tries each occurrence of the first attachment as anchor, then greedily
    takes the earliest later occurrence of each subsequent vertex.
    """
    n = len(corners)
    for vertex in attachments:
        if vertex not in corners:
            raise MapError(f"attachment not on face: vertex {vertex}")
    anchors = [i for i, v in enumerate(corners) if v == attachments[0]]
    for a in anchors:
        positions = [a]
        ok = True
        for want in attachments[1:]:
            nxt = None
            for off in range(positions[-1] - a + 1, n):
                i = (a + off) % n
                if corners[i] == want:
                    nxt = i
                    break
            if nxt is None:
                ok = False
                break
            positions.append(nxt)
        if ok:
            return positions
    raise MapError("order not realizable on the walk")


class MapEditor:
    """A mutable working copy of a map; every derived map is built through one.

    Starts as a copy of ``base``, or empty.  New vertex, dart and edge ids
    are taken above every id in use, and the two darts of a new edge get
    consecutive ids; deletion and smoothing hand out none.  Read ``rotations``,
    ``opposite`` and ``dart_edge`` freely but change them only through the
    methods.  :meth:`finish` returns the edited map after one structure check.
    """

    def __init__(self, base: PlaneMap | None = None):
        base = base or PlaneMap({}, {}, {})
        self.rotations = {v: list(rot) for v, rot in base.rotations.items()}
        self.opposite = dict(base.opposite)
        self.dart_edge = dict(base.dart_edge)
        self._owner = dict(base.dart_vertex)
        self._edge_darts = dict(base.edge_darts)
        self._next_vertex = max(base.rotations, default=-1) + 1
        self._next_dart = max(base.dart_edge, default=-1) + 1
        self._next_edge = max(base.edge_darts, default=-1) + 1

    def add_vertex(self, darts: Sequence[int] = ()) -> int:
        """Add a vertex with a new id, rotating ``darts``."""
        vertex = self._next_vertex
        self._next_vertex += 1
        self.rotations[vertex] = list(darts)
        self._owner.update(dict.fromkeys(darts, vertex))
        return vertex

    def new_edge(self) -> tuple[int, int]:
        """Pair two new darts as a new edge; they are placed separately."""
        d, edge = self._next_dart, self._next_edge
        self._next_dart += 2
        self._next_edge += 1
        self.opposite[d], self.opposite[d + 1] = d + 1, d
        self.dart_edge[d] = self.dart_edge[d + 1] = edge
        self._edge_darts[edge] = (d, d + 1)
        return d, d + 1

    def insert_darts(self, vertex: int, pos: int, darts: Sequence[int]) -> None:
        """Put ``darts``, in order, before index ``pos`` of ``vertex``'s rotation."""
        rot = self.rotations[vertex]
        if not 0 <= pos <= len(rot):
            raise MapError("rotation position out of range")
        rot[pos:pos] = darts
        self._owner.update(dict.fromkeys(darts, vertex))

    def insert_at_corner(self, arriving: int, leaving: int, darts: Sequence[int]) -> int:
        """Put ``darts`` into the face corner a walk enters by ``arriving``.

        They go, in order, right after the opposite of ``arriving`` in the
        corner vertex's rotation, which is returned.  ``leaving`` is the
        walk's next dart; raises :class:`MapError` unless it follows that
        opposite, i.e. when the walk is out of sync with the rotations.
        """
        anchor = self.opposite[arriving]
        vertex = self._owner[anchor]
        rot = self.rotations[vertex]
        at = rot.index(anchor) + 1
        if rot[at % len(rot)] != leaving:
            raise MapError("face walk out of sync with rotations")
        self.insert_darts(vertex, at, darts)
        return vertex

    def delete_edge(self, edge: int) -> None:
        """Remove an edge, splicing both rotations; never increases genus."""
        if edge not in self._edge_darts:
            raise MapError(f"missing element: edge {edge}")
        for d in self._edge_darts.pop(edge):
            del self.opposite[d], self.dart_edge[d]
            self.rotations[self._owner.pop(d)].remove(d)

    def delete_vertex(self, vertex: int) -> None:
        """Remove a vertex together with all incident edges."""
        if vertex not in self.rotations:
            raise MapError(f"missing element: vertex {vertex}")
        for e in {self.dart_edge[d] for d in self.rotations[vertex]}:
            self.delete_edge(e)
        del self.rotations[vertex]

    def smooth(self, vertex: int) -> int:
        """Replace a degree-2 vertex by one edge joining its neighbours; return its id.

        The far darts keep their ids and rotation positions; the merged edge
        takes the smaller of the two old edge ids.
        """
        if vertex not in self.rotations:
            raise MapError(f"missing element: vertex {vertex}")
        rot = self.rotations[vertex]
        if len(rot) != 2:
            raise MapError(f"vertex {vertex} does not have degree 2")
        a, b = (self.opposite[d] for d in rot)  # darts at the two neighbours
        if self._owner[a] == self._owner[b]:
            raise MapError("smoothing would create a loop")
        edge = min(self.dart_edge[a], self.dart_edge[b])
        for d in self.rotations.pop(vertex):
            del self._edge_darts[self.dart_edge.pop(d)], self.opposite[d], self._owner[d]
        self.opposite[a], self.opposite[b] = b, a
        self.dart_edge[a] = self.dart_edge[b] = edge
        self._edge_darts[edge] = (a, b)
        return edge

    def finish(self) -> PlaneMap:
        """The edited map, after one structure check."""
        return _make(self.rotations, self.opposite, self.dart_edge)


def insert_vertex_in_face(m: PlaneMap, face: int,
                          attachments: Sequence[int]) -> tuple[PlaneMap, int]:
    """Insert a new vertex inside a face, joined to boundary occurrences.

    ``face`` indexes the walk list of :func:`trace_faces`; ``attachments``
    names boundary vertices in cyclic walk order.  All new edges subdivide
    the chosen face, so a planar map stays planar.  Returns the new map and
    the id of the inserted vertex.
    """
    if not attachments:
        raise MapError("attachment not on face: empty attachment list")
    if not 0 <= face < len(m.faces):
        raise MapError(f"no such face index {face}")
    walk = m.faces[face]
    corners = [m.dart_vertex[d] for d in walk]
    ed = MapEditor(m)
    hubs: list[int] = []
    for pos in _resolve_attachments(corners, attachments):
        spoke, hub = ed.new_edge()
        ed.insert_at_corner(walk[pos - 1], walk[pos], [spoke])
        hubs.append(hub)
    # Reversed order closes each sub-face between consecutive attachments.
    new_vertex = ed.add_vertex(darts=hubs[::-1])
    return ed.finish(), new_vertex


def smooth_degree2(m: PlaneMap, vertex: int) -> PlaneMap:
    """The map ``m`` after :meth:`MapEditor.smooth` of ``vertex``."""
    ed = MapEditor(m)
    ed.smooth(vertex)
    return ed.finish()


def map_from_rotation_lists(neighbour_orders: Mapping[int, Sequence[tuple[int, int]]]) -> PlaneMap:
    """Build a map from per-vertex cyclic lists of (neighbour, edge id) pairs.

    Every edge id must occur exactly once at each endpoint.  Dart ids are
    dense, in vertex order; the sketch compiler builds its maps this way.
    """
    darts_at: dict[tuple[int, int], list[int]] = {}
    rotations: dict[int, list[int]] = {}
    nxt = 0
    for v in sorted(neighbour_orders):
        rot = []
        for (_, e) in neighbour_orders[v]:
            darts_at.setdefault((e, v), []).append(nxt)
            rot.append(nxt)
            nxt += 1
        rotations[v] = rot
    opposite: dict[int, int] = {}
    by_edge: dict[int, list[int]] = {}
    for (e, _), ds in sorted(darts_at.items()):
        by_edge.setdefault(e, []).extend(ds)
    for e, ds in by_edge.items():
        if len(ds) != 2:
            raise MapError(f"edge {e} does not have exactly two darts")
        opposite[ds[0]], opposite[ds[1]] = ds[1], ds[0]
    return build_map(rotations, opposite)
