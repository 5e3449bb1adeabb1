"""Combinatorial maps: rotation systems with face tracing and Euler certification.

A map is a set of darts (edge ends).  Two structures define the embedding:
the *rotation*, a cyclic sequence of darts around each vertex in a globally
consistent orientation, and the *opposite* involution pairing the two darts
of every edge.  Faces are the orbits of the next-dart permutation

    phi(d) = rotation-successor of opposite(d)

and Euler's formula applied per connected component (V - E + F = 2, where F
counts face orbits of the component; a component without darts counts one
face) certifies that the rotation system describes a plane embedding.  No
component exceeds 2, so one global count, V - E + F = 2C over all C
components, decides it (see :func:`euler_check`).

Maps are immutable values; every derived map, surgery included, is edited
through one :class:`MapEditor` session and checked once.  Maps may contain
parallel edges but never loops.  The constructor's structure check finds
each dart's owner; the other derived views (edge darts, faces,
components) are built on first use, once per map.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, NamedTuple, Sequence


class MapError(ValueError):
    """Raised when map data violates a structural invariant."""


class EulerReport(NamedTuple):
    """Outcome of an Euler-formula planarity check."""

    planar: bool
    vertices: int
    edges: int
    faces: int
    components: int


class PlaneMap:
    """An embedded multigraph given by vertex rotations and a dart pairing.

    ``rotations`` maps each vertex id to the cyclic tuple of its darts,
    ``opposite`` pairs the two darts of each edge, and ``dart_edge`` names the
    edge owning each dart.  The constructor raises :class:`MapError` unless
    they form a loopless map, and keeps each dart's owner in ``dart_vertex``.

    A plain class rather than a tuple, because the cached views below live
    in the instance ``__dict__``.  Its fields cannot be reassigned, two maps
    are equal when their fields are, and a map is unhashable.
    """

    _fields = ("rotations", "opposite", "dart_edge")
    rotations: dict[int, tuple[int, ...]]
    opposite: dict[int, int]
    dart_edge: dict[int, int]
    dart_vertex: dict[int, int]

    def __init__(self, rotations: Mapping[int, Sequence[int]], opposite: dict[int, int],
                 dart_edge: dict[int, int]) -> None:
        owner = _check_structure(rotations, opposite)
        vars(self).update(rotations={v: tuple(rot) for v, rot in rotations.items()},
                          opposite=opposite, dart_edge=dart_edge, dart_vertex=owner)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable PlaneMap")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable PlaneMap")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rotations == other.rotations and self.opposite == other.opposite
                and self.dart_edge == other.dart_edge)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"PlaneMap(rotations={self.rotations!r}, opposite={self.opposite!r}, "
                f"dart_edge={self.dart_edge!r})")

    # -- derived views -----------------------------------------------------

    @cached_property
    def edge_darts(self) -> dict[int, tuple[int, int]]:
        pairs: dict[int, tuple[int, int]] = {}
        for d, e in self.dart_edge.items():
            o = self.opposite[d]
            if d < o:
                pairs[e] = (d, o)
        return pairs

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The face walks of :func:`trace_faces`, traced once per map."""
        return trace_faces(self)

    @cached_property
    def components(self) -> dict[int, int]:
        """Each vertex's component root, from :func:`_components`, found once per map."""
        return _components(self)

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        d, o = self.edge_darts[edge]
        return self.dart_vertex[d], self.dart_vertex[o]


def _raise_duplicate_dart(rotations: Mapping[int, Sequence[int]]) -> None:
    """Raise :class:`MapError` for the first dart met a second time, naming where."""
    seen: dict[int, int] = {}  # dart -> the vertex whose rotation holds it
    for v, rot in rotations.items():
        for d in rot:
            u = seen.get(d)
            if u is not None:
                where = (f"twice in the rotation of vertex {v}" if u == v
                         else f"in the rotations of vertices {u} and {v}")
                raise MapError(f"duplicate dart {d} ({where})")
            seen[d] = v


def _check_structure(rotations: Mapping[int, Sequence[int]],
                     opposite: Mapping[int, int]) -> dict[int, int]:
    """Raise :class:`MapError` unless the data form a loopless map; return its dart owners."""
    owner: dict[int, int] = {}
    total = 0
    for v, rot in rotations.items():
        total += len(rot)
        for d in rot:
            owner[d] = v
    if len(owner) != total:
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
    dart_edge: dict[int, int] = {}
    eid = 0
    for d in sorted(opposite):
        if d < opposite[d]:
            dart_edge[d] = dart_edge[opposite[d]] = eid
            eid += 1
    return PlaneMap(vertex_rotations, dict(opposite), dart_edge)


def map_from_paired_darts(rotations: Mapping[int, Sequence[int]], edges: int) -> PlaneMap:
    """Build a map whose edge ``i`` owns darts ``2i`` and ``2i + 1``, for i < ``edges``.

    ``rotations`` gives each vertex's darts in rotation order.  Raises
    :class:`MapError` when the darts are not exactly those of the edges,
    each in one rotation, or an edge is a loop.
    """
    opposite = {d: d ^ 1 for d in range(2 * edges)}
    return PlaneMap(rotations, opposite, {d: d >> 1 for d in opposite})


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
    component (a dartless component contributes its single surrounding
    face).  It is decided by one global count, V - E + F = 2C over the whole
    map with C components, by this lemma.  E counts the pairs of the
    ``opposite`` involution, half the darts, so no edge view is built.

    *Lemma.* Each component has V - E + F <= 2: for a connected rotation
    system the count is 2 - 2g, where g >= 0 is the genus of the surface its
    face walks bound (Mohar and Thomassen, *Graphs on Surfaces*, 2001).  The
    global count is the sum of the components' counts, so it equals 2C
    exactly when every component counts 2, that is, is planar.

    *Proof of the bound.* Grow a component from one of its vertices, adding
    its edges one at a time, each meeting a vertex already present, with
    each vertex's darts so far in their final cyclic order.  The lone vertex
    counts V = 1, E = 0 and its one face: 2.  A new edge puts its two darts
    into two corners, one at each end as the map is loopless, and changes
    no face walk but those through these corners.  An edge to a new vertex
    runs out and back inside its corner's walk: V and E grow by one and F
    is unchanged.  An edge between two present vertices splits the walk
    through its corners in two when both corners lie on one walk, and joins
    their two walks into one otherwise: E grows by one and F changes by one.
    So the count starts at 2 and never grows.
    """
    faces = len(m.faces) + sum(not rot for rot in m.rotations.values())
    components = len(set(m.components.values()))
    vertices, edges = len(m.rotations), len(m.opposite) // 2
    return EulerReport(
        planar=vertices - edges + faces == 2 * components,
        vertices=vertices,
        edges=edges,
        faces=faces,
        components=components,
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
        rot = self.rotations[vertex] = []
        self._place(vertex, rot, 0, darts)
        return vertex

    def new_edge(self) -> tuple[int, int]:
        """Pair two new darts as a new edge; they are placed separately."""
        d, _ = self.new_edges(1)
        return d, d + 1

    def new_edges(self, count: int) -> tuple[int, int]:
        """The first dart and edge of ``count`` edges made as by :meth:`new_edge` calls."""
        d, edge = self._next_dart, self._next_edge
        self._next_dart += 2 * count
        self._next_edge += count
        opposite, dart_edge, edge_darts = self.opposite, self.dart_edge, self._edge_darts
        e = edge
        for a in range(d, d + 2 * count, 2):
            b = a + 1
            opposite[a] = b
            opposite[b] = a
            dart_edge[a] = dart_edge[b] = e
            edge_darts[e] = (a, b)
            e += 1
        return d, edge

    def insert_darts(self, vertex: int, pos: int, darts: Sequence[int]) -> None:
        """Put ``darts``, in order, before index ``pos`` of ``vertex``'s rotation."""
        rot = self.rotations[vertex]
        if not 0 <= pos <= len(rot):
            raise MapError("rotation position out of range")
        self._place(vertex, rot, pos, darts)

    def _place(self, vertex: int, rot: list[int], pos: int, darts: Sequence[int]) -> None:
        """Put ``darts`` before index ``pos`` of ``rot``, the rotation of ``vertex``.

        The one place that records the owner of a placed dart.
        """
        rot[pos:pos] = darts
        owner = self._owner
        for d in darts:
            owner[d] = vertex

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
        self._place(vertex, rot, at, darts)
        return vertex

    def add_star(self, walk: Sequence[int], positions: Sequence[int]) -> tuple[int, int]:
        """Add a vertex inside the face ``walk``, joined to its corners at ``positions``.

        ``positions`` index ``walk`` in cyclic walk order, and spoke ``k``
        goes into the corner the walk enters by ``walk[positions[k] - 1]``.
        The spokes are the next new edges, the first dart of each at its
        corner.  Returns the new vertex and the first spoke's corner dart.
        """
        dart, _ = self.new_edges(len(positions))
        for k, pos in enumerate(positions):
            self.insert_at_corner(walk[pos - 1], walk[pos], [dart + 2 * k])
        # Reversed order closes each sub-face between consecutive corners.
        return self.add_vertex(range(dart + 2 * len(positions) - 1, dart, -2)), dart

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
        return PlaneMap(self.rotations, dict(self.opposite), dict(self.dart_edge))


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
    positions = _resolve_attachments([m.dart_vertex[d] for d in walk], attachments)
    ed = MapEditor(m)
    new_vertex, _ = ed.add_star(walk, positions)
    return ed.finish(), new_vertex


def smooth_degree2(m: PlaneMap, vertex: int) -> PlaneMap:
    """The map ``m`` after :meth:`MapEditor.smooth` of ``vertex``."""
    ed = MapEditor(m)
    ed.smooth(vertex)
    return ed.finish()


def map_from_rotation_lists(neighbour_orders: Mapping[int, Sequence[int]]) -> PlaneMap:
    """Build a simple map from each vertex's neighbours in rotation order.

    Dart v->w is paired with dart w->v; dart ids are dense, in vertex order,
    and :func:`build_map` numbers the edges.  The host maps of the
    constructions (``_web``, ``_star``, ``_double_star``) are built this way.
    Raises :class:`MapError` when a vertex's neighbour does not list it back;
    the constructor's structure check rejects a neighbour listed twice (a
    duplicate dart) or a vertex listing itself (a dart opposite itself).
    """
    darts: dict[tuple[int, int], int] = {}  # (v, w) -> the dart v->w
    rotations = {v: [darts.setdefault((v, w), len(darts)) for w in neighbour_orders[v]]
                 for v in sorted(neighbour_orders)}
    opposite: dict[int, int] = {}
    for (v, w), d in darts.items():
        o = darts.get((w, v))
        if o is None:
            raise MapError(f"vertex {v} lists neighbour {w}, which does not list it back")
        opposite[d] = o
    return build_map(rotations, opposite)
