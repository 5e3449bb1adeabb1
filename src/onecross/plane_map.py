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

Dart ids are small non-negative integers, and the per-dart data (opposite,
owning vertex) are dense tables: tuples indexed by dart id, with -1 at
every id that no dart holds (a *hole*, left by a deleted or smoothed
edge).  Every per-dart pass indexes a table instead of hashing.  An edge
is its pair of darts and carries no id of its own: where one edge must be
named, its smaller dart names it.

Maps are immutable values; every derived map, surgery included, is edited
through one :class:`MapEditor` session and checked once.  Maps may contain
parallel edges but never loops.  The constructor's structure check finds
each dart's owner; the other derived views (edge darts, faces,
components) are built on first use, once per map.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
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

    ``rotations`` maps each vertex id to the cyclic tuple of its darts.
    ``opposite`` is a table indexed by dart id: the dart paired with each
    dart, with -1 at the holes, the ids that no rotation holds.  The two
    fields are the whole map; an edge is a pair of opposite darts.  The
    constructor takes any sequences, keeps them as tuples and raises
    :class:`MapError` unless they form a loopless map; it keeps each dart's
    owner, -1 at a hole, in the table ``dart_vertex``.  Holes stay where
    they are: :meth:`MapEditor.finish` trims none, even at the top of the
    id range, so ``MapEditor(m).finish() == m``, and two maps that differ
    only in trailing holes are not equal.

    A plain class rather than a tuple, because the cached views below live
    in the instance ``__dict__``.  Its fields cannot be reassigned, nor its
    tables changed in place, two maps are equal when their fields are, and
    a map is unhashable.
    """

    _fields = ("rotations", "opposite")
    rotations: dict[int, tuple[int, ...]]
    opposite: tuple[int, ...]
    dart_vertex: tuple[int, ...]

    def __init__(self, rotations: Mapping[int, Sequence[int]], opposite: Sequence[int]) -> None:
        opposite = tuple(opposite)
        owner = _check_structure(rotations, opposite)
        vars(self).update(rotations={v: tuple(rot) for v, rot in rotations.items()},
                          opposite=opposite, dart_vertex=owner)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable PlaneMap")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable PlaneMap")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rotations == other.rotations and self.opposite == other.opposite

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PlaneMap(rotations={self.rotations!r}, opposite={self.opposite!r})"

    # -- derived views -----------------------------------------------------

    @cached_property
    def edge_darts(self) -> tuple[tuple[int, int], ...]:
        """Each edge's two darts, the smaller first, in increasing order of it."""
        # A hole's -1 is below every dart.
        return tuple((d, o) for d, o in enumerate(self.opposite) if d < o)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The face walks of :func:`trace_faces`, traced once per map."""
        return trace_faces(self)

    @cached_property
    def components(self) -> dict[int, int]:
        """Each vertex's component root, from :func:`_components`, found once per map."""
        return _components(self)


def _no_dart(d: int, size: int) -> MapError:
    """The error for a dart id ``d`` outside dart tables of ``size`` entries."""
    return MapError(f"unpaired dart {d}: no such id in dart tables of length {size}")


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
                     opposite: Sequence[int]) -> tuple[int, ...]:
    """Raise :class:`MapError` unless the data form a loopless map; return its dart owners.

    The owners are a table like ``opposite``, -1 at its holes.
    """
    size = len(opposite)
    owner: list = [None] * size  # None until a rotation holds the dart
    total = 0
    try:
        for v, rot in rotations.items():
            total += len(rot)
            for d in rot:
                owner[d] = v
        if total and min(chain.from_iterable(rotations.values())) < 0:
            raise IndexError  # a negative dart indexed from the end
    except IndexError:
        raise _no_dart(next(d for d in chain.from_iterable(rotations.values())
                            if not 0 <= d < size), size) from None
    if owner.count(None) != size - total:
        _raise_duplicate_dart(rotations)
    for d, o in enumerate(opposite):
        v = owner[d]
        if o == -1 or v is None:
            if (o == -1) != (v is None):  # ids below d agree: holes of both or of neither
                missing = [h for h in range(d, size) if (opposite[h] == -1) != (owner[h] is None)]
                raise MapError(f"unpaired dart: pairing domain mismatch {missing[:4]}")
            owner[d] = -1
            continue
        if not -1 < o < size or opposite[o] != d or o == d:
            raise MapError(f"unpaired dart {d}: opposite is not a fixed-point-free involution")
        if owner[o] == v:
            raise MapError(f"loop edge at vertex {v} (darts {d},{o})")
    return tuple(owner)


def build_map(vertex_rotations: Mapping[int, Sequence[int]],
              opposite: Mapping[int, int]) -> PlaneMap:
    """Build a structurally valid map from rotations and a dart pairing.

    The pairing maps each dart to its opposite; the table runs up to the
    largest dart, with holes at the ids it leaves out.  Raises
    :class:`MapError` on a duplicate dart, an unpaired dart, a dart in two
    rotations, or a loop.
    """
    size, low = max(opposite, default=-1) + 1, min(opposite, default=0)
    if low < 0:
        raise _no_dart(low, size)
    opp = [-1] * size
    for d, o in opposite.items():
        opp[d] = o
    return PlaneMap(vertex_rotations, opp)


def map_from_paired_darts(rotations: Mapping[int, Sequence[int]], edges: int) -> PlaneMap:
    """Build a map whose edge ``i`` owns darts ``2i`` and ``2i + 1``, for i < ``edges``.

    ``rotations`` gives each vertex's darts in rotation order.  Raises
    :class:`MapError` when the darts are not exactly those of the edges,
    each in one rotation, or an edge is a loop.
    """
    size = 2 * edges
    opposite = [0] * size
    opposite[0::2] = range(1, size, 2)
    opposite[1::2] = range(0, size, 2)
    return PlaneMap(rotations, opposite)


def trace_faces(m: PlaneMap) -> tuple[tuple[int, ...], ...]:
    """Decompose the darts into face walks.

    Every dart appears in exactly one walk; walks follow
    ``next = rotation-successor of opposite(dart)``.  Faces are listed in
    increasing order of their smallest dart, each walk starting there.
    """
    opp = m.opposite
    step = [-1] * len(opp)  # dart -> its face-walk successor, until walked; -1 after
    for rot in m.rotations.values():
        if rot:
            prev = rot[-1]
            for d in rot:
                step[opp[prev]] = d
                prev = d
    faces: list[tuple[int, ...]] = []
    for start in range(len(step)):
        d = step[start]
        if d < 0:  # a hole, or walked
            continue
        step[start] = -1
        walk = [start]
        while d != start:
            walk.append(d)
            step[d], d = -1, step[d]
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
    map with C components, by this lemma.  E is half the darts, the entries
    of the ``opposite`` table that are not holes, so no edge view is built.

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
    vertices, edges = len(m.rotations), (len(m.opposite) - m.opposite.count(-1)) // 2
    return EulerReport(
        planar=vertices - edges + faces == 2 * components,
        vertices=vertices,
        edges=edges,
        faces=faces,
        components=components,
    )


class MapEditor:
    """A mutable working copy of a map; every derived map is built through one.

    Starts as a copy of ``base``, or empty.  New vertex and dart ids are
    taken above every id in use, a new dart at the end of the tables, and
    the two darts of a new edge get consecutive ids; deletion and smoothing
    hand out none and leave holes.  A method that takes an edge takes
    either of its darts, and every insertion names its place by a placed
    dart, never by a position, so no caller reads the editor's storage.
    :meth:`finish` returns the edited map after one structure check.
    """

    def __init__(self, base: PlaneMap | None = None):
        base = base or PlaneMap({}, ())
        self._rotations = {v: list(rot) for v, rot in base.rotations.items()}
        self._opposite = list(base.opposite)
        self._owner = list(base.dart_vertex)
        self._next_vertex = max(base.rotations, default=-1) + 1

    def add_vertex(self, darts: Sequence[int] = ()) -> int:
        """Add a vertex with a new id, rotating ``darts``."""
        vertex = self._next_vertex
        self._next_vertex += 1
        rot = self._rotations[vertex] = []
        self._place(vertex, rot, 0, darts)
        return vertex

    def new_edges(self, count: int) -> int:
        """The first dart d of ``count`` new edges; edge k pairs darts d + 2k and d + 2k + 1."""
        d = len(self._opposite)
        opposite = [0] * (2 * count)
        opposite[0::2] = range(d + 1, d + 2 * count, 2)
        opposite[1::2] = range(d, d + 2 * count, 2)
        self._opposite += opposite
        self._owner += [-1] * (2 * count)
        return d

    def insert_before(self, anchor: int, darts: Sequence[int]) -> None:
        """Put ``darts``, in order, just before the placed dart ``anchor`` in its rotation."""
        self._insert(anchor, 0, darts)

    def insert_after(self, anchor: int, darts: Sequence[int]) -> None:
        """Put ``darts``, in order, just after the placed dart ``anchor`` in its rotation."""
        self._insert(anchor, 1, darts)

    def _insert(self, anchor: int, offset: int, darts: Sequence[int]) -> None:
        """Put ``darts`` beside the placed dart ``anchor``: before at ``offset`` 0, after at 1."""
        owner = self._owner
        if not 0 <= anchor < len(owner) or owner[anchor] == -1:
            raise MapError(f"missing element: dart {anchor}")
        rot = self._rotations[owner[anchor]]
        self._place(owner[anchor], rot, rot.index(anchor) + offset, darts)

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
        opposite = self._opposite
        if not 0 <= arriving < len(opposite) or opposite[arriving] == -1:
            raise MapError(f"missing element: dart {arriving}")
        anchor = opposite[arriving]
        vertex = self._owner[anchor]
        rot = self._rotations[vertex]
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
        dart = self.new_edges(len(positions))
        for k, pos in enumerate(positions):
            self.insert_at_corner(walk[pos - 1], walk[pos], [dart + 2 * k])
        # Reversed order closes each sub-face between consecutive corners.
        return self.add_vertex(range(dart + 2 * len(positions) - 1, dart, -2)), dart

    def delete_edge(self, dart: int) -> None:
        """Remove the edge of ``dart``, splicing both rotations; never increases genus."""
        if not 0 <= dart < len(self._opposite) or self._opposite[dart] == -1:
            raise MapError(f"missing element: dart {dart}")
        for d in (dart, self._opposite[dart]):
            self._rotations[self._owner[d]].remove(d)
            self._opposite[d] = self._owner[d] = -1

    def delete_vertex(self, vertex: int) -> None:
        """Remove a vertex together with all incident edges."""
        if vertex not in self._rotations:
            raise MapError(f"missing element: vertex {vertex}")
        for d in tuple(self._rotations[vertex]):
            self.delete_edge(d)
        del self._rotations[vertex]

    def smooth(self, vertex: int) -> int:
        """Replace a degree-2 vertex by one edge joining its neighbours; return its smaller dart.

        The far darts keep their ids and rotation positions and become the
        merged edge's two darts.
        """
        if vertex not in self._rotations:
            raise MapError(f"missing element: vertex {vertex}")
        rot = self._rotations[vertex]
        if len(rot) != 2:
            raise MapError(f"vertex {vertex} does not have degree 2")
        a, b = (self._opposite[d] for d in rot)  # darts at the two neighbours
        if self._owner[a] == self._owner[b]:
            raise MapError("smoothing would create a loop")
        for d in self._rotations.pop(vertex):
            self._opposite[d] = self._owner[d] = -1
        self._opposite[a], self._opposite[b] = b, a
        return min(a, b)

    def finish(self) -> PlaneMap:
        """The edited map, after one structure check."""
        return PlaneMap(self._rotations, self._opposite)


def insert_vertex_in_face(m: PlaneMap, face: int,
                          positions: Sequence[int]) -> tuple[PlaneMap, int]:
    """Insert a new vertex inside a face, joined to corners of its walk.

    ``face`` indexes the walk list of :func:`trace_faces`; ``positions``
    index its walk as in :meth:`MapEditor.add_star`, distinct and in cyclic
    order.  All new edges subdivide the chosen face, so a planar map stays
    planar.  Returns the new map and the id of the inserted vertex.
    """
    if not positions:
        raise MapError("empty walk position list")
    if not 0 <= face < len(m.faces):
        raise MapError(f"no such face index {face}")
    walk = m.faces[face]
    if not 0 <= min(positions) <= max(positions) < len(walk):
        raise MapError(f"walk positions {list(positions)} out of range for a walk of {len(walk)}")
    # Positions are distinct and in cyclic order iff one step around the cycle fails to rise.
    if sum(a >= b for a, b in zip(positions, [*positions[1:], positions[0]])) != 1:
        raise MapError(f"walk positions {list(positions)} not distinct in cyclic order")
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

    Dart v->w is paired with dart w->v; dart ids are dense, in vertex order.
    The host maps of the constructions (``_web``, ``_star``,
    ``_double_star``) are built this way.
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
