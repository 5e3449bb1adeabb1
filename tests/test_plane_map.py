import random

import pytest
from hypothesis import given, settings, strategies as st

from onecross.plane_map import (
    EulerReport,
    MapEditor,
    MapError,
    PlaneMap,
    build_map,
    euler_check,
    insert_vertex_in_face,
    map_from_paired_darts,
    map_from_rotation_lists,
    smooth_degree2,
    trace_faces,
)


def triangle():
    # vertices 0,1,2; edges {0,1}, {1,2}, {0,2}
    return build_map(
        {0: [0, 4], 1: [1, 2], 2: [3, 5]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4},
    )


def k4():
    m = triangle()
    m, _ = insert_vertex_in_face(m, 0, [0, 1, 2])
    return m


def single_edge():
    return build_map({0: [0], 1: [1]}, {0: 1, 1: 0})


def test_triangle_builds_with_three_edges():
    m = triangle()
    assert len(m.edge_darts) == 3
    assert sorted((m.dart_vertex[d], m.dart_vertex[o]) for d, o in m.edge_darts) == \
        [(0, 1), (0, 2), (1, 2)]


def test_single_edge_map():
    m = single_edge()
    assert len(m.edge_darts) == 1
    assert len(m.opposite) == 2


def test_self_paired_dart_rejected():
    with pytest.raises(MapError, match="unpaired dart"):
        build_map({0: [0], 1: [1]}, {0: 0, 1: 1})


def test_dart_in_two_rotations_rejected():
    with pytest.raises(MapError, match="duplicate dart"):
        build_map({0: [0, 1], 1: [1]}, {0: 1, 1: 0})


def test_loop_rejected():
    with pytest.raises(MapError, match="loop"):
        build_map({0: [0, 1]}, {0: 1, 1: 0})


@pytest.mark.parametrize("rotations, opposite, message", [
    ({0: (0, 1)}, (1, 0), "loop"),
    ({0: (0,), 1: (1, 2)}, (1, 0), "unpaired dart"),
    ({0: (0, 1), 1: (1,)}, (1, 0),
     r"^duplicate dart 1 \(in the rotations of vertices 0 and 1\)$"),
    ({0: (0, 0), 1: (1,)}, (1, 0),
     r"^duplicate dart 0 \(twice in the rotation of vertex 0\)$"),
    ({0: (0,), 1: (-1,)}, (1, 0),
     r"^unpaired dart -1: no such id in dart tables of length 2$"),
    ({0: (0,), 1: (1,), 2: (4,)}, (1, 0, -1),
     r"^unpaired dart 4: no such id in dart tables of length 3$"),
    ({0: (0,), 1: (1, 2)}, (1, 0, -1), r"^unpaired dart: pairing domain mismatch \[2\]$"),
    ({0: (0,), 1: (1,)}, (1, 0, 3, 2), r"^unpaired dart: pairing domain mismatch \[2, 3\]$"),
    ({0: (0,), 1: (1,)}, (2, 0), r"^unpaired dart 0: opposite is not a fixed-point-free"),
    ({0: (0,), 1: (1,)}, (-2, 0), r"^unpaired dart 0: opposite is not a fixed-point-free"),
], ids=["loop", "unpaired-dart", "dart-in-two-rotations", "dart-twice-in-one-rotation",
        "negative-dart", "dart-past-the-tables", "dart-at-a-hole", "paired-dart-unplaced",
        "opposite-past-the-tables", "negative-opposite"])
def test_constructor_runs_the_structure_check(rotations, opposite, message):
    with pytest.raises(MapError, match=message):
        PlaneMap(rotations, opposite)


def test_constructor_keeps_tuple_rotations_and_the_dart_owners():
    m = PlaneMap({0: [0], 1: [1]}, [1, 0])
    assert (m.rotations, m.opposite, m.dart_vertex) == ({0: (0,), 1: (1,)}, (1, 0), (0, 1))
    assert m == single_edge()


def test_paired_darts_map_matches_build_map():
    # Edge i owns darts 2i and 2i + 1: the triangle with edges {0,1}, {1,2}, {0,2}.
    m = map_from_paired_darts({0: [0, 5], 1: [1, 2], 2: [3, 4]}, 3)
    assert m == build_map({0: [0, 5], 1: [1, 2], 2: [3, 4]},
                          {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4})
    assert euler_check(m).planar
    with pytest.raises(MapError, match="unpaired dart"):
        map_from_paired_darts({0: [0], 1: [1, 2]}, 1)
    with pytest.raises(MapError, match="loop"):
        map_from_paired_darts({0: [0, 1]}, 1)


def test_triangle_faces():
    faces = trace_faces(triangle())
    assert len(faces) == 2
    assert all(len(w) == 3 for w in faces)


def test_four_cycle_faces():
    # 0-1-2-3-0
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    faces = trace_faces(m)
    assert len(faces) == 2
    assert all(len(w) == 4 for w in faces)


def test_path_single_face():
    # path 0-1-2: one face of size 4
    m = build_map({0: [0], 1: [1, 2], 2: [3]}, {0: 1, 1: 0, 2: 3, 3: 2})
    faces = trace_faces(m)
    assert len(faces) == 1
    assert len(faces[0]) == 4


def test_face_sizes_sum_to_twice_edges():
    for m in (triangle(), k4()):
        assert sum(len(w) for w in trace_faces(m)) == 2 * len(m.edge_darts)


def test_triangle_euler():
    rep = euler_check(triangle())
    assert rep.planar
    assert (rep.vertices, rep.edges, rep.faces, rep.components) == (3, 3, 2, 1)


def test_k4_euler():
    rep = euler_check(k4())
    assert rep.planar
    assert (rep.vertices, rep.edges, rep.faces) == (4, 6, 4)


def _k5_map(orders):
    """K5 from a rotation system given as neighbour orders."""
    return map_from_rotation_lists(orders)


def test_k5_has_no_planar_rotation():
    # A witness toroidal rotation system plus a seeded sample: none is planar.
    toroidal = {
        0: [1, 2, 3, 4],
        1: [2, 3, 4, 0],
        2: [3, 4, 0, 1],
        3: [4, 0, 1, 2],
        4: [0, 1, 2, 3],
    }
    assert not euler_check(_k5_map(toroidal)).planar

    rng = random.Random(20240811)
    for _ in range(300):
        orders = {}
        for v in range(5):
            nbrs = [w for w in range(5) if w != v]
            rng.shuffle(nbrs)
            orders[v] = nbrs
        assert not euler_check(_k5_map(orders)).planar


def test_insert_degree2_vertex_in_four_cycle():
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    m2, v = insert_vertex_in_face(m, 0, [0, 2])
    assert v == 4
    assert len(m2.rotations) == 5
    assert len(m2.edge_darts) == 6
    assert euler_check(m2).planar


def test_insert_degree3_vertex_in_triangle_gives_k4():
    m = k4()
    assert len(m.rotations) == 4
    assert len(m.edge_darts) == 6
    assert {len(w) for w in trace_faces(m)} == {3}


def test_insert_degree4_vertex_in_outer_face():
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    m2, _ = insert_vertex_in_face(m, 1, [2, 3, 0, 1])  # cyclic walk order, wrapping past the end
    assert euler_check(m2).planar
    assert len(m2.edge_darts) == 8


def test_delete_edge_of_triangle_gives_path():
    ed = MapEditor(triangle())
    ed.delete_edge(0)
    m = ed.finish()
    assert len(m.edge_darts) == 2
    assert len(trace_faces(m)) == 1


def test_delete_hub_of_wheel_gives_cycle():
    ed = MapEditor(k4())  # vertex 3 is the hub inserted into a triangle face
    ed.delete_vertex(3)
    m2 = ed.finish()
    assert len(m2.edge_darts) == 3
    assert len(trace_faces(m2)) == 2


def test_delete_outer_triangle_of_k4_gives_star():
    ed = MapEditor(k4())
    for dart in (0, 2, 4):
        ed.delete_edge(dart)
    m = ed.finish()
    assert len(m.edge_darts) == 3
    assert sorted(len(rot) for rot in m.rotations.values()) == [1, 1, 1, 3]


def square_with_hat():
    """A 4-cycle and a degree-2 vertex 4 in one of its faces, joined to 0 and 2."""
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    m2, v = insert_vertex_in_face(m, 0, [0, 2])
    assert (v, m2.rotations[0], m2.rotations[2], m2.rotations[4]) == \
        (4, (0, 7, 8), (3, 10, 4), (11, 9))
    return m2


def test_smooth_degree2_round_trip():
    m3 = smooth_degree2(square_with_hat(), 4)
    assert len(m3.edge_darts) == 5
    assert euler_check(m3).planar


def test_smooth_keeps_far_darts_in_place_and_returns_the_smaller():
    m = square_with_hat()  # vertex 4 owns dart 9 of edge (8, 9) and dart 11 of edge (10, 11)
    ed = MapEditor(m)
    assert ed.smooth(4) == 8
    for s in (ed.finish(), smooth_degree2(m, 4)):
        assert s.rotations == {0: (0, 7, 8), 1: (1, 2), 2: (3, 10, 4), 3: (5, 6)}
        assert s.opposite == (1, 0, 3, 2, 5, 4, 7, 6, 10, -1, 8, -1)
        assert s.edge_darts == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 10))


@pytest.mark.parametrize("m, vertex, message", [
    (single_edge(), 7, "missing element: vertex 7"),
    (single_edge(), 0, "vertex 0 does not have degree 2"),
    # two parallel edges between 0 and 1
    (build_map({0: [0, 2], 1: [1, 3]}, {0: 1, 1: 0, 2: 3, 3: 2}), 1,
     "smoothing would create a loop"),
])
def test_smooth_rejects(m, vertex, message):
    with pytest.raises(MapError, match=message):
        MapEditor(m).smooth(vertex)
    with pytest.raises(MapError, match=message):
        smooth_degree2(m, vertex)


def test_insertion_preserves_planarity_randomized():
    rng = random.Random(7)
    m = triangle()
    for _ in range(40):
        faces = trace_faces(m)
        f = rng.randrange(len(faces))
        n = len(faces[f])
        picks = sorted(rng.sample(range(n), rng.randint(1, min(3, n))))
        cut = rng.randrange(len(picks))  # start the cyclic order anywhere
        m, _ = insert_vertex_in_face(m, f, picks[cut:] + picks[:cut])
        assert euler_check(m).planar


def test_editor_allocates_ids_above_every_id_in_use():
    ed = MapEditor(k4())  # vertices 0..3, darts 0..11
    assert ed.new_edges(1) == 12
    assert ed.add_vertex([12]) == 4
    assert ed.add_vertex([13]) == 5
    assert ed.new_edges(1) == 14
    ed.insert_after(12, [14])
    ed.insert_before(13, [15])
    assert ed.finish().opposite[12:] == (13, 12, 15, 14)
    empty = MapEditor()
    assert (empty.new_edges(1), empty.add_vertex(), empty.add_vertex()) == (0, 0, 1)


@pytest.mark.parametrize("base", [None, k4(), build_map({0: [1], 1: [2]}, {1: 2, 2: 1})],
                         ids=["empty", "k4", "odd-next-dart"])
@pytest.mark.parametrize("count", [0, 1, 5])
def test_new_edges_hands_out_the_ids_of_repeated_new_edge(base, count):
    # The third base's tables run to dart 2, dart 0 a hole, so its next dart id, 3, is odd.
    one_by_one, at_once = MapEditor(base), MapEditor(base)
    ids = [one_by_one.new_edges(1) for _ in range(count)]
    dart = at_once.new_edges(count)
    assert dart == (0 if base is None else len(base.opposite))
    assert ids == list(range(dart, dart + 2 * count, 2))
    # Edge j pairs darts dart + 2j and dart + 2j + 1, both unplaced.
    assert at_once._opposite[dart:] == [o for d in ids for o in (d + 1, d)]
    assert at_once._owner[dart:] == [-1] * (2 * count)
    # The editor's whole state: the rotations, the two dart tables and the next vertex id.
    assert vars(at_once).keys() == {"_rotations", "_opposite", "_owner", "_next_vertex"}
    assert vars(at_once) == vars(one_by_one)
    assert at_once.new_edges(1) == one_by_one.new_edges(1)


def _without_edge(m, dart):
    """An editor of ``m`` that has deleted the edge of ``dart``."""
    ed = MapEditor(m)
    ed.delete_edge(dart)
    return ed


@pytest.mark.parametrize("edit, message", [
    (lambda m: MapEditor(build_map({0: [1], 1: [2]}, {1: 2, 2: 1})).insert_before(0, [9]),
     "^missing element: dart 0$"),
    (lambda m: MapEditor(m).insert_after(6, [9]), "^missing element: dart 6$"),
    (lambda m: _without_edge(m, 4).insert_at_corner(4, 0, [9]), "^missing element: dart 4$"),
    (lambda m: MapEditor(m).insert_at_corner(6, 0, [9]), "^missing element: dart 6$"),
    (lambda m: MapEditor(m).insert_at_corner(-1, 0, [9]), "^missing element: dart -1$"),
    (lambda m: MapEditor(m).delete_edge(-1), "^missing element: dart -1$"),
    (lambda m: MapEditor(m).delete_edge(6), "^missing element: dart 6$"),
    (lambda m: MapEditor(build_map({0: [1], 1: [2]}, {1: 2, 2: 1})).delete_edge(0),
     "^missing element: dart 0$"),
    (lambda m: MapEditor(m).delete_vertex(7), "missing element: vertex 7"),
    (lambda m: insert_vertex_in_face(m, 0, []), "^empty walk position list$"),
    (lambda m: insert_vertex_in_face(m, 2, [0]), "no such face index 2"),
    (lambda m: insert_vertex_in_face(m, 0, [0, 3]),
     r"^walk positions \[0, 3\] out of range for a walk of 3$"),
    (lambda m: insert_vertex_in_face(m, 0, [-1]),
     r"^walk positions \[-1\] out of range for a walk of 3$"),
    (lambda m: insert_vertex_in_face(m, 0, [1, 1]),
     r"^walk positions \[1, 1\] not distinct in cyclic order$"),
    (lambda m: insert_vertex_in_face(m, 0, [0, 2, 1]),
     r"^walk positions \[0, 2, 1\] not distinct in cyclic order$"),
    (lambda m: map_from_rotation_lists({0: [1], 1: []}),
     "vertex 0 lists neighbour 1, which does not list it back"),
    (lambda m: map_from_rotation_lists({0: [1, 2, 1], 1: [0], 2: [0]}),
     r"duplicate dart 0 \(twice in the rotation of vertex 0\)"),
    (lambda m: map_from_rotation_lists({0: [1, 0], 1: [0]}),
     "opposite is not a fixed-point-free involution"),
    (lambda m: build_map({0: [-1], 1: [0]}, {-1: 0, 0: -1}),
     r"^unpaired dart -1: no such id in dart tables of length 1$"),
    (lambda m: build_map({0: [0], 1: [1]}, {0: 1, 1: 5}), "unpaired dart 0: opposite is not"),
], ids=["insert-before-a-hole", "insert-after-a-dart-past-the-tables",
        "corner-after-a-deleted-dart", "corner-after-a-dart-past-the-tables",
        "corner-after-dart-minus-one", "delete-negative-dart",
        "delete-dart-past-the-tables", "delete-missing-edge", "delete-missing-vertex",
        "no-walk-positions", "face-index-out-of-range", "walk-position-past-the-walk",
        "negative-walk-position", "repeated-walk-position", "walk-positions-out-of-cyclic-order",
        "edge-at-one-end", "neighbour-listed-twice", "vertex-lists-itself",
        "negative-dart-in-the-pairing", "opposite-outside-the-pairing"])
def test_map_edits_reject(edit, message):
    with pytest.raises(MapError, match=message):
        edit(triangle())


def test_editor_corner_insertion_and_sync_check():
    m = triangle()
    walk = trace_faces(m)[0]
    ed = MapEditor(m)
    spoke = ed.new_edges(1)
    corner = m.dart_vertex[walk[1]]
    assert ed.insert_at_corner(walk[0], walk[1], [spoke]) == corner
    ed.add_vertex(darts=[spoke + 1])
    star = ed.finish()
    rot = star.rotations[corner]
    assert rot[(rot.index(spoke) + 1) % len(rot)] == walk[1]
    assert euler_check(star).planar
    stale = ed.new_edges(1)
    with pytest.raises(MapError, match="out of sync"):
        ed.insert_at_corner(walk[0], walk[1], [stale])  # the corner now holds the spoke
    with pytest.raises(MapError, match="out of sync"):
        ed.insert_at_corner(walk[1], walk[0], [stale])


# -- map kernels against plain references -------------------------------------


def _reference_owners(m):
    """Each dart's vertex, read off the rotations."""
    return {d: v for v, rot in m.rotations.items() for d in rot}


def _reference_faces(m):
    """The face walks by definition: each dart's successor is the rotation
    successor of its opposite; walks start at their least dart, in order."""
    succ = {}
    for rot in m.rotations.values():
        for i, d in enumerate(rot):
            succ[d] = rot[(i + 1) % len(rot)]
    faces, seen = [], set()
    for start in sorted(_reference_owners(m)):
        if start in seen:
            continue
        walk, d = [], start
        while not walk or d != start:
            walk.append(d)
            seen.add(d)
            d = succ[m.opposite[d]]
        faces.append(tuple(walk))
    return tuple(faces)


def _reference_components(m):
    """Each vertex's component root, the first of its vertices in rotation order, by BFS."""
    owner = _reference_owners(m)
    neighbours = {v: [owner[m.opposite[d]] for d in rot] for v, rot in m.rotations.items()}
    component = {}
    for s in m.rotations:
        if s not in component:
            component[s] = s
            queue = [s]
            for v in queue:
                for w in neighbours[v]:
                    if w not in component:
                        component[w] = s
                        queue.append(w)
    return component


def _reference_euler(m):
    """V - E + F = 2 on every component."""
    owner = _reference_owners(m)
    component = _reference_components(m)
    faces = _reference_faces(m)
    planar, total_faces = True, 0
    roots = set(component.values())
    for root in roots:
        vs = [v for v in component if component[v] == root]
        darts = sum(len(m.rotations[v]) for v in vs)
        nf = sum(component[owner[w[0]]] == root for w in faces) if darts else 1
        total_faces += nf
        planar &= len(vs) - darts // 2 + nf == 2
    return EulerReport(planar=planar, vertices=len(m.rotations), edges=len(owner) // 2,
                       faces=total_faces, components=len(roots))


@st.composite
def _rotation_systems(draw):
    """Any rotation system: several components, isolated vertices, parallel
    edges, non-planar rotations, and vertex and dart ids with gaps."""
    n = draw(st.integers(1, 9))
    names = draw(st.permutations(range(n + 4)))[:n]
    ends = st.tuples(st.sampled_from(names), st.sampled_from(names)).filter(
        lambda p: p[0] != p[1])
    pairs = draw(st.lists(ends, max_size=14)) if n > 1 else []
    darts = draw(st.permutations(range(2 * len(pairs) + 6)))
    rotations = {v: [] for v in names}
    opposite = {}
    for i, (u, v) in enumerate(pairs):
        a, b = darts[2 * i], darts[2 * i + 1]
        rotations[u].append(a)
        rotations[v].append(b)
        opposite[a], opposite[b] = b, a
    return build_map({v: draw(st.permutations(rot)) for v, rot in rotations.items()},
                     opposite)


@st.composite
def _edited_rotation_systems(draw):
    """A rotation system from :func:`_rotation_systems` after a ``MapEditor``
    session that deletes a drawn set of its edges, with the edges left.
    Holes fall inside the id range, and at its top when the edge of the
    top dart goes."""
    base = draw(_rotation_systems())
    ed = MapEditor(base)
    deleted = draw(st.sets(st.sampled_from([d for d, _ in base.edge_darts]))) \
        if base.edge_darts else set()
    for d in sorted(deleted):
        ed.delete_edge(d)
    kept = tuple(pair for pair in base.edge_darts if pair[0] not in deleted)
    return ed.finish(), kept


def _check_kernels(m):
    """The map's tables and views against their plain references."""
    owner = _reference_owners(m)
    holes = [d for d in range(len(m.opposite)) if d not in owner]
    assert len(m.opposite) == len(m.dart_vertex)
    for table in (m.opposite, m.dart_vertex):
        assert [d for d, x in enumerate(table) if x == -1] == holes
    assert m.dart_vertex == tuple(owner.get(d, -1) for d in range(len(m.opposite)))
    assert m.edge_darts == tuple((d, m.opposite[d]) for d in sorted(owner) if d < m.opposite[d])
    assert trace_faces(m) == _reference_faces(m)
    assert m.components == _reference_components(m)
    assert euler_check(m) == _reference_euler(m)
    assert MapEditor(m).finish() == m


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(m=_rotation_systems())
def test_map_kernels_match_plain_references(m):
    _check_kernels(m)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(edited=_edited_rotation_systems())
def test_map_kernels_match_plain_references_with_holes(edited):
    m, kept = edited
    assert m.edge_darts == kept
    _check_kernels(m)


def test_euler_check_on_disconnected_maps():
    two_triangles = build_map(
        {0: [0, 4], 1: [1, 2], 2: [3, 5], 3: [6, 10], 4: [7, 8], 5: [9, 11]},
        {d: d ^ 1 for d in range(12)})
    assert euler_check(two_triangles) == EulerReport(True, 6, 6, 4, 2)
    with_isolated = build_map({0: [0, 4], 1: [1, 2], 2: [3, 5], 7: [], 9: []},
                              {d: d ^ 1 for d in range(6)})
    assert euler_check(with_isolated) == EulerReport(True, 5, 3, 4, 3)
    assert euler_check(build_map({0: [], 1: []}, {})) == EulerReport(True, 2, 0, 2, 2)
    # One toroidal K5 beside a planar triangle: only the K5 breaks Euler.
    toroidal = _k5_map({v: [(v + k) % 5 for k in range(1, 5)] for v in range(5)})
    ed = MapEditor(toroidal)
    d = ed.new_edges(3)  # the triangle's edges: d, d + 1 and d + 2, d + 3 and d + 4, d + 5
    for darts in ((d, d + 5), (d + 1, d + 2), (d + 3, d + 4)):
        ed.add_vertex(darts)
    m = ed.finish()
    report = euler_check(m)
    assert (report.planar, report.vertices, report.edges, report.components) == \
        (False, 8, 13, 2)
    assert report == _reference_euler(m)
