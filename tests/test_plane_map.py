import random

import pytest
from hypothesis import given, settings, strategies as st

from onecross.plane_map import (
    EulerReport,
    MapEditor,
    MapError,
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
    assert len(m.edges) == 3
    assert sorted(m.edge_endpoints(e) for e in m.edges) == [(0, 1), (0, 2), (1, 2)]


def test_single_edge_map():
    m = single_edge()
    assert len(m.edges) == 1
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
        assert sum(len(w) for w in trace_faces(m)) == 2 * len(m.edges)


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
    pairs = {}
    eid = 0
    for u in range(5):
        for v in range(u + 1, 5):
            pairs[(u, v)] = eid
            eid += 1
    rot = {
        v: [(w, pairs[(min(v, w), max(v, w))]) for w in orders[v]] for v in range(5)
    }
    return map_from_rotation_lists(rot)


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
    assert len(m2.edges) == 6
    assert euler_check(m2).planar


def test_insert_degree3_vertex_in_triangle_gives_k4():
    m = k4()
    assert len(m.rotations) == 4
    assert len(m.edges) == 6
    assert {len(w) for w in trace_faces(m)} == {3}


def test_insert_degree4_vertex_in_outer_face():
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    m2, _ = insert_vertex_in_face(m, 1, [0, 1, 2, 3][::-1])
    # attachments must be given in that face's walk order; try both
    assert euler_check(m2).planar
    assert len(m2.edges) == 8


def test_insert_attachment_not_on_face():
    m = triangle()
    with pytest.raises(MapError, match="attachment not on face"):
        insert_vertex_in_face(m, 0, [0, 99])


def test_insert_order_not_realizable():
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    walk_order = [m.dart_vertex[d] for d in trace_faces(m)[0]]
    bad = [walk_order[0], walk_order[2], walk_order[1]]
    with pytest.raises(MapError, match="order not realizable"):
        insert_vertex_in_face(m, 0, bad)


def test_delete_edge_of_triangle_gives_path():
    ed = MapEditor(triangle())
    ed.delete_edge(0)
    m = ed.finish()
    assert len(m.edges) == 2
    assert len(trace_faces(m)) == 1


def test_delete_hub_of_wheel_gives_cycle():
    ed = MapEditor(k4())  # vertex 3 is the hub inserted into a triangle face
    ed.delete_vertex(3)
    m2 = ed.finish()
    assert len(m2.edges) == 3
    assert len(trace_faces(m2)) == 2


def test_delete_outer_triangle_of_k4_gives_star():
    ed = MapEditor(k4())
    for e in (0, 1, 2):
        ed.delete_edge(e)
    m = ed.finish()
    assert len(m.edges) == 3
    assert sorted(m.degree(v) for v in m.rotations) == [1, 1, 1, 3]


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
    assert len(m3.edges) == 5
    assert euler_check(m3).planar


def test_smooth_keeps_far_darts_in_place_and_the_smaller_edge_id():
    m = square_with_hat()  # vertex 4 owns dart 9 of edge 4 and dart 11 of edge 5
    ed = MapEditor(m)
    assert ed.smooth(4) == 4
    for s in (ed.finish(), smooth_degree2(m, 4)):
        assert s.rotations == {0: (0, 7, 8), 1: (1, 2), 2: (3, 10, 4), 3: (5, 6)}
        assert (s.opposite[8], s.dart_edge[8], s.dart_edge[10]) == (10, 4, 4)
        assert s.edge_darts == {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7), 4: (8, 10)}


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
        walk = faces[f]
        corners = [m.dart_vertex[d] for d in walk]
        k = rng.randint(1, min(3, len(corners)))
        start = rng.randrange(len(corners))
        picks = []
        seen = set()
        for off in range(len(corners)):
            c = corners[(start + off) % len(corners)]
            if c not in seen:
                picks.append(c)
                seen.add(c)
            if len(picks) == k:
                break
        m, _ = insert_vertex_in_face(m, f, picks)
        assert euler_check(m).planar


def test_editor_allocates_ids_above_every_id_in_use():
    ed = MapEditor(k4())  # vertices 0..3, darts 0..11, edges 0..5
    assert ed.new_edge() == (12, 13)
    assert ed.dart_edge[12] == ed.dart_edge[13] == 6
    assert ed.add_vertex() == 4
    assert ed.add_vertex() == 5
    assert ed.new_edge() == (14, 15)
    assert ed.dart_edge[14] == 7
    empty = MapEditor()
    assert (empty.new_edge(), empty.add_vertex(), empty.add_vertex()) == ((0, 1), 0, 1)


def test_editor_corner_insertion_and_sync_check():
    m = triangle()
    walk = trace_faces(m)[0]
    ed = MapEditor(m)
    spoke, hub = ed.new_edge()
    corner = m.dart_vertex[walk[1]]
    assert ed.insert_at_corner(walk[0], walk[1], [spoke]) == corner
    rot = ed.rotations[corner]
    assert rot[(rot.index(spoke) + 1) % len(rot)] == walk[1]
    ed.add_vertex(darts=[hub])
    assert euler_check(ed.finish()).planar
    stale, _ = ed.new_edge()
    with pytest.raises(MapError, match="out of sync"):
        ed.insert_at_corner(walk[0], walk[1], [stale])  # the corner now holds the spoke
    with pytest.raises(MapError, match="out of sync"):
        ed.insert_at_corner(walk[1], walk[0], [stale])


# -- map kernels against plain references -------------------------------------


def _reference_faces(m):
    """The face walks by definition: each dart's successor is the rotation
    successor of its opposite; walks start at their least dart, in order."""
    succ = {}
    for rot in m.rotations.values():
        for i, d in enumerate(rot):
            succ[d] = rot[(i + 1) % len(rot)]
    faces, seen = [], set()
    for start in sorted(m.opposite):
        if start in seen:
            continue
        walk, d = [], start
        while not walk or d != start:
            walk.append(d)
            seen.add(d)
            d = succ[m.opposite[d]]
        faces.append(tuple(walk))
    return tuple(faces)


def _reference_euler(m):
    """V - E + F = 2 on every component, components found by breadth-first search."""
    owner = {d: v for v, rot in m.rotations.items() for d in rot}
    neighbours = {v: [owner[m.opposite[d]] for d in rot] for v, rot in m.rotations.items()}
    component = {}
    for s in sorted(m.rotations):
        if s not in component:
            component[s] = s
            queue = [s]
            for v in queue:
                for w in neighbours[v]:
                    if w not in component:
                        component[w] = s
                        queue.append(w)
    faces = _reference_faces(m)
    planar, total_faces = True, 0
    roots = set(component.values())
    for root in roots:
        vs = [v for v in component if component[v] == root]
        darts = sum(len(m.rotations[v]) for v in vs)
        nf = sum(component[owner[w[0]]] == root for w in faces) if darts else 1
        total_faces += nf
        planar &= len(vs) - darts // 2 + nf == 2
    return EulerReport(planar=planar, vertices=len(m.rotations), edges=len(m.opposite) // 2,
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


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(m=_rotation_systems())
def test_map_kernels_match_plain_references(m):
    assert trace_faces(m) == _reference_faces(m)
    assert euler_check(m) == _reference_euler(m)


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
    a, b, c = (ed.add_vertex() for _ in range(3))
    for u, v in ((a, b), (b, c), (c, a)):
        du, dv = ed.new_edge()
        ed.insert_darts(u, 0, [du])
        ed.insert_darts(v, 0, [dv])
    report = euler_check(ed.finish())
    assert (report.planar, report.vertices, report.edges, report.components) == \
        (False, 8, 13, 2)
    assert report == _reference_euler(ed.finish())
