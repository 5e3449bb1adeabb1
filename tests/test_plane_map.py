import random

import pytest

from onecross.plane_map import (
    MapEditor,
    MapError,
    build_map,
    delete_edge,
    delete_vertex,
    euler_check,
    insert_vertex_in_face,
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
    m = delete_edge(triangle(), 0)
    assert len(m.edges) == 2
    assert len(trace_faces(m)) == 1


def test_delete_hub_of_wheel_gives_cycle():
    m = k4()  # vertex 3 is the hub inserted into a triangle face
    m2 = delete_vertex(m, 3)
    assert len(m2.edges) == 3
    assert len(trace_faces(m2)) == 2


def test_delete_outer_triangle_of_k4_gives_star():
    m = k4()
    for e in (0, 1, 2):
        m = delete_edge(m, e)
    assert len(m.edges) == 3
    assert sorted(m.degree(v) for v in m.rotations) == [1, 1, 1, 3]


def test_smooth_degree2_round_trip():
    m = build_map(
        {0: [0, 7], 1: [1, 2], 2: [3, 4], 3: [5, 6]},
        {0: 1, 1: 0, 2: 3, 3: 2, 4: 5, 5: 4, 6: 7, 7: 6},
    )
    m2, v = insert_vertex_in_face(m, 0, [0, 2])
    m3 = smooth_degree2(m2, v)
    assert len(m3.edges) == 5
    assert euler_check(m3).planar


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
    assert ed.add_vertex(9) == 9
    assert ed.add_vertex() == 10
    assert ed.new_edge((20, 30), 8) == (20, 30)
    assert ed.new_edge() == (31, 32)
    assert ed.dart_edge[31] == 9
    with pytest.raises(MapError, match="duplicate dart"):
        ed.new_edge((0, 40))
    with pytest.raises(MapError, match="duplicate edge id"):
        ed.new_edge(edge=3)
    with pytest.raises(MapError, match="duplicate vertex"):
        ed.add_vertex(2)
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
