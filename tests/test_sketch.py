import pytest

from onecross.plane_map import build_map, euler_check, trace_faces
from onecross.sketch import CompiledSketch, SketchError, compile_sketch


def _standalone_map(sk):
    """The map of a sketch without corners, in its local ids."""
    return build_map(dict(enumerate(sk.rotations)), {d: d ^ 1 for d in range(2 * sk.edges)})


def test_plain_square_compiles():
    pts = {"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)}
    sk = compile_sketch(pts, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    m = _standalone_map(sk)
    assert euler_check(m).planar
    assert len(trace_faces(m)) == 2


def test_declared_crossing_found():
    pts = {"a": (0, 0), "b": (1, 1), "c": (0, 1), "d": (1, 0)}
    sk = compile_sketch(pts, [("a", "b"), ("c", "d")],
                        crossings=[(("a", "b"), ("c", "d"))])
    assert sk.names == ("a", "b", "c", "d")
    assert sk.crossings == ((4, 0, 1),)
    assert sk.graph_edges == ((0, 1), (2, 3))
    assert euler_check(_standalone_map(sk)).planar


def test_undeclared_crossing_rejected():
    pts = {"a": (0, 0), "b": (1, 1), "c": (0, 1), "d": (1, 0)}
    with pytest.raises(SketchError, match="undeclared"):
        compile_sketch(pts, [("a", "b"), ("c", "d")])


def test_missing_declared_crossing_rejected():
    pts = {"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)}
    with pytest.raises(SketchError, match="not realized"):
        compile_sketch(pts, [("a", "b"), ("c", "d")],
                       crossings=[(("a", "b"), ("c", "d"))])


def test_shared_endpoint_edges_may_not_cross():
    # c lies on segment a-b, so a-c runs along a-b.
    pts = {"a": (0, 0), "b": (2, 0), "c": (1, 0)}
    with pytest.raises(SketchError, match="collinear overlapping"):
        compile_sketch(pts, [("a", "b"), ("a", "c")])


@pytest.mark.parametrize("pts, edges, crossings, message", [
    # c lies inside segment a-b, where c-d ends.
    ({"a": (0, 0), "b": (2, 0), "c": (1, 0), "d": (1, 1)}, [("a", "b"), ("c", "d")], [],
     "segments touch without crossing cleanly"),
    # a-b crosses both c-d and e-f, each crossing declared.
    ({"a": (0, 0), "b": (4, 0), "c": (1, -1), "d": (1, 1), "e": (3, -1), "f": (3, 1)},
     [("a", "b"), ("c", "d"), ("e", "f")],
     [(("a", "b"), ("c", "d")), (("a", "b"), ("e", "f"))],
     "an edge participates in two crossings"),
    # a-b and a-c leave a 5e-8 radians apart; a-c is too long to count as collinear.
    ({"a": (0, 0), "b": (1, 0), "c": (1000, 5e-5)}, [("a", "b"), ("a", "c")], [],
     "ambiguous rotation at a: near-parallel edge ends"),
    # c and c2 share a point, where the paths p1-c-p3 and p2-c2-p4 meet with
    # no segment crossing to find; the map they assemble into is not plane.
    ({"p1": (1, 0), "p2": (0, 1), "p3": (-1, 0), "p4": (0, -1), "c": (0, 0), "c2": (0, 0)},
     [("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p1"),
      ("c", "p1"), ("c", "p3"), ("c2", "p2"), ("c2", "p4")], [],
     "sketch does not assemble into a plane embedding"),
    # a-b and c-d are nearly parallel and cross next to c: seen from the
    # rounded crossing point the ends run b, d, c, a, which does not alternate.
    ({"a": (-54.620795231417304, 146.778370643239), "b": (71.32959641047378, 136.93886763830375),
      "c": (-8.255290932980976, 143.15620232027788), "d": (-6.209271268701506, 142.99636647351664)},
     [("a", "b"), ("c", "d")], [(("a", "b"), ("c", "d"))],
     "crossing point #0 does not alternate"),
], ids=["touching-segments", "edge-in-two-crossings", "near-parallel-ends", "non-plane-assembly",
        "non-alternating-crossing"])
def test_sketch_geometry_rejected(pts, edges, crossings, message):
    with pytest.raises(SketchError, match=f"^{message}$"):
        compile_sketch(pts, edges, crossings)


_TRIANGLE = {"A": (0.0, 2.0), "B": (-1.0, 0.0), "C": (1.0, 0.0)}


def test_fragment_corner_wedges():
    pts = _TRIANGLE | {"m": (0.0, 0.7)}
    sk = compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C")], corners=("A", "B", "C"))
    # m sits at slot 0 and the corners at slots 1-3; no boundary edge is a
    # graph edge or a map edge of the splice.
    assert sk.names == ("m",) and sk.edges == 3
    assert sorted(sk.graph_edges) == [(1, 0), (2, 0), (3, 0)]
    # Each corner's wedge is the one end of its edge to m.
    assert [len(w) for w in sk.wedges] == [1, 1, 1]
    assert sorted(w[0] ^ 1 for w in sk.wedges) == sorted(sk.rotations[0])


def test_fragment_corners_imply_the_boundary():
    pts = _TRIANGLE | {"m": (0.0, 0.7)}
    with pytest.raises(SketchError, match="duplicate edge"):
        compile_sketch(pts, [("A", "B"), ("m", "A")], corners=("A", "B", "C"))


def test_fragment_with_content_outside_its_corners_rejected():
    # o below B-C leaves no face bounded by the corner triangle alone.
    pts = _TRIANGLE | {"m": (0.0, 0.7), "o": (0.0, -1.0)}
    with pytest.raises(SketchError, match="no pure-boundary face"):
        compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C"), ("o", "B")],
                       corners=("A", "B", "C"))


def test_fragment_with_a_crossed_boundary_edge_rejected():
    # m-o crosses B-C, so B and C do not end at each other in any rotation.
    pts = _TRIANGLE | {"m": (0.0, 0.7), "o": (0.0, -1.0)}
    with pytest.raises(SketchError, match="no pure-boundary face"):
        compile_sketch(pts, [("m", "A"), ("m", "o")], [(("m", "o"), ("B", "C"))],
                       corners=("A", "B", "C"))


def test_fragment_with_content_outside_all_its_corners_rejected():
    # m above A joins every corner, so the corner triangle bounds a face of
    # the sketch, but every wedge would open outside the triangle.
    pts = _TRIANGLE | {"m": (0.0, 5.0)}
    with pytest.raises(SketchError, match="interior edges on both sides of corner A"):
        compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C")], corners=("A", "B", "C"))


_PENTAGON = {"a": (0.0, 0.0), "b": (2.0, 0.0), "c": (2.5, 1.5), "d": (1.0, 3.0), "e": (-0.5, 1.5)}


@pytest.mark.parametrize("corners", [("a", "b", "c", "d", "e"), ("a", "e", "d", "c", "b")])
def test_fragment_splice_order_is_clockwise_whichever_way_corners_are_given(corners):
    # Two uncrossed chords between corners: the splice order a e d c b
    # fixes which corner's wedge numbers each chord first.
    sk = compile_sketch(_PENTAGON, [("b", "e"), ("c", "e")], corners=corners)
    assert sk == CompiledSketch(edges=2, names=(), rotations=(),
                                wedges=((), (0, 2), (), (3,), (1,)),
                                graph_edges=((4, 1), (3, 1)), crossings=())


def _cached_patterns():
    """Each cached pattern's uncached builder and arguments."""
    from onecross import constructions as c

    faces = [pytest.param(c._face_pattern.__wrapped__, (e, w), id=f"face_pattern({e},{w})")
             for e in range(4) for w in range(4)]
    return faces + [pytest.param(fn.__wrapped__, (), id=fn.__name__)
                    for fn in (c._x_tile, c._cap, c._k33_sketch, c._k55_sketch)]


@pytest.mark.parametrize("build, args", _cached_patterns())
def test_a_cold_compile_traces_faces_once(monkeypatch, build, args):
    import onecross.plane_map as pm
    import onecross.sketch as sketch

    traced, real = [], pm.trace_faces

    def counted(m):
        traced.append(m)
        return real(m)

    monkeypatch.setattr(pm, "trace_faces", counted)
    monkeypatch.setattr(sketch, "trace_faces", counted)
    build(*args)
    assert len(traced) == 1
