import hashlib
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import onecross.sketch as sketch
from onecross.plane_map import build_map, euler_check, trace_faces
from onecross.sketch import CompiledSketch, SketchError, _ekey, _seg_intersection, compile_sketch


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
    # a-b and a-c leave a 5e-8 radians apart, a sketch once refused as an
    # ambiguous rotation under rounding; its float coordinate now refuses it
    # before any angle is compared.  The same ends on an integer grid are
    # ordered exactly in test_nearly_parallel_ends_are_ordered_exactly.
    ({"a": (0, 0), "b": (1, 0), "c": (1000, 5e-5)}, [("a", "b"), ("a", "c")], [],
     r"point c has a non-integer coordinate: \(1000, 5e-05\)"),
    # a-b has length 0, beside a leftward edge at a.
    ({"a": (0, 0), "b": (0, 0), "c": (-1, 0)}, [("a", "b"), ("a", "c")], [],
     r"edge \('a', 'b'\) has length 0"),
    # Coordinates are integers.
    ({"a": (0, 0), "b": (1, 0.5)}, [("a", "b")], [],
     r"point b has a non-integer coordinate: \(1, 0\.5\)"),
    # c and c2 share a point, where the paths p1-c-p3 and p2-c2-p4 meet with
    # no segment crossing to find; the map they assemble into is not plane.
    ({"p1": (1, 0), "p2": (0, 1), "p3": (-1, 0), "p4": (0, -1), "c": (0, 0), "c2": (0, 0)},
     [("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p1"),
      ("c", "p1"), ("c", "p3"), ("c2", "p2"), ("c2", "p4")], [],
     "sketch does not assemble into a plane embedding"),
    # a-b and c-d are nearly parallel and cross next to c, a crossing once
    # refused because its ends did not alternate round the rounded crossing
    # point; its float coordinates now refuse it at the first point, a.
    ({"a": (-54.620795231417304, 146.778370643239), "b": (71.32959641047378, 136.93886763830375),
      "c": (-8.255290932980976, 143.15620232027788), "d": (-6.209271268701506, 142.99636647351664)},
     [("a", "b"), ("c", "d")], [(("a", "b"), ("c", "d"))],
     r"point a has a non-integer coordinate: \(-54\.620795231417304, 146\.778370643239\)"),
], ids=["touching-segments", "edge-in-two-crossings", "near-parallel-ends", "zero-length-edge",
        "float-coordinate", "non-plane-assembly", "non-alternating-crossing"])
def test_sketch_geometry_rejected(pts, edges, crossings, message):
    with pytest.raises(SketchError, match=f"^{message}$"):
        compile_sketch(pts, edges, crossings)


def test_nearly_parallel_ends_are_ordered_exactly():
    # c leaves a less than 1e-6 radians from b, above b's direction and then
    # mirrored below it.  Slot 0 is a, and its first end takes dart 0: b's
    # rotation holds dart 1 when a turns to b first.
    pts = {"a": (0, 0), "b": (1, 0)}
    above = compile_sketch(pts | {"c": (10**6, 1)}, [("a", "b"), ("a", "c")])
    below = compile_sketch(pts | {"c": (10**6, -1)}, [("a", "b"), ("a", "c")])
    assert above.rotations == ((0, 2), (1,), (3,))
    assert below.rotations == ((0, 2), (3,), (1,))
    # a-b and c-d cross at an angle below 1e-6, and round their false vertex
    # (slot 4) the ends of the two edges alternate.
    sk = compile_sketch({"a": (0, 0), "b": (4 * 10**6, 1), "c": (0, 1), "d": (4 * 10**6, 0)},
                        [("a", "b"), ("c", "d")], [(("a", "b"), ("c", "d"))])
    owner = {d: slot for slot, rot in enumerate(sk.rotations) for d in rot}
    ends = [owner[d ^ 1] in (0, 1) for d in sk.rotations[4]]
    assert ends in ([True, False, True, False], [False, True, False, True])


@pytest.mark.parametrize("scale", [10**6, 10**12])
def test_a_clean_x_compiles_alike_at_every_scale(scale):
    pts = {"a": (0, 0), "b": (1, 1), "c": (0, 1), "d": (1, 0)}
    args = [("a", "b"), ("c", "d")], [(("a", "b"), ("c", "d"))]
    scaled = {n: (x * scale, y * scale) for n, (x, y) in pts.items()}
    assert compile_sketch(scaled, *args) == compile_sketch(pts, *args)


_TRIANGLE = {"A": (0, 20), "B": (-10, 0), "C": (10, 0)}


def test_fragment_corner_wedges():
    pts = _TRIANGLE | {"m": (0, 7)}
    sk = compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C")], corners=("A", "B", "C"))
    # m sits at slot 0 and the corners at slots 1-3; no boundary edge is a
    # graph edge or a map edge of the splice.
    assert sk.names == ("m",) and sk.edges == 3
    assert sorted(sk.graph_edges) == [(1, 0), (2, 0), (3, 0)]
    # Each corner's wedge is the one end of its edge to m.
    assert [len(w) for w in sk.wedges] == [1, 1, 1]
    assert sorted(w[0] ^ 1 for w in sk.wedges) == sorted(sk.rotations[0])


def test_fragment_corners_imply_the_boundary():
    pts = _TRIANGLE | {"m": (0, 7)}
    with pytest.raises(SketchError, match="duplicate edge"):
        compile_sketch(pts, [("A", "B"), ("m", "A")], corners=("A", "B", "C"))


def test_fragment_with_content_outside_its_corners_rejected():
    # o below B-C leaves no face bounded by the corner triangle alone.
    pts = _TRIANGLE | {"m": (0, 7), "o": (0, -10)}
    with pytest.raises(SketchError, match="no pure-boundary face"):
        compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C"), ("o", "B")],
                       corners=("A", "B", "C"))


def test_fragment_with_a_crossed_boundary_edge_rejected():
    # m-o crosses B-C, so B and C do not end at each other in any rotation.
    pts = _TRIANGLE | {"m": (0, 7), "o": (0, -10)}
    with pytest.raises(SketchError, match="no pure-boundary face"):
        compile_sketch(pts, [("m", "A"), ("m", "o")], [(("m", "o"), ("B", "C"))],
                       corners=("A", "B", "C"))


def test_fragment_with_content_outside_all_its_corners_rejected():
    # m above A joins every corner, so the corner triangle bounds a face of
    # the sketch, but every wedge would open outside the triangle.
    pts = _TRIANGLE | {"m": (0, 50)}
    with pytest.raises(SketchError, match="interior edges on both sides of corner A"):
        compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C")], corners=("A", "B", "C"))


_PENTAGON = {"a": (0, 0), "b": (4, 0), "c": (5, 3), "d": (2, 6), "e": (-1, 3)}


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


# The sha256 of repr(sketch) for every pattern the constructions compile, as a
# scan of every segment pair compiles it: a moved local id names its sketch.
_COMPILED_SHA256 = {
    "face_pattern(0,0)": "0db561f00bb8c40b4209877b91538f7fa6969e4715ceb56ed9f5796f9ce2f84e",
    "face_pattern(0,1)": "873c571a4c66d4a69a33fbd3ad759fae015e396ed9e312042e898cc362131f48",
    "face_pattern(0,2)": "7a1a6dfe78019fa775fd40d27e2241b3dab17b8c4c78b5e5ba4a3aaf41f15f82",
    "face_pattern(0,3)": "49d06ddb749b240a84c4e6caa480658518623c078402ff9f389e320c95968c1f",
    "face_pattern(1,0)": "3b8838cbfec91f8be9801ba5335a7793371690623503d80f83d655978ad914c2",
    "face_pattern(1,1)": "2ce835edae866ca541b3398e1484bd64418848169d551540c05f343473184049",
    "face_pattern(1,2)": "0137d1ad5061cb5b9aac0b066ded252edd637dd3473bb529e30ef2a6522052d9",
    "face_pattern(1,3)": "5be3ec493ae4c3fc44bebee3918e5c80cb9dda2f8a85b195b1bf10dbb7c8b830",
    "face_pattern(2,0)": "e21dac06a202b0c731b6f33fd800cc69130e96ac93f74eb2a0af0c676a122d87",
    "face_pattern(2,1)": "7ba70ec61600dc1150d4700ddc488fd17d55e09d3c8e1fee8f05159ea7e4bd34",
    "face_pattern(2,2)": "3358de19db8252f62daf9baa1ae4d715c9e8e4f578f12098724f24295557c603",
    "face_pattern(2,3)": "72d0e4fcf6539cb293294b95ac5b9536c18000aa56c042d1d8f5a7ee746d900c",
    "face_pattern(3,0)": "f2142d9c4d57dfb5e771baa614b4a00b38dad804f3e84e01c4420a5a75e9b477",
    "face_pattern(3,1)": "a7771d68cd82a71a75f48951da06dfcaf40293d0308fa0c22398e30edfa2fa7a",
    "face_pattern(3,2)": "bcb2377549b7098e454cc2555bd4153e877d231152a3dd35241f392dbe4cee79",
    "face_pattern(3,3)": "64ed1f5ebc4225700db0137bc7fdab7212f6470313cd8172ece2473102d1fb2a",
    "_x_tile": "dba612110a5cf834f78174c5faa64bb10af67536652b8a6a7bea44b6de7ae769",
    "_cap": "2db061c8325717001c179c8076b14513d1df46cb0ad57b0610bde81962aef80c",
    "_k33_sketch": "af2b8af62f235512e5ea4f79a8725641634405c3094810a2c7d631ca60c6b736",
    "_k55_sketch": "037275a59ca6e776c6d28a19b24402b0887444306c1964fe2af11bfab97f3fe8",
}


@pytest.mark.parametrize("build, args", _cached_patterns())
def test_every_compiled_pattern_is_pinned(request, build, args):
    compiled = build(*args)
    if not isinstance(compiled, CompiledSketch):  # a sketch with its classes
        compiled = compiled[0]
    digest = hashlib.sha256(repr(compiled).encode()).hexdigest()
    assert digest == _COMPILED_SHA256[request.node.callspec.id]


def _every_pair(points, keys):
    """The plain scan: each pair of segments, in scan order."""
    return [(e1, e2) for i, e1 in enumerate(keys) for e2 in keys[i + 1:]]


def _outcome(points, edges, crossings, corners):
    """What compile_sketch returns, or the class and message of what it raises."""
    try:
        return compile_sketch(points, edges, crossings, corners)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _realized(points, keys):
    """The pairs the plain scan finds crossing, passing over those it rejects."""
    out = []
    for e1, e2 in _every_pair(points, keys):
        try:
            if _seg_intersection(*(points[n] for n in (*e1, *e2))):
                out.append((e1, e2))
        except SketchError:
            pass
    return out


@st.composite
def _sketches(draw):
    """Small integer sketches with shared, coincident, collinear and nearly collinear points."""
    coordinate = st.integers(-3, 3) | st.integers(-10**4, 10**4)
    points: list[tuple[int, int]] = []
    for k in range(draw(st.integers(3, 7))):
        kind = draw(st.sampled_from(["free", "free", "coincident", "on-line", "off-line",
                                     "off-line"])) if k > 1 else "free"
        if kind == "free":
            points.append((draw(coordinate), draw(coordinate)))
        elif kind == "coincident":
            points.append(points[draw(st.integers(0, k - 1))])
        else:  # on the line through two earlier points, or one unit off it
            i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            (ax, ay), (bx, by) = points[i], points[j]
            along = draw(st.integers(-1, 2))
            ox, oy = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)])) \
                if kind == "off-line" else (0, 0)
            points.append((ax + along * (bx - ax) + ox, ay + along * (by - ay) + oy))
    names = [f"p{k}" for k in range(len(points))]
    corners = tuple(names[:draw(st.sampled_from([0, 0, 3, 4]))])
    boundary = {_ekey(u, v) for u, v in zip(corners, corners[1:] + corners[:1])}
    pairs = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True).map(tuple)
    edges = draw(st.lists(pairs.filter(lambda e: _ekey(*e) not in boundary),
                          max_size=9, unique_by=lambda e: _ekey(*e)))
    points_by_name = dict(zip(names, points))
    keys = sorted(boundary | {_ekey(u, v) for u, v in edges})
    realized = _realized(points_by_name, keys)
    crossings = draw(st.sampled_from([realized, realized[1:], []]))
    return points_by_name, edges, crossings, corners, keys


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_sketches())
def test_pruned_scan_matches_a_test_of_every_pair(case):
    points, edges, crossings, corners, keys = case
    kept = set(sketch._scanned_pairs(points, keys))
    for e1, e2 in _every_pair(points, keys):
        if (e1, e2) not in kept:  # a pair the scan leaves out does not cross
            assert not _seg_intersection(*(points[n] for n in (*e1, *e2)))
    with mock.patch.object(sketch, "_scanned_pairs", _every_pair):
        expected = _outcome(points, edges, crossings, corners)
    assert _outcome(points, edges, crossings, corners) == expected


@pytest.mark.parametrize("points, keys, kept", [
    # a-b and c-d lie a unit apart.
    ({"a": (0, 0), "b": (1, 0), "c": (0, 1), "d": (1, 1)},
     [("a", "b"), ("c", "d")], []),
    # a-b and a-c leave a at a right angle; a-c and b-c both end at c.
    ({"a": (0, 0), "b": (1, 0), "c": (0, 1)},
     [("a", "b"), ("a", "c"), ("b", "c")], []),
    # A shared end with direction cross product 1.
    ({"a": (0, 0), "b": (1, 0), "c": (10**6, 1)},
     [("a", "b"), ("a", "c")], []),
    # A shared end on one line: the test decides.
    ({"a": (0, 0), "b": (1, 0), "c": (-1, 0)},
     [("a", "b"), ("a", "c")], [(("a", "b"), ("a", "c"))]),
    # Closed boxes that touch at one corner.
    ({"a": (0, 0), "b": (1, 1), "c": (1, 2), "d": (2, 1)},
     [("a", "b"), ("c", "d")], [(("a", "b"), ("c", "d"))]),
    # A segment of length 0 has its point for a box.
    ({"a": (0, 0), "b": (0, 0), "c": (5, 5), "d": (6, 5)},
     [("a", "b"), ("c", "d")], []),
], ids=["boxes-apart", "shared-end", "shared-end-cross-product-1", "shared-end-collinear",
        "boxes-touch-at-a-corner", "zero-length"])
def test_scan_leaves_out_only_what_a_lemma_covers(points, keys, kept):
    assert sketch._scanned_pairs(points, keys) == kept
