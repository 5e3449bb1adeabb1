import pytest

from onecross.plane_map import euler_check, trace_faces
from onecross.sketch import SketchError, compile_sketch


def test_plain_square_compiles():
    pts = {"a": (0, 0), "b": (1, 0), "c": (1, 1), "d": (0, 1)}
    sk = compile_sketch(pts, [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    m = sk.to_plane_map()
    assert euler_check(m).planar
    assert len(trace_faces(m)) == 2


def test_declared_crossing_found():
    pts = {"a": (0, 0), "b": (1, 1), "c": (0, 1), "d": (1, 0)}
    sk = compile_sketch(pts, [("a", "b"), ("c", "d")],
                        crossings=[(("a", "b"), ("c", "d"))])
    assert len(sk.false_names) == 1
    assert len(sk.edge_paths[("a", "b")]) == 2
    m = sk.to_plane_map()
    assert euler_check(m).planar


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


_TRIANGLE = {"A": (0.0, 2.0), "B": (-1.0, 0.0), "C": (1.0, 0.0)}


def test_fragment_corner_wedges():
    pts = _TRIANGLE | {"m": (0.0, 0.7)}
    sk = compile_sketch(pts, [("m", "A"), ("m", "B"), ("m", "C")], corners=("A", "B", "C"))
    assert set(sk.corners) == {"A", "B", "C"}
    assert all(sk.corner_wedges[c] == ("m",) for c in "ABC")
    assert ("A", "B") not in sk.graph_edges and ("A", "B") not in sk.edge_paths
    assert "B" in sk.rotations["A"]


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
