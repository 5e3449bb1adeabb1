import pytest

from onecross.bounds import upper_bound
from onecross.cli import main
import onecross.constructions
import onecross.drawing
import onecross.plane_map
from onecross.constructions import (
    _complete_x3_small,
    b_family,
    balanced,
    best_known,
    family_formulas,
    k36_family,
    near_balanced,
    stacked_triangulation,
    w3_family,
)
from onecross.drawing import DrawingError, validate
from onecross.plane_map import euler_check, trace_faces


def classes(d):
    g = d.graph
    return tuple(sorted((len(g.black), len(g.white))))


def test_stacked_triangulation_counts():
    for x in (3, 4, 10):
        m = stacked_triangulation(x)
        faces = trace_faces(m)
        assert len(faces) == 2 * x - 4
        assert all(len(w) == 3 for w in faces)
        assert len(m.edge_darts) == 3 * x - 6
        assert euler_check(m).planar


def test_stacked_triangulation_rejects_small():
    with pytest.raises(DrawingError):
        stacked_triangulation(2)


@pytest.mark.parametrize("x,y,edges", [(3, 6, 18), (4, 12, 36), (3, 8, 22)])
def test_w3_examples(x, y, edges):
    d = w3_family(x, y)
    assert validate(d).passed
    assert classes(d) == (x, y)
    assert d.edge_count == edges


def test_w3_crossings_saturate_ceiling_on_boundary():
    for x in (3, 4, 6):
        d = w3_family(x, 6 * x - 12)
        assert len(d.crossings) == 6 * x - 12


def test_w3_parameter_checks():
    with pytest.raises(DrawingError):
        w3_family(2, 6)
    with pytest.raises(DrawingError):
        w3_family(4, 11)


@pytest.mark.parametrize("x,y,verts,edges", [(5, 12, 17, 39), (4, 7, 11, 21)])
def test_b_examples(x, y, verts, edges):
    d = b_family(x, y)
    assert validate(d).passed
    assert classes(d) == (x, y)
    assert (d.vertex_count, d.edge_count) == (verts, edges)


def test_b_rejects_out_of_range(capsys):
    # (11, 11) lies in the b range but not in the family's table: the
    # balanced family draws it, and b refuses it as it refuses any size
    # outside the range, on the command line too.
    for x, y in ((4, 4), (4, 13), (11, 11)):
        with pytest.raises(DrawingError, match="does not apply"):
            b_family(x, y)
    assert main(["construct", "--family", "b", "--x", "11", "--y", "11"]) == 2
    assert capsys.readouterr().err.startswith("error: the b family does not apply")
    assert best_known(11, 11).family == "balanced"


def test_b_inserted_blacks_have_degree_three():
    # Before any white trimming (y divisible by six), every black vertex
    # beyond the triangulation corners has exactly three edges.
    for x, y in ((5, 12), (7, 12), (8, 18), (11, 12)):
        d = b_family(x, y)
        base = y // 6 + 2
        deg = {v: 0 for v in d.graph.vertices}
        for u, v in d.graph.edges:
            deg[u] += 1
            deg[v] += 1
        inserted = [v for v in d.graph.black if v >= base]
        assert len(inserted) == x - base
        assert all(deg[v] == 3 for v in inserted)


@pytest.mark.parametrize("x,verts,edges", [
    (2, 4, 4), (3, 6, 9), (4, 8, 16), (5, 10, 22), (7, 14, 34),
])
def test_balanced_examples(x, verts, edges):
    d = balanced(x)
    assert validate(d).passed
    assert classes(d) == (x, x)
    assert (d.vertex_count, d.edge_count) == (verts, edges)


def test_balanced_odd_modification_recipe():
    # The odd drawing is the even-ring drawing minus 2k-3 specific edges,
    # plus the longer chords and two degree-4 vertices (2k+3 edges).  Both
    # share the ring host's vertex ids; ub and uw are the two extra vertices.
    from onecross.constructions import _ring_vertex

    for k in (3, 5, 8):
        odd, even = balanced(2 * k + 1), balanced(2 * k)
        (ub,) = odd.graph.black - even.graph.black
        (uw,) = odd.graph.white - even.graph.white
        x1, y1, x2, y2 = ({i: _ring_vertex(axis, i) for i in range(1, k + 1)}
                          for axis in range(4))
        edges = {frozenset(e) for e in odd.graph.edges}
        ring_edges = {frozenset(e) for e in even.graph.edges}
        for i in range(2, k + 1):
            assert frozenset((x1[i], y1[i - 1])) not in edges
        for i in range(2, k):
            assert frozenset((x1[i], y1[i])) not in edges
        added = {frozenset((x1[i], y1[i + 2])) for i in range(1, k - 1)}
        added |= {frozenset((x1[i], y1[i + 3])) for i in range(1, k - 2)}
        added |= {frozenset((ub, w)) for w in (y1[1], y1[2], y1[3], y2[1])}
        added |= {frozenset((uw, b)) for b in (x1[k], x1[k - 1], x1[k - 2], x2[k])}
        assert added <= edges
        assert len(added) == 2 * k + 3
        core = edges - added
        assert core <= ring_edges
        assert len(ring_edges - core) == 2 * k - 3


@pytest.mark.parametrize("x", [4, 6, 10, 40, 7, 9, 21, 41])
def test_balanced_crossing_count(x):
    # Four crossings per consecutive ring pair, two more at odd sizes; the
    # degree-2 whites of near_balanced add none.
    k = x // 2
    expected = 4 * k - 4 if x % 2 == 0 else 4 * k - 2
    assert len(balanced(x).crossings) == expected
    assert len(near_balanced(x, x + 3).crossings) == expected


def _cycle(k, first_dart):
    """A k-cycle whose darts are numbered from ``first_dart``."""
    rotations = {i: [first_dart + 2 * i, first_dart + 2 * ((i - 1) % k) + 1] for i in range(k)}
    opposite = {}
    for i in range(k):
        opposite[first_dart + 2 * i], opposite[first_dart + 2 * i + 1] = \
            first_dart + 2 * i + 1, first_dart + 2 * i
    return onecross.plane_map.build_map(rotations, opposite)


_C = onecross.constructions
_CACHED_PATTERNS = {
    **{f"face-{extra}-{whites}": (lambda e=extra, w=whites: _C._face_pattern(e, w),
                                  _C._pattern_classes(extra))
       for extra in range(4) for whites in range(4)},
    "x-tile": (_C._x_tile, {}),
    "cap": (_C._cap, {"u": "black"}),
    "k33": (lambda: _C._k33_sketch()[0], _C._k33_sketch()[1]),
    "k55": (lambda: _C._k55_sketch()[0], _C._k55_sketch()[1]),
}


@pytest.mark.parametrize("first_dart", [0, 1], ids=["even-next-dart", "odd-next-dart"])
@pytest.mark.parametrize("make,classes", _CACHED_PATTERNS.values(), ids=_CACHED_PATTERNS.keys())
def test_template_splice_matches_a_splice_by_name(make, classes, first_dart):
    """Each local dart is placed once, and the splice adds exactly its map edges."""
    sk = make()
    local = sorted(d for darts in (*sk.rotations, *sk.wedges) for d in darts)
    assert local == list(range(2 * sk.edges))
    host = _cycle(len(sk.wedges), first_dart) if sk.wedges else None
    host_edges = {me for me, _ in host.edge_darts} if host else set()
    builder = _C._Builder(host)
    builder.splice(sk, classes, host.faces[0] if host else ())
    d = builder.draft()
    m = d.planified
    assert euler_check(m).planar
    assert len(m.edge_darts) == len(host_edges) + sk.edges
    # The sketch's graph edges, read from the map, draw exactly its map edges.
    paths = d.edge_paths
    assert sorted(me for e in builder.edges for me in paths[e]) == \
        sorted({me for me, _ in m.edge_darts} - host_edges)


def test_splice_refuses_a_sketch_vertex_without_a_class():
    builder = _C._Builder(_cycle(3, 0))
    with pytest.raises(DrawingError, match="sketch vertex u1 has no class"):
        builder.splice(_C._face_pattern(1, 3), {"w1": "white", "w2": "white", "w3": "white"},
                       builder.map.finish().faces[0])


def test_sketches_stay_constant_size(monkeypatch):
    # With every sketch cache cleared, no build compiles a sketch of more
    # than 9 points (the face pattern with three extra blacks), and doubling
    # x adds no compilation.
    compiled = []
    real = onecross.constructions.compile_sketch
    monkeypatch.setattr(onecross.constructions, "compile_sketch",
                        lambda points, *a, **kw: compiled.append(len(points)) or real(points, *a, **kw))

    def cold_sizes(make):
        for f in vars(onecross.constructions).values():
            if callable(getattr(f, "cache_clear", None)):
                f.cache_clear()
        compiled.clear()
        make()
        return list(compiled)

    runs = {x: cold_sizes(lambda: balanced(x)) for x in (20, 21, 40, 41)}
    runs["near"] = cold_sizes(lambda: near_balanced(41, 60))
    runs["star"] = cold_sizes(lambda: onecross.constructions._star(300))
    runs["double-star"] = cold_sizes(lambda: onecross.constructions._double_star(300))
    runs["w3-12"] = cold_sizes(lambda: w3_family(12, 80))
    runs["w3-24"] = cold_sizes(lambda: w3_family(24, 160))
    # One b size per residue of y mod 6; y + 18 keeps the residue and the
    # split's remainder t at twice the x, so the same face kinds occur.
    for y in range(30, 36):
        runs[f"b-12-{y}"] = cold_sizes(lambda: b_family(12, y))
        runs[f"b-24-{y}"] = cold_sizes(lambda: b_family(24, y + 18))
    assert all(n <= 9 for sizes in runs.values() for n in sizes), runs
    assert max(n for sizes in runs.values() for n in sizes) == 9
    assert len(runs[40]) <= len(runs[20])
    assert len(runs[41]) <= len(runs[21])
    assert len(runs["w3-24"]) <= len(runs["w3-12"])
    for y in range(30, 36):
        assert len(runs[f"b-24-{y}"]) <= len(runs[f"b-12-{y}"])


@pytest.mark.parametrize("x,y,verts,edges", [(4, 6, 10, 20), (5, 5, 10, 22), (7, 10, 17, 40)])
def test_near_balanced_examples(x, y, verts, edges):
    d = near_balanced(x, y)
    assert validate(d).passed
    assert (d.vertex_count, d.edge_count) == (verts, edges)


def test_near_balanced_rejects_x3():
    with pytest.raises(DrawingError):
        near_balanced(3, 5)


def test_k36_rejects_small_y():
    with pytest.raises(DrawingError, match=r"^the k36 family does not apply to classes "
                                           r"\(3, 5\): it needs y >= 6$"):
        k36_family(5)


def test_balanced_rejects_x1():
    with pytest.raises(DrawingError):
        balanced(1)


@pytest.mark.parametrize("y,verts,edges", [(6, 9, 18), (7, 10, 20), (20, 23, 46)])
def test_k36_examples(y, verts, edges):
    d = k36_family(y)
    assert validate(d).passed
    assert classes(d) == (3, y)
    assert (d.vertex_count, d.edge_count) == (verts, edges)


def test_k36_is_complete_at_six():
    d = k36_family(6)
    assert d.edge_count == 18 == 3 * 6
    blacks = sorted(d.graph.black)
    whites = sorted(d.graph.white)
    assert {frozenset(e) for e in d.graph.edges} == {
        frozenset((b, w)) for b in blacks for w in whites}


def test_best_known_examples():
    assert best_known(3, 30).family == "w3"
    assert best_known(3, 30).edges == 66
    assert best_known(11, 11).family == "balanced"
    assert best_known(11, 11).edges == 58
    assert best_known(1, 9).family == "star"
    assert best_known(1, 9).edges == 9


def test_best_known_never_beats_upper_bound():
    for x in range(1, 9):
        for y in range(x, 21):
            bk = best_known(x, y)
            assert bk.edges <= upper_bound(x, y)
            assert validate(bk.drawing).passed


def test_best_known_monotone_in_y():
    for x in range(1, 7):
        prev = 0
        for y in range(x, 18):
            e = best_known(x, y).edges
            assert e >= prev
            prev = e


def test_face_templates_declared_counts():
    from onecross.constructions import _face_pattern

    for i in range(4):
        pattern = _face_pattern(i)
        assert len(pattern.graph_edges) == 9 + 3 * i
        assert sum(n.startswith("w") for n in pattern.names) == 3
    assert [len(_face_pattern(i).crossings) for i in range(4)] == [3, 3, 4, 6]


# The grid points at which a generator's own arguments fix both class sizes;
# the others take (x, y) and are tried everywhere.
_FIXES = {
    "star": lambda x, y: x == 1,
    "double-star": lambda x, y: x == 2,
    "complete-small": lambda x, y: x == 3,
    "balanced": lambda x, y: x == y,
}


@pytest.mark.parametrize("family", sorted(onecross.constructions._BUILDERS))
def test_generators_apply_exactly_where_the_table_lists_them(family):
    build = onecross.constructions._BUILDERS[family]
    fixes = _FIXES.get(family, lambda x, y: True)
    for x in range(1, 16):
        for y in range(x, 6 * x + 7):
            if not fixes(x, y):
                continue
            counts = dict(family_formulas(x, y))
            if family in counts:
                d = build(x, y)
                assert (classes(d), d.edge_count) == ((x, y), counts[family]), (x, y)
            else:
                with pytest.raises(DrawingError):
                    build(x, y)


@pytest.mark.parametrize("family,x,y", [
    ("star", 1, 4), ("double-star", 2, 4), ("complete-small", 3, 4), ("w3", 4, 14),
    ("b", 5, 13), ("balanced", 4, 4), ("balanced", 5, 5), ("near", 4, 6),
])
def test_generator_rejects_a_count_its_drawing_misses(monkeypatch, family, x, y):
    table = onecross.constructions.family_formulas
    monkeypatch.setattr(onecross.constructions, "family_formulas",
                        lambda *size: [(f, c + (f == family)) for f, c in table(*size)])
    with pytest.raises(DrawingError, match="closed form"):
        onecross.constructions._BUILDERS[family](x, y)


@pytest.fixture
def calls(monkeypatch):
    """Count certifications, face traces and map structure checks."""
    counts = {"validate": 0, "trace_faces": 0, "_check_structure": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(onecross.drawing, "validate",
                        counting("validate", onecross.drawing.validate))
    monkeypatch.setattr(onecross.plane_map, "trace_faces",
                        counting("trace_faces", onecross.plane_map.trace_faces))
    monkeypatch.setattr(onecross.plane_map, "_check_structure",
                        counting("_check_structure", onecross.plane_map._check_structure))
    return counts


@pytest.mark.parametrize("y", range(24, 30))
def test_b_family_certifies_once_per_residue(calls, y):
    d = b_family(8, y)
    assert classes(d) == (8, y)
    assert calls["validate"] == 1


@pytest.mark.parametrize("y", [3, 4, 5])
def test_complete_x3_small_certifies_once(calls, y):
    d = _complete_x3_small(y)
    assert d.edge_count == 3 * y
    assert calls["validate"] == 1


def test_augment_degree2_traces_and_certifies_once(calls):
    base = w3_family(4, 12)
    calls.update(validate=0, trace_faces=0)
    onecross.drawing.validate(base)
    per_validate = calls["trace_faces"]
    seen = []
    for y in (13, 60):
        calls.update(validate=0, trace_faces=0)
        onecross.drawing.augment_degree2(base, y - 12)
        seen.append((calls["trace_faces"], calls["validate"]))
    assert seen == [(1 + per_validate, 1)] * 2
    for y in (13, 60):
        calls.update(validate=0, trace_faces=0)
        w3_family(4, y)
        seen.append((calls["trace_faces"], calls["validate"]))
    assert seen[2] == seen[3]
    assert seen[2][1] == 1


@pytest.mark.parametrize("make", [
    lambda: w3_family(4, 60), lambda: k36_family(7), lambda: near_balanced(5, 8),
    lambda: near_balanced(7, 9), lambda: near_balanced(8, 12), lambda: balanced(5),
    lambda: balanced(8), lambda: balanced(9),
    lambda: onecross.constructions._star(40), lambda: onecross.constructions._double_star(40),
], ids=["w3-4-60", "k36-7", "near-5-8", "near-7-9", "near-8-12", "balanced-5",
        "balanced-8", "balanced-9", "star-40", "double-star-40"])
def test_w3_family_certifies_once(calls, make):
    for _ in range(2):  # nothing is cached: a repeated call certifies once again
        calls["validate"] = 0
        make()
        assert calls["validate"] == 1


@pytest.mark.parametrize("make,small,large", [
    (w3_family, (10, 60), (40, 240)), (b_family, (12, 60), (42, 240)),
    (balanced, (10,), (40,)), (near_balanced, (10, 14), (40, 44)),
], ids=["w3", "b", "balanced", "near"])
def test_map_checks_per_construction_do_not_grow_with_size(calls, make, small, large):
    # Each derived map is one editor session with one structure check, and a
    # map traces its faces once; so, with every sketch cache cleared, a
    # construction makes as many checks and traces at four times the size.
    def cold_counts(size):
        for f in vars(onecross.constructions).values():
            if callable(getattr(f, "cache_clear", None)):
                f.cache_clear()
        calls.update(trace_faces=0, _check_structure=0)
        make(*size)
        return calls["_check_structure"], calls["trace_faces"]

    assert cold_counts(small) == cold_counts(large)


def test_validate_traces_a_fresh_map_once(calls):
    d = w3_family(4, 12)
    fresh = d._replace(planified=onecross.plane_map.MapEditor(d.planified).finish())
    calls.update(validate=0, trace_faces=0)
    assert onecross.drawing.validate(fresh).passed
    assert (calls["validate"], calls["trace_faces"]) == (1, 1)


def test_black_extension_is_one_map_edit(monkeypatch):
    from onecross.drawing import black_extension

    d = w3_family(4, 12)
    made = []
    finish = onecross.plane_map.MapEditor.finish
    monkeypatch.setattr(onecross.plane_map.MapEditor, "finish",
                        lambda ed: made.append(1) or finish(ed))
    m = black_extension(d)
    assert (len(made), len(d.crossings)) == (1, 12)
    assert len(m.edge_darts) == len(d.planified.edge_darts) + 12
