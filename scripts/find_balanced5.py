#!/usr/bin/env python3
"""Search for the stored balanced template on classes (5, 5) with 22 edges.

Any bipartite graph with two classes of five vertices and 22 edges is the
complete bipartite graph minus three independent edges (removing a star or a
path leaves a subgraph that exceeds the known caps on nine vertices), so
there is a single target graph.  A 22-edge drawing needs at least six
crossings; with exactly six, a face count over the planified map forces every
crossing to sit in a quadrilateral whose other two edges ("braces") exist and
stay uncrossed, and the planar edge cap on the wheel-gadget graph allows at
most eight distinct black-black/white-white rim pairs over the six crossings.
The search enumerates only assignments satisfying all three constraints and
hands survivors to the gadget planarity test; a hit is certified by the
drawing validator and frozen to src/onecross/data/balanced5.json.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onecross.drawing import BipartiteGraph, validate  # noqa: E402
from onecross.formats import drawing_to_document, dumps_document  # noqa: E402
from onecross.oracle import _witness  # noqa: E402
from onecross.plane_map import trace_faces  # noqa: E402

DATA = Path(__file__).resolve().parent.parent / "src" / "onecross" / "data"
MAX_DISTINCT_RIMS = 8


def target_graph() -> BipartiteGraph:
    blacks = range(5)
    whites = range(5, 10)
    missing = {(0, 5), (1, 6), (2, 7)}
    edges = [(b, w) for b in blacks for w in whites if (b, w) not in missing]
    assert len(edges) == 22
    return BipartiteGraph.make(blacks, whites, edges)


def braced_pairs(g: BipartiteGraph):
    """Pairs (ik, jl) with braces il, jk present; annotated for pruning."""
    edges = set(g.edges)
    out = []
    for e in sorted(edges):
        for f in sorted(edges):
            if f <= e or set(e) & set(f):
                continue
            (i, k), (j, l) = e, f
            braces = (tuple(sorted((i, l))), tuple(sorted((j, k))))
            if braces[0] in edges and braces[1] in edges:
                bp = tuple(sorted((i, j)))
                wp = tuple(sorted((k, l)))
                out.append((e, f, braces, bp, wp))
    return out


def search(g: BipartiteGraph, size: int = 6):
    cands = braced_pairs(g)
    print(f"{len(cands)} braced candidate pairs")
    tested = 0
    t0 = time.time()

    def rec(start: int, chosen: list[int], crossed: set, braces: set, rims: set):
        nonlocal tested
        if len(chosen) == size:
            tested += 1
            return _witness(g, [(cands[i][0], cands[i][1]) for i in chosen])
        for idx in range(start, len(cands)):
            e, f, br, bp, wp = cands[idx]
            if e in crossed or f in crossed or e in braces or f in braces:
                continue
            if br[0] in crossed or br[1] in crossed:
                continue
            new_rims = {("b", bp), ("w", wp)} - rims
            if len(rims) + len(new_rims) > MAX_DISTINCT_RIMS:
                continue
            got = rec(idx + 1, chosen + [idx], crossed | {e, f},
                      braces | set(br), rims | new_rims)
            if got is not None:
                return got
        return None

    found = rec(0, [], set(), set(), set())
    print(f"{tested} leaf assignments reached planarity testing "
          f"({time.time() - t0:.1f}s)")
    return found


def has_two_black_face(drawing) -> bool:
    m = drawing.planified
    black = drawing.graph.black
    for walk in trace_faces(m):
        corners = {m.dart_vertex[d] for d in walk}
        if len(corners & black) >= 2:
            return True
    return False


def main() -> None:
    g = target_graph()
    d = search(g)
    if d is None:
        raise SystemExit("no 6-crossing braced drawing found")
    rep = validate(d)
    assert rep.passed and d.edge_count == 22 and len(d.crossings) == 6
    print("crossings:", sorted(d.crossings))
    print("two-black face available for augmentation:", has_two_black_face(d))
    doc = drawing_to_document(d, {"generator": "balanced", "params": {"x": 5}})
    DATA.mkdir(exist_ok=True)
    (DATA / "balanced5.json").write_text(dumps_document(doc))
    print("wrote balanced5.json")


if __name__ == "__main__":
    main()
