#!/usr/bin/env python3
"""Regenerate the stored balanced template on classes (5, 5) with 22 edges.

Any bipartite graph with two classes of five vertices and 22 edges is the
complete bipartite graph minus three independent edges (removing a star or a
path leaves a subgraph that exceeds the known caps on nine vertices), so
there is a single target graph.  The oracle decides it at budget 6, the
fewest crossings 22 edges allow; its certified witness is the template.

    python3 scripts/find_balanced5.py

rewrites src/onecross/data/balanced5.json only when the witness's document
differs from the shipped one, so an unchanged template keeps its bytes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onecross.drawing import BipartiteGraph, validate  # noqa: E402
from onecross.formats import drawing_to_document, dumps_document  # noqa: E402
from onecross.oracle import is_one_planar  # noqa: E402

TEMPLATE = Path(__file__).resolve().parent.parent / "src" / "onecross" / "data" / "balanced5.json"


def target_graph() -> BipartiteGraph:
    blacks, whites, missing = range(5), range(5, 10), {(0, 5), (1, 6), (2, 7)}
    edges = [(b, w) for b in blacks for w in whites if (b, w) not in missing]
    return BipartiteGraph.make(blacks, whites, edges)


def main() -> None:
    d = is_one_planar(target_graph(), 6).drawing
    if d is None or not validate(d).passed or d.edge_count != 22 or len(d.crossings) != 6:
        raise SystemExit("the oracle gave no certified 22-edge drawing with 6 crossings")
    doc = drawing_to_document(d, {"generator": "balanced", "params": {"x": 5}})
    if TEMPLATE.exists() and json.loads(TEMPLATE.read_text()) == doc:
        print(f"{TEMPLATE.name} is unchanged")
        return
    TEMPLATE.write_text(dumps_document(doc))
    print(f"wrote {TEMPLATE.name}")


if __name__ == "__main__":
    main()
