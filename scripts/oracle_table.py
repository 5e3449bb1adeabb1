#!/usr/bin/env python3
"""Run the oracle searches of ROADMAP.md's "Oracle at HEAD" and "Bounds
against the oracle" tables.

    python3 scripts/oracle_table.py

prints one Markdown row per search: its verdict, least crossing number,
its crossing cap (no larger size is searched), the nodes it expanded, the
leaves it tested, the nodes at sizes where it tested no leaf ("leafless"),
the allowed pairs that the rim bound dropped ("rim cuts") and that the
face bound dropped within the rim bound ("corner cuts"), so that the table
says which rule did the work, and its wall seconds.  All sixteen searches
took 5.3 to 6.7 s in all, in three runs on a shared 2-CPU host (Python
3.11); alternated with them, three runs of the search that built each
child's pair list before filtering it took 6.7 to 9.2 s, with the same
counts in every column.
The script is opt-in: neither the tests nor the benchmark run it.  Four
searches (K3,8 at 8 and 11, K5,5 at 10, K3,9 at 11) answer "no" by
Zarankiewicz's crossing number.  The six without a budget have one edge
more than ``upper_bound`` allows, one graph per class up to relabelling for
every cell with x >= 3, x + y <= 10 and ``upper_bound`` < xy, plus K3,8
less one edge.  The verdicts of these ten do not rest on the oracle alone.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onecross.constructions import best_known  # noqa: E402
from onecross.drawing import BipartiteGraph  # noqa: E402
from onecross.oracle import is_one_planar  # noqa: E402


def complete_bipartite(a: int, b: int, missing: tuple = ()) -> BipartiteGraph:
    """K_{a,b} on blacks 0..a-1 and whites a..a+b-1, less the ``missing`` edges."""
    edges = [(u, w) for u in range(a) for w in range(a, a + b) if (u, w) not in missing]
    return BipartiteGraph.make(range(a), range(a, a + b), edges)


def searches() -> list[tuple[str, BipartiteGraph, int | None]]:
    return [
        ("K3,7 at budget 6", complete_bipartite(3, 7), 6),
        ("`best_known(4, 6)` at 6", best_known(4, 6).drawing.graph, 6),
        ("K4,6 less two edges sharing a white vertex, at 8",
         complete_bipartite(4, 6, ((0, 4), (1, 4))), 8),
        ("K4,6 less two edges sharing a black vertex, at 8",
         complete_bipartite(4, 6, ((0, 4), (0, 5))), 8),
        ("K4,6 less two disjoint edges, at 8", complete_bipartite(4, 6, ((0, 4), (1, 5))), 8),
        ("K5,5 less three independent edges, at 6",
         complete_bipartite(5, 5, ((0, 5), (1, 6), (2, 7))), 6),
        ("K3,8 at 8", complete_bipartite(3, 8), 8),
        ("K5,5 at 10", complete_bipartite(5, 5), 10),
        ("K3,8 at 11", complete_bipartite(3, 8), 11),
        ("K3,9 at 11", complete_bipartite(3, 9), 11),
        ("K3,7, no budget", complete_bipartite(3, 7), None),
        ("K4,5 less one edge, no budget", complete_bipartite(4, 5, ((0, 4),)), None),
        ("K4,6 less one edge, no budget", complete_bipartite(4, 6, ((0, 4),)), None),
        ("K5,5 less two edges sharing a vertex, no budget",
         complete_bipartite(5, 5, ((0, 5), (0, 6))), None),
        ("K5,5 less two disjoint edges, no budget",
         complete_bipartite(5, 5, ((0, 5), (1, 6))), None),
        ("K3,8 less one edge, no budget", complete_bipartite(3, 8, ((0, 3),)), None),
    ]


def main() -> None:
    print("| search | verdict | cap | nodes | leaves | leafless | rim cuts | corner cuts | s |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, graph, budget in searches():
        start = time.perf_counter()
        res = is_one_planar(graph, budget)
        seconds = time.perf_counter() - start
        verdict = res.verdict if res.crossings is None else f"{res.verdict}, {res.crossings}"
        nodes = sum(s.nodes for s in res.stats.sizes)
        leaves = sum(s.leaves for s in res.stats.sizes)
        leafless = sum(s.nodes for s in res.stats.sizes if not s.leaves)
        rim_cuts = sum(s.rim_cuts for s in res.stats.sizes)
        corner_cuts = sum(s.corner_cuts for s in res.stats.sizes)
        print(f"| {name} | {verdict} | {res.stats.cap} | {nodes:,} | {leaves:,} | {leafless:,} "
              f"| {rim_cuts:,} | {corner_cuts:,} | {seconds:.2f} |", flush=True)


if __name__ == "__main__":
    main()
