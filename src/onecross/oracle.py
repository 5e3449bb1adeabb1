"""Exhaustive ground truth for small graphs: can they be drawn with at most
one crossing per edge?

The decision procedure enumerates crossing assignments (sets of disjoint,
non-adjacent edge pairs) in increasing size, replaces
each chosen pair by a wheel gadget (a new degree-4 vertex plus the 4-cycle
through the pair's endpoints, which any plane embedding must wrap around the
hub, forcing the rotation to alternate), and tests planarity of the gadget
multigraph.  A planar gadget embedding is converted back into a certified
drawing, so every ``yes`` is independently validated; ``no`` means the whole
space up to the crossing budget was exhausted.

This is desk-scale tooling: the default guideline is at most 14 edges.  Long
runs accept a timeout and write a coarse resumable checkpoint.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import networkx as nx

from . import plane_map as pm
from .drawing import (
    BipartiteGraph,
    DrawingError,
    Edge,
    Graph,
    OnePlanarDrawing,
    assemble_drawing,
    crossing_key,
    edge_key,
)
from .plane_map import PlaneMap


class OracleError(ValueError):
    """Raised for invalid oracle inputs or internal contradictions."""


@dataclass(frozen=True)
class CrossingAssignment:
    """Disjoint, non-adjacent edge pairs proposed to cross."""

    pairs: tuple[tuple[Edge, Edge], ...]

    @staticmethod
    def make(pairs: Iterable[tuple[Edge, Edge]]) -> "CrossingAssignment":
        norm = tuple(sorted(crossing_key(edge_key(*e), edge_key(*f)) for e, f in pairs))
        used: set[Edge] = set()
        for e, f in norm:
            if e in used or f in used or e == f:
                raise OracleError("assignment pairs are not disjoint")
            if set(e) & set(f):
                raise OracleError(f"adjacent edges may not cross: {e} x {f}")
            used.update((e, f))
        return CrossingAssignment(norm)


@dataclass(frozen=True)
class PlanarityResult:
    planar: bool
    witness: PlaneMap | None


def planarity_test(edges: Sequence[tuple[int, int]],
                   nodes: Iterable[int] = ()) -> PlanarityResult:
    """Planarity of a multigraph, with an embedding witness when planar.

    Parallel copies are subdivided before the test (subdivision preserves
    planarity both ways) and contracted back in the witness.  Every witness
    is audited with the Euler face count; map edge ids equal input indices.
    """
    node_set = set(nodes)
    for u, v in edges:
        if u == v:
            raise OracleError("loops are not supported")
        node_set.update((u, v))
    fresh = max(node_set, default=-1) + 1
    g = nx.Graph()
    g.add_nodes_from(node_set)
    kept: dict[tuple[int, int], int] = {}
    mid_of: dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        key = (u, v) if u <= v else (v, u)
        if key not in kept and not g.has_edge(*key):
            kept[key] = i
            g.add_edge(*key)
        else:
            mid = fresh
            fresh += 1
            mid_of[mid] = i
            g.add_edge(u, mid)
            g.add_edge(mid, v)
    ok, embedding = nx.check_planarity(g, counterexample=False)
    if not ok:
        return PlanarityResult(False, None)

    order = embedding.get_data()
    ed = pm.MapEditor()
    for _ in edges:
        ed.new_edge()  # edge i: dart 2i at its first end, 2i + 1 at its second
    for v in node_set:
        darts = []
        for w in order.get(v, []):
            i = mid_of[w] if w in mid_of else kept[(v, w) if v <= w else (w, v)]
            darts.append(2 * i if v == edges[i][0] else 2 * i + 1)
        ed.add_vertex(v, darts)
    witness = ed.finish()
    if not pm.euler_check(witness).planar:
        raise OracleError("embedding witness failed the Euler audit")
    return PlanarityResult(True, witness)


@dataclass(frozen=True)
class GadgetGraph:
    """Planarization of a graph under a crossing assignment."""

    edges: tuple[tuple[int, int], ...]
    kept: dict[int, Edge]             # multigraph index -> original edge
    spokes: dict[int, tuple[int, Edge]]  # index -> (false node, original edge)
    rims: tuple[int, ...]
    false_nodes: dict[int, tuple[Edge, Edge]]


def gadget_planarize(graph: Graph | BipartiteGraph,
                     assignment: CrossingAssignment | Iterable[tuple[Edge, Edge]]) -> GadgetGraph:
    """Replace each crossing pair by the alternation-forcing wheel gadget.

    The pair (ab, cd) becomes a new vertex joined to a, b, c, d plus the
    4-cycle a-c-b-d-a routed alongside the segments; unpaired edges remain.
    The result may contain parallel edges.
    """
    if not isinstance(assignment, CrossingAssignment):
        assignment = CrossingAssignment.make(assignment)
    edge_set = set(graph.edges)
    for e, f in assignment.pairs:
        if e not in edge_set or f not in edge_set:
            raise OracleError("assignment names an edge outside the graph")
    crossed = {e for pair in assignment.pairs for e in pair}
    out: list[tuple[int, int]] = []
    kept: dict[int, Edge] = {}
    spokes: dict[int, tuple[int, Edge]] = {}
    rims: list[int] = []
    false_nodes: dict[int, tuple[Edge, Edge]] = {}
    nxt = max(graph.vertices, default=-1) + 1
    for e in sorted(edge_set - crossed):
        kept[len(out)] = e
        out.append(e)
    for e, f in assignment.pairs:
        w = nxt
        nxt += 1
        false_nodes[w] = (e, f)
        (a, b), (c, d) = e, f
        for end, owner in ((a, e), (b, e), (c, f), (d, f)):
            spokes[len(out)] = (w, owner)
            out.append((end, w))
        for rim in ((a, c), (c, b), (b, d), (d, a)):
            rims.append(len(out))
            out.append(rim)
    return GadgetGraph(tuple(out), kept, spokes, tuple(rims), false_nodes)


@dataclass(frozen=True)
class OneplanarResult:
    verdict: str  # "yes" | "no" | "unknown"
    drawing: OnePlanarDrawing | None
    crossings: int | None
    assignments_tested: int


def _two_color(graph: Graph | BipartiteGraph) -> tuple[frozenset[int], frozenset[int]] | None:
    if isinstance(graph, BipartiteGraph):
        return graph.black, graph.white
    g = nx.Graph()
    g.add_nodes_from(graph.vertices)
    g.add_edges_from(graph.edges)
    try:
        color = nx.bipartite.color(g)
    except nx.NetworkXError:
        return None
    a = frozenset(v for v, c in color.items() if c == 0)
    b = frozenset(graph.vertices) - a
    if (len(a), sorted(a)) > (len(b), sorted(b)):
        a, b = b, a
    return a, b


def _drawing_from_gadget(graph: Graph | BipartiteGraph,
                         gadget: GadgetGraph, witness: PlaneMap) -> OnePlanarDrawing:
    ed = pm.MapEditor(witness)
    for rim in gadget.rims:
        ed.delete_edge(rim)
    paths: dict[Edge, list[int]] = {}
    for idx, e in gadget.kept.items():
        paths[e] = [idx]
    for idx, (w, e) in sorted(gadget.spokes.items()):
        paths.setdefault(e, []).append(idx)
    crossings = [crossing_key(e, f) for e, f in gadget.false_nodes.values()]
    colored = _two_color(graph)
    if colored is not None and not isinstance(graph, BipartiteGraph):
        graph = BipartiteGraph.make(colored[0], colored[1], graph.edges)
    return assemble_drawing(graph, crossings, ed.finish(),
                            {e: tuple(p) for e, p in paths.items()},
                            dict(gadget.false_nodes))


def _candidate_pairs(edges: list[Edge]) -> list[tuple[Edge, Edge]]:
    out = []
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if not set(e) & set(f):
                out.append((e, f))
    return out


def _read_checkpoint(path: str | Path | None, fingerprint: dict) -> tuple[int, int]:
    """Where a checkpoint of this search resumes: (size, first-pair index), or (0, 0)."""
    if path is None or not Path(path).exists():
        return 0, 0
    try:
        state = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise OracleError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict):
        raise OracleError(f"checkpoint {path} is not a JSON object")
    if state.get("fingerprint") != fingerprint:
        return 0, 0
    resume = state.get("size", 0), state.get("next_root", 0)
    if any(type(v) is not int or v < 0 for v in resume):
        raise OracleError(f"checkpoint {path}: size and next_root must be nonnegative integers")
    return resume


def is_one_planar(graph: Graph | BipartiteGraph, max_crossings: int,
                  timeout: float | None = None,
                  checkpoint: str | Path | None = None) -> OneplanarResult:
    """Decide drawability with at most ``max_crossings`` crossings.

    Searches assignment sizes in increasing order, so a ``yes`` uses the
    fewest crossings possible.  Within a size, assignments are grouped by
    their first candidate pair in increasing index order; inside a group the
    depth-first stack pops the highest next pair index first.  ``yes``
    returns a certified drawing; ``no`` is exhaustive within the budget;
    ``unknown`` is only returned on timeout, with progress saved to
    ``checkpoint`` (a JSON file recording the last fully explored first-pair
    subtree per size) when given.
    """
    if max_crossings < 0:
        raise OracleError("budget must be nonnegative")
    edges = sorted(graph.edges)
    start = time.monotonic()
    tested = 0

    fingerprint = {"edges": [list(e) for e in edges], "budget": max_crossings}
    resume_size, resume_root = _read_checkpoint(checkpoint, fingerprint)

    def save_checkpoint(size: int, next_root: int) -> None:
        if checkpoint is None:
            return
        # Written beside the checkpoint and renamed over it, so a cut write
        # leaves the previous checkpoint.
        tmp = Path(checkpoint).with_name(f".{Path(checkpoint).name}.tmp")
        try:
            tmp.write_text(json.dumps({
                "fingerprint": fingerprint,
                "size": size,
                "next_root": next_root,
            }, indent=1))
            os.replace(tmp, checkpoint)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def out_of_time() -> bool:
        return timeout is not None and time.monotonic() - start > timeout

    pairs = _candidate_pairs(edges)

    for size in range(max_crossings + 1):
        if size < resume_size:
            continue
        if size == 0:
            tested += 1
            res = planarity_test(edges, graph.vertices)
            if res.planar:
                gadget = gadget_planarize(graph, CrossingAssignment(()))
                d = _drawing_from_gadget(graph, gadget, res.witness)
                return OneplanarResult("yes", d, 0, tested)
            continue

        # Depth-first over increasing pair indices, one first pair at a time.
        root0 = resume_root if size == resume_size else 0
        for root in range(root0, len(pairs)):
            stack: list[tuple[list[int], set[Edge]]] = [
                ([root], {pairs[root][0], pairs[root][1]})]
            while stack:
                chosen, used = stack.pop()
                if len(chosen) == size:
                    tested += 1
                    if tested % 64 == 0 and out_of_time():
                        save_checkpoint(size, root)
                        return OneplanarResult("unknown", None, None, tested)
                    assignment = CrossingAssignment.make([pairs[i] for i in chosen])
                    gadget = gadget_planarize(graph, assignment)
                    res = planarity_test(gadget.edges, graph.vertices)
                    if res.planar:
                        d = _drawing_from_gadget(graph, gadget, res.witness)
                        return OneplanarResult("yes", d, size, tested)
                    continue
                for nxt in range(chosen[-1] + 1, len(pairs)):
                    e, f = pairs[nxt]
                    if e in used or f in used:
                        continue
                    stack.append((chosen + [nxt], used | {e, f}))
            save_checkpoint(size, root + 1)
            if out_of_time():
                return OneplanarResult("unknown", None, None, tested)
        resume_root = 0

    return OneplanarResult("no", None, None, tested)


def min_crossings(graph: Graph | BipartiteGraph, cap: int,
                  timeout: float | None = None) -> int | None:
    """Least number of crossings over accepting assignments, or None beyond cap.

    One :func:`is_one_planar` search with budget ``cap``: sizes are tried in
    increasing order, so the first accepting size is the least.  ``timeout``
    bounds the whole search; running out raises :class:`OracleError`.
    """
    res = is_one_planar(graph, cap, timeout=timeout)
    if res.verdict == "unknown":
        raise OracleError("timed out during the crossing search")
    return res.crossings
