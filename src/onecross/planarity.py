"""Planarity by the left-right test, as a yes/no answer or with an embedding.

The left-right criterion (de Fraysseix, Ossona de Mendez and Rosenstiehl,
*Trémaux trees and planarity*, 2006) decides planarity from one depth-first
orientation: a graph is planar exactly when its back edges can be split
into a left and a right class under the constraints that the orientation
imposes.  Brandes (*The Left-Right Planarity Test*, 2009) turns it into a
linear-time test with a stack of conflict pairs of return-edge intervals.

This module is a port of the ``LRPlanarity`` class in networkx 3.6.1
(``networkx/algorithms/planarity.py``, BSD licence, Copyright (C) NetworkX
Developers): its orientation and testing phases in ``_lr_test``, and its
sign and embedding phases in ``lr_embedding``.  Every pass is iterative,
over integer adjacency lists: vertices and edges are indices into flat
lists, and a conflict pair is a list ``[left.low, left.high, right.low,
right.high]`` of edge indices, with None for an empty end.  networkx's
``PlanarEmbedding`` becomes clockwise and counter-clockwise links between
the darts at each vertex, plus the vertex's leftmost dart, updated by the
rules of ``PlanarEmbedding.add_half_edge``; so the rotations are
networkx's, in its order and from its first neighbour.

One testing pass serves two entry points.  ``lr_planar`` is the yes/no
kernel of the oracle's search; ``lr_embedding`` also resolves each edge's
side and builds the rotations, for the witness of an accepted leaf
(``oracle.planarity_test``).  Both take vertices that are already
``range(n)`` and edges that are already distinct, and their callers apply
the 3N - 6 edge bound (``oracle._over_edge_bound``) first.
"""

from __future__ import annotations

from typing import Collection


def lr_planar(n: int, edges: Collection[tuple[int, int]]) -> bool:
    """Whether the graph on vertices ``range(n)`` with these edges has a
    plane embedding.

    ``edges`` are distinct pairs of distinct vertices: the caller has
    already named the vertices densely and dropped loops and parallel
    copies, so nothing is relabelled here.  Vertices in no edge are roots
    of one-vertex trees and change nothing.  The test is right on any such
    graph, but the callers reject one with more than 3N - 6 edges before
    calling it, so no edge count is compared here.
    """
    return _lr_test(n, edges) is not None


def lr_embedding(n: int, edges: Collection[tuple[int, int]]) -> list[list[int]] | None:
    """The neighbours of each vertex in ``range(n)`` in clockwise order, in a
    plane embedding of the graph; None when it has none.

    ``edges`` are as for :func:`lr_planar`.  The rotations are those of
    ``networkx.check_planarity(g).get_data()``, each from networkx's leftmost
    neighbour, for the ``networkx.Graph`` ``g`` that holds the vertices
    ``range(n)`` in order and then receives ``edges`` in their order.
    """
    state = _lr_test(n, edges)
    if state is None:
        return None
    ends, head, parent, depth, oriented, roots, ref, side = state

    # -- sign: a side relative to ref becomes absolute, the product of the
    # sides along the ref chain; each chain is resolved once.
    chain: list[int] = []
    for e in oriented:
        while ref[e] is not None:
            chain.append(e)
            f = ref[e]
            ref[e] = None
            e = f
        s = side[e]
        while chain:
            f = chain.pop()
            s = side[f] = side[f] * s
    ordered: list[list[int]] = [[] for _ in range(n)]
    for ei in sorted(oriented, key=lambda e: side[e] * depth[e]):  # ties in orientation order
        ordered[ends[ei] - head[ei]].append(ei)

    # -- embedding.  Edge e's dart at its tail is 2e and at its head 2e + 1;
    # cw and ccw link the darts around a vertex, and leftmost[v] is the dart
    # networkx's get_data starts from, -1 while v has none.
    cw = [0] * (2 * len(head))
    ccw = [0] * (2 * len(head))
    leftmost = [-1] * n

    def after(d: int, r: int) -> None:
        # add_half_edge(ccw=r): d just clockwise of r; leftmost stays
        c = cw[r]
        cw[r], ccw[d], cw[d], ccw[c] = d, r, c, d

    def before(v: int, d: int, r: int) -> None:
        # add_half_edge(cw=r): d just counter-clockwise of r, and leftmost if r was
        c = ccw[r]
        ccw[r], cw[d], ccw[d], cw[c] = d, r, c, d
        if leftmost[v] == r:
            leftmost[v] = d

    for v, out in enumerate(ordered):  # each vertex's out-edges, clockwise
        if out:
            first = prev = 2 * out[0]
            cw[first] = ccw[first] = first
            leftmost[v] = first
            for ei in out[1:]:
                after(2 * ei, prev)
                prev = 2 * ei
    left_ref = [0] * n
    right_ref = [0] * n
    todo = [iter(out) for out in ordered]
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            for ei in todo[v]:
                w = head[ei]
                d = 2 * ei + 1  # the dart at w
                if parent[w] == ei:  # tree edge: add_half_edge_first
                    if leftmost[w] < 0:
                        cw[d] = ccw[d] = leftmost[w] = d
                    else:
                        before(w, d, leftmost[w])
                    left_ref[v] = right_ref[v] = 2 * ei
                    stack.append(w)
                    break
                if side[ei] == 1:  # back edge
                    after(d, right_ref[w])
                else:
                    before(w, d, left_ref[w])
                    left_ref[w] = d
            else:
                stack.pop()

    rotations: list[list[int]] = []
    for v in range(n):
        nbrs = []
        start = d = leftmost[v]
        if start >= 0:
            while True:
                nbrs.append(ends[d >> 1] - v)
                d = cw[d]
                if d == start:
                    break
        rotations.append(nbrs)
    return rotations


def _lr_test(n: int, edges: Collection[tuple[int, int]]) -> tuple | None:
    """The orientation and testing phases of the left-right test; None when
    the graph is not planar.

    On a planar graph, returns what the embedding phase needs: ``(ends,
    head, parent, depth, oriented, roots, ref, side)``, with ``side`` set to
    -1 where networkx's ``remove_back_edges`` sets it and ``ref`` as the
    testing phase left it.
    """
    m = len(edges)
    incident: list[list[int]] = [[] for _ in range(n)]  # edge indices at each vertex
    ends: list[int] = []  # sum of an edge's two ends: the other end is ends[e] - v
    for u, v in edges:
        incident[u].append(len(ends))
        incident[v].append(len(ends))
        ends.append(u + v)

    # -- orientation: a DFS orients every edge, tree edges down and back
    # edges up, and computes lowpoints and the nesting depth of each edge.
    # Each vertex keeps an iterator over its edges, so a vertex returned to
    # after a child resumes where it left off.
    height = [-1] * n
    parent = [-1] * n  # the tree edge into a vertex; -1 at a root
    head = [-1] * m    # the target of an oriented edge; -1 before it is oriented
    lowpt = [0] * m
    lowpt2 = [0] * m
    depth = [0] * m    # nesting depth
    oriented: list[int] = []  # edges in the order they were oriented

    def finish(ei: int, v: int) -> None:
        # the nesting depth of ei, an edge out of v whose lowpoints are
        # final, and its share of the lowpoints of the tree edge into v
        low = lowpt[ei]
        depth[ei] = 2 * low + (lowpt2[ei] < height[v])  # +1 when chordal
        e = parent[v]
        if e >= 0:
            if low < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[ei])
                lowpt[e] = low
            elif low > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], low)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[ei])

    todo = [iter(edges_at) for edges_at in incident]
    roots = []
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack[-1]
            for ei in todo[v]:
                if head[ei] >= 0:
                    continue  # oriented from its other end
                w = ends[ei] - v
                head[ei] = w
                oriented.append(ei)
                lowpt[ei] = lowpt2[ei] = height[v]
                if height[w] < 0:  # tree edge: finish w first
                    parent[w] = ei
                    height[w] = height[v] + 1
                    stack.append(w)
                    break
                lowpt[ei] = height[w]  # back edge
                finish(ei, v)
            else:
                stack.pop()
                ei = parent[v]
                if ei >= 0:  # the tree edge into v is finished at its tail
                    finish(ei, ends[ei] - v)

    # -- testing: the same DFS, children in nesting order, with a stack of
    # conflict pairs of return-edge intervals.
    ordered: list[list[int]] = [[] for _ in range(n)]
    for ei in sorted(oriented, key=depth.__getitem__):  # stable: ties in orientation order
        ordered[ends[ei] - head[ei]].append(ei)
    S: list[list] = []
    ref: list[int | None] = [None] * m
    side = [1] * m  # relative to ref: -1 where the testing phase puts an edge on the other side
    lowpt_edge: list[int | None] = [None] * m
    bottom: list[list | None] = [None] * m  # top of S when an edge is entered

    def conflicting(high: int | None, b: int) -> bool:
        # an interval, given by its high end, conflicts with edge b
        return high is not None and lowpt[high] > lowpt[b]

    def lowest(p: list) -> int:
        if p[0] is None and p[1] is None:
            return lowpt[p[2]]
        if p[2] is None and p[3] is None:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def add_constraints(ei: int, e: int) -> bool:
        p: list = [None, None, None, None]
        # merge the return edges of ei into p's right interval
        while True:
            q = S.pop()
            if q[0] is not None or q[1] is not None:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] is not None or q[1] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] is None and p[3] is None:  # topmost interval
                    p[3] = q[3]
                elif p[2] is not None:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            elif q[2] is not None:  # align
                ref[q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge conflicting return edges of the earlier siblings into p's left
        while S and (conflicting(S[-1][1], ei) or conflicting(S[-1][3], ei)):
            q = S.pop()
            if conflicting(q[3], ei):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if conflicting(q[3], ei):
                return False
            # merge the interval below lowpt(ei) into p's right
            if p[2] is not None:
                ref[p[2]] = q[3]
            if q[2] is not None:
                p[2] = q[2]
            if p[0] is None and p[1] is None:  # topmost interval
                p[1] = q[1]
            elif p[0] is not None:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [None, None, None, None]:
            S.append(p)
        return True

    def integrate(ei: int, v: int) -> bool:
        # the new return edges of ei, an edge out of v
        if lowpt[ei] < height[v]:
            if ei == ordered[v][0]:
                lowpt_edge[parent[v]] = lowpt_edge[ei]
            else:
                return add_constraints(ei, parent[v])
        return True

    def remove_back_edges(e: int) -> None:
        u = ends[e] - head[e]
        hu = height[u]
        # drop the conflict pairs whose lowest return edge ends at u
        while S and lowest(S[-1]) == hu:
            low = S.pop()[0]
            if low is not None:
                side[low] = -1
        if S:  # trim the intervals of one more pair
            p = S[-1]
            while p[1] is not None and head[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] is None and p[0] is not None:  # just emptied
                ref[p[0]] = p[2]
                side[p[0]] = -1
                p[0] = None
            while p[3] is not None and head[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] is None and p[2] is not None:  # just emptied
                ref[p[2]] = p[0]
                side[p[2]] = -1
                p[2] = None
        if lowpt[e] < hu:  # e has a return edge: ref(e) is a highest one
            hl, hr = S[-1][1], S[-1][3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    todo = [iter(edges_out) for edges_out in ordered]
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            for ei in todo[v]:
                bottom[ei] = S[-1] if S else None
                if parent[head[ei]] == ei:  # tree edge: integrate it once its head is done
                    stack.append(head[ei])
                    break
                lowpt_edge[ei] = ei  # back edge
                S.append([None, None, ei, ei])
                if not integrate(ei, v):
                    return None
            else:
                stack.pop()
                ei = parent[v]
                if ei >= 0:
                    remove_back_edges(ei)
                    if not integrate(ei, ends[ei] - v):
                        return None
    return ends, head, parent, depth, oriented, roots, ref, side

