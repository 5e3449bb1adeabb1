"""Serialization of drawings plus DOT and SVG exporters.

The JSON document is the single canonical interchange format; DOT and SVG
are export-only.  A document stores the abstract graph, the crossing pairs
as edge-index pairs, and the planified rotation system, where every rotation
entry ``[edge_index, half]`` names the segment of that edge pointing toward
``edges[edge_index][half]``; on an uncrossed edge that is always the far
end.  :func:`parse_document` rebuilds the drawing a document describes
without certifying it; :func:`document_to_drawing` and :func:`load_drawing`
add the one certification, so a loaded drawing is always certified.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from . import plane_map as pm
from .drawing import (
    BipartiteGraph,
    Graph,
    OnePlanarDrawing,
    certify,
    crossing_key,
    edge_key,
)

FORMAT_VERSION = 1


class FormatError(ValueError):
    """Raised for malformed or wrong-version documents."""


def drawing_to_document(d: OnePlanarDrawing,
                        provenance: dict[str, Any] | None = None) -> dict[str, Any]:
    """Serialize a drawing; false vertices are keyed by crossing index."""
    edges = sorted(d.graph.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    crossings = sorted(tuple(sorted((eidx[e], eidx[f]))) for e, f in d.crossings)
    cidx = {c: i for i, c in enumerate(crossings)}

    m = d.planified
    false_to_cross = {w: tuple(sorted((eidx[e], eidx[f])))
                      for w, (e, f) in d.false_vertices.items()}
    seg_owner: dict[int, tuple[int, int]] = {}
    for e, path in d.edge_paths.items():
        if len(path) == 1:
            seg_owner[path[0]] = (eidx[e], -1)
        else:
            for me in path:
                ends = set(m.edge_endpoints(me))
                true_end = (ends & set(e)).pop()
                seg_owner[me] = (eidx[e], e.index(true_end))

    def rotation_entries(v: int) -> list[list[int]]:
        out = []
        for dart in m.rotations[v]:
            me = m.dart_edge[dart]
            ei, half = seg_owner[me]
            if half == -1:
                other = m.dart_vertex[m.opposite[dart]]
                half = edges[ei].index(other)
            elif v not in false_to_cross:
                # At a true endpoint the segment points back to the crossing;
                # record the end the vertex itself occupies.
                half = edges[ei].index(v)
            out.append([ei, half])
        return out

    doc: dict[str, Any] = {"format_version": FORMAT_VERSION}
    if isinstance(d.graph, BipartiteGraph):
        doc["black"] = sorted(d.graph.black)
        doc["white"] = sorted(d.graph.white)
    else:
        doc["vertices"] = sorted(d.graph.vertices)
    doc["edges"] = [list(e) for e in edges]
    doc["crossings"] = [list(c) for c in crossings]
    doc["rotations"] = {
        "true": {str(v): rotation_entries(v) for v in sorted(d.graph.vertices)},
        "false": {str(cidx[false_to_cross[w]]): rotation_entries(w)
                  for w in sorted(d.false_vertices)},
    }
    if provenance:
        doc["provenance"] = provenance
    return doc


def _ints(value: Any, what: str, size: int | None = None) -> list[int]:
    """``value``, once it is a list of JSON integers (not booleans), ``size`` long if given."""
    if not isinstance(value, list) or not {int}.issuperset(map(type, value)) \
            or size is not None and len(value) != size:
        raise FormatError(f"{what} must be a list of {size or 'any number of'} integers, "
                          f"got {value!r}")
    return value


def _vertex_key(key: str) -> int:
    """A rotation key, which must be an integer written in canonical decimal."""
    if str(int(key)) != key:
        raise FormatError(f"rotation key {key!r} is not a canonical integer")
    return int(key)


def _edge_list(value: Any) -> list[tuple[int, int]]:
    """The document's edges as :func:`~onecross.drawing.edge_key` pairs.

    The checks of :func:`_ints` and ``edge_key`` run inline; at the first
    edge that fails one, both run over the whole list, as they did before
    any of them was inlined, to raise the error they always raised.
    """
    edges = []
    for e in value:
        if type(e) is list and len(e) == 2:
            u, v = e
            if type(u) is int and type(v) is int and u != v:
                edges.append((u, v) if u < v else (v, u))
                continue
        return [edge_key(*pair) for pair in [tuple(_ints(e, "an edge", 2)) for e in value]]
    return edges


def parse_document(doc: Any) -> OnePlanarDrawing:
    """The drawing a document describes, not yet certified.

    Raises :class:`FormatError` when the document cannot describe a drawing
    (wrong shape or types, indices out of range, a self-edge, rotations that
    do not pair up into a map); every other fault is left to
    :func:`~onecross.drawing.validate`.
    """
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    try:
        if doc.get("format_version") != FORMAT_VERSION:
            raise FormatError(f"unsupported format_version {doc.get('format_version')!r}")
        edges = _edge_list(doc["edges"])
        if len(set(edges)) != len(edges):
            raise FormatError("duplicate edges in document")
        if "black" in doc or "white" in doc:
            graph: BipartiteGraph | Graph = BipartiteGraph(
                frozenset(_ints(doc["black"], "black")),
                frozenset(_ints(doc["white"], "white")), frozenset(edges))
        else:
            graph = Graph(frozenset(_ints(doc["vertices"], "vertices")), frozenset(edges))
        crossing_list = [tuple(_ints(c, "a crossing", 2)) for c in doc["crossings"]]
        if any(not 0 <= i < len(edges) for c in crossing_list for i in c):
            raise FormatError("crossing names an edge index out of range")
        crossings = [crossing_key(edges[i], edges[j]) for i, j in crossing_list]

        base = max(graph.vertices, default=-1) + 1
        false_ids = {ci: base + k for k, ci in enumerate(range(len(crossing_list)))}
        crossed_at: dict[int, int] = {}
        for k, (i, j) in enumerate(crossing_list):
            for e in (i, j):
                if e in crossed_at:
                    raise FormatError("doubly-crossed edge in document")
                crossed_at[e] = k

        # Map edges in document order: toward end 0 first for crossed edges.
        # Map edge me owns dart 2me at its first end and 2me + 1 at its second.
        # Rotation entry [ei, half] fills slot 2 ei + half; a slot's seat is
        # the one vertex whose rotation may hold it, true or a crossing point,
        # and its dart is the dart the entry names there.
        map_edges: list[tuple[int, int]] = []
        seg_id: dict[tuple[int, int], int] = {}  # (edge index, half) -> map edge
        plain_id: dict[int, int] = {}
        edge_paths: dict[tuple[int, int], tuple[int, ...]] = {}
        true_seat: list[int | None] = [None] * (2 * len(edges))
        false_seat = true_seat.copy()
        true_dart, false_dart = [0] * len(true_seat), [0] * len(true_seat)
        for ei, e in enumerate(edges):
            me = len(map_edges)
            if ei in crossed_at:
                w = false_ids[crossed_at[ei]]
                for half in (0, 1):
                    seg_id[(ei, half)] = me + half
                    map_edges.append((e[half], w))
                    true_seat[2 * ei + half], true_dart[2 * ei + half] = e[half], 2 * (me + half)
                    false_seat[2 * ei + half], false_dart[2 * ei + half] = w, 2 * (me + half) + 1
                edge_paths[e] = (me, me + 1)
            else:
                plain_id[ei] = me
                map_edges.append(e)
                edge_paths[e] = (me,)
                true_seat[2 * ei], true_dart[2 * ei] = e[1], 2 * me + 1
                true_seat[2 * ei + 1], true_dart[2 * ei + 1] = e[0], 2 * me

        def dart_for(v: int, entry: list[int]) -> int:
            """The dart of one entry, or the error that describes it."""
            ei, half = entry
            if type(ei) is not int or type(half) is not int:
                raise FormatError(f"a rotation entry must be two integers, got {entry!r}")
            if ei in crossed_at:
                me = seg_id[(ei, half)]
            else:
                me = plain_id[ei]
                if half != (v == edges[ei][0]):  # 1 at edges[ei][0], 0 at edges[ei][1]
                    raise FormatError(f"rotation entry {entry} at vertex {v} "
                                      "does not name the far end of its edge")
            a, b = map_edges[me]
            if v == a:
                return 2 * me
            if v == b:
                return 2 * me + 1
            raise FormatError(f"rotation entry {entry} not incident to vertex {v}")

        def rotation(v: int, entries: Any, seat: list, dart: list) -> list[int]:
            """The darts of ``v``'s entries: each entry must be seated at ``v``.

            An entry that is not is passed, with all of ``v``'s, to
            ``dart_for``, which finds its dart or phrases its error.
            """
            try:
                out = []
                for ei, half in entries:
                    if type(ei) is not int or type(half) is not int or not 0 <= half <= 1:
                        break
                    slot = ei + ei + half
                    if slot < 0 or seat[slot] != v:
                        break
                    out.append(dart[slot])
                else:
                    return out
            except (TypeError, ValueError, IndexError):
                pass
            return [dart_for(v, entry) for entry in entries]

        true_rot, false_rot = doc["rotations"]["true"], doc["rotations"]["false"]
        if not isinstance(true_rot, dict) or not isinstance(false_rot, dict):
            raise FormatError("rotations.true and rotations.false must be JSON objects")
        rotations: dict[int, list[int]] = {}
        for key, entries in true_rot.items():
            v = _vertex_key(key)
            rotations[v] = rotation(v, entries, true_seat, true_dart)
        for v in graph.vertices:
            rotations.setdefault(v, [])
        for key, entries in false_rot.items():
            w = false_ids[_vertex_key(key)]
            if w in rotations:
                raise FormatError(f"duplicate vertex {w}")
            rotations[w] = rotation(w, entries, false_seat, false_dart)
        false_vertices = {false_ids[k]: crossings[k] for k in range(len(crossings))}
        return OnePlanarDrawing(graph, frozenset(crossings),
                                pm.map_from_paired_darts(rotations, len(map_edges)),
                                edge_paths, false_vertices)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"malformed document: {exc}") from exc


def document_to_drawing(doc: Any) -> OnePlanarDrawing:
    """Rebuild a drawing from its document and certify it once."""
    return certify(parse_document(doc))


def save_drawing(d: OnePlanarDrawing, path: str | Path,
                 provenance: dict[str, Any] | None = None) -> None:
    doc = drawing_to_document(d, provenance)
    Path(path).write_text(dumps_document(doc))


def read_document(path: str | Path) -> Any:
    """The JSON value in a file; unreadable files raise FormatError."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read document: {exc}") from exc


def load_drawing(path: str | Path) -> OnePlanarDrawing:
    """Read, parse and certify a document; unreadable files raise FormatError."""
    return document_to_drawing(read_document(path))


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _layout(value: Any, depth: int, pad: str) -> str:
    """``value`` as JSON, one key per line in the top ``depth`` levels of objects."""
    if depth == 0 or not isinstance(value, dict) or not value:
        return _encode(value)
    inner = pad + " "
    items = ",\n".join(f"{inner}{_encode(k)}: {_layout(value[k], depth - 1, inner)}"
                       for k in sorted(value))
    return f"{{\n{items}\n{pad}}}"


def dumps_document(doc: dict[str, Any]) -> str:
    """A document as JSON text, the same bytes for the same document.

    Keys are sorted at every level and written one top-level key per line,
    with one line per vertex under ``rotations.true`` and
    ``rotations.false``; every other value (an edge list, a class list, a
    rotation) is one compact line, written by json's C encoder.
    """
    lines = ",\n".join(f" {_encode(k)}: {_layout(doc[k], 2 if k == 'rotations' else 0, ' ')}"
                        for k in sorted(doc))
    return f"{{\n{lines}\n}}\n"


# --------------------------------------------------------------------------
# Exporters
# --------------------------------------------------------------------------


def export_dot(d: OnePlanarDrawing) -> str:
    """The planified graph in DOT, with classes and false vertices styled."""
    g = d.graph
    black = g.black if isinstance(g, BipartiteGraph) else frozenset()
    lines = ["graph drawing {", "  node [shape=circle];"]
    for v in sorted(d.graph.vertices):
        fill = "black" if v in black else "white"
        color = ' style=filled fillcolor=black fontcolor=white' if v in black else ""
        lines.append(f'  v{v} [label="{v}" class="{fill}"{color}];')
    for w in sorted(d.false_vertices):
        lines.append(f'  v{w} [shape=point width=0.06 class="false"];')
    m = d.planified
    for me in sorted(m.edge_darts):
        a, b = sorted(m.edge_endpoints(me))
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _solve(rows: list[dict[int, float]],
           rhs: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Solve ``A p = rhs`` for points ``p``; ``rows[i]`` maps column j to ``A[i][j]``.

    Gaussian elimination on the sparse rows, which it consumes, in one fixed
    order: fewest initial entries first, ties by position (the minimum
    degree idea of George and Liu, *The evolution of the minimum degree
    ordering algorithm*, SIAM Review 1989); then back-substitution.  There
    is no pivoting.

    Lemma: on the system :func:`_tutte_positions` builds, every pivot is
    positive.  A component's interior matrix is symmetric with nonpositive
    off-diagonal entries.  It is weakly diagonally dominant, since a row's
    diagonal is its vertex's degree and its other entries count only the
    darts to interior vertices.  Every connected piece of interior vertices
    has an edge to the pinned ring, where its row is strictly dominant, so
    each block is irreducibly diagonally dominant: a nonsingular M-matrix.
    Eliminating one variable of a nonsingular M-matrix leaves a Schur
    complement that is again one, in any symmetric order, so every pivot is
    positive.  The pattern stays symmetric too, so the rows holding column
    k are the other columns of row k.
    """
    order = sorted(range(len(rows)), key=lambda i: len(rows[i]))
    pivots = [0.0] * len(rows)
    for k in order:
        row = rows[k]
        pivot = pivots[k] = row.pop(k)
        bx, by = rhs[k]
        for j in row:
            other = rows[j]
            f = other.pop(k) / pivot
            for i, a in row.items():
                other[i] = other.get(i, 0.0) - f * a
            x, y = rhs[j]
            rhs[j] = (x - f * bx, y - f * by)
    points: list[tuple[float, float]] = [(0.0, 0.0)] * len(rows)
    for k in reversed(order):
        bx, by = rhs[k]
        for i, a in rows[k].items():
            x, y = points[i]
            bx -= a * x
            by -= a * y
        points[k] = (bx / pivots[k], by / pivots[k])
    return points


def _tutte_positions(m: pm.PlaneMap) -> dict[int, tuple[float, float]]:
    """Barycentric layout per component; the largest face becomes the hull.

    Components are laid side by side in order of their least vertex.  A
    component with edges pins its largest face's ring to a circle and places
    every other vertex at the mean of its neighbours (W. T. Tutte, *How to
    draw a graph*, Proc. London Math. Soc. 1963), by :func:`_solve`.
    """
    rotations, owner, opp = m.rotations, m.dart_vertex, m.opposite
    roots = m.components
    comps: dict[int, list[int]] = {}
    for v in sorted(roots):
        comps.setdefault(roots[v], []).append(v)
    outer: dict[int, list[int]] = {}  # each component's first longest face
    for walk in m.faces:
        root = roots[owner[walk[0]]]
        if len(walk) > len(outer.get(root, ())):
            outer[root] = walk
    pos: dict[int, tuple[float, float]] = {}
    offset = 0.0
    for root, comp in comps.items():
        if root not in outer:
            for i, v in enumerate(comp):
                pos[v] = (offset + 30.0 * i, 0.0)
            offset += 30.0 * len(comp) + 60.0
            continue
        ring = list(dict.fromkeys(owner[dart] for dart in outer[root]))
        radius = 100.0
        for i, v in enumerate(ring):
            a = 2 * math.pi * i / len(ring)
            pos[v] = (offset + radius * math.cos(a), radius * math.sin(a))
        interior = [v for v in comp if v not in pos]
        index = {v: i for i, v in enumerate(interior)}
        rows: list[dict[int, float]] = []
        rhs: list[tuple[float, float]] = []
        for i, v in enumerate(interior):
            row = {i: max(len(rotations[v]), 1)}
            bx = by = 0.0  # summed in rotation order; the SVG bytes depend on it
            for dart in rotations[v]:
                w = owner[opp[dart]]
                j = index.get(w)
                if j is None:
                    x, y = pos[w]
                    bx += x
                    by += y
                else:
                    row[j] = row.get(j, 0) - 1
            rows.append(row)
            rhs.append((bx, by))
        pos.update(zip(interior, _solve(rows, rhs)))
        offset += 2 * radius + 60.0
    return pos


def export_svg(d: OnePlanarDrawing) -> str:
    """A plane picture of the drawing; crossed edges stay visually continuous.

    Coordinates come from a barycentric layout of the planified map with its
    largest face pinned as the outer polygon.  The layout is presentation
    only and carries no certification weight.
    """
    m = d.planified
    pos = _tutte_positions(m)
    xs = [p[0] for p in pos.values()] or [0.0]
    ys = [p[1] for p in pos.values()] or [0.0]
    pad = 20.0
    minx, miny = min(xs) - pad, min(ys) - pad
    width = max(xs) - min(xs) + 2 * pad
    height = max(ys) - min(ys) + 2 * pad

    pt = {v: f"{x - minx:.2f},{y - miny:.2f}" for v, (x, y) in pos.items()}
    g = d.graph
    black = g.black if isinstance(g, BipartiteGraph) else frozenset()
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    for e in sorted(d.graph.edges):
        path = d.edge_paths[e]
        if len(path) == 1:
            through = [e[0], e[1]]
        else:
            ends0 = set(m.edge_endpoints(path[0]))
            w = (ends0 - set(e)).pop()
            through = [e[0], w, e[1]]
        points = " ".join([pt[v] for v in through])
        cls = "crossed" if len(through) == 3 else "plain"
        lines.append(f'  <polyline class="edge {cls}" points="{points}" '
                     'fill="none" stroke="#333" stroke-width="1.2"/>')
    for v in sorted(d.graph.vertices):
        x, y = pos[v]
        fill = "#000" if v in black else "#fff"
        lines.append(f'  <circle class="vertex" cx="{x - minx:.2f}" cy="{y - miny:.2f}" '
                     f'r="4" fill="{fill}" stroke="#000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
