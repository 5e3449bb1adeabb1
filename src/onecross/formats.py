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
from typing import Any, NoReturn, Sequence

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
    false_to_cross = {w: tuple(sorted((eidx[e], eidx[f])))
                      for w, (e, f) in d.false_vertices.items()}
    crossings = sorted(false_to_cross.values())
    cidx = {c: i for i, c in enumerate(crossings)}

    m = d.planified
    # Each dart's rotation entry [edge index, half].  An uncrossed edge's
    # dart names the end it points to; both darts of a crossed edge's half
    # share one entry, which names the half's true end.
    owner, false_vertices = m.dart_vertex, d.false_vertices
    entry: dict[int, list[int]] = {}
    for a, b in m.edge_darts:
        t, w = owner[a], owner[b]
        if t in false_vertices:
            t, w = w, t
        pair = false_vertices.get(w)
        if pair:
            e = pair[0] if t in pair[0] else pair[1]
            entry[a] = entry[b] = [eidx[e], 0 if t == e[0] else 1]
        else:
            i = eidx[(t, w) if t < w else (w, t)]
            entry[a], entry[b] = ([i, 1], [i, 0]) if t < w else ([i, 0], [i, 1])

    def rotation_entries(v: int) -> list[list[int]]:
        return [entry[dart] for dart in m.rotations[v]]

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

    The first edge that is not a pair of distinct JSON integers goes to
    :func:`_ints` and ``edge_key``, one of which raises its error.
    """
    edges = []
    for e in value:
        if type(e) is list and len(e) == 2:
            u, v = e
            if type(u) is int and type(v) is int and u != v:
                edges.append((u, v) if u < v else (v, u))
                continue
        edge_key(*_ints(e, "an edge", 2))
    return edges


def parse_document(doc: Any) -> OnePlanarDrawing:
    """The drawing a document describes, not yet certified.

    Raises :class:`FormatError` when the document cannot describe a drawing
    (wrong shape or types, indices out of range, a self-edge, a rotation
    key that names no vertex or no crossing, rotations that do not pair up
    into a map); every other fault is left to
    :func:`~onecross.drawing.validate`.  Each rotation entry is read once,
    through the seat table of its rotation's kind: ``rotations.true`` seats
    a segment at its true end, ``rotations.false`` at its crossing point.
    The first entry not seated at its vertex raises the error that names
    its fault.
    """
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    try:
        if type(doc.get("format_version")) is not int or doc["format_version"] != FORMAT_VERSION:
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
        vertices = graph.vertices  # read once: a BipartiteGraph makes a new frozenset per read
        crossing_list = [tuple(_ints(c, "a crossing", 2)) for c in doc["crossings"]]
        if any(not 0 <= i < len(edges) for c in crossing_list for i in c):
            raise FormatError("crossing names an edge index out of range")

        base = max(vertices, default=-1) + 1  # crossing k is false vertex base + k
        false_vertices = {base + k: crossing_key(edges[i], edges[j])
                          for k, (i, j) in enumerate(crossing_list)}
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
        true_seat: list[int | None] = [None] * (2 * len(edges))
        false_seat = true_seat.copy()
        true_dart, false_dart = [0] * len(true_seat), [0] * len(true_seat)
        me = 0
        for ei, e in enumerate(edges):
            if ei in crossed_at:
                w = base + crossed_at[ei]
                for half in (0, 1):
                    true_seat[2 * ei + half], true_dart[2 * ei + half] = e[half], 2 * me
                    false_seat[2 * ei + half], false_dart[2 * ei + half] = w, 2 * me + 1
                    me += 1
            else:
                true_seat[2 * ei], true_dart[2 * ei] = e[1], 2 * me + 1
                true_seat[2 * ei + 1], true_dart[2 * ei + 1] = e[0], 2 * me
                me += 1

        def entry_fault(v: int, entry: Any) -> NoReturn:
            """Raise the error of an entry that is not seated at ``v``."""
            ei, half = entry
            if type(ei) is not int or type(half) is not int:
                raise FormatError(f"a rotation entry must be two integers, got {entry!r}")
            if not 0 <= ei < len(edges):
                raise FormatError(f"rotation entry {entry} names no edge")
            if ei not in crossed_at and half != (v == edges[ei][0]):  # 1 at end 0, 0 at end 1
                raise FormatError(f"rotation entry {entry} at vertex {v} "
                                  "does not name the far end of its edge")
            if not 0 <= half <= 1:
                raise FormatError(f"rotation entry {entry} names no half of its edge")
            raise FormatError(f"rotation entry {entry} not incident to vertex {v}")

        def rotation(v: int, entries: Any, seat: list, dart: list) -> list[int]:
            """The darts of ``v``'s entries; the first not seated at ``v`` raises."""
            out, n = [], len(edges)
            for entry in entries:
                ei, half = entry
                if type(ei) is not int or type(half) is not int or not 0 <= half <= 1 \
                        or not 0 <= ei < n or seat[ei + ei + half] != v:
                    entry_fault(v, entry)
                out.append(dart[ei + ei + half])
            return out

        true_rot, false_rot = doc["rotations"]["true"], doc["rotations"]["false"]
        if not isinstance(true_rot, dict) or not isinstance(false_rot, dict):
            raise FormatError("rotations.true and rotations.false must be JSON objects")
        rotations: dict[int, list[int]] = {}
        for key, entries in true_rot.items():
            v = _vertex_key(key)
            if v not in vertices:
                raise FormatError(f"rotation key {key} names no vertex")
            rotations[v] = rotation(v, entries, true_seat, true_dart)
        for v in vertices:
            rotations.setdefault(v, [])
        for key, entries in false_rot.items():
            w = base + _vertex_key(key)
            if w not in false_vertices:
                raise FormatError(f"false rotation key {key} names no crossing")
            rotations[w] = rotation(w, entries, false_seat, false_dart)
        return OnePlanarDrawing(graph, pm.map_from_paired_darts(rotations, me),
                                false_vertices)
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
    """The JSON value in a file; unreadable files raise FormatError.

    Unreadable covers bytes that are not UTF-8 or not JSON, an integer
    literal longer than ``int`` converts (a ``ValueError``, as those are)
    and arrays or objects nested deeper than the recursion limit.
    """
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise FormatError(f"cannot read document: {exc}") from exc


def load_drawing(path: str | Path) -> OnePlanarDrawing:
    """Read, parse and certify a document; unreadable files raise FormatError."""
    return document_to_drawing(read_document(path))


# Documents are trees, so the encoder keeps no record of the containers it is inside.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def _layout(value: Any, depth: int, pad: str) -> str:
    """``value`` as JSON, one key per line in the top ``depth`` levels of objects.

    An object at the last such level whose keys are digit strings, such as
    a rotation table, takes one encoder call; its line breaks go in after
    the commas and colons next to a quote, when it has no other quotes.
    """
    if depth == 0 or not isinstance(value, dict) or not value:
        return _encode(value)
    inner = pad + " "
    if depth == 1 and all(type(k) is str and k.isdigit() for k in value):
        text = _encode(value)
        if text.count('"') == 2 * len(value):
            body = text[1:-1].replace(',"', f',\n{inner}"').replace('":', '": ')
            return f"{{\n{inner}{body}\n{pad}}}"
    items = ",\n".join(f"{inner}{_encode(k)}: {_layout(value[k], depth - 1, inner)}"
                       for k in sorted(value))
    return f"{{\n{items}\n{pad}}}"


def dumps_document(doc: dict[str, Any]) -> str:
    """A document as JSON text, the same bytes for the same document.

    Keys are sorted at every level and written one top-level key per line,
    with one line per vertex under ``rotations.true`` and
    ``rotations.false``; every other value (an edge list, a class list, a
    rotation) is one compact line, written by json's C encoder.

    A document is a tree: no list or object in it contains itself.  The
    encoder does not check that, so a cyclic value raises ``RecursionError``
    once it nests past the recursion limit, not json's ``ValueError``.
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
    owner = d.planified.dart_vertex
    for a, b in d.planified.edge_darts:
        u, v = sorted((owner[a], owner[b]))
        lines.append(f"  v{u} -- v{v};")
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


def _tutte_positions(m: pm.PlaneMap, order: Sequence[int]) -> dict[int, tuple[float, float]]:
    """Barycentric layout per component; a longest face becomes the hull.

    Components are laid side by side.  A component with edges pins its
    hull's ring to a circle and places every other vertex at the mean of
    its neighbours (W. T. Tutte, *How to draw a graph*, Proc. London Math.
    Soc. 1963), by :func:`_solve`.

    No choice depends on a dart id, only on ``order``, the map's vertices
    in a total order, and on where each rotation starts, which a saved
    document keeps: a drawing and its document get one picture.  Read a
    face walk from one of its darts as the ranks (positions in ``order``)
    of the vertices it passes: the hull is the least reading of a longest
    face, and its ring starts where that reading starts.  Components, by
    their first vertex, and the rows of each interior go in ``order``.
    """
    rotations, owner, opp = m.rotations, m.dart_vertex, m.opposite
    roots = m.components
    rank = dict(zip(order, range(len(order))))
    comps: dict[int, list[int]] = {}
    for v in order:
        comps.setdefault(roots[v], []).append(v)
    longest: dict[int, list[tuple[int, ...]]] = {}  # each component's longest faces
    for walk in m.faces:
        root = roots[owner[walk[0]]]
        tied = longest.get(root)
        if tied is None or len(walk) > len(tied[0]):
            longest[root] = [walk]
        elif len(walk) == len(tied[0]):
            tied.append(walk)
    pos: dict[int, tuple[float, float]] = {}
    offset = 0.0
    for root, comp in comps.items():
        if root not in longest:
            for i, v in enumerate(comp):
                pos[v] = (offset + 30.0 * i, 0.0)
            offset += 30.0 * len(comp) + 60.0
            continue
        # The least reading starts at the least-ranked vertex on a tied
        # face: only the tied faces through it are read.
        tied = longest[root]
        on_tied = set().union(*tied)
        first = next(set(rotations[v]) for v in comp if not on_tied.isdisjoint(rotations[v]))
        readings = [walk[i:] + walk[:i] for walk in tied if not first.isdisjoint(walk)
                    for i, dart in enumerate(walk) if dart in first]
        hull = min(readings, key=lambda walk: [rank[owner[dart]] for dart in walk])
        ring = list(dict.fromkeys(owner[dart] for dart in hull))
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

    Coordinates come from a barycentric layout of the planified map with a
    largest face pinned as the outer polygon, chosen by vertex ids (see
    :func:`_tutte_positions`): a drawing and its saved document give the
    same picture.  The layout is presentation only and carries no
    certification weight.
    """
    m = d.planified
    # True vertices by id, then false vertices by their crossing: no map id.
    false = d.false_vertices
    pos = _tutte_positions(m, [*sorted(d.graph.vertices), *sorted(false, key=false.__getitem__)])
    xs = [p[0] for p in pos.values()] or [0.0]
    ys = [p[1] for p in pos.values()] or [0.0]
    pad = 20.0
    minx, miny = min(xs) - pad, min(ys) - pad
    width = max(xs) - min(xs) + 2 * pad
    height = max(ys) - min(ys) + 2 * pad

    cx = {v: f"{x - minx:.2f}" for v, (x, _) in pos.items()}
    cy = {v: f"{y - miny:.2f}" for v, (_, y) in pos.items()}
    g = d.graph
    black = g.black if isinstance(g, BipartiteGraph) else frozenset()
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">',
    ]
    crossed_at = {e: w for w, pair in false.items() for e in pair}
    for e in sorted(g.edges):
        a, b = e
        w = crossed_at.get(e)
        if w is None:
            cls, points = "plain", f"{cx[a]},{cy[a]} {cx[b]},{cy[b]}"
        else:
            cls, points = "crossed", f"{cx[a]},{cy[a]} {cx[w]},{cy[w]} {cx[b]},{cy[b]}"
        lines.append(f'  <polyline class="edge {cls}" points="{points}" '
                     'fill="none" stroke="#333" stroke-width="1.2"/>')
    for v in sorted(g.vertices):
        fill = "#000" if v in black else "#fff"
        lines.append(f'  <circle class="vertex" cx="{cx[v]}" cy="{cy[v]}" '
                     f'r="4" fill="{fill}" stroke="#000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
