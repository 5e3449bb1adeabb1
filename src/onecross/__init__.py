"""Bipartite 1-crossing-per-edge graphs: generators, certification, bounds.

The package builds extremal bipartite graphs that admit plane drawings in
which every edge is crossed at most once, certifies the drawings purely
combinatorially, evaluates the known edge-count bounds, and includes a
brute-force oracle for small instances.

Importing the package loads the certifier alone: ``plane_map`` and
``drawing``, whose names are bound here.  Every other public name (the
generators of ``constructions``, ``bounds``, the ``oracle`` and
``formats``) is listed in ``_LAZY`` and imported from its module on first
access, through the module ``__getattr__`` of PEP 562.  The lookup binds
nothing here, so each access reads the module's attribute as it is then.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .plane_map import (
    EulerReport,
    MapError,
    PlaneMap,
    build_map,
    euler_check,
    insert_vertex_in_face,
    smooth_degree2,
    trace_faces,
)
from .drawing import (
    BipartiteGraph,
    DrawingError,
    Graph,
    OnePlanarDrawing,
    ValidationReport,
    assemble_drawing,
    augment_degree2,
    black_extension,
    certify,
    validate,
)

_LAZY = {
    **dict.fromkeys(["b_family", "balanced", "best_known", "k36_family", "near_balanced",
                     "stacked_triangulation", "w3_family"], "constructions"),
    **dict.fromkeys(["SizeBounds", "conjecture_gap", "lower_bound", "ratio_table",
                     "size_bounds", "upper_bound"], "bounds"),
    **dict.fromkeys(["gadget_planarize", "is_one_planar", "min_crossings",
                     "planarity_test"], "oracle"),
    **dict.fromkeys(["document_to_drawing", "drawing_to_document", "export_dot",
                     "export_svg", "load_drawing", "parse_document", "save_drawing"],
                    "formats"),
}

__all__ = [
    "EulerReport", "MapError", "PlaneMap", "build_map", "euler_check",
    "insert_vertex_in_face", "smooth_degree2", "trace_faces",
    "BipartiteGraph", "DrawingError", "Graph", "OnePlanarDrawing", "ValidationReport",
    "assemble_drawing", "augment_degree2", "black_extension", "certify", "validate",
    *_LAZY,
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
