"""Bipartite 1-crossing-per-edge graphs: generators, certification, bounds.

The package builds extremal bipartite graphs that admit plane drawings in
which every edge is crossed at most once, certifies the drawings purely
combinatorially, evaluates the known edge-count bounds, and includes a
brute-force oracle for small instances.
"""

__version__ = "0.1.0"

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
    crossing_count,
    recover_graph,
    validate,
)
from .constructions import (
    b_family,
    balanced,
    best_known,
    k36_family,
    near_balanced,
    stacked_triangulation,
    w3_family,
)
from .bounds import (
    SizeBounds,
    conjecture_gap,
    lower_bound,
    ratio_table,
    size_bounds,
    upper_bound,
)
from .oracle import (
    CrossingAssignment,
    gadget_planarize,
    is_one_planar,
    min_crossings,
    planarity_test,
)
from .formats import (
    document_to_drawing,
    drawing_to_document,
    export_dot,
    export_svg,
    load_drawing,
    parse_document,
    save_drawing,
)
