"""The layers the traced run measures, and what each should move.

Every span wraps one public function of the program.  ``moves`` names the
end-to-end metric (``<workload>.<metric>``) a change to that layer should
move; on every other workload the prediction is no change.  ``fires`` and
``bypassed`` list the workloads on which the span must record calls and
must record none; ``selftest.py`` checks both.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("build", "verify", "oracle")


@dataclass(frozen=True)
class Span:
    name: str                      # "<module>.<function>", also the metric prefix
    source: str                    # "<module>.<attribute>" of the wrapped function
    moves: str
    fires: tuple[str, ...]
    bypassed: tuple[str, ...]
    only_in: str | None = None     # wrap only this module's binding


SPANS = (
    Span("cli.main", "onecross.cli.main",
         "verify.wall_s, verify.item_p50_s (self_s: argparse is rebuilt on every call)",
         ("build", "verify"), ("oracle",)),
    Span("constructions.best_known", "onecross.constructions.best_known",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("constructions.w3_family", "onecross.constructions.w3_family",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("constructions.b_family", "onecross.constructions.b_family",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("constructions.balanced", "onecross.constructions.balanced",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("constructions.near_balanced", "onecross.constructions.near_balanced",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("sketch.compile_sketch", "onecross.sketch.compile_sketch",
         "build.wall_s (the all-pairs segment scan)", ("build",), ("verify", "oracle")),
    Span("drawing.augment_degree2", "onecross.drawing.augment_degree2",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("plane_map.insert_vertex_in_face", "onecross.plane_map.insert_vertex_in_face",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("drawing.remove_graph_vertex", "onecross.drawing.remove_graph_vertex",
         "build.wall_s, build.item_p50_s", ("build",), ("verify", "oracle")),
    Span("drawing.remove_graph_edge", "onecross.drawing.remove_graph_edge",
         "build.wall_s, build.item_p50_s", ("build",), ("verify", "oracle")),
    Span("plane_map.smooth_degree2", "onecross.plane_map.smooth_degree2",
         "build.wall_s, build.item_p50_s", ("build",), ("verify", "oracle")),
    Span("drawing.assemble_drawing", "onecross.drawing.assemble_drawing",
         "build.wall_s, build.item_p50_s (certifications per drawing)",
         ("build", "verify"), ("oracle",)),
    Span("drawing.validate", "onecross.drawing.validate",
         "verify.wall_s first, build.wall_s second", WORKLOADS, ()),
    Span("plane_map.euler_check", "onecross.plane_map.euler_check",
         "verify.wall_s first, build.wall_s second", WORKLOADS, ()),
    Span("plane_map.trace_faces", "onecross.plane_map.trace_faces",
         "build.wall_s (calls), verify.wall_s (self_s)", WORKLOADS, ()),
    Span("formats.document_to_drawing", "onecross.formats.document_to_drawing",
         "verify.wall_s, verify.item_p50_s", ("verify",), ("oracle",)),
    Span("formats.drawing_to_document", "onecross.formats.drawing_to_document",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("formats.dumps_document", "onecross.formats.dumps_document",
         "build.wall_s", ("build",), ("verify", "oracle")),
    Span("formats.export_svg", "onecross.formats.export_svg",
         "verify.wall_s, verify.item_p50_s", ("verify",), ("build", "oracle")),
    Span("oracle.min_crossings", "onecross.oracle.min_crossings",
         "oracle.wall_s", ("oracle",), ("build", "verify")),
    Span("oracle.is_one_planar", "onecross.oracle.is_one_planar",
         "oracle.wall_s, oracle.decided_share (self_s: enumeration)",
         ("oracle",), ("build", "verify")),
    Span("oracle.gadget_planarize", "onecross.oracle.gadget_planarize",
         "oracle.wall_s, oracle.decided_share", ("oracle",), ("build", "verify")),
    Span("oracle.planarity_test", "onecross.oracle.planarity_test",
         "oracle.wall_s, oracle.decided_share (self_s: graph rebuild and witness conversion)",
         ("oracle",), ("build", "verify")),
    Span("oracle.nx_check_planarity", "networkx.check_planarity",
         "oracle.wall_s, oracle.decided_share", ("oracle",), ("build", "verify"),
         only_in="onecross.oracle"),
    Span("oracle.assemble_drawing", "onecross.drawing.assemble_drawing",
         "oracle.wall_s (witness certifications)", ("oracle",), ("build", "verify"),
         only_in="onecross.oracle"),
)

# Ratios: (metric, numerator, denominator, unit, better, moves).  A
# numerator ending in ".calls" is a per-pass call count; "items" is the
# number of items in one pass; any other name is a tracer counter.
RATIOS = (
    ("plane_map.trace_faces.per_item", "plane_map.trace_faces.calls", "items",
     "count/item", "lower", "build.wall_s"),
    ("drawing.assemble_drawing.per_item", "drawing.assemble_drawing.calls", "items",
     "count/item", "lower", "build.wall_s, build.item_p50_s"),
    ("oracle.planarity_test.planar_share", "oracle.planarity_test.planar",
     "oracle.planarity_test.calls", "ratio", "higher", "oracle.wall_s"),
)

# Counters recorded at a span boundary: span name -> (counter, predicate on
# the wrapped function's result).
COUNTERS = {
    "oracle.planarity_test": ("oracle.planarity_test.planar", lambda result: result.planar),
}

TRACE_METRICS = (
    ("trace.wall_s", "s", "lower", "traced wall_s of the same workload"),
    ("trace.overhead_s", "s", "lower", "traced wall_s minus untraced wall_s"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    out = []
    for span in SPANS:
        out += [(f"{span.name}.calls", "count", "lower"),
                (f"{span.name}.total_s", "s", "lower"),
                (f"{span.name}.self_s", "s", "lower")]
    out += [(name, unit, better) for name, _, _, unit, better, _ in RATIOS]
    out += [(name, unit, better) for name, unit, better, _ in TRACE_METRICS]
    return out
