"""Self-test of the benchmark's tracing.  Run from the repository root:

    python3 bench/selftest.py

1. Every span wrapper replaces every binding of the function it wraps,
   including ``from x import f`` copies and module-level dicts.
2. On one traced pass of each workload, every span fires on the workloads
   ``layers.py`` says exercise it and records zero calls on the workloads it
   says bypass it.
3. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.

Exits 1 on the first failing section.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import layers
import run


def check_bindings(root: Path) -> list[str]:
    sys.path.insert(0, str(root / "src"))
    import spans
    from onecross import cli, constructions, oracle, sketch

    tracer = spans.Tracer()
    spans.install(tracer, layers.SPANS)  # raises if a binding escapes
    probes = {
        "constructions.compile_sketch": constructions.compile_sketch,
        "constructions._BUILDERS['w3']": constructions._BUILDERS["w3"],
        "cli.validate": cli.validate,
        "oracle.planarity_test": oracle.planarity_test,
        "oracle.assemble_drawing": oracle.assemble_drawing,
        "oracle.nx.check_planarity": oracle.nx.check_planarity,
        "sketch.trace_faces": sketch.trace_faces,
    }
    return [f"{name} is not wrapped" for name, fn in probes.items()
            if getattr(fn, "__wrapped__", None) is None]


def check_firing(root: Path) -> list[str]:
    problems = []
    env = run._child_env(root, seed=1)
    (root / ".bench_run").mkdir(exist_ok=True)
    for workload in layers.WORKLOADS:
        items = run.oracle_items(1) if workload == "oracle" else run.build_items(1)
        inputs = {"workload": workload, "seconds": 0, "items": items, "trace": 1}
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=root / ".bench_run"))
        try:
            if workload == "verify":
                run.run_worker("prepare", inputs, workdir, env)
            result = run.run_worker("measure", inputs, workdir, env)
            doc = json.loads((workdir / "spans.json").read_text())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        calls = run.layer_metrics(doc, len(result["pass_walls"]), len(items))
        for span in layers.SPANS:
            n = calls[f"{span.name}.calls"]
            if workload in span.fires and n == 0:
                problems.append(f"{span.name} never fired on {workload}")
            if workload in span.bypassed and n != 0:
                problems.append(f"{span.name} made {n:g} calls on {workload}, predicted 0")
        print(f"  {workload}: {sum(s['ok'] for s in result['samples'])} items ok")
    try:
        (root / ".bench_run").rmdir()
    except OSError:
        pass
    return problems


def check_manifest(root: Path) -> list[str]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if listed != list(run.END_TO_END_UNITS.items()):
        problems.append(f"end_to_end metrics {listed} differ from run.py")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != layers.per_layer_metrics():
        problems.append("per_layer metrics differ from layers.py")
    if [w["name"] for w in spec["workloads"]] != list(layers.WORKLOADS):
        problems.append("workloads differ from layers.py")
    return problems


def main() -> int:
    root = Path.cwd()
    for title, check in (("bindings", check_bindings), ("manifest", check_manifest),
                         ("firing", check_firing)):
        print(f"{title}:")
        problems = check(root)
        for problem in problems:
            print(f"  FAIL {problem}")
        if problems:
            return 1
        print("  PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
