"""The measured process of one benchmark run, and the input preparer.

    worker.py prepare INPUTS DIR   write the verify workload's documents
    worker.py measure INPUTS DIR   run the workload, write DIR/result.json

``measure`` reads the items from INPUTS and runs them one after another
(one closed-loop client, no threads) in passes over the item list until
the run's seconds are spent, always finishing the pass it is in.  Each item
starts with every ``functools`` cache of the program cleared, as a fresh
``onecross`` command would.  Only the call into the program is timed; the
check of its output follows outside the timed region.  Runs of
``calib.reference_loop`` gauge the host's speed at the start and then every
half second of items and at the end of each pass; every item's time is
reported as measured and in reference seconds (see ``calib.py``), against
the gauges on either side of it; an item cut off by its time limit keeps
its measured time in both.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import networkx
import numpy

import onecross
from onecross import cli, oracle
from onecross.bounds import upper_bound
from onecross.drawing import BipartiteGraph, Graph, validate

from calib import reference_loop, reference_seconds
from reference import build_key, closed_form_edges, load_expected_build


GAUGE_EVERY_S = 0.5  # the host's speed is gauged after at most this much work


class CheckFailed(Exception):
    pass


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _program_caches() -> list:
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("onecross"):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                seen[id(value)] = value
    return list(seen.values())


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# -- build -------------------------------------------------------------------


def _construct_argv(item: dict, out: Path) -> list[str]:
    return ["construct", "--x", str(item["x"]), "--y", str(item["y"]),
            "--family", item["family"], "--out", str(out), "--json"]


def _run_build(item: dict, workdir: Path):
    return _cli(_construct_argv(item, workdir / f"build_{item['index']}.json"))


def _check_build(item: dict, outcome, expected: dict) -> bool:
    code, text = outcome
    _check(code == 0, f"construct exited {code}")
    info = json.loads(text)
    x, y = item["x"], item["y"]
    family, edges, crossings = expected[build_key(item["family"], x, y)]
    _check(info["family"] == family, f"family {info['family']} != {family}")
    _check(info["edges"] == edges == closed_form_edges(family, x, y),
           f"edges {info['edges']} != closed form {closed_form_edges(family, x, y)}")
    _check(info["crossings"] == crossings, f"crossings {info['crossings']} != {crossings}")
    _check((info["x"], info["y"]) == (x, y), f"classes {info['x']},{info['y']} != {x},{y}")
    _check(edges <= upper_bound(x, y), f"edges {edges} above upper bound {upper_bound(x, y)}")
    return True


# -- verify ------------------------------------------------------------------


def _run_verify(item: dict, workdir: Path):
    doc = str(workdir / f"doc_{item['index']}.json")
    return _cli(["verify", doc, "--json"]), _cli(["export", doc, "--format", "svg"])


def _check_verify(item: dict, outcome, records: dict) -> bool:
    (code, text), (svg_code, svg) = outcome
    _check(code == 0, f"verify exited {code}")
    report = json.loads(text)
    record = records[str(item["index"])]
    _check(report["passed"], f"verify failed: {report['failures']}")
    for key in ("x", "y", "edges", "crossings"):
        _check(report[key] == record[key], f"{key} {report[key]} != build record {record[key]}")
    _check(svg_code == 0 and svg.lstrip().startswith("<svg") and "</svg>" in svg,
           "export produced no svg")
    return True


# -- oracle ------------------------------------------------------------------


def _oracle_graph(item: dict):
    edges = [tuple(e) for e in item["edges"]]
    if item["black"] is not None:
        return BipartiteGraph.make(item["black"], item["white"], edges)
    return Graph.make(item["vertices"], edges)


def _run_oracle(item: dict, graph):
    if item["call"] == "min_crossings":
        return oracle.min_crossings(graph, item["budget"])
    return oracle.is_one_planar(graph, item["budget"], timeout=item["time_limit"])


def _check_oracle(item: dict, outcome, graph) -> bool:
    """Checks the answer against ``item["zarankiewicz"]``; returns decided."""
    z, budget = item["zarankiewicz"], item["budget"]
    if item["call"] == "min_crossings":
        _check(outcome == z, f"min_crossings {outcome} != {z}")
        return True
    if z > budget:
        _check(outcome.verdict != "yes", "yes below the crossing number")
        if item["time_limit"] is None:
            _check(outcome.verdict == "no", f"verdict {outcome.verdict} without a time limit")
        return outcome.verdict == "no"
    _check(outcome.verdict == "yes", f"verdict {outcome.verdict}, expected yes")
    _check(outcome.crossings == z, f"crossings {outcome.crossings} != {z}")
    witness = outcome.drawing
    report = validate(witness)
    _check(report.passed, f"witness failed validation: {report.failures}")
    _check(len(witness.crossings) <= budget, "witness over budget")
    _check(witness.graph.edges == graph.edges, "witness draws another graph")
    return True


# -- entry points ------------------------------------------------------------


def prepare(inputs: dict, workdir: Path) -> None:
    """Write each verify item's document and its build record."""
    records = {}
    for item in inputs["items"]:
        code, text = _cli(_construct_argv(item, workdir / f"doc_{item['index']}.json"))
        if code != 0:
            raise SystemExit(f"prepare: construct {item} exited {code}")
        records[item["index"]] = json.loads(text)
    (workdir / "records.json").write_text(json.dumps(records))


def measure(inputs: dict, workdir: Path) -> dict:
    workload, items, seconds = inputs["workload"], inputs["items"], inputs["seconds"]
    caches = _program_caches()
    tracer = None
    if inputs["trace"]:
        import layers
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, layers.SPANS)

    if workload == "build":
        expected = load_expected_build()
        run = lambda item: _run_build(item, workdir)
        check = lambda item, out: _check_build(item, out, expected)
    elif workload == "verify":
        records = json.loads((workdir / "records.json").read_text())
        run = lambda item: _run_verify(item, workdir)
        check = lambda item, out: _check_verify(item, out, records)
    else:
        graphs = {item["name"]: _oracle_graph(item) for item in items}
        run = lambda item: _run_oracle(item, graphs[item["name"]])
        check = lambda item, out: _check_oracle(item, out, graphs[item["name"]])

    samples, pass_walls, raw_pass_walls, gauges, errors = [], [], [], [], []
    pending = []  # samples timed since the host's speed was last gauged
    gauge, gauged_at = reference_loop(), time.perf_counter()
    start = time.perf_counter()
    while not pass_walls or time.perf_counter() - start < seconds:
        first = len(samples)
        for i, item in enumerate(items):
            for cache in caches:
                cache.cache_clear()
            if tracer is not None:
                tracer.item = len(samples)
            elapsed = None
            t0 = time.perf_counter()
            try:
                outcome = run(item)
                elapsed = time.perf_counter() - t0
                decided, ok, error = check(item, outcome), True, None
            except Exception as exc:  # a raising item or a failed check counts as failed
                if elapsed is None:
                    elapsed = time.perf_counter() - t0
                decided, ok = False, False
                error = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc(limit=3)
            # A call cut off by its time limit lasts as long as the limit on any
            # host, so its time stays as measured.
            cut_off = ok and not decided and item.get("time_limit") is not None
            sample = {"name": item["name"], "raw_seconds": elapsed, "ok": ok,
                      "decided": decided, "cut_off": cut_off}
            samples.append(sample)
            pending.append(sample)
            if error is not None:
                errors.append(f"{item['name']}: {error}")
            if i == len(items) - 1 or time.perf_counter() - gauged_at >= GAUGE_EVERY_S:
                after = reference_loop()
                for done in pending:
                    done["seconds"] = (done["raw_seconds"] if done["cut_off"] else
                                       reference_seconds(done["raw_seconds"], gauge, after))
                gauges.append(after)
                gauge, gauged_at, pending = after, time.perf_counter(), []
        pass_walls.append(sum(s["seconds"] for s in samples[first:]))
        raw_pass_walls.append(sum(s["raw_seconds"] for s in samples[first:]))

    if tracer is not None:
        (workdir / "spans.json").write_text(json.dumps(tracer.dump()))
    return {
        "samples": samples,
        "pass_walls": pass_walls,
        "raw_pass_walls": raw_pass_walls,
        "gauges": gauges,
        "items_per_pass": len(items),
        "errors": errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "onecross": onecross.__version__,
                     "networkx": networkx.__version__, "numpy": numpy.__version__},
    }


def main() -> None:
    mode, inputs_path, workdir = sys.argv[1], Path(sys.argv[2]), Path(sys.argv[3])
    inputs = json.loads(inputs_path.read_text())
    if mode == "prepare":
        prepare(inputs, workdir)
    else:
        result = measure(inputs, workdir)
        (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
