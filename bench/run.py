"""The onecross benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {build,verify,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Workloads:

- ``build``: ``onecross construct --out`` through ``onecross.cli.main`` for
  the four largest reference sizes plus a seeded sample of 60 ``auto``
  size pairs (every x in 3..12, every residue of y mod 6).
- ``verify``: ``onecross verify --json`` and ``onecross export --format svg``
  over the documents of the same items, written by a separate process
  before the measured one starts.
- ``oracle``: five graphs with answers known from the Zarankiewicz crossing
  numbers, their vertex labels permuted by the seed.

Each run starts fresh processes only: a few that time ``import onecross``
(``setup_s``), for ``verify`` one that writes the documents, and one measured
worker (``worker.py``).  ``--trace 1`` runs the worker twice, untraced and
with every span in ``layers.py`` installed, and prints per-layer metrics.
Times are in reference seconds: measured seconds scaled by how fast the host
ran a fixed loop around each timed call (``calib.py``); the summary lines
give the measured seconds too.  The last line of standard output is the JSON
result; the lines before it give the environment and a readable summary.
Temporary files live in ``.bench_run/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calib import REFERENCE_S, reference_loop, reference_seconds
from layers import RATIOS, SPANS, per_layer_metrics
from reference import (
    FIXED_BUILD_ITEMS,
    X_RANGE,
    y_range,
    zarankiewicz_bipartite,
    zarankiewicz_complete,
)

BENCH = Path(__file__).resolve().parent
SETUP_PROBES = 11
RUN_LIMIT_S = 175  # a whole run, children included, ends within this
ORACLE_TIME_LIMIT_S = 10.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_share": "ratio",
    "decided_share": "ratio",
}


# -- inputs --------------------------------------------------------------------


def build_items(seed: int) -> list[dict]:
    """The fixed sizes plus 60 seeded ``auto`` pairs.

    For every x, each residue of y mod 6 is drawn once: the residue of x
    itself takes the diagonal y = x (the balanced family); the other five
    take, in increasing order, one fifth each of x < y <= 6x, and the seed
    picks y inside that fifth.  Fixing which residue lands in which fifth
    keeps the cost profile of every sample alike (the residue decides how
    much surgery a b-family member needs), so runs differ in their inputs
    but not in their median item.
    """
    rng = random.Random(seed)
    items = [{"family": f, "x": x, "y": y} for f, x, y in FIXED_BUILD_ITEMS]
    for x in X_RANGE:
        ys = {x % 6: x}
        others = [r for r in range(6) if r != x % 6]
        for band, r in enumerate(others):
            lo = x + 1 + band * x
            pool = [y for y in y_range(x) if y > x and y % 6 == r]
            gap = {y: max(lo - y, y - (lo + x - 1), 0) for y in pool}  # 0 inside the band
            ys[r] = rng.choice([y for y in pool if gap[y] == min(gap.values())])
        items += [{"family": "auto", "x": x, "y": ys[r]} for r in range(6)]
    for i, item in enumerate(items):
        item.update(index=i, name=f"{item['family']}({item['x']},{item['y']})")
    return items


def _complete_bipartite(a: int, b: int, rng: random.Random) -> dict:
    labels = rng.sample(range(a + b), a + b)
    black, white = labels[:a], labels[a:]
    return {"black": black, "white": white, "vertices": None,
            "edges": [[u, v] for u in black for v in white],
            "zarankiewicz": zarankiewicz_bipartite(a, b)}


def _complete(n: int, rng: random.Random) -> dict:
    labels = rng.sample(range(n), n)
    return {"black": None, "white": None, "vertices": labels,
            "edges": [[u, v] for i, u in enumerate(labels) for v in labels[i + 1:]],
            "zarankiewicz": zarankiewicz_complete(n)}


def oracle_items(seed: int) -> list[dict]:
    rng = random.Random(seed)
    specs = [
        ("k34_b2", _complete_bipartite(3, 4, rng), "is_one_planar", 2, None),
        ("k6_b3", _complete(6, rng), "is_one_planar", 3, None),
        ("k44_min4", _complete_bipartite(4, 4, rng), "min_crossings", 4, None),
        ("k35_b3", _complete_bipartite(3, 5, rng), "is_one_planar", 3, None),
        ("k37_b6", _complete_bipartite(3, 7, rng), "is_one_planar", 6, ORACLE_TIME_LIMIT_S),
    ]
    return [dict(graph, name=name, call=call, budget=budget, time_limit=limit)
            for name, graph, call, budget, limit in specs]


# -- processes -------------------------------------------------------------------


_DEADLINE = time.monotonic() + RUN_LIMIT_S


def _run(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    """Run a child to completion; past the run's deadline it is killed and reaped."""
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=False,
                          timeout=max(1.0, _DEADLINE - time.monotonic()))


def _child_env(root: Path, seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)  # a seed repeats its run exactly
    # One client on one thread: numpy's BLAS pool would otherwise add a
    # second thread, used only by the SVG layout, whose speed depends on
    # what else runs on the other core.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time of ``import onecross`` over fresh processes.

    Returns it in reference seconds and as measured; the host's speed is
    gauged before the first probe and after each one.
    """
    probe = ("import time; t = time.perf_counter(); import onecross; "
             "print(time.perf_counter() - t)")
    times, raw = [], []
    gauge = reference_loop()
    for i in range(SETUP_PROBES + 1):
        proc = _run([sys.executable, "-c", probe], env)
        if proc.returncode != 0:
            raise RuntimeError(f"import onecross failed: {proc.stderr.strip()}")
        after = reference_loop()
        if i:  # the first probe also writes the bytecode cache
            raw.append(float(proc.stdout))
            times.append(reference_seconds(raw[-1], gauge, after))
        gauge = after
    return statistics.median(times), statistics.median(raw)


def run_worker(mode: str, inputs: dict, workdir: Path, env: dict) -> dict | None:
    path = workdir / "inputs.json"
    path.write_text(json.dumps(inputs))
    proc = _run([sys.executable, str(BENCH / "worker.py"), mode, str(path), str(workdir)],
                env)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    if mode == "prepare":
        return None
    return json.loads((workdir / "result.json").read_text())


# -- metrics ---------------------------------------------------------------------


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; times are in reference seconds (``calib.py``)."""
    samples = result["samples"]
    failed = sum(not s["ok"] for s in samples)
    return {
        "wall_s": statistics.median(result["pass_walls"]),
        "item_p50_s": statistics.median(s["seconds"] for s in samples),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "passed_share": 1.0 - failed / len(samples),
        "decided_share": sum(s["decided"] for s in samples) / len(samples),
    }


def layer_metrics(doc: dict, passes: int, items_per_pass: int,
                  samples: list[dict] | None = None) -> dict[str, float]:
    """Per-pass calls, total and self time of every span name, plus ratios.

    Self time is a span's duration minus the durations of its direct
    children.  Total time counts only spans not nested inside a span of the
    same name, so recursion is not counted twice.  Given the traced run's
    ``samples``, every span is scaled as its item was, so that span times
    are reference seconds like ``trace.wall_s``.
    """
    names, spans = doc["names"], doc["spans"]
    if samples is not None:
        scale = [s["seconds"] / s["raw_seconds"] if s["raw_seconds"] else 1.0 for s in samples]
        factor = lambda item: scale[item] if item >= 0 else 1.0  # -1: outside any item
        spans = [(nid, start * factor(item), end * factor(item), parent, item)
                 for nid, start, end, parent, item in spans]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    agg = {name: [0, 0.0, 0.0] for name in names}
    for i, (nid, start, end, parent, _) in enumerate(spans):
        row = agg[names[nid]]
        row[0] += 1
        row[2] += end - start - child[i]
        while parent >= 0 and spans[parent][0] != nid:
            parent = spans[parent][3]
        if parent < 0:
            row[1] += end - start
    out = {}
    for span in SPANS:
        calls, total, self_s = agg[span.name]
        out[f"{span.name}.calls"] = calls / passes
        out[f"{span.name}.total_s"] = total / passes
        out[f"{span.name}.self_s"] = self_s / passes
    for name, numerator, denominator, *_ in RATIOS:
        num = out[numerator] if numerator in out else doc["counters"][numerator] / passes
        den = items_per_pass if denominator == "items" else out[denominator]
        out[name] = num / den if den else 0.0
    return out


def _git_commit(root: Path) -> str:
    try:
        proc = _run(["git", "-C", str(root), "rev-parse", "HEAD"], dict(os.environ))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# -- main --------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["build", "verify", "oracle"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "onecross" / "__init__.py").is_file():
        print("bench: run from the repository root; src/onecross is missing", file=sys.stderr)
        return 2

    items = oracle_items(args.seed) if args.workload == "oracle" else build_items(args.seed)
    inputs = {"workload": args.workload, "seconds": args.seconds, "items": items,
              "trace": 0}
    env = _child_env(root, args.seed)
    (root / ".bench_run").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / ".bench_run"))
    try:
        # Set-up is timed first, before anything else of the run, so that it
        # meets the same state of the host on every workload.
        setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(env)
        if args.workload == "verify":
            run_worker("prepare", inputs, workdir, env)
        result = run_worker("measure", inputs, workdir, env)
        metrics = end_to_end(result, setup_s)
        if args.trace:
            traced = run_worker("measure", dict(inputs, trace=1), workdir, env)
            spans_doc = json.loads((workdir / "spans.json").read_text())
            layers = layer_metrics(spans_doc, len(traced["pass_walls"]), len(items),
                                   traced["samples"])
            traced_wall = statistics.median(traced["pass_walls"])
            layers["trace.wall_s"] = traced_wall
            layers["trace.overhead_s"] = traced_wall - metrics["wall_s"]
            result = dict(traced, samples=result["samples"] + traced["samples"],
                          errors=result["errors"] + traced["errors"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (root / ".bench_run").rmdir()
        except OSError:
            pass  # another run still holds its own directory there

    samples = result["samples"]
    failed = sum(not s["ok"] for s in samples)
    env_record = dict(result["versions"], nproc=os.cpu_count(), commit=_git_commit(root),
                      seed=args.seed, workload=args.workload, seconds=args.seconds,
                      trace=args.trace, passes=len(result["pass_walls"]),
                      items_per_pass=len(items), reference_loop_s=REFERENCE_S,
                      host_loop_median_s=statistics.median(result["gauges"]))
    print("env " + json.dumps(env_record, sort_keys=True))
    for error in result["errors"]:
        print(f"FAILED {error}")
    if args.trace:
        units = {name: unit for name, unit, _ in per_layer_metrics()}
        out = {name: {"value": layers[name], "unit": units[name]} for name in units}
    else:
        out = {name: {"value": metrics[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    measured = {
        "wall_s": statistics.median(result["raw_pass_walls"]),
        "item_p50_s": statistics.median(s["raw_seconds"] for s in samples),
        "setup_s": raw_setup_s,
    }
    print(f"{args.workload}: failed_share = {failed / len(samples):.6g} ratio "
          f"({failed} of {len(samples)} items)")
    for name, metric in out.items():
        note = ""
        if name in measured and measured[name] is not None:
            note = f" (reference seconds; measured {measured[name]:.6g} s)"
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
