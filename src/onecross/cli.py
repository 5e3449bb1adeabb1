"""Command-line surface: construct, verify, bounds, table, oracle, export.

Exit codes: 0 success/pass/yes, 1 failure/no, 2 input error, 3 budget
exhausted / unknown.  Exit 2 covers a usage error, an unreadable or
unparseable document, invalid arguments (such as a negative budget or
timeout), an unreadable checkpoint or one the search could not have
written, and an output file or checkpoint that cannot be written.  Each
prints a message on standard error and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

# bounds and the oracle are imported inside the commands that run them.
# constructions and formats stay here: bench/worker.py clears, before each
# item, the functools caches of the modules loaded when it starts, so a
# cached module first imported by a command would keep its cache.
from . import constructions as cons
from .drawing import BipartiteGraph, DrawingError, Graph, validate
from .formats import (FormatError, export_dot, export_svg, load_drawing, parse_document,
                      read_document, save_drawing)

_FAMILIES = {
    "w3": lambda x, y: cons.w3_family(x, y),
    "b": lambda x, y: cons.b_family(x, y),
    "balanced": lambda x, y: cons.balanced(x),
    "near": lambda x, y: cons.near_balanced(x, y),
    "k36": lambda x, y: cons.k36_family(y),
}


class _CannotWrite(Exception):
    """An output file or checkpoint could not be written (exit 2)."""


def _error(message: object) -> int:
    """Print ``message`` as an input error and return its exit code, 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


@contextmanager
def _writing(path: str | None):
    """Report an ``OSError`` raised inside the block as a failed write of ``path``."""
    try:
        yield
    except OSError as exc:
        raise _CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


def _cmd_construct(args: argparse.Namespace) -> int:
    x, y = args.x, args.y
    if args.family == "auto":
        best = cons.best_known(x, y)
        drawing, family = best.drawing, best.family
    else:
        if args.family == "balanced" and x != y:
            return _error("balanced family needs x == y")
        if args.family == "k36" and x != 3:
            return _error("the k36 family fixes x = 3")
        drawing = _FAMILIES[args.family](x, y)
        family = args.family
    info = {
        "family": family,
        "x": drawing.x,
        "y": drawing.y,
        "n": drawing.vertex_count,
        "edges": drawing.edge_count,
        "crossings": len(drawing.crossings),
    }
    if args.out:
        with _writing(args.out):
            save_drawing(drawing, args.out, {"generator": family, "params": {"x": x, "y": y}})
        info["out"] = args.out
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"family={family} n={info['n']} edges={info['edges']} "
              f"crossings={info['crossings']}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # One validation lists every failure; an unparseable document exits 2.
    report = validate(parse_document(read_document(args.file)))
    payload = {
        "passed": report.passed,
        "failures": list(report.failures),
        "x": report.x,
        "y": report.y,
        "n": report.vertices,
        "edges": report.edges,
        "crossings": report.crossings,
        "crossing_ceiling": report.crossing_ceiling,
        "exceeds_minimal_bound": report.exceeds_minimal_bound,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} n={report.vertices} edges={report.edges} "
              f"crossings={report.crossings}")
        for f in report.failures:
            print(f"  - {f}")
    return 0 if report.passed else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds as bounds_mod

    sb = bounds_mod.size_bounds(args.x, args.y)
    if args.json:
        print(json.dumps(sb._asdict(), sort_keys=True))
    elif args.csv:
        writer = csv.writer(sys.stdout)
        data = sb._asdict()
        writer.writerow(data.keys())
        writer.writerow(data.values())
    else:
        for k, v in sb._asdict().items():
            print(f"{k}={v}")
    return 0


def _table_rows(xmax: int, ymax: int, conjecture: bool):
    from . import bounds as bounds_mod

    for x in range(1, xmax + 1):
        for y in range(x, ymax + 1):
            if conjecture:
                if bounds_mod.size_bounds(x, y).conjecture_bound is None:
                    continue
                gap = bounds_mod.conjecture_gap(x, y)
                yield {
                    "x": x, "y": y,
                    "lower": gap.constructive_lower,
                    "conjectured_upper": gap.conjectured_upper,
                    "proven_upper": gap.proven_upper,
                    "open_interval": list(gap.open_interval),
                    "conjecture_tight": gap.conjecture_tight,
                }
            else:
                lo = bounds_mod.lower_bound(x, y)
                up = bounds_mod.upper_bound(x, y)
                yield {"x": x, "y": y, "lower": lo, "upper": up, "gap": up - lo}


def _cmd_table(args: argparse.Namespace) -> int:
    rows = list(_table_rows(args.xmax, args.ymax, args.conjecture))
    if args.json:
        print(json.dumps(rows))
    else:
        writer = csv.writer(sys.stdout)
        if rows:
            writer.writerow(rows[0].keys())
            for row in rows:
                writer.writerow(row.values())
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import OracleError, is_one_planar

    if args.complete_bipartite:
        a, b = args.complete_bipartite
        if a < 0 or b < 0:
            return _error("--complete-bipartite sizes must be nonnegative")
        blacks = list(range(a))
        whites = list(range(a, a + b))
        graph: Graph | BipartiteGraph = BipartiteGraph.make(
            blacks, whites, [(i, j) for i in blacks for j in whites])
    elif args.file:
        graph = load_drawing(args.file).graph
    else:
        return _error("oracle needs FILE or --complete-bipartite")
    try:
        with _writing(args.checkpoint):
            res = is_one_planar(graph, args.budget, timeout=args.timeout,
                                checkpoint=args.checkpoint)
    except OracleError as exc:  # invalid arguments or checkpoint
        return _error(exc)
    payload = {
        "verdict": res.verdict,
        "crossings": res.crossings,
        "assignments_tested": res.assignments_tested,
        "stats": res.stats.to_json(),
    }
    if args.out and res.drawing is not None:
        with _writing(args.out):
            save_drawing(res.drawing, args.out)
        payload["out"] = args.out
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        extra = f" crossings={res.crossings}" if res.crossings is not None else ""
        print(f"{res.verdict}{extra} (assignments tested: {res.assignments_tested})")
    return {"yes": 0, "no": 1, "unknown": 3}[res.verdict]


def _cmd_export(args: argparse.Namespace) -> int:
    drawing = load_drawing(args.file)
    text = export_dot(drawing) if args.format == "dot" else export_svg(drawing)
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onecross",
        description="Extremal bipartite graphs drawable with one crossing per edge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a certified drawing")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--family", choices=["auto", *sorted(_FAMILIES)], default="auto")
    p.add_argument("--out", help="write the drawing document here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="validate a drawing document")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="bound evaluations for one size pair")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("table", help="lower/upper grid, optionally conjecture rows")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--ymax", type=int, required=True)
    p.add_argument("--conjecture", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", help="exhaustively decide 1-crossing drawability")
    p.add_argument("file", nargs="?")
    p.add_argument("--complete-bipartite", nargs=2, type=int, metavar=("A", "B"))
    p.add_argument("--budget", type=int,
                   help="most crossings to try (default: the crossing cap, two less "
                        "than the number of vertices with an edge)")
    p.add_argument("--timeout", type=float)
    p.add_argument("--checkpoint")
    p.add_argument("--out", help="write the witness drawing here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export", help="render a drawing document")
    p.add_argument("file")
    p.add_argument("--format", choices=["dot", "svg"], required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Every call parses with the one parser built when this module is
    imported: ``parse_args`` does not change the parser and returns a fresh
    namespace each time, so no call sees another's arguments.
    """
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DrawingError, FormatError, _CannotWrite) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
