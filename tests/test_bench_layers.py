"""The benchmark's span table and probes name functions that exist in the program.

``bench/layers.py`` wraps each ``Span.source`` when the benchmark runs with
tracing; a source that no longer resolves breaks ``bench/run.py --trace 1``.
``bench/selftest.py`` checks that the wrappers replaced the bindings its
``probes`` name; a probe that no longer resolves breaks that check.  Both
files are read here without being imported, so no bytecode is written next
to them; the selftest itself runs in a child process that writes none.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
LAYERS = BENCH / "layers.py"


def _load_layers() -> types.ModuleType:
    module = types.ModuleType("bench_layers")
    module.__file__ = str(LAYERS)
    sys.modules[module.__name__] = module  # dataclasses look their module up here
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def _resolve(dotted: str):
    """The attribute a dotted path names, importing its longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ModuleNotFoundError(dotted)


SPANS = _load_layers().SPANS


@pytest.mark.parametrize("span", SPANS, ids=[s.name for s in SPANS])
def test_span_source_is_a_callable_of_the_program(span):
    assert callable(_resolve(span.source)), span.source
    if span.only_in is not None:
        importlib.import_module(span.only_in)


def _selftest_probes() -> dict[str, str]:
    """The ``probes`` dict of ``bench/selftest.py``: each key with its value's source."""
    source = (BENCH / "selftest.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "probes":
            return {ast.literal_eval(k): ast.get_source_segment(source, v)
                    for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError("bench/selftest.py has no probes dict")


PROBES = _selftest_probes()


@pytest.mark.parametrize("name", PROBES)
def test_selftest_probe_is_a_callable_of_the_program(name):
    from onecross import cli, constructions, oracle, sketch

    scope = {"cli": cli, "constructions": constructions, "oracle": oracle, "sketch": sketch}
    assert callable(eval(PROBES[name], scope)), PROBES[name]


# Spans of code that nothing in the program calls: the selftest's firing
# check reports each.  Deleting that code with its spans makes the
# selftest pass, and this test then expects exit 0.
DEAD_SPANS = [
    "plane_map.insert_vertex_in_face never fired on build",
    "drawing.remove_graph_vertex never fired on build",
    "drawing.remove_graph_edge never fired on build",
    "plane_map.smooth_degree2 never fired on build",
    "oracle.nx_check_planarity never fired on oracle",
]


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="bench/worker.py imports numpy, which is not installed")
def test_bench_selftest_fails_only_on_the_dead_spans():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, str(BENCH / "selftest.py")], cwd=BENCH.parent,
                         env=env, capture_output=True, text=True, timeout=120)
    out = run.stdout
    assert "bindings:\n  PASS\n" in out and "manifest:\n  PASS\n" in out, out + run.stderr
    fails = [line.strip().removeprefix("FAIL ") for line in out.splitlines()
             if line.strip().startswith("FAIL ")]
    assert (run.returncode, fails) == (1, DEAD_SPANS), out + run.stderr
