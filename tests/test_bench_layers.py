"""The benchmark's span table names functions that exist in the program.

``bench/layers.py`` wraps each ``Span.source`` when the benchmark runs with
tracing; a source that no longer resolves breaks ``bench/run.py --trace 1``.
The file is read and executed here without being imported, so no bytecode
is written next to it.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


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
