"""In-memory span recorder and the wrappers that feed it.

A span is ``[name id, start, end, parent span index, item id]``.  Spans are
appended in start order and kept in memory; the worker writes them out when
the run ends.  Wrapping a function replaces every binding of it: the
defining module's attribute, each ``from x import f`` copy in another
module, and each module-level dict that holds it, so calls through any of
them are recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import ModuleType
from typing import Any, Callable, Iterable

from layers import COUNTERS, Span


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counters[counter[0]] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None and counter[1](result):
                self.counters[counter[0]] += 1
            return result

        return traced

    def dump(self) -> dict[str, Any]:
        return {"names": self.names, "spans": self.spans, "counters": self.counters}


class _ModuleView:
    """Stands in for a module inside one importer, overriding some attributes."""

    def __init__(self, module: ModuleType, **overrides: Any) -> None:
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def _program_modules() -> list[ModuleType]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "onecross" or n.startswith("onecross."))]


def _bindings(modules: Iterable[ModuleType]):
    """Yield (namespace, key) for every module-level name and dict entry."""
    for module in modules:
        space = vars(module)
        for key, value in list(space.items()):
            yield space, key
            if isinstance(value, dict):
                for k in list(value):
                    yield value, k


def _resolve(source: str) -> tuple[ModuleType, str]:
    module, _, attr = source.rpartition(".")
    return importlib.import_module(module), attr


def install(tracer: Tracer, spans: Iterable[Span]) -> None:
    """Wrap every listed function; raise if any binding escapes its wrapper."""
    importlib.import_module("onecross.cli")
    spans = sorted(spans, key=lambda s: s.only_in is None)  # single bindings first
    modules = _program_modules()
    originals = []
    for span in spans:
        home, attr = _resolve(span.source)
        original = getattr(home, attr)
        wrapped = tracer.wrap(span.name, original)
        if span.only_in is None:
            targets = [(space, key) for space, key in _bindings(modules)
                       if space[key] is original]
            originals.append((span.name, original))
        else:
            # A function reached as an attribute of an imported module is
            # wrapped through a view of that module, local to the importer.
            importer = vars(importlib.import_module(span.only_in))
            targets = [(importer, key) for key, value in importer.items()
                       if value is original or value is home]
        if not targets:
            raise RuntimeError(f"span {span.name}: no binding of {span.source} found")
        for space, key in targets:
            space[key] = wrapped if space[key] is original else _ModuleView(home, **{attr: wrapped})
    for name, original in originals:
        for space, key in _bindings(modules):
            if space[key] is original:
                raise RuntimeError(f"span {name}: binding {key!r} still holds the original")
