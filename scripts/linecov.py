#!/usr/bin/env python3
"""List the lines of ``src/onecross`` that the tier-1 suite never runs.

    python3 scripts/linecov.py [pytest args...]

runs the tier-1 suite (``tests/``, or the pytest arguments given) in this
process with a line tracer installed by ``sys.settrace`` and
``threading.settrace`` on every frame whose code lies under
``src/onecross/``.  The executable lines of each module are the line
numbers of its compiled code objects (``co_lines``, nested code
included).  Each one that never ran prints as ``file:line: source``,
unless the allowlist below names it: those lines run only in a
subprocess, which the tracer does not follow.  The exit status is 0 when
the suite passed and no line outside the allowlist is unrun, else 1.

The script is opt-in and stdlib only: neither the tests nor the benchmark
run it, and the traced suite takes about three times as long as the plain
one.  The trace functions are module-level functions, not closures, so
tracing builds no reference cycle and ``tests/test_cli_gc.py`` still
holds under it.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "onecross"

# (module file, stripped source line or None for the whole file) -> why only
# a subprocess runs it.
ALLOWLIST = {
    ("__main__.py", None): "runs only as `python -m onecross`",
    ("cli.py", "sys.exit(main())"): "runs only when cli.py is the main script",
    ("__init__.py", 'return getattr(_import_module(f".{module}", __name__), name)'):
        "tests reach lazy names from a fresh interpreter (tests/test_imports.py)",
    ("__init__.py", "return sorted({*globals(), *_LAZY})"):
        "tests call dir(onecross) from a fresh interpreter (tests/test_imports.py)",
}

_hits: dict[str, set[int]] = {}  # traced file -> the line numbers that ran
_traced: dict[str, bool] = {}    # code file -> whether it lies in the package


def _local(frame: types.FrameType, event: str, arg: object):
    _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame: types.FrameType, event: str, arg: object):
    name = frame.f_code.co_filename
    wanted = _traced.get(name)
    if wanted is None:
        wanted = _traced[name] = Path(os.path.realpath(name)).parent == PACKAGE
        if wanted:
            _hits.setdefault(name, set())
    if not wanted:
        return None
    _hits[name].add(frame.f_lineno)
    return _local


def executable_lines(path: Path) -> set[int]:
    """The line numbers the compiler gives the code of ``path``."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def unrun_lines() -> list[tuple[Path, int, str]]:
    """Every executable line that did not run, in file and line order."""
    ran: dict[Path, set[int]] = {}
    for name, lines in _hits.items():
        ran.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            out.append((path, line, source[line - 1].strip()))
    return out


def main(argv: list[str]) -> int:
    if any(name == "onecross" or name.startswith("onecross.") for name in sys.modules):
        raise SystemExit("onecross is already imported; its module lines would not be traced")
    import pytest

    os.chdir(ROOT)
    start = time.perf_counter()
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    elapsed = time.perf_counter() - start
    unrun = allowed = 0
    for path, line, text in unrun_lines():
        if (path.name, None) in ALLOWLIST or (path.name, text) in ALLOWLIST:
            allowed += 1
            continue
        unrun += 1
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"linecov: {unrun} unrun lines, {allowed} allowlisted; pytest exit {int(status)}, "
          f"traced suite {elapsed:.1f} s")
    return 0 if status == 0 and unrun == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
