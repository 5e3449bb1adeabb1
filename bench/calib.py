"""How fast the host runs right now, gauged by a fixed pure-Python loop.

The benchmark's host is a share of a machine whose speed for one thread
changes by up to about 1.5x over seconds to minutes.  A time measured on it says as much about that as about the
program.  So every timed call is bracketed by runs of ``reference_loop``,
which does the same work each time and touches nothing of the program, and
the benchmark reports

    reference seconds = measured seconds * REFERENCE_S / reference loop time

that is, the time the call would take on a host where the loop takes
``REFERENCE_S``.  A change to the program moves the measured seconds and
not the loop, so it moves the reference seconds in the same proportion.
"""

from __future__ import annotations

import gc
import statistics
import time

# The loop's median on the host the benchmark was tuned on (2 vCPUs of an
# Intel Xeon, CPython 3.11), so reference seconds read close to measured ones.
REFERENCE_S = 0.0065

_ROUNDS = 10000


def _work() -> int:
    # Tuples, dict stores and lookups, list growth, integer arithmetic and a
    # sort: the operations the program's pure-Python layers spend time on.
    table: dict[tuple[int, int], int] = {}
    order = []
    for i in range(_ROUNDS):
        key = (i % 101, i // 101)
        table[key] = table.get((key[0], key[1] - 1), i) * 31 % 1009
        order.append(key)
    order.sort(key=table.__getitem__)
    return len(order)


def reference_loop() -> float:
    """Seconds the fixed loop takes now: the median of three runs.

    The collector is off meanwhile, so that the size of the program's heap
    in the same process cannot change the loop's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def reference_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between loop runs taking ``before`` and ``after``."""
    return seconds * REFERENCE_S / ((before + after) / 2)
