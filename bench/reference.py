"""Independent references the benchmark checks the program's outputs against.

Nothing here imports the program.  Edge counts come from the closed forms
of the source paper, written out again here; oracle answers come from the
Zarankiewicz crossing numbers of complete and complete bipartite graphs.
The committed table ``expected_build.json`` adds the crossing count and
winning family of every size pair the ``build`` workload can draw.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_BUILD = Path(__file__).with_name("expected_build.json")

# (family, x, y) items that every build and verify run includes: the sizes
# whose construction cost dominates (augmentation, surgery, ring sketches).
FIXED_BUILD_ITEMS = (("w3", 12, 600), ("b", 20, 103), ("balanced", 200, 200), ("near", 15, 200))

# Class sizes the seeded `auto` sample draws from: x in 3..12, x <= y <= 6x.
X_RANGE = range(3, 13)


def y_range(x: int) -> range:
    return range(x, 6 * x + 1)


def closed_form_edges(family: str, x: int, y: int) -> int:
    """Edge count of a family member, from the paper's closed forms."""
    n = x + y
    if family == "w3":
        return 2 * n + 4 * x - 12
    if family == "b":
        u = y % 6
        return 3 * (n - (y // 6 + 2)) if u == 0 else (5 * n + x + u) // 2 - 9
    if family == "balanced":
        return 9 if x == 3 else 6 * x - 8
    if family == "near":
        return 3 * n - 8 - (y - x)
    if family == "complete-small":
        return 3 * y
    raise ValueError(f"no closed form for family {family!r}")


def zarankiewicz_bipartite(a: int, b: int) -> int:
    """Crossing number of K_{a,b} (proved for min(a, b) <= 6)."""
    return (a // 2) * ((a - 1) // 2) * (b // 2) * ((b - 1) // 2)


def zarankiewicz_complete(n: int) -> int:
    """Crossing number of K_n (Guy's formula, proved for n <= 12)."""
    return (n // 2) * ((n - 1) // 2) * ((n - 2) // 2) * ((n - 3) // 2) // 4


def load_expected_build() -> dict[str, list]:
    """``"family x y"`` -> ``[built family, edges, crossings]``."""
    return json.loads(EXPECTED_BUILD.read_text())


def build_key(family: str, x: int, y: int) -> str:
    return f"{family} {x} {y}"
