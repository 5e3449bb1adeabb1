"""Regenerate ``expected_build.json``, the build workload's reference table.

Builds every size pair the ``build`` workload can draw, plus its fixed
items, and records the family, edge count and crossing count.  Each edge
count is checked against the closed forms in ``reference.py`` before it is
written.  Run from the repository root:

    PYTHONPATH=src python3 bench/make_expected.py
"""

from __future__ import annotations

import json

from onecross import b_family, balanced, best_known, near_balanced, w3_family

from reference import (
    EXPECTED_BUILD,
    FIXED_BUILD_ITEMS,
    X_RANGE,
    build_key,
    closed_form_edges,
    y_range,
)

_FAMILIES = {
    "w3": w3_family,
    "b": b_family,
    "balanced": lambda x, y: balanced(x),
    "near": near_balanced,
}


def main() -> None:
    table: dict[str, list] = {}
    for family, x, y in FIXED_BUILD_ITEMS:
        d = _FAMILIES[family](x, y)
        table[build_key(family, x, y)] = [family, d.edge_count, len(d.crossings)]
    for x in X_RANGE:
        for y in y_range(x):
            bk = best_known(x, y)
            table[build_key("auto", x, y)] = [bk.family, bk.edges, len(bk.drawing.crossings)]
    for key, (family, edges, _) in table.items():
        _, x, y = key.split()
        if edges != closed_form_edges(family, int(x), int(y)):
            raise SystemExit(f"{key}: {edges} edges disagree with the closed form")
    rows = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    EXPECTED_BUILD.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(table)} rows to {EXPECTED_BUILD}")


if __name__ == "__main__":
    main()
