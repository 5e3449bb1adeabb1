"""What a command loads: networkx only to embed an oracle witness, numpy
only for SVG.

Each check runs in a fresh interpreter, because this test process has
already imported networkx.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_only_the_oracle_loads_networkx(tmp_path):
    run_fresh(f"""
        import contextlib, io, sys

        import onecross
        from onecross.cli import main

        def heavy():
            return [m for m in ("networkx.classes", "numpy") if m in sys.modules]

        assert heavy() == [], heavy()
        doc = {str(tmp_path / "d.json")!r}
        for argv in (["construct", "--x", "4", "--y", "9", "--out", doc],
                     ["verify", doc],
                     ["export", doc, "--format", "dot"],
                     ["bounds", "--x", "4", "--y", "9"],
                     ["table", "--xmax", "3", "--ymax", "5"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert heavy() == [], (argv, heavy())

        from onecross.drawing import BipartiteGraph, validate
        from onecross.oracle import is_one_planar
        k33 = BipartiteGraph.make([0, 1, 2], [3, 4, 5],
                                  [(b, w) for b in range(3) for w in range(3, 6)])
        res = is_one_planar(k33, 1)
        assert (res.verdict, res.crossings) == ("yes", 1)
        assert validate(res.drawing).passed
        assert "networkx.classes" in sys.modules
    """)


def test_an_oracle_no_does_not_load_networkx():
    # The left-right test decides every search graph; networkx would only
    # embed an accepted leaf, and K3,5 has none at budget 3.
    run_fresh("""
        import sys

        from onecross.drawing import BipartiteGraph
        from onecross.oracle import is_one_planar
        k35 = BipartiteGraph.make([0, 1, 2], range(3, 8),
                                  [(b, w) for b in range(3) for w in range(3, 8)])
        res = is_one_planar(k35, 3)
        assert res.verdict == "no"
        assert sum(s.planarity_calls for s in res.stats.sizes) > 0
        assert "networkx.classes" not in sys.modules
    """)


def test_an_oracle_no_on_a_plain_graph_does_not_load_networkx():
    # K6 plus a pendant edge does not two-colour; the oracle's own
    # two-colouring finds that without networkx, and there is no drawing
    # with 2 crossings to embed.
    run_fresh("""
        import itertools, sys

        from onecross.drawing import Graph
        from onecross.oracle import is_one_planar
        g = Graph.make(range(7), list(itertools.combinations(range(6), 2)) + [(0, 6)])
        res = is_one_planar(g, 2)
        assert res.verdict == "no"
        assert sum(s.planarity_calls for s in res.stats.sizes) > 0
        assert "networkx.classes" not in sys.modules
    """)


@pytest.mark.parametrize("first", ["networkx", "onecross"])
def test_oracle_nx_is_the_networkx_module(first):
    run_fresh(f"""
        import importlib, sys

        importlib.import_module({first!r})
        import onecross.oracle
        assert onecross.oracle.nx is sys.modules["networkx"]
        assert ("networkx.classes" in sys.modules) == ({first!r} == "networkx")

        from networkx.algorithms.planarity import check_planarity
        assert onecross.oracle.nx is sys.modules["networkx"]
        assert onecross.oracle.nx.check_planarity is check_planarity
    """)
