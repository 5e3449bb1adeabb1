"""What an import or a command loads.

``import onecross`` loads the certifier alone (``plane_map``, ``drawing``);
every other public name is imported from its module on first access.  A
command loads the modules it runs: the oracle and the bounds only for their
own commands, and no construction loads the document format.  No command
loads networkx or numpy: the oracle's planarity test embeds its witness
itself, and the SVG layout solves its system in plain Python.  Nothing loads ``dataclasses`` (and with it ``inspect``).

Each check runs in a fresh interpreter, because this test process has
already imported all of them.
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


# The names the package exported when every module was imported eagerly.
EXPORTS = {
    "plane_map": ["EulerReport", "MapError", "PlaneMap", "build_map", "euler_check",
                  "insert_vertex_in_face", "smooth_degree2", "trace_faces"],
    "drawing": ["BipartiteGraph", "DrawingError", "Graph", "OnePlanarDrawing",
                "ValidationReport", "assemble_drawing", "augment_degree2", "black_extension",
                "certify", "validate"],
    "constructions": ["b_family", "balanced", "best_known", "k36_family", "near_balanced",
                      "stacked_triangulation", "w3_family"],
    "bounds": ["SizeBounds", "conjecture_gap", "lower_bound", "ratio_table", "size_bounds",
               "upper_bound"],
    "oracle": ["gadget_planarize", "is_one_planar", "min_crossings", "planarity_test"],
    "formats": ["document_to_drawing", "drawing_to_document", "export_dot", "export_svg",
                "load_drawing", "parse_document", "save_drawing"],
}


def test_importing_the_package_loads_only_the_certifier():
    run_fresh("""
        import sys

        import onecross
        lazy = [m for m in ("formats", "constructions", "sketch", "bounds", "oracle",
                            "planarity", "cli") if f"onecross.{m}" in sys.modules]
        assert lazy == [], lazy
        assert "onecross.drawing" in sys.modules
    """)


def test_no_construction_loads_the_document_format():
    # Every drawing is built from sketches and host maps; none is parsed.
    run_fresh("""
        import sys

        from onecross.constructions import best_known
        for x in range(1, 7):
            for y in range(x, 6 * x + 1):
                best_known(x, y)
        assert "onecross.formats" not in sys.modules
    """)


def test_no_import_or_command_loads_dataclasses(tmp_path):
    # The records are NamedTuples and plain classes; dataclasses would also
    # load inspect, which costs about as much again.
    run_fresh(f"""
        import contextlib, io, sys

        SLOW = ("dataclasses", "inspect")

        def loaded():
            return [m for m in SLOW if m in sys.modules]

        import onecross
        assert loaded() == [], loaded()
        from onecross.cli import main

        doc = {str(tmp_path / "d.json")!r}
        for argv in (["construct", "--x", "4", "--y", "9", "--out", doc],
                     ["verify", doc],
                     ["export", doc, "--format", "dot"],
                     ["export", doc, "--format", "svg"],
                     ["bounds", "--x", "4", "--y", "9"],
                     ["table", "--xmax", "3", "--ymax", "5"],
                     ["oracle", "--complete-bipartite", "3", "4", "--budget", "2"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert loaded() == [], (argv, loaded())
    """)


def test_every_export_is_its_modules_object():
    # Each name is read through the package first, so a lazy name's module
    # is imported by that read.
    run_fresh(f"""
        import importlib

        import onecross
        exports = {EXPORTS!r}
        names = [name for group in exports.values() for name in group]
        assert sorted(onecross.__all__) == sorted(names)
        assert set(names) <= set(dir(onecross))
        for module, group in exports.items():
            for name in group:
                value = getattr(onecross, name)
                home = importlib.import_module(f"onecross.{{module}}")
                assert value is getattr(home, name), name
                assert name not in vars(onecross) or module in ("plane_map", "drawing"), name
    """)


def test_star_import_binds_every_export():
    run_fresh("""
        import onecross

        space = {}
        exec("from onecross import *", space)
        missing = [n for n in onecross.__all__ if space.get(n) is not getattr(onecross, n)]
        assert missing == [], missing
    """)


def test_an_unknown_attribute_is_an_attribute_error():
    run_fresh("""
        import onecross

        try:
            onecross.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
    """)


def test_no_command_loads_networkx(tmp_path):
    run_fresh(f"""
        import contextlib, io, sys

        import onecross
        from onecross.cli import main

        HEAVY = ("networkx.classes", "numpy")
        UNUSED = ("onecross.oracle", "onecross.planarity", "onecross.bounds")

        def loaded(names):
            return [m for m in names if m in sys.modules]

        assert loaded(HEAVY + UNUSED) == [], loaded(HEAVY + UNUSED)
        doc = {str(tmp_path / "d.json")!r}
        # construct, verify and export load neither the oracle nor the bounds.
        for argv, absent in ((["construct", "--x", "4", "--y", "9", "--out", doc], HEAVY + UNUSED),
                             (["verify", doc], HEAVY + UNUSED),
                             (["export", doc, "--format", "dot"], HEAVY + UNUSED),
                             (["export", doc, "--format", "svg"], HEAVY + UNUSED),
                             (["bounds", "--x", "4", "--y", "9"], HEAVY),
                             (["table", "--xmax", "3", "--ymax", "5"], HEAVY),
                             (["oracle", "--complete-bipartite", "3", "4", "--budget", "2"],
                              HEAVY)):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
            assert loaded(absent) == [], (argv, loaded(absent))
        assert "onecross.bounds" in sys.modules

        from onecross.drawing import BipartiteGraph, validate
        from onecross.oracle import is_one_planar
        k33 = BipartiteGraph.make([0, 1, 2], [3, 4, 5],
                                  [(b, w) for b in range(3) for w in range(3, 6)])
        res = is_one_planar(k33, 1)
        assert (res.verdict, res.crossings) == ("yes", 1)
        assert validate(res.drawing).passed
        assert "networkx.classes" not in sys.modules
    """)


def test_an_oracle_yes_runs_without_networkx():
    # An import of networkx raises ImportError once its sys.modules entry is None.
    run_fresh("""
        import sys

        sys.modules["networkx"] = None
        from onecross.drawing import BipartiteGraph, validate
        from onecross.oracle import is_one_planar
        k33 = BipartiteGraph.make([0, 1, 2], [3, 4, 5],
                                  [(b, w) for b in range(3) for w in range(3, 6)])
        res = is_one_planar(k33, 1)
        assert (res.verdict, res.crossings) == ("yes", 1)
        assert validate(res.drawing).passed
    """)


def test_svg_export_runs_without_numpy(tmp_path):
    # An import of numpy raises ImportError once its sys.modules entry is None.
    run_fresh(f"""
        import contextlib, io, sys

        sys.modules["numpy"] = None
        from onecross.cli import main

        doc = {str(tmp_path / "d.json")!r}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["construct", "--x", "5", "--y", "13", "--out", doc]) == 0
            assert main(["export", doc, "--format", "svg"]) == 0
        assert "</svg>" in out.getvalue()
    """)


def test_an_oracle_no_does_not_load_networkx():
    # The left-right test decides every search graph, and K3,5 has no
    # accepted leaf at budget 3.
    run_fresh("""
        import sys

        from onecross.drawing import BipartiteGraph
        from onecross.oracle import is_one_planar
        k35 = BipartiteGraph.make([0, 1, 2], range(3, 8),
                                  [(b, w) for b in range(3) for w in range(3, 8)])
        res = is_one_planar(k35, 3)
        assert res.verdict == "no"
        assert sum(s.leaves for s in res.stats.sizes) > 0
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
        assert sum(s.leaves for s in res.stats.sizes) > 0
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
