"""``cli.main`` runs each command with the cyclic garbage collector paused.

That is safe only while no command path builds a reference cycle: garbage
in a cycle would then live until the caller's next collection.  These
tests hold the property on every command path, check that the caller's
collector setting comes back on every exit, and count collections instead
of timing them.
"""

import gc
import json
import sys

import pytest

import onecross.cli
from onecross.cli import main
from onecross.constructions import w3_family
from onecross.formats import save_drawing


@pytest.fixture
def docs(tmp_path):
    """Paths of a passing document, a failing one and an unparseable one."""
    good = tmp_path / "good.json"
    save_drawing(w3_family(3, 6), good)
    bad = tmp_path / "bad.json"
    doc = json.loads(good.read_text())
    doc["black"], doc["white"] = doc["black"] + doc["white"][:1], doc["white"][1:]
    bad.write_text(json.dumps(doc))  # an edge inside one class: verify exits 1
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    return {"good": good, "bad": bad, "junk": junk, "dir": tmp_path}


def _argv(template, docs):
    return [a.format(**docs) for a in template]


# Every command path: each family of construct, verify's three outcomes,
# export in both formats to stdout and to a file, bounds and table with an
# input error, every oracle verdict, a bad checkpoint and failed writes.
COMMAND_PATHS = {
    "construct-auto": (["construct", "--x", "5", "--y", "12", "--json"], 0),
    "construct-w3": (["construct", "--x", "3", "--y", "6", "--family", "w3"], 0),
    "construct-b": (["construct", "--x", "4", "--y", "8", "--family", "b"], 0),
    "construct-balanced": (["construct", "--x", "5", "--y", "5", "--family", "balanced"], 0),
    "construct-near": (["construct", "--x", "4", "--y", "6", "--family", "near"], 0),
    "construct-k36": (["construct", "--x", "3", "--y", "9", "--family", "k36"], 0),
    "construct-out": (["construct", "--x", "6", "--y", "14", "--out", "{dir}/d.json"], 0),
    "construct-input-error": (["construct", "--x", "3", "--y", "4", "--family", "balanced"], 2),
    "construct-unwritable": (["construct", "--x", "3", "--y", "6",
                              "--out", "{dir}/missing/d.json"], 2),
    "verify-pass": (["verify", "{good}", "--json"], 0),
    "verify-fail": (["verify", "{bad}"], 1),
    "verify-unparseable": (["verify", "{junk}"], 2),
    "verify-unreadable": (["verify", "{dir}/missing.json"], 2),
    "export-svg": (["export", "{good}", "--format", "svg"], 0),
    "export-dot": (["export", "{good}", "--format", "dot"], 0),
    "export-svg-out": (["export", "{good}", "--format", "svg", "--out", "{dir}/d.svg"], 0),
    "export-dot-out": (["export", "{good}", "--format", "dot", "--out", "{dir}/d.dot"], 0),
    "export-unwritable": (["export", "{good}", "--format", "svg",
                           "--out", "{dir}/missing/d.svg"], 2),
    "bounds": (["bounds", "--x", "3", "--y", "50"], 0),
    "bounds-json": (["bounds", "--x", "3", "--y", "50", "--json"], 0),
    "bounds-csv": (["bounds", "--x", "3", "--y", "50", "--csv"], 0),
    "bounds-input-error": (["bounds", "--x", "5", "--y", "3"], 2),
    "table": (["table", "--xmax", "4", "--ymax", "20"], 0),
    "table-conjecture": (["table", "--xmax", "4", "--ymax", "20", "--conjecture", "--json"], 0),
    "oracle-yes": (["oracle", "--complete-bipartite", "3", "4", "--budget", "2",
                    "--out", "{dir}/w.json", "--json"], 0),
    "oracle-file-no": (["oracle", "{good}", "--budget", "0"], 1),
    "oracle-no": (["oracle", "--complete-bipartite", "3", "3", "--budget", "0"], 1),
    "oracle-unknown": (["oracle", "--complete-bipartite", "3", "7", "--budget", "6",
                        "--timeout", "0", "--checkpoint", "{dir}/ck.json"], 3),
    "oracle-bad-checkpoint": (["oracle", "--complete-bipartite", "2", "2", "--budget", "0",
                               "--checkpoint", "{junk}"], 2),
    "oracle-unwritable-checkpoint": (["oracle", "--complete-bipartite", "3", "7", "--budget",
                                      "6", "--timeout", "0",
                                      "--checkpoint", "{dir}/missing/ck.json"], 2),
    "oracle-input-error": (["oracle", "--complete-bipartite", "-2", "3"], 2),
}


@pytest.mark.parametrize("template, code", COMMAND_PATHS.values(), ids=COMMAND_PATHS.keys())
def test_every_command_path_is_cycle_free(docs, capsys, template, code):
    argv = _argv(template, docs)
    gc.collect()
    gc.garbage.clear()
    # Set before the command, so that a collection inside it, where the
    # collector runs, keeps what it finds too.
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == code
        gc.collect()
    finally:
        gc.set_debug(0)
        cyclic = [type(o).__name__ for o in gc.garbage]
        gc.garbage.clear()
    capsys.readouterr()
    assert cyclic == []


@pytest.fixture
def collector():
    """Restore the collector's setting after the test, whatever it sets."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(docs, capsys, monkeypatch, collector,
                                                  enabled):
    exits = [
        (["construct", "--x", "3", "--y", "6"], 0),
        (["verify", "{bad}"], 1),
        (["oracle", "--complete-bipartite", "3", "3", "--budget", "0"], 1),
        (["bounds", "--x", "5", "--y", "3"], 2),  # input error
        (["construct", "--x", "3"], 2),  # usage error
        (["--help"], 0),
        (["oracle", "--complete-bipartite", "3", "7", "--budget", "6", "--timeout", "0"], 3),
    ]
    seen = []
    for template, code in exits:
        gc.enable() if enabled else gc.disable()
        assert main(_argv(template, docs)) == code
        seen.append(gc.isenabled())

    def fail(drawing):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(onecross.cli, "validate", fail)
    gc.enable() if enabled else gc.disable()
    with pytest.raises(RuntimeError, match="unexpected"):
        main(["verify", str(docs["good"])])
    seen.append(gc.isenabled())
    capsys.readouterr()
    assert seen == [enabled] * (len(exits) + 1)


def test_construct_verify_and_export_start_no_collection(tmp_path, capsys, collector):
    # A count, not a clock: with the collector running, balanced(200)
    # allocates enough containers to start several collections inside each
    # command.  Allocations made in the pause still count towards the next
    # collection, so the first one after main returns may start one, over
    # the few objects the command left alive; only starts inside a command
    # are counted.
    commands = {f.__code__ for name, f in vars(onecross.cli).items() if name.startswith("_cmd_")}
    doc = tmp_path / "d.json"
    starts = []

    def count(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in commands:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            starts.append((frame.f_code.co_name, info["generation"]))

    gc.enable()
    gc.callbacks.append(count)
    try:
        codes = [main(["construct", "--x", "200", "--y", "200", "--family", "balanced",
                       "--out", str(doc)]),
                 main(["verify", str(doc)]),
                 main(["export", str(doc), "--format", "svg"])]
    finally:
        gc.callbacks.remove(count)
    capsys.readouterr()
    assert (codes, starts) == ([0, 0, 0], [])
