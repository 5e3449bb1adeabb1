"""Each oracle pruning rule is stated once, as a lemma beside its code.

``oracle.py`` is read with ``ast``, not imported.  ``LEMMAS`` maps each
``RULES`` entry to the (holder, lemma title) pairs that prove it: the
holder is the function or ``_Search`` method whose docstring states
``Lemma (<title>``.  A rule added without a lemma, a lemma moved away from
its code, or one stated twice fails here.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ORACLE = SRC / "onecross" / "oracle.py"

LEMMAS = {
    "count": [("_counting_bound", "counting bound")],
    "twins": [("_twin_classes", "twins"), ("_Search.orbits", "twin orbits"),
              ("_Search.expand", "orbit branching")],
    "small-orbits-first": [("_Search.expand", "orbit branching")],
    "rims": [("_Search.viable", "rim bound")],
    "pair-swaps": [("_Search.stabilizer", "pair swaps"), ("_Search.orbits", "swap orbits")],
    "crossing-cap": [("_crossing_cap", "crossing cap")],
    "faces": [("_Search.viable", "face bound")],
}

TITLE = re.compile(r"Lemma \(([^);]+)[);]")


def _oracle() -> tuple[list[str], str, dict[str, str]]:
    """``RULES``, the module docstring, and the docstring of each function
    and method, keyed ``name`` or ``Class.name``."""
    tree = ast.parse(ORACLE.read_text())
    rules = None
    docs = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "RULES":
            rules = list(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef):
            docs[node.name] = ast.get_docstring(node) or ""
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    docs[f"{node.name}.{item.name}"] = ast.get_docstring(item) or ""
    return rules, ast.get_docstring(tree), docs


def _titles() -> list[str]:
    """Every lemma title stated under ``src/``, once per statement."""
    return [t for path in sorted(SRC.rglob("*.py")) for t in TITLE.findall(path.read_text())]


def test_every_rule_is_mapped_to_its_lemmas():
    rules, _, _ = _oracle()
    assert list(LEMMAS) == rules


def test_each_lemma_is_stated_in_its_holders_docstring():
    _, _, docs = _oracle()
    for rule, held in LEMMAS.items():
        for holder, title in held:
            assert title in TITLE.findall(docs[holder]), (rule, holder, title)


def test_no_lemma_title_is_stated_twice_under_src():
    titles = _titles()
    assert sorted(t for t in set(titles) if titles.count(t) > 1) == []


def test_the_module_docstring_indexes_every_rule_with_its_holders():
    rules, doc, _ = _oracle()
    entries = dict(re.findall(r"^- ([\w-]+): (.*?)(?=^- |^$)", doc + "\n\n", re.M | re.S))
    assert list(entries) == rules
    for rule, held in LEMMAS.items():
        for holder, _ in held:
            assert f"``{holder}``" in entries[rule], (rule, holder)
