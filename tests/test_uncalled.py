"""Every function in ``src/`` has a caller there, or a stated reason to stay.

A function counts as called when code in ``src/`` outside its own body
reads its name, as a bare name or as an attribute, or when one of the two
tables that build names from strings reaches it: ``main`` runs
``cmd_<command>``, and ``compute`` answers each ``--invariant`` choice
with ``_<choice>``. Top-level functions and public methods are checked;
dunder names are not.
"""

import argparse
import ast
import re
from collections import Counter
from pathlib import Path

import kforcing
from kforcing.cli import _INVARIANT_NAMES, build_parser

SRC = Path(kforcing.__file__).resolve().parent
ROOT = SRC.parent.parent

# module.function with no caller in src/ -> the files that name it, which
# are its reason to stay: a library entry point the README names, or a
# name that the benchmark's tracer binds or its tests call
ALLOWED = {
    "bounds.evaluate_bounds": ("kbench/tracer.py", "kbench/test_kbench.py", "README.md"),
    "graphio.parse_graph6": ("kbench/tracer.py", "README.md"),
    "invariants.vertex_k_connected": ("kbench/tracer.py", "README.md"),
    "smallgraphs.canonical_graph": ("kbench/tracer.py", "README.md"),
}


def names_read(node: ast.AST) -> Counter:
    """Every name and attribute read under ``node``, with multiplicity."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def dispatched() -> set[str]:
    """The functions reached through a name built from a string."""
    subcommands, = (action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    return ({f"cmd_{command}" for command in subcommands}
            | {"_" + name.replace("-", "_") for name in _INVARIANT_NAMES})


def uncalled_functions(src: Path = SRC) -> set[str]:
    defs = []  # (module.qualified name, function name, def node)
    reads = Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += names_read(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{path.stem}.{node.name}.{item.name}", item.name, item)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")]
    called = dispatched()
    return {qualified for qualified, name, node in defs
            if not (name.startswith("__") and name.endswith("__"))
            and name not in called
            and reads[name] - names_read(node)[name] <= 0}


def test_every_uncalled_function_is_allowed_for_a_stated_reason():
    assert uncalled_functions() == set(ALLOWED)
    for qualified, files in ALLOWED.items():
        name = qualified.rsplit(".", 1)[1]
        for file in files:
            text = (ROOT / file).read_text(encoding="utf-8")
            assert re.search(rf"\b{name}\b", text), (qualified, file)


def test_the_scan_reports_a_function_without_a_caller(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"),
                                          encoding="utf-8")
    # calling itself is no caller
    with open(tmp_path / "graph.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef orphan(g):\n    return orphan(g)\n")
    # and verify's one read of _tail is all that keeps it called
    verify = tmp_path / "verify.py"
    text = verify.read_text(encoding="utf-8")
    assert text.count("_tail(outcome)") == 2  # the comment and the call
    verify.write_text(text.replace("= _tail(outcome)", "= ''"), encoding="utf-8")
    assert uncalled_functions(tmp_path) == {*ALLOWED, "graph.orphan", "verify._tail"}
