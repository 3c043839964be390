import argparse
import importlib
import re

import kforcing
from kforcing.cli import build_parser

from conftest import DATA, compute_invariant_choices


def test_readme_library_table_names_exist_and_star_import_works():
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library overview", 1)[1].split("\n\n")[1]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    assert len(rows) == 12
    subcommands, = (action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for module, contents in rows:
        name, listed = module.strip(" `"), re.findall(r"`(\w+)`", contents)
        if name == "cli":
            assert set(listed) == set(subcommands)
        else:
            module = importlib.import_module(f"kforcing.{name}")
            assert [x for x in listed if not hasattr(module, x)] == [], name
    namespace = {}
    exec("from kforcing import *", namespace)
    assert set(kforcing.__all__) <= namespace.keys()


def test_readme_lists_every_compute_invariant_choice():
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("`compute --invariant` takes one of", 1)[1].split(":", 1)[0]
    assert re.findall(r"`([\w-]+)`", sentence) == compute_invariant_choices()
