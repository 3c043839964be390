"""What the package and each command load.

Each check runs in a fresh ``python -S``, so no site ``.pth`` file can
load a module first and mask what the package itself imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kforcing

from conftest import DATA

SRC = str(Path(kforcing.__file__).resolve().parent.parent)


def loaded_after(code: str) -> set[str]:
    """The modules a fresh ``python -S`` holds after running ``code``."""
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize("code, allowed", [
    ("import kforcing", set()),
    # the enumerator, run end to end
    ("from kforcing.smallgraphs import _main\n"
     "assert _main(['5', '--connected', '-o', '-']) == 0",
     {"graph", "graphio", "smallgraphs"}),
    # verify over a file: no families, which only --spec and gen read
    ("from kforcing.cli import main\n"
     f"assert main(['verify', '-i', {str(DATA / 'connected_5.g6')!r}]) == 0",
     {"bounds", "cli", "forcing", "graph", "graphio", "invariants", "records",
      "verify"}),
], ids=["import", "enumerate", "verify"])
def test_package_modules_loaded(code, allowed):
    package = {m for m in loaded_after(code) if m.split(".")[0] == "kforcing"}
    assert package <= {"kforcing"} | {f"kforcing.{name}" for name in allowed}


@pytest.mark.parametrize("argv, absent", [
    (["verify", "-i", str(DATA / "connected_5.g6")], {"search", "compute", "families"}),
    # search classifies its achievers from their records, not by families
    (["search", "--target", "cor3", "-i", str(DATA / "connected_5.g6")],
     {"verify", "compute", "families"}),
    (["compute", "--graph6", "Dhc", "--invariant", "forcing"], {"verify", "search"}),
], ids=["verify", "search", "compute"])
def test_a_command_loads_no_other_commands_module(argv, absent):
    loaded = loaded_after(f"from kforcing.cli import main\nassert main({argv!r}) == 0")
    assert not {f"kforcing.{name}" for name in absent} & loaded


def test_cli_loads_what_the_tracer_reads_and_no_command_module():
    # kbench/tracer.py reads these modules from sys.modules after importing cli
    loaded = loaded_after("import kforcing.cli")
    assert {"kforcing.bounds", "kforcing.graphio", "kforcing.records"} <= loaded
    assert not {"kforcing.verify", "kforcing.search", "kforcing.compute"} & loaded


@pytest.mark.parametrize("code", [
    "import kforcing.cli",
    "from kforcing.cli import main\n"
    f"assert main(['verify', '-i', {str(DATA / 'connected_5.g6')!r}]) == 0",
], ids=["import", "verify"])
def test_cli_loads_no_dataclasses_or_inspect(code):
    assert not {"dataclasses", "inspect"} & loaded_after(code)


def test_no_module_reads_the_environment():
    # a command's flags are its only settings
    names = {"environ", "getenv", "putenv"}
    found = []
    for path in sorted(Path(SRC, "kforcing").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, node.lineno) for a in node.names if a.name in names]
            elif (isinstance(node, ast.Attribute) and node.attr in names
                  and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append((path.name, node.lineno))
    assert found == []


def test_verify_with_workers_loads_no_process_pool():
    # --jobs 2 forks its workers itself
    loaded = loaded_after(
        "from kforcing.cli import main\n"
        f"assert main(['verify', '-i', {str(DATA / 'connected_5.g6')!r}, '--jobs', '2']) == 0")
    assert not {"concurrent.futures", "multiprocessing"} & loaded


def test_verify_at_one_job_forks_nothing():
    # the one runner imports what its forked workers need only when it forks
    loaded = loaded_after(
        "from kforcing.cli import main\n"
        f"assert main(['verify', '-i', {str(DATA / 'connected_5.g6')!r}, '--jobs', '1']) == 0")
    assert not {"pickle", "signal", "tempfile", "fcntl"} & loaded


def test_verify_with_workers_spools_nothing():
    # the forked workers send their results through their pipes alone
    loaded = loaded_after(
        "from kforcing.cli import main\n"
        f"assert main(['verify', '-i', {str(DATA / 'connected_5.g6')!r}, '--jobs', '2']) == 0")
    assert "pickle" in loaded and "tempfile" not in loaded


def test_every_public_name_resolves_to_its_defining_module():
    for name in kforcing.__all__:
        value = getattr(kforcing, name)
        module = sys.modules[f"kforcing.{kforcing._SOURCE[name]}"]
        assert value is vars(module)[name], name
        if hasattr(value, "__qualname__"):
            assert value.__module__ == module.__name__, name
    assert set(kforcing.__all__) <= set(dir(kforcing))
    assert {"__version__", "__all__"} <= set(dir(kforcing))
    with pytest.raises(AttributeError, match="no_such_name"):
        kforcing.no_such_name
    from kforcing import records  # a submodule, not a public name

    assert records is sys.modules["kforcing.records"]


def test_a_rebound_name_is_seen_through_the_package(monkeypatch):
    import kforcing.graphio

    original = kforcing.parse_graph6
    monkeypatch.setattr(kforcing.graphio, "parse_graph6", len)
    assert kforcing.parse_graph6 is len
    monkeypatch.undo()
    assert kforcing.parse_graph6 is original
