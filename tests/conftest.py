"""Shared corpus fixtures.

Corpus files ship in data/ (regenerate with python -m kforcing.smallgraphs);
the fixtures cross-check the line counts against the published numbers of
isomorphism classes before handing graphs to tests.
"""

from pathlib import Path

import pytest

from kforcing import Graph, parse_graph6
from kforcing.cli import build_parser
from kforcing.smallgraphs import all_graphs

DATA = Path(__file__).resolve().parent.parent / "data"

# OEIS A001349 (connected graphs) and A000055 (trees), by vertex count.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def read_graph6_file(path: str) -> list[Graph]:
    """Parse every nonempty line of a graph6 file."""
    with open(path, encoding="ascii") as fh:
        return [parse_graph6(line) for line in fh if line.strip()]


def compute_invariant_choices() -> list[str]:
    """The ``compute --invariant`` choices, read from the parser."""
    compute = build_parser()._subparsers._group_actions[0].choices["compute"]
    action, = (a for a in compute._actions if a.dest == "invariant")
    return list(action.choices)


def load_connected(n: int):
    graphs = read_graph6_file(str(DATA / f"connected_{n}.g6"))
    assert len(graphs) == CONNECTED_COUNTS[n]
    assert all(g.n == n and g.is_connected() for g in graphs)
    return graphs


def load_trees(n: int):
    graphs = read_graph6_file(str(DATA / f"trees_{n}.g6"))
    assert len(graphs) == TREE_COUNTS[n]
    assert all(g.is_tree() for g in graphs)
    return graphs


@pytest.fixture(scope="session")
def connected_by_n():
    return {n: load_connected(n) for n in range(1, 8)}


@pytest.fixture(scope="session")
def connected_upto_6(connected_by_n):
    return [g for n in range(1, 7) for g in connected_by_n[n]]


@pytest.fixture(scope="session")
def connected_upto_7(connected_by_n):
    return [g for n in range(1, 8) for g in connected_by_n[n]]


@pytest.fixture(scope="session")
def trees_by_n():
    return {n: load_trees(n) for n in range(1, 11)}


@pytest.fixture(scope="session")
def all_upto_7():
    """Every graph with 1 to 7 vertices up to isomorphism, disconnected ones too."""
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    assert len(graphs) == 1252  # OEIS A000088
    return graphs
