import random

import pytest

from kforcing.graph import Graph
from kforcing.smallgraphs import (
    all_graphs,
    all_trees,
    canonical_graph,
    canonical_key,
    connected_graphs,
    random_graph,
)

# Published counts of isomorphism classes: all graphs (OEIS A000088),
# connected graphs (A001349), trees (A000055).
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Rejection-sample a connected G(n, p) graph."""
    while True:
        g = random_graph(n, p, rng)
        if g.is_connected():
            return g


def test_graph_counts():
    for n, want in ALL_COUNTS.items():
        assert len(all_graphs(n)) == want


def test_connected_counts():
    for n, want in CONNECTED_COUNTS.items():
        assert len(connected_graphs(n)) == want


def test_tree_counts():
    for n, want in TREE_COUNTS.items():
        assert len(all_trees(n)) == want


def _relabel(g: Graph, perm):
    adj = [0] * g.n
    for u, v in g.edges():
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    return Graph(g.n, tuple(adj))


def test_canonical_key_is_relabeling_invariant():
    rng = random.Random(3)
    for g in all_graphs(5):
        key = canonical_key(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(_relabel(g, perm)) == key


def test_canonical_keys_separate_classes():
    keys = [canonical_key(g) for g in all_graphs(6)]
    assert len(set(keys)) == len(keys)


def test_canonical_graph_is_idempotent():
    for g in all_graphs(5):
        c = canonical_graph(g)
        assert canonical_graph(c).adj == c.adj
        assert canonical_key(c) == canonical_key(g)


def test_enumeration_output_is_canonical_and_sorted():
    graphs = all_graphs(5)
    keys = [canonical_key(g) for g in graphs]
    assert keys == sorted(keys)
    assert all(canonical_graph(g).adj == g.adj for g in graphs)


def test_random_graph_determinism():
    a = random_graph(8, 0.5, random.Random(11))
    b = random_graph(8, 0.5, random.Random(11))
    assert a.adj == b.adj


def test_random_connected_graph():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected_graph(6, 0.3, rng)
        assert g.is_connected()


def test_main_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    import kforcing.smallgraphs as smallgraphs

    monkeypatch.setattr(smallgraphs, "connected_graphs",
                        lambda n: pytest.fail("enumerated before opening the output"))
    assert smallgraphs._main(["4", "--connected", "-o", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("error: ")
