import os
import random

import pytest

import kforcing.smallgraphs as smallgraphs
from kforcing.families import circulant, cycle
from kforcing.graph import Graph
from kforcing.graphio import write_graph6_file
from kforcing.smallgraphs import (
    all_graphs,
    all_trees,
    canonical_graph,
    canonical_key,
    connected_graphs,
)

from canonical_oracle import canonical_key_oracle
from conftest import DATA
from random_graphs import random_graph

# Published counts of isomorphism classes: all graphs (OEIS A000088),
# connected graphs (A001349), trees (A000055).
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551}

extended = pytest.mark.skipif(
    os.environ.get("KFORCING_ACCEPT_N8") != "1",
    reason="set KFORCING_ACCEPT_N8=1 for the n = 8 and large-tree enumerations",
)


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


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _hypercube4():
    return Graph.from_edges(16, [(u, u | 1 << b) for u in range(16)
                                 for b in range(4) if not u >> b & 1])


def test_canonical_key_is_relabeling_invariant():
    # the symmetric graphs are beyond the permutation oracle's reach
    symmetric = [_petersen(), _hypercube4(), cycle(12), circulant(12, (1, 5))]
    rng = random.Random(3)
    for g in all_graphs(5) + symmetric:
        key = canonical_key(g)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_key(_relabel(g, perm)) == key


def _augmentation_candidates(monkeypatch, enumerate_graphs, n):
    """Every graph the enumerator keys on its way to n vertices."""
    seen = []
    key = smallgraphs.canonical_key

    def record(g):
        seen.append(g)
        return key(g)

    monkeypatch.setattr(smallgraphs, "canonical_key", record)
    enumerate_graphs(n)
    monkeypatch.undo()
    return seen


def test_canonical_key_matches_permutation_oracle(monkeypatch):
    rng = random.Random(29)
    graphs = (
        _augmentation_candidates(monkeypatch, all_graphs, 7)
        + _augmentation_candidates(monkeypatch, all_trees, 9)
        + [random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
           for _ in range(300)]
    )
    assert len(graphs) > 11_000
    for g in {(g.n, g.adj): g for g in graphs}.values():
        assert canonical_key(g) == canonical_key_oracle(g), g.adj


def _written(tmp_path, graphs):
    out = tmp_path / "out.g6"
    write_graph6_file(str(out), graphs)
    return out.read_bytes()


def test_enumeration_reproduces_shipped_corpora(tmp_path):
    assert _written(tmp_path, connected_graphs(7)) == (DATA / "connected_7.g6").read_bytes()
    assert _written(tmp_path, all_trees(10)) == (DATA / "trees_10.g6").read_bytes()


@extended
def test_enumeration_reproduces_connected_8(tmp_path):
    assert _written(tmp_path, connected_graphs(8)) == (DATA / "connected_8.g6").read_bytes()


@extended
def test_large_tree_counts():
    assert len(all_trees(14)) == 3159
    assert len(all_trees(16)) == 19320


def test_canonical_keys_separate_classes():
    keys = [canonical_key(g) for g in all_graphs(6)]
    assert len(set(keys)) == len(keys)


@pytest.mark.filterwarnings("ignore:The hashes produced")  # buckets only, never stored
def test_shipped_corpora_hold_one_graph_per_class():
    nx = pytest.importorskip("networkx")
    names = [f"connected_{n}" for n in range(1, 9)] + [f"trees_{n}" for n in range(1, 11)]
    for name in names:
        buckets = {}
        for line in (DATA / f"{name}.g6").read_bytes().split():
            h = nx.from_graph6_bytes(line)
            buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
        for bucket in buckets.values():
            for i, a in enumerate(bucket):
                assert not any(nx.is_isomorphic(a, b) for b in bucket[i + 1:]), name


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
    monkeypatch.setattr(smallgraphs, "connected_graphs",
                        lambda n: pytest.fail("enumerated before opening the output"))
    assert smallgraphs._main(["4", "--connected", "-o", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("error: ")


def test_main_nonpositive_n_exits_2_before_opening_output(tmp_path, capsys):
    out = tmp_path / "out.g6"
    assert smallgraphs._main(["0", "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: n must be positive, got 0\n"
    assert not out.exists()


def test_main_connected_and_trees_are_exclusive(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        smallgraphs._main(["4", "--connected", "--trees", "-o", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
