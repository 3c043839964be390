import hashlib
import os
import random

import pytest

import kforcing.smallgraphs as smallgraphs
from kforcing.families import circulant, cycle
from kforcing.graph import Graph, iter_bits
from kforcing.graphio import write_graph6_file
from kforcing.smallgraphs import (
    all_graphs,
    all_trees,
    canonical_graph,
    canonical_key,
    connected_graphs,
)

from canonical_oracle import _refined_coloring, canonical_key_oracle, ordered_cells
from conftest import DATA
from growth_oracle import unpruned_growth
from random_graphs import random_graph

# Published counts of isomorphism classes: all graphs (OEIS A000088),
# connected graphs (A001349), trees (A000055).
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
               10: 106, 11: 235, 12: 551}
# SHA-256 of the graph6 file of connected_graphs(9), as written by the
# enumerator that still filtered all_graphs(9) by connectivity (commit 2e4c97a)
N9_SHA256 = "a36337be96de23e5674abd52209ef85c5cb23a83a39b869bd8a9d6259e2eeed7"

extended = pytest.mark.skipif(
    os.environ.get("KFORCING_ACCEPT_N8") != "1",
    reason="set KFORCING_ACCEPT_N8=1 for the n = 8 and large-tree enumerations",
)
n9 = pytest.mark.skipif(
    os.environ.get("KFORCING_ACCEPT_N9") != "1",
    reason="set KFORCING_ACCEPT_N9=1 for the connected n = 9 enumeration (minutes)",
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


def test_connected_growth_matches_filtered_all_graphs():
    for n in range(1, 8):
        want = [g.adj for g in all_graphs(n) if g.is_connected()]
        assert [g.adj for g in connected_graphs(n)] == want, n


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


def _augmentation_candidates(family, n):
    """Every augmentation of every class on fewer than n vertices."""
    return list(unpruned_growth(family, n)[1])


def test_canonical_key_matches_permutation_oracle():
    rng = random.Random(29)
    graphs = (
        _augmentation_candidates("all", 7)
        + _augmentation_candidates("trees", 9)
        + [random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
           for _ in range(300)]
    )
    assert len(graphs) > 11_000
    for g in {(g.n, g.adj): g for g in graphs}.values():
        assert canonical_key(g) == canonical_key_oracle(g), g.adj


def test_refined_cells_match_colour_refinement():
    rng = random.Random(31)
    graphs = (
        _augmentation_candidates("all", 7)
        + _augmentation_candidates("trees", 10)
        + [random_graph(rng.randint(1, 10), rng.choice([0.2, 0.5, 0.8]), rng)
           for _ in range(300)]
        + [_petersen(), _hypercube4()]
    )
    for g in {(g.n, g.adj): g for g in graphs}.values():
        want = ordered_cells(_refined_coloring(g))
        assert smallgraphs._refined_cells(g) == want, g.adj


def test_pruned_growth_matches_unpruned_oracle():
    for family, enumerate_graphs, top in [("all", all_graphs, 7),
                                          ("connected", connected_graphs, 7),
                                          ("trees", all_trees, 11)]:
        layers, _ = unpruned_growth(family, top)
        for n, layer in enumerate(layers, start=1):
            assert [g.adj for g in enumerate_graphs(n)] == [g.adj for g in layer], (family, n)


def test_growth_reaches_a_class_whose_least_score_vertex_is_a_cut_vertex():
    # two K4s joined through vertex 8, whose score (2, 8) is the least but
    # whose deletion disconnects the graph; 7 has the least eligible score
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    g = Graph.from_edges(9, k4 + [(u + 4, v + 4) for u, v in k4] + [(0, 8), (4, 8)])
    h = g.delete_vertex(7)
    grown = set()
    for nbrs in smallgraphs._kept_neighbour_sets(h, range(1, 1 << 8), connected=True):
        adj = (*(a | (nbrs >> v & 1) << 8 for v, a in enumerate(h.adj)), nbrs)
        grown.add(canonical_key(Graph(9, adj)))
    assert canonical_key(g) in grown


def test_connected_7_keys_few_candidates(monkeypatch):
    calls = []
    key = smallgraphs.canonical_key
    monkeypatch.setattr(smallgraphs, "canonical_key", lambda g: calls.append(g) or key(g))
    assert len(connected_graphs(7)) == 853
    assert len(calls) <= 2000  # every non-empty neighbour set would be 7,815


def _swap(g, u, v):
    perm = list(range(g.n))
    perm[u], perm[v] = v, u
    return _relabel(g, perm)


# (graph, its twin classes): K4, the star K_{1,3}, C4, P4, and a vertex 0
# with two pendant leaves 1, 2 (open twins) and a triangle 0, 3, 4 (3 and 4
# closed twins)
TWIN_CASES = [
    (Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]), [0b1111]),
    (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), [0b1110]),
    (cycle(4), [0b0101, 0b1010]),
    (Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), []),
    (Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]), [0b00110, 0b11000]),
]


@pytest.mark.parametrize("g, want", TWIN_CASES)
def test_twin_swaps_are_automorphisms(g, want):
    classes = smallgraphs._twin_classes(g)
    assert sorted(classes) == sorted(want)
    for c in classes:
        members = list(iter_bits(c))
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                assert _swap(g, u, v).adj == g.adj, (u, v)


@pytest.mark.parametrize("g", [g for g, _ in TWIN_CASES])
def test_twin_order_keeps_one_set_per_orbit(g):
    classes = smallgraphs._twin_classes(g)
    swaps = [(u, v) for c in classes for u in iter_bits(c) for v in iter_bits(c) if u < v]

    def swapped(mask, u, v):
        if (mask >> u ^ mask >> v) & 1:
            mask ^= 1 << u | 1 << v
        return mask

    unplaced = set(range(1 << g.n))
    while unplaced:
        orbit, todo = set(), [unplaced.pop()]
        while todo:
            mask = todo.pop()
            orbit.add(mask)
            todo += [m for u, v in swaps if (m := swapped(mask, u, v)) not in orbit]
        unplaced -= orbit
        kept = [m for m in orbit if smallgraphs._keeps_twin_order(m, classes)]
        assert len(kept) == 1, sorted(orbit)


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


@n9
@pytest.mark.filterwarnings("ignore:The hashes produced")  # buckets only, never stored
def test_connected_9_count_and_digest(tmp_path):
    graphs = connected_graphs(9)
    assert len(graphs) == 261080  # OEIS A001349
    written = _written(tmp_path, graphs)
    assert hashlib.sha256(written).hexdigest() == N9_SHA256
    nx = pytest.importorskip("networkx")
    sample = random.Random(9).sample(written.split(), 5000)
    _assert_one_graph_per_class(nx, sample, "connected_9 sample")


@extended
def test_large_tree_counts():
    assert len(all_trees(14)) == 3159
    assert len(all_trees(16)) == 19320


def test_canonical_keys_separate_classes():
    keys = [canonical_key(g) for g in all_graphs(6)]
    assert len(set(keys)) == len(keys)


def _assert_one_graph_per_class(nx, lines, name):
    """No two graph6 ``lines`` that share a Weisfeiler-Lehman hash are isomorphic."""
    buckets = {}
    for line in lines:
        h = nx.from_graph6_bytes(line)
        buckets.setdefault(nx.weisfeiler_lehman_graph_hash(h), []).append(h)
    for bucket in buckets.values():
        for i, a in enumerate(bucket):
            assert not any(nx.is_isomorphic(a, b) for b in bucket[i + 1:]), name


@pytest.mark.filterwarnings("ignore:The hashes produced")  # buckets only, never stored
def test_shipped_corpora_hold_one_graph_per_class():
    nx = pytest.importorskip("networkx")
    names = [f"connected_{n}" for n in range(1, 9)] + [f"trees_{n}" for n in range(1, 11)]
    for name in names:
        _assert_one_graph_per_class(nx, (DATA / f"{name}.g6").read_bytes().split(), name)


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
