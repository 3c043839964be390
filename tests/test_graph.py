import copy
import pickle
import random
from itertools import combinations
from math import comb

import pytest

from kforcing import (
    Graph,
    GraphError,
    components,
    degree_profile,
    iter_bits,
    parse_graph6,
    subsets_of_size,
    vertices_from,
)
from kforcing.families import complete, cycle, path, star
from kforcing.graph import LEVEL_CAP, from_upper_triangle, upper_triangle
from kforcing.smallgraphs import canonical_graph, canonical_key

from builders import (
    delete_edge, delete_vertex, disjoint_union, edges, has_edge, induced_subgraph, mask_from,
    neighbors)
from conftest import DATA


def test_from_edges_basic():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.degree(1) == 2
    assert has_edge(g, 0, 1) and not has_edge(g, 0, 2)
    assert list(edges(g)) == [(0, 1), (1, 2), (2, 3)]
    assert neighbors(g, 1) == (0, 2)


def test_validation_rejects_bad_graphs():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(GraphError):
        Graph(2, (2,))  # adjacency length mismatch
    with pytest.raises(GraphError):
        Graph(2, (0, 1))  # asymmetric: 1 lists 0 but not vice versa
    with pytest.raises(GraphError):
        Graph(1, (1,))  # self-loop bit
    with pytest.raises(GraphError):
        Graph(2, (4, 0))  # neighbour 2 out of range


def test_graph_is_immutable():
    g = path(3)
    with pytest.raises(Exception):
        g.n = 5


@pytest.mark.parametrize("n, adj, message", [
    (-1, (), "negative vertex count -1"),
    (2, (2,), "adjacency length does not match vertex count"),
    (1, (1,), "self-loop at vertex 0"),
    (2, (4, 0), "neighbor of 0 out of range"),
    (2, (0, 1), "asymmetric edge (1, 0)"),
])
def test_validation_messages(n, adj, message):
    with pytest.raises(GraphError) as info:
        Graph(n, adj)
    assert str(info.value) == message


def test_graph_is_a_value_object():
    g = cycle(4)
    for name in ("n", "adj", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, 5)
    with pytest.raises(AttributeError):
        del g.adj
    assert (g.n, g.adj) == (4, (10, 5, 10, 5))
    assert repr(g) == "Graph(n=4, adj=(10, 5, 10, 5))"
    same = Graph(4, (10, 5, 10, 5))
    assert g == same and hash(g) == hash(same) and g != path(4)
    assert g != (4, (10, 5, 10, 5))
    for twin in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert type(twin) is Graph and twin == g
        with pytest.raises(AttributeError):
            twin.n = 5


def test_mask_helpers_round_trip():
    assert mask_from([0, 2, 5]) == 0b100101
    assert vertices_from(0b100101) == (0, 2, 5)
    assert vertices_from(mask_from(range(7))) == tuple(range(7))


def test_subsets_of_size_is_colex():
    # n = 15 has levels on both sides of the cap: C(15, 7) = 6435 > 4096
    assert comb(15, 7) > LEVEL_CAP >= comb(14, 7)
    for n in range(16):
        for c in range(n + 2):
            got = list(subsets_of_size(n, c))
            want = sorted(mask_from(combo) for combo in combinations(range(n), c))
            assert got == want
    assert list(subsets_of_size(3, 5)) == []


def test_subsets_of_size_keeps_only_small_levels():
    small = subsets_of_size(14, 7)
    assert isinstance(small, tuple) and subsets_of_size(14, 7) is small
    large = subsets_of_size(15, 7)
    assert not isinstance(large, tuple) and subsets_of_size(15, 7) is not large
    assert sum(1 for _ in large) == comb(15, 7)


@pytest.mark.parametrize("n, c, bad", [(3, -1, "-1"), (-2, 1, "-2"), (-1, -1, "-1")])
def test_subsets_of_size_rejects_negative_sizes(n, c, bad):
    with pytest.raises(ValueError, match=f"got {bad}$"):
        subsets_of_size(n, c)


def test_components_disjoint_triangles():
    g = disjoint_union(complete(3), complete(3))
    comps = components(g)
    assert [c.bit_count() for c in comps] == [3, 3]
    assert comps[0] == 0b000111 and comps[1] == 0b111000


def test_components_connected_and_empty():
    assert components(cycle(5)) == [0b11111]
    g = Graph(4, (0, 0, 0, 0))
    assert components(g) == [1, 2, 4, 8]


def test_components_partition_properties(connected_upto_6):
    for g in connected_upto_6:
        for v in range(g.n):
            h = delete_vertex(g, v)
            if h.n == 0:
                continue
            comps = components(h)
            union = 0
            for comp in comps:
                assert union & comp == 0
                union |= comp
                for w in vertices_from(comp):
                    assert h.adj[w] & ~comp == 0  # no edges leave a component
            assert union == h.full_mask


def test_degree_profile_examples():
    assert degree_profile(cycle(6)) == (2, 2, 0, {2: 6})
    assert degree_profile(star(4)) == (4, 1, 4, {1: 4, 4: 1})
    with pytest.raises(GraphError):
        degree_profile(Graph(0, ()))


def test_degree3_count_is_twice_chords_for_cubic_hamiltonian():
    from kforcing import hamiltonian_cycle

    prism = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )
    for g in (complete(4), prism):
        assert hamiltonian_cycle(g) is not None
        dmax, _, _, hist = degree_profile(g)
        assert dmax == 3
        assert hist[3] == 2 * (g.m - g.n)


def test_delete_vertex_reindexes_densely():
    g = path(4)
    h = delete_vertex(g, 1)  # 0, 2-3 -> relabeled 0, 1-2
    assert h.n == 3 and h.m == 1
    assert has_edge(h, 1, 2) and not has_edge(h, 0, 1)


def test_delete_edge():
    g = cycle(4)
    h = delete_edge(g, 0, 1)
    assert h.n == 4 and h.m == 3
    assert not has_edge(h, 0, 1)
    with pytest.raises(GraphError):
        delete_edge(h, 0, 1)


def test_induced_subgraph_preserves_order():
    g = cycle(5)
    h = induced_subgraph(g, mask_from([0, 1, 3]))
    assert h.n == 3
    assert list(edges(h)) == [(0, 1)]  # only edge 0-1 survives


def test_connectivity_helpers():
    g = path(5)
    assert g.is_connected()
    assert g.is_connected_within(mask_from([1, 2, 3]))
    assert not g.is_connected_within(mask_from([0, 2]))
    assert g.is_connected_within(mask_from([4]))
    assert not g.is_connected_within(0)
    assert not Graph(0, ()).is_connected()


def test_is_tree():
    assert path(6).is_tree()
    assert star(3).is_tree()
    assert not cycle(4).is_tree()
    assert not disjoint_union(path(2), path(2)).is_tree()


def test_disjoint_union_shifts_indices():
    g = disjoint_union(path(2), cycle(3))
    assert g.n == 5 and g.m == 4
    assert has_edge(g, 0, 1) and has_edge(g, 2, 3) and not has_edge(g, 1, 2)


# -- the upper-triangle order shared by graph6 and canonical keys ---------

# (i, j), i < j, column by column, written out independently of the package
PAIRS = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4),
         (3, 4)] + [(i, j) for j in range(5, 10) for i in range(j)]


def test_upper_triangle_sets_bit_p_for_the_pth_pair(connected_by_n, trees_by_n):
    graphs = [g for n in range(1, 8) for g in connected_by_n[n]] + [
        t for n in range(1, 11) for t in trees_by_n[n]]
    for g in graphs:
        edge_set = set(edges(g))
        want = sum(1 << p for p, pair in enumerate(PAIRS) if pair in edge_set)
        assert upper_triangle(g) == want
        assert canonical_key(g) == (g.n, upper_triangle(canonical_graph(g)))


def test_from_upper_triangle_round_trips_every_corpus_graph():
    count = 0
    for path_ in sorted(DATA.glob("*.g6")):
        for line in path_.read_text().split():
            g = parse_graph6(line)
            h = from_upper_triangle(g.n, upper_triangle(g))
            assert h == g and Graph(h.n, h.adj) == h
            count += 1
    assert count == 12314


def test_upper_triangle_of_the_smallest_graphs():
    for n in (0, 1):
        assert upper_triangle(Graph(n, (0,) * n)) == 0
        assert from_upper_triangle(n, 0) == Graph(n, (0,) * n)
    assert upper_triangle(complete(4)) == 0b111111
    star_at_2 = Graph.from_edges(4, [(0, 2), (1, 2), (2, 3)])
    assert from_upper_triangle(4, 0b100110) == star_at_2


# -- the inlined bit walks against generator-based oracles ----------------

def component_of_oracle(g: Graph, start: int, within: int | None = None) -> int:
    """Breadth-first search over ``iter_bits``, as ``component_of`` once was."""
    allowed = g.full_mask if within is None else within
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v] & allowed
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def test_component_of_matches_oracle_on_every_start_and_mask(connected_upto_6):
    graphs = connected_upto_6 + [disjoint_union(cycle(3), path(3)), Graph(3, (0, 0, 0))]
    for g in graphs:
        for start in range(g.n):
            assert g.component_of(start, g.full_mask) == component_of_oracle(g, start)
            for within in range(1 << g.n):
                assert g.component_of(start, within) == component_of_oracle(
                    g, start, within)


def test_from_upper_triangle_matches_a_validated_edge_build():
    rng = random.Random(18)
    for n in range(11):
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for draw in range(100):
            bits = rng.getrandbits(len(pairs))
            if draw % 2:  # sparse as well as half-dense graphs
                bits &= rng.getrandbits(len(pairs))
            want = Graph.from_edges(
                n, [pair for p, pair in enumerate(pairs) if bits >> p & 1])
            assert from_upper_triangle(n, bits) == want
        assert from_upper_triangle(n, (1 << len(pairs)) - 1) == Graph.from_edges(n, pairs)
