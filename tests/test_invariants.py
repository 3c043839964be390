from itertools import combinations, permutations

import pytest

from kforcing import (
    ExactScopeError,
    Graph,
    GraphError,
    connected_k_domination,
    degree_profile,
    hamiltonian_cycle,
    is_cycle_tree,
    iter_bits,
    k_forcing_number,
    k_independence_number,
    min_star_free_index,
    path_cover_number,
    subsets_of_size,
    vertex_connectivity,
    vertex_k_connected,
    vertices_from,
)
from kforcing.invariants import k_independence_numbers
from kforcing.families import (
    complete,
    complete_bipartite,
    cycle,
    cycle_tree,
    double_leaf_caterpillar,
    path,
    star,
    subdivided_star,
)

from builders import disjoint_union, induced_subgraph, mask_from, neighbors
from spanning_tree_oracle import max_leaf_spanning_tree


# -- independent oracles (set-based, no bitmask machinery) -------------------

def gamma_kc_oracle(g: Graph, k: int):
    adj = {v: set(neighbors(g, v)) for v in range(g.n)}

    def connected(sub):
        sub = set(sub)
        if not sub:
            return False
        seen = {next(iter(sorted(sub)))}
        frontier = set(seen)
        while frontier:
            frontier = {u for v in frontier for u in adj[v] & sub} - seen
            seen |= frontier
        return seen == sub

    for c in range(1, g.n + 1):
        for combo in combinations(range(g.n), c):
            dset = set(combo)
            if not connected(dset):
                continue
            if all(len(adj[v] & dset) >= k for v in set(range(g.n)) - dset):
                return c
    return None


def alpha_k_oracle(g: Graph, k: int) -> int:
    best = 0
    for c in range(g.n, 0, -1):
        for combo in combinations(range(g.n), c):
            sub = set(combo)
            if all(len(set(neighbors(g, v)) & sub) < k for v in sub):
                return c
    return best


# -- brute twins of the bitmask solvers: plain subset scans, no pruning ----------

def gamma_kc_scan(g: Graph, k: int) -> tuple[int, int] | None:
    """Colex scan testing connectivity first, then domination with all()."""
    if not g.is_connected():
        return None
    full = g.full_mask
    for c in range(1, g.n + 1):
        for mask in subsets_of_size(g.n, c):
            if not g.is_connected_within(mask):
                continue
            if all(
                (g.adj[v] & mask).bit_count() >= k for v in iter_bits(full & ~mask)
            ):
                return c, mask
    return None


def alpha_k_scan(g: Graph, k: int) -> tuple[int, int]:
    """Downward colex scan testing every member's inside degree with all()."""
    for c in range(g.n, 0, -1):
        for mask in subsets_of_size(g.n, c):
            if all((g.adj[v] & mask).bit_count() < k for v in iter_bits(mask)):
                return c, mask
    raise AssertionError("unreachable: a single vertex always qualifies")


def k_connected_scan(g: Graph, k: int) -> bool:
    """n > k, and no deletion of fewer than k vertices disconnects the graph."""
    if g.n <= k:
        return False
    full = g.full_mask
    return all(
        g.is_connected_within(full & ~mask)
        for c in range(k)
        for mask in subsets_of_size(g.n, c)
    )


def max_leaf_oracle(g: Graph) -> int:
    """Spanning trees by edge-subset scan (independent of the B&B path)."""
    edges = list(g.edges())
    best = 0
    for combo in combinations(edges, g.n - 1):
        seen = {0}
        nbr = {v: set() for v in range(g.n)}
        for u, v in combo:
            nbr[u].add(v)
            nbr[v].add(u)
        frontier = {0}
        while frontier:
            frontier = {u for v in frontier for u in nbr[v]} - seen
            seen |= frontier
        if len(seen) == g.n:
            leaves = sum(1 for v in range(g.n) if len(nbr[v]) == 1)
            best = max(best, leaves)
    return best


def first_hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """The lexicographically first Hamiltonian cycle from vertex 0, or None."""
    if g.n < 3:
        return None
    for perm in permutations(range(1, g.n)):
        order = (0,) + perm
        if all(
            g.has_edge(order[i], order[(i + 1) % g.n]) for i in range(g.n)
        ):
            return order
    return None


# -- connected k-domination ---------------------------------------------------

def test_gamma_c_examples():
    assert connected_k_domination(complete(5), 1)[0] == 1
    assert connected_k_domination(cycle(6), 1)[0] == 4
    res = connected_k_domination(path(5), 1)
    assert res[0] == 3
    assert vertices_from(res[1]) == (1, 2, 3)


def test_gamma_kc_k33_matches_oracle():
    g = complete_bipartite(3, 3)
    want = gamma_kc_oracle(g, 2)
    assert want == 4
    assert connected_k_domination(g, 2)[0] == want


def test_gamma_disconnected_is_none():
    g = disjoint_union(complete(3), complete(3))
    assert connected_k_domination(g, 1) is None


def test_gamma_kc_against_oracle_on_corpus(connected_upto_6):
    for g in connected_upto_6:
        if g.n > 5:
            continue
        for k in (1, 2):
            res = connected_k_domination(g, k)
            want = gamma_kc_oracle(g, k)
            assert (res[0] if res else None) == want


def test_gamma_kc_and_alpha_match_scans(connected_upto_7):
    for g in connected_upto_7:
        for k in range(1, max(degree_profile(g)[0], 1) + 1):
            assert connected_k_domination(g, k) == gamma_kc_scan(g, k)
            assert k_independence_number(g, k) == alpha_k_scan(g, k)


def test_k_independence_numbers_match_scan_at_every_k(connected_upto_7, trees_by_n):
    # one scan answers every k with that k's own colex-first witness
    for g in connected_upto_7 + trees_by_n[10]:
        ks = range(1, degree_profile(g)[0] + 2)
        assert k_independence_numbers(g, ks) == {k: alpha_k_scan(g, k) for k in ks}


def test_gamma_witness_is_valid(connected_upto_6):
    for g in connected_upto_6[:50]:
        size, mask = connected_k_domination(g, 1)
        assert mask.bit_count() == size
        assert g.is_connected_within(mask)
        for v in vertices_from(g.full_mask & ~mask):
            assert g.adj[v] & mask


# -- k-independence -----------------------------------------------------------

def test_alpha_examples():
    assert k_independence_number(cycle(5), 1)[0] == 2
    assert k_independence_number(complete(4), 2)[0] == 2
    for g in (cycle(6), complete(4), star(3)):
        dmax = degree_profile(g)[0]
        assert k_independence_number(g, dmax + 1)[0] == g.n
    with pytest.raises(ValueError):
        k_independence_numbers(cycle(5), [2, 0])


def test_alpha_against_oracle_on_corpus(connected_upto_6):
    for g in connected_upto_6:
        if g.n > 5:
            continue
        for k in (1, 2, 3):
            value, mask = k_independence_number(g, k)
            assert value == alpha_k_oracle(g, k)
            assert mask.bit_count() == value
            assert all(
                (g.adj[v] & mask).bit_count() < k for v in vertices_from(mask)
            )


# -- path cover ----------------------------------------------------------------

def _induces_path(t: Graph, mask: int) -> bool:
    # In a tree, connected + all internal degrees <= 2 is exactly a path.
    if not t.is_connected_within(mask):
        return False
    return all((t.adj[v] & mask).bit_count() <= 2 for v in vertices_from(mask))


def path_cover_brute(t: Graph) -> tuple[int, tuple[int, ...]]:
    """Oracle: minimum path partition by dynamic programming over all subsets."""
    assert t.is_tree()
    paths = [m for m in range(1, 1 << t.n) if _induces_path(t, m)]
    best: dict[int, int] = {0: 0}
    choice: dict[int, int] = {}
    for mask in range(1, 1 << t.n):
        low = mask & -mask
        best_parts = t.n + 1
        best_piece = low
        for piece in paths:
            if piece & ~mask or not piece & low:
                continue
            parts = best[mask & ~piece] + 1
            if parts < best_parts:
                best_parts = parts
                best_piece = piece
        best[mask] = best_parts
        choice[mask] = best_piece
    parts = []
    mask = t.full_mask
    while mask:
        piece = choice[mask]
        parts.append(piece)
        mask &= ~piece
    return best[t.full_mask], tuple(parts)


def test_path_cover_examples():
    for n in (1, 2, 5, 9):
        assert path_cover_number(path(n))[0] == 1
    assert path_cover_number(star(4))[0] == 3
    for spine in (2, 3, 4, 5):
        assert path_cover_number(double_leaf_caterpillar(spine))[0] == spine
    for rays in (3, 4, 5):
        for subs in (0, 1, 2):
            t = subdivided_star(rays, subs)
            leaves = degree_profile(t)[2]
            assert path_cover_number(t)[0] == leaves - 1


def test_path_cover_rejects_non_trees():
    with pytest.raises(GraphError):
        path_cover_number(cycle(4))
    with pytest.raises(GraphError):
        path_cover_number(disjoint_union(path(2), path(2)))


def _check_partition(t: Graph, parts):
    union = 0
    for part in parts:
        assert union & part == 0
        union |= part
        assert t.is_connected_within(part)
        assert all(
            (t.adj[v] & part).bit_count() <= 2 for v in vertices_from(part)
        )
        # connected + max degree 2 + acyclic (tree) = induced path
    assert union == t.full_mask


def test_path_cover_witness_validity(trees_by_n):
    for n in (5, 7, 9):
        for t in trees_by_n[n]:
            count, parts = path_cover_number(t)
            assert len(parts) == count
            _check_partition(t, parts)


def test_brute_and_dp_agree_on_all_small_trees(trees_by_n):
    for n in range(1, 11):
        for t in trees_by_n[n]:
            vb, pb = path_cover_brute(t)
            vd, pd = path_cover_number(t)
            assert vb == vd
            _check_partition(t, pb)
            _check_partition(t, pd)


def test_dp_used_beyond_brute_scope():
    t = double_leaf_caterpillar(5)  # 15 vertices
    count, parts = path_cover_number(t)
    assert count == 5
    _check_partition(t, parts)


def test_path_cover_equals_zero_forcing_small(trees_by_n):
    for n in (2, 4, 6, 8):
        for t in trees_by_n[n]:
            assert path_cover_number(t)[0] == k_forcing_number(t, 1).value


# -- max-leaf spanning trees -----------------------------------------------------

def test_max_leaf_examples():
    for n in (3, 5, 8):
        assert max_leaf_spanning_tree(cycle(n)) == 2
    for n in (3, 4, 6):
        assert max_leaf_spanning_tree(complete(n)) == n - 1


def test_max_leaf_against_oracle(connected_upto_6):
    for g in connected_upto_6:
        if g.n < 3 or g.n > 6:
            continue
        assert max_leaf_spanning_tree(g) == max_leaf_oracle(g)


def test_max_leaf_equals_n_minus_gamma_c(connected_upto_6):
    for g in connected_upto_6:
        if g.n < 3:
            continue
        assert max_leaf_spanning_tree(g) == g.n - connected_k_domination(g, 1)[0]


def test_max_leaf_input_gates():
    with pytest.raises(GraphError):
        max_leaf_spanning_tree(path(2))
    with pytest.raises(GraphError):
        max_leaf_spanning_tree(disjoint_union(path(2), path(2)))
    with pytest.raises(ExactScopeError):
        max_leaf_spanning_tree(cycle(11))


# -- vertex connectivity -----------------------------------------------------------

def test_connectivity_examples():
    assert vertex_k_connected(cycle(5), 2)
    assert not vertex_k_connected(cycle(5), 3)
    assert vertex_k_connected(complete(4), 3)
    assert not vertex_k_connected(complete(4), 4)  # needs n > k
    assert not vertex_k_connected(star(3), 2)  # min degree 1 < 2


def test_vertex_connectivity_examples():
    assert vertex_connectivity(complete(1)) == 0
    assert vertex_connectivity(complete(2)) == 1
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(cycle(5)) == 2
    assert vertex_connectivity(star(3)) == 1
    assert vertex_connectivity(complete_bipartite(3, 4)) == 3
    assert vertex_connectivity(disjoint_union(complete(3), complete(3))) == 0
    assert vertex_connectivity(Graph(0, ())) == 0


def test_k_connected_matches_per_k_scan(connected_upto_7):
    extra = [complete(1), complete(2), disjoint_union(cycle(4), complete(3))]
    for g in connected_upto_7 + extra:
        for k in range(1, g.n + 1):
            assert vertex_k_connected(g, k) == k_connected_scan(g, k)


def test_connectivity_against_networkx(connected_upto_7):
    nx = pytest.importorskip("networkx")
    for g in connected_upto_7 + [disjoint_union(cycle(4), complete(3))]:
        gg = nx.Graph()
        gg.add_nodes_from(range(g.n))
        gg.add_edges_from(g.edges())
        conn = nx.node_connectivity(gg)
        assert vertex_connectivity(g) == conn
        for k in range(1, g.n + 1):
            want = conn >= k and g.n > k
            assert vertex_k_connected(g, k) == want


def test_k_connectivity_implies_min_degree(connected_upto_6):
    for g in connected_upto_6:
        dmin = degree_profile(g)[1]
        for k in range(1, g.n):
            if vertex_k_connected(g, k):
                assert dmin >= k


# -- Hamiltonian cycles -------------------------------------------------------------

def test_hamiltonian_examples():
    cyc = hamiltonian_cycle(cycle(6))
    assert cyc is not None and cycle(6).m - 6 == 0
    k4 = complete(4)
    cyc = hamiltonian_cycle(k4)
    assert cyc is not None
    assert k4.m - k4.n == 2
    assert hamiltonian_cycle(complete_bipartite(2, 3)) is None
    assert hamiltonian_cycle(complete(1)) is None
    assert hamiltonian_cycle(complete(2)) is None


def test_hamiltonian_cycle_is_valid_and_matches_oracle(connected_upto_6):
    for g in connected_upto_6:
        if g.n < 3:
            continue
        cyc = hamiltonian_cycle(g)
        # backtracking tries neighbours in index order: the first cycle in lex order
        assert cyc == first_hamiltonian_cycle(g)
        if cyc is not None:
            assert sorted(cyc) == list(range(g.n))
            assert all(
                g.has_edge(cyc[i], cyc[(i + 1) % g.n]) for i in range(g.n)
            )


# -- star-freeness ----------------------------------------------------------------

def is_k1r_free(g: Graph, r: int) -> bool:
    """True iff no vertex has r pairwise non-adjacent neighbors."""
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    for v in range(g.n):
        nbrs = vertices_from(g.adj[v])
        if len(nbrs) < r:
            continue
        for combo in combinations(nbrs, r):
            if all(not g.has_edge(a, b) for a, b in combinations(combo, 2)):
                return False
    return True


def test_k1r_free_examples():
    claw = star(3)
    assert not is_k1r_free(claw, 3)
    assert is_k1r_free(claw, 4)
    assert is_k1r_free(cycle(6), 3)
    with pytest.raises(ValueError):
        is_k1r_free(claw, 2)


def test_k1r_free_against_induced_subgraph_search(connected_upto_6):
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    for g in connected_upto_6:
        if g.n > 5:
            continue
        gg = nx.Graph()
        gg.add_nodes_from(range(g.n))
        gg.add_edges_from(g.edges())
        for r in (3, 4):
            pattern = nx.star_graph(r)
            found = any(
                GraphMatcher(gg.subgraph(nodes), pattern).is_isomorphic()
                for nodes in combinations(range(g.n), r + 1)
            )
            assert is_k1r_free(g, r) == (not found)


def test_min_star_free_index():
    assert min_star_free_index(complete(5)) == 3
    assert min_star_free_index(star(3)) == 4
    assert min_star_free_index(star(5)) == 6
    assert min_star_free_index(cycle(8)) == 3
    with pytest.raises(GraphError):
        min_star_free_index(Graph(0, ()))


def star_free_ladder(g: Graph) -> int:
    r = 3
    while not is_k1r_free(g, r):
        r += 1
    return r


def test_min_star_free_index_matches_k1r_free_ladder(connected_upto_7, trees_by_n):
    for g in connected_upto_7 + trees_by_n[10]:
        assert min_star_free_index(g) == star_free_ladder(g)


def test_k1r_neighbor_bound_on_max_k_independent_sets(connected_upto_6):
    # every maximum k-independent set I: outside vertices have at most
    # k(r-1) neighbors in I when the graph is K_{1,r}-free with min degree 1
    from kforcing import subsets_of_size

    for g in connected_upto_6:
        if g.n > 5 or g.n < 2:
            continue
        r = min_star_free_index(g)
        for k in (1, 2):
            size, _ = k_independence_number(g, k)
            maxima = [
                m
                for m in subsets_of_size(g.n, size)
                if all((g.adj[v] & m).bit_count() < k for v in vertices_from(m))
            ]
            for m in maxima:
                for v in vertices_from(g.full_mask & ~m):
                    assert (g.adj[v] & m).bit_count() <= k * (r - 1)


# -- cycle-trees -------------------------------------------------------------------

def test_cycle_tree_examples():
    assert is_cycle_tree(cycle(5)) == (True, 1)
    assert is_cycle_tree(cycle_tree((3, 4, 5))) == (True, 3)
    assert is_cycle_tree(path(4)) == (False, None)
    assert is_cycle_tree(complete(4)) == (False, None)


def test_cycle_tree_rejects_shared_vertex():
    # two triangles glued at a vertex: that vertex lies on two cycles
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert is_cycle_tree(g) == (False, None)


def test_cycle_tree_rejects_theta_graph():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    assert is_cycle_tree(g) == (False, None)


def cycle_tree_oracle(g: Graph) -> tuple[bool, int | None]:
    """Connected, and each vertex keeps exactly two edges once every
    bridge (an edge whose deletion disconnects the graph) is dropped."""
    if g.n < 3 or not g.is_connected():
        return False, None
    kept = [0] * g.n
    for u, v in g.edges():
        if g.delete_edge(u, v).is_connected():
            kept[u] += 1
            kept[v] += 1
    if any(d != 2 for d in kept):
        return False, None
    return True, g.m - g.n + 1


def test_cycle_tree_against_bridge_deletion_oracle(connected_upto_7, trees_by_n):
    graphs = connected_upto_7 + trees_by_n[10]
    graphs += [cycle_tree(lengths) for lengths in ((3, 3), (3, 4, 5), (5, 3, 3, 4))]
    assert sum(is_cycle_tree(g)[0] for g in graphs) >= 10
    for g in graphs:
        assert is_cycle_tree(g) == cycle_tree_oracle(g)


def test_cycle_tree_component_structure():
    g = cycle_tree((3, 5, 4))
    flag, q = is_cycle_tree(g)
    assert flag and q == 3 == g.m - g.n + 1
    assert mask_from(range(g.n)) == g.full_mask


def test_independence_of_every_neighbourhood_and_whole_graph(connected_upto_7):
    from kforcing.invariants import _independence

    for g in connected_upto_7:
        for mask in (*g.adj, g.full_mask):
            want = k_independence_number(induced_subgraph(g, mask), 1)[0] if mask else 0
            assert _independence(g.adj, mask) == want
