import random

import pytest

from kforcing import (
    Graph,
    GraphError,
    components,
    degree_profile,
    disjoint_union,
    is_k_forcing_number,
    is_k_forcing_set,
    k_forcing_number,
    k_forcing_sets,
    mask_from,
    vertices_from,
)
from kforcing.families import complete, complete_bipartite, cycle, path
from kforcing.forcing import _fixpoint
from kforcing.graph import subsets_of_size

from forcing_oracle import (
    closure,
    closure_async,
    forcing_number_oracle,
    forcing_sets_oracle,
    min_forcing_cc_oracle,
)
from random_graphs import random_graph


def test_forcing_above_max_degree_equals_forcing_at_max_degree(
    connected_upto_7, trees_by_n
):
    # no vertex ever has more than max degree uncolored neighbours, so
    # every k from the max degree up is one and the same rule
    for g in connected_upto_7 + trees_by_n[10]:
        dmax = max(degree_profile(g)[0], 1)
        at_max = k_forcing_number(g, dmax)
        for k in (dmax + 1, dmax + 2):
            res = k_forcing_number(g, k)
            assert (res.value, res.witness) == (at_max.value, at_max.witness)


def newly_forced(tr) -> tuple[int, ...]:
    """Mask of vertices first colored in each round of a closure trace."""
    out = []
    colored = tr.initial
    for rnd in tr.rounds:
        new = 0
        for _, forced in rnd:
            new |= forced
        new &= ~colored
        colored |= new
        out.append(new)
    return tuple(out)


PETERSEN = Graph.from_edges(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
     (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
     (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
)


def test_closure_everything_colored_means_zero_rounds():
    for g in (cycle(6), complete(4), path(3)):
        tr = closure(g, g.full_mask, 2)
        assert tr.rounds == () and tr.final == g.full_mask


def test_closure_stalls_on_regular_graph_single_vertex():
    tr = closure(cycle(6), mask_from([0]), 1)
    assert tr.final == mask_from([0])
    assert tr.rounds == ()


def test_closure_path_end_to_end():
    tr = closure(path(5), mask_from([0]), 1)
    assert tr.final == path(5).full_mask
    assert len(tr.rounds) == 4
    assert newly_forced(tr) == (2, 4, 8, 16)


def test_closure_complete_one_round():
    tr = closure(complete(5), mask_from([0, 1]), 3)
    assert tr.final == complete(5).full_mask
    assert len(tr.rounds) == 1


def test_closure_validates_inputs():
    with pytest.raises(ValueError):
        closure(path(3), 0, 0)
    with pytest.raises(GraphError):
        closure(path(3), 1 << 5, 1)
    with pytest.raises(GraphError):
        is_k_forcing_set(path(3), 1 << 5, 1)
    with pytest.raises(ValueError):
        is_k_forcing_set(path(3), 1, 0)


def test_fixpoint_matches_closure_and_async_oracle(connected_upto_6):
    for g in connected_upto_6:
        dmax = degree_profile(g)[0]
        for k in range(1, max(dmax, 1) + 1):
            for s in range(1 << g.n):
                fixed = _fixpoint(g.adj, s, k)
                assert fixed == closure(g, s, k).final == closure_async(g, s, k)


def test_trace_respects_rule(connected_upto_6):
    for g in connected_upto_6:
        dmax = degree_profile(g)[0]
        for k in range(1, dmax + 1):
            for v in range(g.n):
                tr = closure(g, 1 << v, k)
                colored = tr.initial
                seen_new = 0
                for rnd in tr.rounds:
                    new = 0
                    for forcer, forced in rnd:
                        assert colored & (1 << forcer)
                        uncolored = g.adj[forcer] & ~colored
                        assert forced == uncolored
                        assert 1 <= forced.bit_count() <= k
                        new |= forced
                    assert new & seen_new == 0  # forced in at most one round
                    seen_new |= new
                    colored |= new
                assert colored == tr.final
                assert tr.final & tr.initial == tr.initial


def test_is_k_forcing_set_cycle_cases():
    g = cycle(6)
    assert is_k_forcing_set(g, mask_from([0, 1]), 1)
    assert not is_k_forcing_set(g, mask_from([0, 3]), 1)
    assert _fixpoint(g.adj, mask_from([0, 3]), 1) == mask_from([0, 3])
    assert is_k_forcing_set(g, g.full_mask, 1)


def test_complete_graph_closed_form():
    for n in range(2, 9):
        for k in range(1, n + 1):
            assert k_forcing_number(complete(n), k).value == max(n - k, 1)


def test_k33_with_k2():
    assert k_forcing_number(complete_bipartite(3, 3), 2).value == 2


def test_petersen_against_oracle():
    res = k_forcing_number(PETERSEN, 1)
    assert res.value == 5
    assert (res.value, res.witness) == forcing_number_oracle(PETERSEN, 1)
    assert is_k_forcing_set(PETERSEN, res.witness, 1)


def test_max_degree_and_dichotomy(connected_upto_6):
    for g in connected_upto_6:
        if g.n < 2:
            continue
        dmax = degree_profile(g)[0]
        assert k_forcing_number(g, dmax).value == 1
        if dmax >= 2:
            regular = len({g.degree(v) for v in range(g.n)}) == 1
            assert k_forcing_number(g, dmax - 1).value == (2 if regular else 1)


def test_matches_oracle_on_small_corpus(connected_upto_7):
    for g in connected_upto_7:
        dmax = degree_profile(g)[0]
        for k in range(1, max(dmax, 1) + 1):
            res = k_forcing_number(g, k)
            assert (res.value, res.witness) == forcing_number_oracle(g, k)


def test_witness_is_colex_first():
    for g in (cycle(6), PETERSEN, complete_bipartite(2, 3)):
        res = k_forcing_number(g, 1)
        better = [
            m
            for m in range(res.witness)
            if m.bit_count() == res.value and is_k_forcing_set(g, m, 1)
        ]
        assert not better


def test_collect_all_minimum():
    res = k_forcing_number(cycle(4), 1, collect_all_minimum=True)
    assert res.value == 2
    # adjacent pairs around the square force; diagonals do not
    assert set(res.all_minimum) == {
        mask_from(p) for p in [(0, 1), (1, 2), (2, 3), (0, 3)]
    }
    assert res.witness == res.all_minimum[0]
    for m in res.all_minimum:
        assert is_k_forcing_set(cycle(4), m, 1)


def test_k_forcing_sets_match_oracle(connected_upto_6):
    for g in connected_upto_6:
        for k in range(1, degree_profile(g)[0] + 2):
            for c in range(g.n + 1):
                assert list(k_forcing_sets(g, k, c)) == forcing_sets_oracle(g, k, c)


def test_is_k_forcing_number_agrees_with_the_exact_value(connected_upto_6):
    for g in connected_upto_6:
        for k in range(1, degree_profile(g)[0] + 2):
            value = k_forcing_number(g, k).value
            for v in range(-1, g.n + 2):
                assert is_k_forcing_number(g, k, v) == (value == v)


def test_is_k_forcing_number_edge_cases():
    g = disjoint_union(complete(4), cycle(5), path(3))  # F_1 = 3 + 2 + 1
    assert is_k_forcing_number(g, 1, 6)
    for v in (-3, 0, 1, 2, g.n + 1, g.n + 5):  # 1 and 2 are below 3 components
        assert not is_k_forcing_number(g, 1, v)
    for k in (0, -1):
        with pytest.raises(ValueError):
            is_k_forcing_number(cycle(4), k, 2)
        with pytest.raises(ValueError):
            k_forcing_sets(cycle(4), k, 2)
    with pytest.raises(ValueError):
        k_forcing_sets(cycle(4), 1, -1)
    empty = Graph.from_edges(0, [])
    with pytest.raises(GraphError):
        k_forcing_number(empty, 1)
    with pytest.raises(GraphError):
        is_k_forcing_number(empty, 1, 0)


def test_monotonicity_in_k(connected_upto_6):
    for g in connected_upto_6:
        dmax = degree_profile(g)[0]
        values = [k_forcing_number(g, k).value for k in range(1, dmax + 2)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_component_additivity_explicit():
    g = disjoint_union(complete(4), cycle(5), path(3))
    for k in (1, 2):
        parts = sum(
            k_forcing_number(g.induced_subgraph(comp), k).value
            for comp in components(g)
        )
        assert k_forcing_number(g, k).value == parts


def test_disjoint_unions_keep_value_and_witness(connected_by_n):
    # the scan starts at level 1, not at the component count; the levels
    # below the count hold no forcing set, so nothing else may change
    graphs = [g for n in range(1, 6) for g in connected_by_n[n]]
    for i, a in enumerate(graphs):
        for b in graphs[i:]:
            g = disjoint_union(a, b)
            for k in range(1, max(degree_profile(g)[0], 1) + 1):
                res = k_forcing_number(g, k)
                from_count = next(
                    (c, mask) for c in range(len(components(g)), g.n + 1)
                    for mask in subsets_of_size(g.n, c) if is_k_forcing_set(g, mask, k))
                assert (res.value, res.witness) == from_count
                assert res.value == (k_forcing_number(a, k).value
                                     + k_forcing_number(b, k).value)


def test_lower_bound_min_degree(connected_upto_6):
    for g in connected_upto_6:
        if g.n < 2:
            continue
        dmax, dmin = degree_profile(g)[:2]
        for k in range(1, dmax + 1):
            assert k_forcing_number(g, k).value >= dmin - k + 1


def test_f1_equals_n_minus_1_only_for_complete(connected_upto_6):
    for g in connected_upto_6:
        if g.n >= 2 and k_forcing_number(g, 1).value == g.n - 1:
            assert g.m == g.n * (g.n - 1) // 2


def test_superset_closure_monotonicity():
    rng = random.Random(7)
    for _ in range(120):
        g = random_graph(rng.randint(2, 8), rng.choice([0.25, 0.5, 0.75]), rng)
        s = rng.getrandbits(g.n)
        extra = rng.getrandbits(g.n)
        t = s | extra
        for k in (1, 2):
            fs = _fixpoint(g.adj, s, k)
            ft = _fixpoint(g.adj, t, k)
            assert fs & ~ft == 0


def test_confluence_spot_checks():
    for g in (cycle(6), PETERSEN, complete_bipartite(3, 3)):
        for k in (1, 2, 3):
            for v in range(g.n):
                assert _fixpoint(g.adj, 1 << v, k) == closure_async(g, 1 << v, k)


def test_spread_examples():
    g = cycle(6)
    assert k_forcing_number(g, 1).value == 2
    assert k_forcing_number(g.delete_edge(0, 1), 1).value == 1
    k4 = complete(4)
    assert k_forcing_number(k4.delete_vertex(0), 1).value == 2


def test_min_forcing_connected_complement_examples():
    assert min_forcing_cc_oracle(complete(4), 1)[0] == 3
    value, mask = min_forcing_cc_oracle(cycle(5), 1)
    assert value == 2
    assert vertices_from(mask) == (0, 1)
    g = cycle(5)
    assert g.is_connected_within(g.full_mask & ~mask)


def test_connected_complement_yields_connected_dominating_set(connected_upto_6):
    from kforcing import vertex_k_connected

    for g in connected_upto_6[:60]:
        for k in (1, 2):
            if not vertex_k_connected(g, k):
                continue
            _, mask = min_forcing_cc_oracle(g, k)
            rest = g.full_mask & ~mask
            assert rest  # the minimum never needs all n vertices
            assert g.is_connected_within(rest)
            outside = vertices_from(g.full_mask & ~rest)
            assert all((g.adj[v] & rest).bit_count() >= k for v in outside)


def test_isolated_vertices_must_be_chosen():
    g = disjoint_union(path(3), Graph(2, (0, 0)))
    res = k_forcing_number(g, 1)
    assert res.value == 3
    assert res.witness & mask_from([3, 4]) == mask_from([3, 4])
