import pytest

from kforcing import records
from kforcing import (
    ExactScopeError,
    components,
    compute_record,
    connected_k_domination,
    k_forcing_number,
    k_independence_number,
    vertex_k_connected,
)
from kforcing.bounds import K_CONNECTED, TREE
from kforcing.families import complete, cycle, cycle_tree, path, star

from builders import disjoint_union

_, k_connected = K_CONNECTED  # the hypotheses' tests
_, tree = TREE


def test_record_matches_direct_computations():
    g = cycle(6)
    rec = compute_record(g)
    assert (rec.n, rec.m) == (6, 6)
    assert (rec.max_degree, rec.min_degree, rec.leaf_count) == (2, 2, 0)
    assert rec.connected and len(components(g)) == 1
    assert not tree(rec, 1)
    assert rec.forcing[1] == k_forcing_number(g, 1).value == 2
    assert rec.forcing[2] == 1
    assert rec.gamma_c == connected_k_domination(g, 1)[0] == 4
    assert rec.alpha[1] == k_independence_number(g, 1)[0] == 3
    assert [k_connected(rec, k) for k in (1, 2)] == [
        vertex_k_connected(g, k) for k in (1, 2)
    ] == [True, True]
    assert rec.kappa == 2
    assert rec.hamiltonian and rec.chord_count == 0
    assert rec.cycle_tree_q == 1
    assert rec.star_free_index == 3
    assert rec.path_cover is None


def test_record_on_tree():
    t = star(4)
    rec = compute_record(t)
    assert tree(rec, 1) and rec.path_cover == 3
    assert rec.leaf_count == 4
    assert not rec.hamiltonian and rec.chord_count is None
    assert rec.cycle_tree_q is None


def test_record_extra_forcing_indices_for_star_free_bounds():
    g = complete(4)  # claw-free: r = 3
    rec = compute_record(g)
    # K1R needs index k(r-1)=4, CLAWFREE needs 2k=4, K1R_ALPHA needs r-1=2
    for idx in (1, 2, 4):
        assert rec.forcing[idx] == k_forcing_number(g, idx).value


def test_record_reads_forcing_above_max_degree_from_max_degree(monkeypatch):
    solved = []
    solve = records.k_forcing_number
    monkeypatch.setattr(records, "k_forcing_number",
                        lambda g, k: solved.append(k) or solve(g, k))
    g = cycle(5)
    rec = compute_record(g)
    assert rec.forcing[4] == rec.forcing[3] == rec.forcing[2] == 1
    assert solved == [2]


def test_record_first_alpha_read_fills_every_k_to_max_degree():
    g = star(4)
    rec = compute_record(g)
    assert rec.alpha[2] == 4
    assert rec.alpha == {k: k_independence_number(g, k)[0] for k in (1, 2, 3, 4)}
    assert rec.alpha[6] == 5


def test_record_disconnected():
    g = disjoint_union(complete(3), path(2))
    rec = compute_record(g)
    assert not rec.connected and len(components(g)) == 2
    assert rec.gamma_c is None
    assert rec.forcing[1] == 3
    assert k_connected(rec, 1) is False and rec.kappa == 0


def test_record_scope_and_validation():
    with pytest.raises(ExactScopeError):
        compute_record(path(13))
    with pytest.raises(ValueError):
        compute_record(path(3)).forcing[0]
    with pytest.raises(ValueError):
        compute_record(path(3)).alpha[0]
    rec = compute_record(path(13), max_n=13)
    assert rec.forcing[1] == 1


def test_record_cycle_tree_field():
    g = cycle_tree((3, 3, 4))
    rec = compute_record(g)
    assert rec.cycle_tree_q == 3


def test_record_reads_no_component_until_asked(monkeypatch):
    from kforcing.graph import Graph

    def no_bfs(*args):
        raise AssertionError("component_of ran")

    g = cycle_tree((3, 4))
    monkeypatch.setattr(Graph, "component_of", no_bfs)
    rec = compute_record(g)
    assert (rec.n, rec.m, rec.max_degree, rec.min_degree) == (7, 8, 3, 2)
    assert "forcing" not in vars(rec) and "kappa" not in vars(rec)
    with pytest.raises(AssertionError, match="component_of ran"):
        rec.connected


def test_record_fields_match_their_definitions(connected_upto_6):
    from kforcing import degree_profile

    for g in connected_upto_6 + [disjoint_union(complete(3), path(2), star(3))]:
        rec = compute_record(g)
        dmax, dmin, leaves, hist = degree_profile(g)
        assert (rec.n, rec.m, rec.max_degree, rec.min_degree) == (g.n, g.m, dmax, dmin)
        assert (rec.leaf_count, rec.degree3_count) == (leaves, hist.get(3, 0))
        assert rec.connected == (len(components(g)) == 1) == g.is_connected()
        assert tree(rec, 1) == g.is_tree()
