import os
from fractions import Fraction

import pytest

from kforcing import (
    ALL_BOUNDS,
    BoundId,
    compute_record,
    connected_k_domination,
    degree_profile,
    evaluate_bounds,
    k_forcing_number,
)
from kforcing.bounds import BOUNDS, K_CONNECTED, bound_outcomes
from kforcing.families import (
    complete,
    complete_bipartite,
    cycle,
    cycle_tree,
    double_leaf_caterpillar,
    path,
    pendant_path,
    star,
    subdivided_star,
)
from kforcing.cli import main
from kforcing.graphio import write_graph6
from kforcing.smallgraphs import all_graphs

from bound_helper import bound_value
from builders import disjoint_union
from conftest import DATA

_, k_connected = K_CONNECTED  # the hypothesis's test


def test_main_bound_value_k4():
    g = complete(4)
    assert bound_value(BoundId.MAIN, compute_record(g), 1) == Fraction(3)
    assert k_forcing_number(g, 1).value == 3


def test_ratio_is_three_quarters_for_cubic():
    for g in (complete(4), complete_bipartite(3, 3)):
        rec = compute_record(g)
        assert bound_value(BoundId.RATIO, rec, 1) == Fraction(3 * g.n, 4)


def test_cor3_is_half_n_plus_one_for_max_degree_3():
    g = pendant_path(3)  # max degree 3
    assert degree_profile(g)[0] == 3
    assert bound_value(BoundId.COR3, compute_record(g), 1) == Fraction(g.n, 2) + 1


def test_main2_equality_on_complete_for_k_1_and_2():
    for d in (2, 3, 4, 5):
        g = complete(d + 1)
        rec = compute_record(g)
        for k in (1, 2):
            val = bound_value(BoundId.MAIN2, rec, k)
            assert val == k_forcing_number(g, k).value


def test_cor3_equality_on_balanced_bipartite():
    for d in (2, 3, 4):
        g = complete_bipartite(d, d)
        val = bound_value(BoundId.COR3, compute_record(g), 1)
        assert val == k_forcing_number(g, 1).value == 2 * d - 2


def test_gates_yield_not_applicable():
    k2 = path(2)
    rec = compute_record(k2)
    assert bound_value(BoundId.COR3, rec, 1) is None  # max degree 1
    assert bound_value(BoundId.MAIN, compute_record(k2), 2) is None  # D < k
    c5 = cycle(5)
    assert bound_value(BoundId.HAM_CHORDS, compute_record(c5), 1) is None  # t = 0
    k3 = complete(3)
    assert bound_value(BoundId.HAM_CHORDS, compute_record(k3), 1) is None  # t = 0
    assert bound_value(BoundId.TREE_LEAF, compute_record(c5), 1) is None  # not a tree
    iso = disjoint_union(path(2), complete(1))
    assert bound_value(BoundId.RATIO, compute_record(iso), 1) is None  # min degree 0
    assert bound_value(BoundId.CONN_DOM, compute_record(iso), 1) is None


def test_lower_deg_always_applicable():
    for g in (path(2), cycle(5), disjoint_union(path(2), complete(1))):
        rec = compute_record(g)
        val = bound_value(BoundId.LOWER_DEG, rec, 1)
        assert val is not None
        assert rec.forcing[1] >= val


def test_tree_leaf_two_sided():
    t = star(5)
    reports = [
        r
        for r in evaluate_bounds(t, [1], ids=(BoundId.TREE_LEAF,))
        if r.applicable
    ]
    sides = {r.side: r for r in reports}
    assert set(sides) == {"lower", "upper"}
    assert sides["lower"].bound_value == Fraction(3)  # ceil(5/2)
    assert sides["upper"].bound_value == Fraction(4)
    assert sides["upper"].equality  # stars are subdivided stars with 0 subdivisions


def test_tree_leaf_values_on_families():
    for spine in (2, 3, 4):
        t = double_leaf_caterpillar(spine)
        low = bound_value(BoundId.TREE_LEAF, compute_record(t), 1, side="lower")
        assert low == k_forcing_number(t, 1).value  # lower end is tight
    for rays in (3, 4):
        t = subdivided_star(rays, 1)
        up = bound_value(BoundId.TREE_LEAF, compute_record(t), 1, side="upper")
        assert up == k_forcing_number(t, 1).value  # upper end is tight


def test_tree_cor_tight_on_paths():
    t = path(6)
    assert bound_value(BoundId.TREE_COR, compute_record(t), 1) == Fraction(1)


def test_cycle_tree_bound():
    g = cycle_tree((3, 4, 3))
    rec = compute_record(g)
    assert bound_value(BoundId.CYCLE_TREE, rec, 1) == Fraction(6)
    assert rec.forcing[1] <= 6


def test_star_free_bounds_pick_smallest_r():
    g = star(4)  # K_{1,4}: free of K_{1,5} but not K_{1,4}
    rec = compute_record(g)
    assert rec.star_free_index == 5
    reports = [
        r for r in evaluate_bounds(g, [1], ids=(BoundId.K1R,)) if r.applicable
    ]
    assert reports[0].detail == (("r", 5), ("index", 4))
    # F_4(K_{1,4}) = 1 <= n - alpha_1 = 5 - 4
    assert reports[0].bound_value == Fraction(1)
    assert reports[0].exact_value == 1 and reports[0].equality


def test_evaluate_bounds_c6_all_satisfied_conn_dom_tight():
    g = cycle(6)
    reports = evaluate_bounds(g, [1, 2])
    assert all(r.satisfied for r in reports if r.applicable)
    conn_dom = [r for r in reports if r.bound is BoundId.CONN_DOM and r.k == 1][0]
    assert conn_dom.equality and conn_dom.bound_value == Fraction(2)
    na = [r for r in reports if not r.applicable]
    assert all(r.equality is None and r.bound_value is None for r in na)


def test_ratio_equality_on_disjoint_complete_graphs():
    g = disjoint_union(complete(4), complete(4))
    reports = evaluate_bounds(g, [1], ids=(BoundId.RATIO,))
    rep = [r for r in reports if r.applicable][0]
    assert rep.bound_value == Fraction(6) and rep.exact_value == 6 and rep.equality


def test_report_ordering_and_exactness():
    reports = evaluate_bounds(cycle(5), [2, 1])
    keys = [(r.k, list(BoundId).index(r.bound), r.side) for r in reports]
    assert keys == sorted(keys)
    for r in reports:
        if r.applicable:
            assert isinstance(r.bound_value, Fraction)
            assert isinstance(r.slack, Fraction)
            assert r.equality == (r.slack == 0)


def test_integer_slack_agrees_with_fraction_arithmetic(connected_upto_7, trees_by_n):
    for g in connected_upto_7 + trees_by_n[10]:
        rec = compute_record(g)
        dmax = rec.max_degree
        for r in evaluate_bounds(g, range(1, max(dmax, 1) + 1), rec=rec):
            if not r.applicable:
                continue
            assert type(r.bound_value) is Fraction and type(r.slack) is Fraction
            want = (r.bound_value - r.exact_value if r.side == "upper"
                    else r.exact_value - r.bound_value)
            assert r.slack == want
            assert (r.equality, r.satisfied) == (want == 0, want >= 0)
            # the two values no longer built by Fraction arithmetic
            if r.bound is BoundId.TREE_COR:
                assert r.bound_value == Fraction((dmax - 2) * g.n + 2, dmax - 1) - 1
            if r.bound is BoundId.HAM_CUBIC:
                assert r.bound_value == Fraction(rec.degree3_count, 2) + 1


def test_chain_links_hold_separately(connected_upto_6):
    for g in connected_upto_6:
        if g.n < 2 or degree_profile(g)[0] < 2:
            continue
        gc = connected_k_domination(g, 1)[0]
        f1 = k_forcing_number(g, 1).value
        dmax = degree_profile(g)[0]
        assert f1 <= g.n - gc
        assert Fraction(g.n - gc) <= Fraction((dmax - 2) * g.n + 2, dmax - 1)


def test_violation_is_reported_loudly():
    g = cycle(6)
    rec = compute_record(g)
    rec.forcing[1] = 6
    reports = evaluate_bounds(g, [1], ids=(BoundId.CONN_DOM,), rec=rec)
    rep = [r for r in reports if r.applicable][0]
    assert rep.satisfied is False and rep.slack < 0


def test_missing_invariant_computed_on_demand():
    g = cycle(6)
    rec = compute_record(g)
    evaluate_bounds(g, [3], rec=rec)
    assert 3 in rec.forcing  # filled by the bounds, not by the lookup below
    assert rec.forcing[3] == k_forcing_number(g, 3).value


def test_gated_off_invariant_is_never_computed():
    g = path(4)
    rec = compute_record(g)
    evaluate_bounds(g, [1, 2], rec=rec)
    assert 2 not in rec.gamma_kc  # CONN_KDOM needs 2-connectivity, which P4 lacks
    assert k_connected(rec, 2) is False


def test_comparison_examples():
    c4, k4, p4 = cycle(4), complete(4), path(4)
    assert bound_value(BoundId.MAIN2, compute_record(c4), 2) == Fraction(1)
    assert bound_value(BoundId.MAIN, compute_record(c4), 2) == Fraction(4, 3)
    assert bound_value(BoundId.MAIN2, compute_record(k4), 1) == Fraction(3)
    assert bound_value(BoundId.MAIN, compute_record(k4), 1) == Fraction(3)
    # MAIN2 needs k-connectivity: a path is not 2-connected
    assert bound_value(BoundId.MAIN2, compute_record(p4), 2) is None


def test_comparison_improvement_holds_on_corpus(connected_upto_6):
    # the paper's claim: MAIN2 <= MAIN for k-connected graphs with d >= k, k <= 2
    claimed = 0
    for g in connected_upto_6:
        rec = compute_record(g)
        for k in (1, 2):
            if rec.min_degree < k or not k_connected(rec, k) or rec.max_degree < 2:
                continue
            main = bound_value(BoundId.MAIN, rec, k)
            assert bound_value(BoundId.MAIN2, rec, k) <= main
            claimed += 1
    assert claimed > 100


def test_readme_bounds_table_mirrors_bound_ids():
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Bounds", 1)[1].split("\n\n")
    rows = next(block for block in table if block.startswith("| Id"))
    cells = [[cell.strip() for cell in line.split("|")] for line in rows.splitlines()[2:]]
    assert [row[1] for row in cells] == [b.value for b in BoundId]
    # the Hypotheses column names each gate's hypotheses in the order it tests them
    assert [row[3] for row in cells] == [
        ", ".join(name for name, _ in BOUNDS[b].gate) or "always" for b in BoundId]


# the paper's k = 1 corollaries of its general theorems: each holds its
# theorem's check, under a gate that equals the theorem's at k = 1
COROLLARIES = {BoundId.RATIO: BoundId.KCOR, BoundId.CONN_DOM: BoundId.CONN_KDOM,
               BoundId.COR3: BoundId.MAIN2}


def test_k1_corollaries_give_their_theorems_outcomes(all_upto_7):
    for corollary, theorem in {**COROLLARIES, BoundId.K1R_ALPHA: BoundId.K1R}.items():
        assert BOUNDS[corollary].checks[0] is BOUNDS[theorem].checks[0]
    k1r_gates_differ = 0
    for g in all_upto_7:
        # (side,) where not applicable, else (side, p, q, exact, d, detail)
        outcome = {bound: rest for _, bound, *rest in bound_outcomes(compute_record(g), [1])}
        for corollary, theorem in COROLLARIES.items():
            assert outcome[corollary] == outcome[theorem], (corollary, write_graph6(g))
        # GAMMA_LOWER is CHAIN rearranged: gamma_c >= (n-2)/(D-1) with the same slack
        chain, lower = outcome[BoundId.CHAIN], outcome[BoundId.GAMMA_LOWER]
        assert len(chain) == len(lower), write_graph6(g)
        if len(chain) > 1:
            assert Fraction(chain[4], chain[2]) == Fraction(lower[4], lower[2])
        # K1R_ALPHA is no instance of K1R: it asks d >= 1, not a connected graph
        k1r, k1r_alpha = outcome[BoundId.K1R], outcome[BoundId.K1R_ALPHA]
        if len(k1r) == len(k1r_alpha):
            assert k1r == k1r_alpha
        k1r_gates_differ += len(k1r) != len(k1r_alpha)
    assert k1r_gates_differ == 48


def test_all_bound_ids_covered():
    reports = evaluate_bounds(cycle(6), [1])
    assert {r.bound for r in reports} == set(ALL_BOUNDS)


def test_gamma_lower_equality_cases():
    from kforcing.families import star

    cases = [path(n) for n in (3, 5, 8)]
    cases += [cycle(n) for n in (3, 5, 8)]
    cases += [star(4), complete(5)]  # max degree n-1
    for g in cases:
        rec = compute_record(g)
        val = bound_value(BoundId.GAMMA_LOWER, rec, 1)
        assert val == rec.gamma_c, g


def test_kcor_equality_on_complete_unions_for_general_k():
    for d in (3, 4):
        for k in (2, 3):
            g = disjoint_union(complete(d + 1), complete(d + 1))
            rec = compute_record(g)
            val = bound_value(BoundId.KCOR, rec, k)
            assert val == rec.forcing[k] == 2 * (d + 1 - k)


def assert_verify_finds_no_violation(graphs, corpus, capsys):
    corpus.write_text("".join(write_graph6(g) + "\n" for g in graphs))
    assert main(["verify", "-i", str(corpus), "--jobs", "1"]) == 0
    out = capsys.readouterr().out
    assert "violations=0" in out and "VIOLATION:" not in out


def test_verify_finds_no_violation_on_any_graph_up_to_7_vertices(all_upto_7, tmp_path,
                                                                  capsys):
    # K1R and CLAWFREE need a connected graph: on K2 + P3 a component's
    # maximum degree is below k = 2, so F_2 = 2 > n - alpha_2 = 1
    assert_verify_finds_no_violation(all_upto_7, tmp_path / "upto7.g6", capsys)


@pytest.mark.skipif(os.environ.get("KFORCING_ACCEPT_N8") != "1",
                    reason="set KFORCING_ACCEPT_N8=1 to verify all graphs with 8 vertices")
def test_verify_finds_no_violation_on_any_graph_with_8_vertices(tmp_path, capsys):
    assert_verify_finds_no_violation(all_graphs(8), tmp_path / "all8.g6", capsys)
