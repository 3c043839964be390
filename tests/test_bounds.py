from fractions import Fraction

from kforcing import (
    ALL_BOUNDS,
    BoundId,
    bound_value,
    compute_record,
    connected_k_domination,
    degree_profile,
    disjoint_union,
    evaluate_bounds,
    k_forcing_number,
)
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

from conftest import DATA


def test_main_bound_value_k4():
    g = complete(4)
    assert bound_value(BoundId.MAIN, g, 1, compute_record(g)) == Fraction(3)
    assert k_forcing_number(g, 1).value == 3


def test_ratio_is_three_quarters_for_cubic():
    for g in (complete(4), complete_bipartite(3, 3)):
        rec = compute_record(g)
        assert bound_value(BoundId.RATIO, g, 1, rec) == Fraction(3 * g.n, 4)


def test_cor3_is_half_n_plus_one_for_max_degree_3():
    g = pendant_path(3)  # max degree 3
    assert degree_profile(g)[0] == 3
    assert bound_value(BoundId.COR3, g, 1, compute_record(g)) == Fraction(g.n, 2) + 1


def test_main2_equality_on_complete_for_k_1_and_2():
    for d in (2, 3, 4, 5):
        g = complete(d + 1)
        rec = compute_record(g)
        for k in (1, 2):
            val = bound_value(BoundId.MAIN2, g, k, rec)
            assert val == k_forcing_number(g, k).value


def test_cor3_equality_on_balanced_bipartite():
    for d in (2, 3, 4):
        g = complete_bipartite(d, d)
        val = bound_value(BoundId.COR3, g, 1, compute_record(g))
        assert val == k_forcing_number(g, 1).value == 2 * d - 2


def test_gates_yield_not_applicable():
    k2 = path(2)
    rec = compute_record(k2)
    assert bound_value(BoundId.COR3, k2, 1, rec) is None  # max degree 1
    assert bound_value(BoundId.MAIN, k2, 2, compute_record(k2)) is None  # D < k
    c5 = cycle(5)
    assert bound_value(BoundId.HAM_CHORDS, c5, 1, compute_record(c5)) is None  # t = 0
    k3 = complete(3)
    assert bound_value(BoundId.HAM_CHORDS, k3, 1, compute_record(k3)) is None  # n < 4
    assert bound_value(BoundId.TREE_LEAF, c5, 1, compute_record(c5)) is None  # not a tree
    iso = disjoint_union(path(2), complete(1))
    assert bound_value(BoundId.RATIO, iso, 1, compute_record(iso)) is None  # min degree 0
    assert bound_value(BoundId.CONN_DOM, iso, 1, compute_record(iso)) is None


def test_lower_deg_always_applicable():
    for g in (path(2), cycle(5), disjoint_union(path(2), complete(1))):
        rec = compute_record(g)
        val = bound_value(BoundId.LOWER_DEG, g, 1, rec)
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
        low = bound_value(BoundId.TREE_LEAF, t, 1, compute_record(t), side="lower")
        assert low == k_forcing_number(t, 1).value  # lower end is tight
    for rays in (3, 4):
        t = subdivided_star(rays, 1)
        up = bound_value(BoundId.TREE_LEAF, t, 1, compute_record(t), side="upper")
        assert up == k_forcing_number(t, 1).value  # upper end is tight


def test_tree_cor_tight_on_paths():
    t = path(6)
    assert bound_value(BoundId.TREE_COR, t, 1, compute_record(t)) == Fraction(1)


def test_cycle_tree_bound():
    g = cycle_tree((3, 4, 3))
    rec = compute_record(g)
    assert bound_value(BoundId.CYCLE_TREE, g, 1, rec) == Fraction(6)
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
    reports = evaluate_bounds(g, [1, 2], graph_id="C6")
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
    assert rec.k_connected[2] is False


def test_comparison_examples():
    c4, k4, p4 = cycle(4), complete(4), path(4)
    assert bound_value(BoundId.MAIN2, c4, 2, compute_record(c4)) == Fraction(1)
    assert bound_value(BoundId.MAIN, c4, 2, compute_record(c4)) == Fraction(4, 3)
    assert bound_value(BoundId.MAIN2, k4, 1, compute_record(k4)) == Fraction(3)
    assert bound_value(BoundId.MAIN, k4, 1, compute_record(k4)) == Fraction(3)
    # MAIN2 needs k-connectivity: a path is not 2-connected
    assert bound_value(BoundId.MAIN2, p4, 2, compute_record(p4)) is None


def test_comparison_improvement_holds_on_corpus(connected_upto_6):
    # the paper's claim: MAIN2 <= MAIN for k-connected graphs with d >= k, k <= 2
    claimed = 0
    for g in connected_upto_6:
        rec = compute_record(g)
        for k in (1, 2):
            if rec.min_degree < k or not rec.k_connected[k] or rec.max_degree < 2:
                continue
            main = bound_value(BoundId.MAIN, g, k, rec)
            assert bound_value(BoundId.MAIN2, g, k, rec) <= main
            claimed += 1
    assert claimed > 100


def test_readme_bounds_table_mirrors_bound_ids():
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Bounds", 1)[1].split("\n\n")
    rows = next(block for block in table if block.startswith("| Id"))
    ids = [line.split("|")[1].strip() for line in rows.splitlines()[2:]]
    assert ids == [b.value for b in BoundId]


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
        val = bound_value(BoundId.GAMMA_LOWER, g, 1, rec)
        assert val == rec.gamma_c, g


def test_kcor_equality_on_complete_unions_for_general_k():
    for d in (3, 4):
        for k in (2, 3):
            g = disjoint_union(complete(d + 1), complete(d + 1))
            rec = compute_record(g)
            val = bound_value(BoundId.KCOR, g, k, rec)
            assert val == rec.forcing[k] == 2 * (d + 1 - k)
