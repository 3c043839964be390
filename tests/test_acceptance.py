"""Acceptance suite: one test per criterion, exact tolerances, zero allowed
violations. Each test prints a single PASS/FAIL line (run with -s to see
them live). Set KFORCING_ACCEPT_N8=1 to extend the soundness sweep to the
shipped 8-vertex corpus.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

from kforcing import (
    BoundId,
    bound_value,
    components,
    compute_record,
    connected_k_domination,
    degree_profile,
    disjoint_union,
    evaluate_bounds,
    k_forcing_number,
    path_cover_number,
    vertex_k_connected,
    vertices_from,
    write_graph6,
)
from kforcing.cli import _classify_achiever
from kforcing.forcing import _fixpoint
from kforcing.families import (
    complete,
    complete_bipartite,
    cycle,
    double_leaf_caterpillar,
    path,
    subdivided_star,
)

from conftest import DATA, read_graph6_file
from forcing_oracle import closure_async, min_forcing_cc_oracle
from random_graphs import random_graph
from spanning_tree_oracle import max_leaf_spanning_tree


def report(criterion: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert not failures, f"{criterion}: {len(failures)} violation(s): {failures[:5]}"


def test_criterion_1_closed_forms(connected_upto_7):
    failures = []
    for n in range(2, 9):
        g = complete(n)
        for k in range(1, n + 1):
            if k_forcing_number(g, k).value != max(n - k, 1):
                failures.append(("K", n, k))
    for n in range(3, 11):
        if k_forcing_number(path(n), 1).value != 1:
            failures.append(("P", n))
        if k_forcing_number(cycle(n), 1).value != 2:
            failures.append(("C", n))
    for g in connected_upto_7:
        if g.n < 2:
            continue
        dmax = degree_profile(g)[0]
        if k_forcing_number(g, dmax).value != 1:
            failures.append(("Fmax", write_graph6(g)))
        if dmax >= 2:
            regular = len({g.degree(v) for v in range(g.n)}) == 1
            want = 2 if regular else 1
            if k_forcing_number(g, dmax - 1).value != want:
                failures.append(("dichotomy", write_graph6(g)))
    report("criterion-1", failures,
           "closed forms: complete graphs, paths, cycles, max-degree cases")


def test_criterion_2_soundness_sweep(connected_upto_7):
    corpus = list(connected_upto_7)
    if os.environ.get("KFORCING_ACCEPT_N8") == "1":
        corpus += read_graph6_file(str(DATA / "connected_8.g6"))
    failures = []
    checked = 0
    for g in corpus:
        dmax = degree_profile(g)[0]
        ks = list(range(1, max(dmax, 1) + 1))
        for rep in evaluate_bounds(g, ks, graph_id=write_graph6(g)):
            if not rep.applicable:
                continue
            checked += 1
            assert isinstance(rep.bound_value, Fraction)
            if not rep.satisfied:
                failures.append((rep.graph_id, rep.k, rep.bound.value, rep.side))
    report("criterion-2", failures,
           f"soundness sweep: {checked} bound checks over {len(corpus)} graphs")


def test_criterion_3_minimum_set_structure(connected_upto_6):
    failures = []
    for g in connected_upto_6:
        if g.n < 2:
            continue
        dmax, dmin, _, _ = degree_profile(g)
        if dmin < 1:
            continue
        for k in range(1, dmax + 1):
            res = k_forcing_number(g, k, collect_all_minimum=True)
            for s in res.all_minimum:
                outside = g.full_mask & ~s
                for v in vertices_from(s):
                    need = min(g.degree(v), k)
                    if (g.adj[v] & outside).bit_count() < need:
                        failures.append(("chosen-vertex-outside-neighbors", write_graph6(g), k, v))
                if k >= 2:
                    for w in vertices_from(outside):
                        deg = g.degree(w)
                        if deg >= k and (g.adj[w] & outside).bit_count() < k - 1:
                            failures.append(("outside-high-degree-neighbors", write_graph6(g), k, w))
                        if 2 <= deg < k and (g.adj[w] & s).bit_count() > 1:
                            failures.append(("outside-low-degree-attachment", write_graph6(g), k, w))
    for g in connected_upto_6:
        for k in range(1, g.n):
            if not vertex_k_connected(g, k):
                continue
            _, s = min_forcing_cc_oracle(g, k)
            rest = g.full_mask & ~s
            if not rest:  # the minimum never needs all n vertices
                failures.append(("complement-empty", write_graph6(g), k))
            if not g.is_connected_within(rest):
                failures.append(("complement-connected", write_graph6(g), k))
            for v in vertices_from(s):
                if (g.adj[v] & rest).bit_count() < k:
                    failures.append(("complement-dominating", write_graph6(g), k, v))
    report("criterion-3", failures,
           "structure of minimum forcing sets and connected complements")


def test_criterion_4_spread(connected_upto_6):
    failures = []
    for g in connected_upto_6:
        if g.n < 2:
            continue
        base = k_forcing_number(g, 1).value
        for v in range(g.n):
            if abs(base - k_forcing_number(g.delete_vertex(v), 1).value) > 1:
                failures.append((write_graph6(g), "vertex", v))
        for u, v in g.edges():
            if abs(base - k_forcing_number(g.delete_edge(u, v), 1).value) > 1:
                failures.append((write_graph6(g), "edge", (u, v)))
    report("criterion-4", failures,
           "single vertex/edge deletion moves the forcing number by at most 1")


def test_criterion_5_equality_reproductions():
    failures = []

    def expect_equality(g, k, bound, side=None, tag=""):
        rec = compute_record(g, max_n=max(12, g.n))
        val = bound_value(bound, g, k, rec, side=side)
        idx = k
        if bound in (BoundId.RATIO, BoundId.COR3, BoundId.CONN_DOM,
                     BoundId.TREE_LEAF):
            idx = 1
        exact = rec.forcing[idx]
        if val is None or val != exact:
            failures.append((tag, bound.value, str(val), exact))

    for d in range(1, 6):
        for copies in (2, 3):
            if copies * (d + 1) > 12:  # keep the union inside exact scope
                continue
            g = disjoint_union(*[complete(d + 1)] * copies)
            expect_equality(g, 1, BoundId.RATIO, tag=f"union-K{d+1}x{copies}")
    for d in (2, 3, 4):
        expect_equality(complete(d + 1), 1, BoundId.COR3, tag=f"K{d+1}")
        expect_equality(complete_bipartite(d, d), 1, BoundId.COR3, tag=f"K{d},{d}")
    for d in (2, 3, 4, 5):
        for k in (1, 2):
            expect_equality(complete(d + 1), k, BoundId.MAIN2, tag=f"K{d+1}@k={k}")
    for n in range(2, 9):
        expect_equality(complete(n), 1, BoundId.CONN_DOM, tag=f"K{n}")
    for n in range(3, 11):
        expect_equality(cycle(n), 1, BoundId.CONN_DOM, tag=f"C{n}")
    for p in range(2, 7):
        for q in range(2, p + 1):
            if p + q <= 8:
                expect_equality(complete_bipartite(p, q), 1, BoundId.CONN_DOM,
                                tag=f"K{p},{q}")
    for spine in (2, 3, 4, 5):
        expect_equality(double_leaf_caterpillar(spine), 1, BoundId.TREE_LEAF,
                        side="lower", tag=f"caterpillar-{spine}")
    for rays in (3, 4, 5):
        for subs in (0, 1, 2):
            expect_equality(subdivided_star(rays, subs), 1, BoundId.TREE_LEAF,
                            side="upper", tag=f"substar-{rays}-{subs}")
    report("criterion-5", failures, "every named family achieves its equality case")


def test_criterion_6_cross_invariant_identities(connected_by_n, trees_by_n):
    failures = []
    for n in range(1, 11):
        for t in trees_by_n[n]:
            if path_cover_number(t)[0] != k_forcing_number(t, 1).value:
                failures.append(("path-cover", write_graph6(t)))
    for n in range(3, 8):
        for g in connected_by_n[n]:
            if max_leaf_spanning_tree(g) != g.n - connected_k_domination(g, 1)[0]:
                failures.append(("max-leaf", write_graph6(g)))
    g8 = read_graph6_file(str(DATA / "connected_8.g6"))
    rng = random.Random(20260811)
    for i in sorted(rng.sample(range(len(g8)), 500)):
        g = g8[i]
        if max_leaf_spanning_tree(g) != g.n - connected_k_domination(g, 1)[0]:
            failures.append(("max-leaf-8", write_graph6(g)))
    rng = random.Random(97)
    for trial in range(100):
        parts = [
            random_graph(rng.randint(2, 6), rng.choice([0.3, 0.5, 0.8]), rng)
            for _ in range(rng.randint(2, 3))
        ]
        g = disjoint_union(*parts)
        k = rng.randint(1, 3)
        whole = k_forcing_number(g, k).value
        split = sum(
            k_forcing_number(g.induced_subgraph(c), k).value for c in components(g)
        )
        if whole != split:
            failures.append(("additivity", trial, write_graph6(g), k))
    report("criterion-6", failures,
           "path cover = F_1 on trees; max spanning-tree leaves = n - "
           "connected domination; component additivity")


def test_criterion_7_confluence(connected_upto_6):
    failures = []
    for g in connected_upto_6:
        dmax = degree_profile(g)[0]
        for k in range(1, max(dmax, 1) + 1):
            initials = [1 << v for v in range(g.n)]
            initials += list(k_forcing_number(g, k, collect_all_minimum=True).all_minimum)
            for init in initials:
                if _fixpoint(g.adj, init, k) != closure_async(g, init, k):
                    failures.append((write_graph6(g), k, init))
    report("criterion-7", failures,
           "synchronous and asynchronous closures reach the same fixpoint")


def test_criterion_8_equality_search(connected_upto_7):
    failures = []
    cor3_predicted = []
    cor3_others = []
    conn_dom_achievers = []
    for g in connected_upto_7:
        if g.n < 2:
            continue
        dmax = degree_profile(g)[0]
        f1 = k_forcing_number(g, 1).value
        gc = connected_k_domination(g, 1)[0]
        if dmax >= 2 and Fraction(f1) == Fraction((dmax - 2) * g.n + 2, dmax - 1):
            cls = _classify_achiever(g)
            if cls in ("complete", "balanced_bipartite"):
                cor3_predicted.append((write_graph6(g), cls))
            else:
                cor3_others.append((write_graph6(g), cls, dmax))
        if f1 == g.n - gc:
            conn_dom_achievers.append((write_graph6(g), _classify_achiever(g)))

    # predicted instances within range: K_3..K_7 and K_{2,2}, K_{3,3}
    if len([c for _, c in cor3_predicted if c == "complete"]) != 5:
        failures.append(("cor3-complete", cor3_predicted))
    if len([c for _, c in cor3_predicted if c == "balanced_bipartite"]) != 2:
        failures.append(("cor3-bipartite", cor3_predicted))
    # unpredicted achievers exist (cycles at max degree 2) and must be
    # reported, not suppressed; verify they are exactly the long cycles
    if not cor3_others or any(c != "cycle" or d != 2 for _, c, d in cor3_others):
        failures.append(("cor3-others", cor3_others))

    classes = {c for _, c in conn_dom_achievers}
    for needed in ("complete", "cycle", "bipartite_p_ge_q_ge_2", "balanced_bipartite"):
        if needed not in classes:
            failures.append(("conn-dom-missing", needed))

    # the shipped search pipeline must reproduce this inline recomputation
    from kforcing.cli import search_equality

    pipeline = search_equality(
        [(write_graph6(g), g.n) for g in connected_upto_7], "cor3"
    )
    found = {a["graph6"] for a in pipeline.achievers}
    want = {g6 for g6, _ in cor3_predicted} | {g6 for g6, _, _ in cor3_others}
    if found != want or pipeline.status != "counterexample_found":
        failures.append(("pipeline-mismatch", pipeline.status))

    detail = (
        f"equality search: {len(cor3_predicted)} predicted achievers, "
        f"{len(cor3_others)} UNPREDICTED (degree-2 cycles: conjectured "
        f"characterization fails at max degree 2), "
        f"{len(conn_dom_achievers)} domination-gap achievers"
    )
    report("criterion-8", failures, detail)


def test_criterion_9_cli_determinism(tmp_path):
    src = tmp_path / "upto6.g6"
    src.write_text(
        "".join((DATA / f"connected_{n}.g6").read_text() for n in range(1, 7))
    )
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "kforcing.cli", "verify",
             "--input", str(src), "--jobs", jobs, "--out-jsonl", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    failures = [] if outs[0] == outs[1] else ["jsonl outputs differ"]
    # spot-check the stream is substantial and well formed
    lines = outs[0].decode().splitlines()
    assert len(lines) > 1000
    json.loads(lines[0])
    report("criterion-9", failures,
           "verify output is byte-identical across --jobs 1 and --jobs 3")
