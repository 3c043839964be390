"""``search``'s achiever classifier, which reads an achiever's shape from
its invariant record, against a classifier by isomorphism."""

from functools import cache

from kforcing.families import circulant, complete, complete_bipartite, cycle, path, star
from kforcing.records import compute_record
from kforcing.search import _classify_achiever
from kforcing.smallgraphs import all_graphs, canonical_key

from builders import disjoint_union


@cache
def keys(n: int) -> tuple:
    """The canonical keys of K_n, of each K_{p,q} with p + q = n and p >= q
    (to its parts) and of C_n (False below 3 vertices)."""
    bipartite = {canonical_key(complete_bipartite(p, n - p)): (p, n - p)
                 for p in range((n + 1) // 2, n)}
    return canonical_key(complete(n)), bipartite, n >= 3 and canonical_key(cycle(n))


def classify_by_isomorphism(g) -> str:
    """The classifier's cases in its order: complete, K_{q,q}, cycle,
    K_{p,q} with p >= q >= 2, else OTHER."""
    key = canonical_key(g)
    complete_key, bipartite, cycle_key = keys(g.n)
    p, q = bipartite.get(key, (0, 0))
    if key == complete_key:
        return "complete"
    if q and p == q:
        return "balanced_bipartite"
    if key == cycle_key:
        return "cycle"
    if q >= 2:
        return "bipartite_p_ge_q_ge_2"
    return "OTHER"


def test_classifier_matches_isomorphism_on_small_graphs():
    # every graph up to 7 vertices, the disconnected ones too
    graphs = [*(g for n in range(1, 8) for g in all_graphs(n)), circulant(6, (1, 3)),
              complete(2), cycle(4), *(star(rays) for rays in range(1, 9))]
    seen = set()
    for g in graphs:
        shape = _classify_achiever(compute_record(g))
        assert shape == classify_by_isomorphism(g), g
        seen.add(shape)
    assert seen == {"complete", "balanced_bipartite", "cycle", "bipartite_p_ge_q_ge_2",
                    "OTHER"}


def test_classifier_examples():
    # one graph of each shape, and the graphs where two shapes meet
    for g, shape in [
        (complete(5), "complete"),
        (cycle(5), "cycle"),  # neither complete nor bipartite
        (cycle(7), "cycle"),
        (path(4), "OTHER"),  # no cycle
        (complete_bipartite(3, 2), "bipartite_p_ge_q_ge_2"),
        (cycle(4), "balanced_bipartite"),  # K_{2,2}
        (path(3), "OTHER"),  # K_{2,1}, whose smaller part is below 2
        (complete(3), "complete"),  # not bipartite
        (circulant(6, (1, 3)), "balanced_bipartite"),  # K_{3,3} on the parity classes
        (complete(2), "complete"),  # K_2 is K_{1,1} too; complete comes first
        (disjoint_union(cycle(3), cycle(4)), "OTHER"),  # 2-regular, not connected
    ]:
        assert _classify_achiever(compute_record(g)) == shape, g
