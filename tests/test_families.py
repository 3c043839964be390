import copy
import pickle

import pytest

from kforcing import FamilySpec, GraphError, degree_profile, generate, is_cycle_tree
from kforcing.families import (
    circulant,
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
from kforcing.invariants import is_bridge
from kforcing.records import compute_record
from kforcing.search import _classify_achiever


def test_path_degenerate_is_k1():
    g = path(1)
    assert g.n == 1 and g.m == 0


def test_cycle_tree_two_triangles():
    g = cycle_tree((3, 3))
    assert g.n == 6 and g.m == 7
    bridges = [(u, v) for u, v in g.edges() if is_bridge(g, u, v)]
    assert len(bridges) == 1


@pytest.mark.parametrize(
    "lengths", [(3,), (4,), (3, 3), (3, 4, 5), (5, 3, 4, 3)]
)
def test_cycle_tree_edge_count_and_bridges(lengths):
    g = cycle_tree(lengths)
    q = len(lengths)
    assert g.n == sum(lengths)
    assert g.m == g.n + q - 1
    bridges = [(u, v) for u, v in g.edges() if is_bridge(g, u, v)]
    assert len(bridges) == q - 1
    assert is_cycle_tree(g) == (True, q)


def test_double_leaf_caterpillar_profile():
    g = double_leaf_caterpillar(4)
    assert g.n == 12
    assert degree_profile(g)[2] == 8  # leaves
    assert g.is_tree()


def test_pendant_path_profile():
    g = pendant_path(4)
    assert g.n == 8 and g.is_tree()
    dmax, dmin, leaves, _ = degree_profile(g)
    assert (dmax, dmin, leaves) == (3, 1, 4)


def test_subdivided_star_profile():
    g = subdivided_star(4, 2)
    assert g.n == 1 + 4 * 3
    assert g.is_tree()
    assert degree_profile(g)[2] == 4


def test_star_is_complete_bipartite():
    assert star(4).adj == complete_bipartite(1, 4).adj


def test_balanced_complete_bipartite_is_regular():
    for p in (2, 3, 4):
        g = complete_bipartite(p, p)
        assert all(g.degree(v) == p for v in range(g.n))


def test_circulant_degrees():
    g = circulant(8, (1, 4))
    # step 4 pairs opposite vertices, so degree is 3
    assert all(g.degree(v) == 3 for v in range(8))
    h = circulant(7, (1, 2))
    assert all(h.degree(v) == 4 for v in range(7))
    # C_6 with long chords is complete bipartite on the parity classes
    assert _classify_achiever(compute_record(circulant(6, (1, 3)))) == "balanced_bipartite"


def test_generate_dispatch_and_validation():
    assert generate(FamilySpec("cycle", (5,))).adj == cycle(5).adj
    assert generate(FamilySpec("cycle_tree", ((3, 4),))).m == 8
    with pytest.raises(GraphError):
        generate(FamilySpec("cycle", (2,)))
    with pytest.raises(GraphError):
        generate(FamilySpec("cycle_tree", ((3, 2),)))
    with pytest.raises(GraphError):
        FamilySpec("petersen", ())
    with pytest.raises(GraphError):
        generate(FamilySpec("cycle", (3, 4)))
    with pytest.raises(GraphError):
        generate(FamilySpec("circulant", (8, (5,))))
    with pytest.raises(GraphError):
        generate(FamilySpec("subdivided_star", (3, -1)))


def test_family_spec_is_a_value_object():
    spec = FamilySpec("circulant", (8, (1, 4)))
    with pytest.raises(AttributeError):
        spec.args = ()
    assert repr(spec) == "FamilySpec(family='circulant', args=(8, (1, 4)))"
    assert FamilySpec("path").args == ()
    assert spec == FamilySpec("circulant", (8, (1, 4))) != FamilySpec("cycle", (8,))
    assert hash(spec) == hash(FamilySpec("circulant", (8, (1, 4))))
    for twin in (pickle.loads(pickle.dumps(spec)), copy.copy(spec)):
        assert twin == spec

