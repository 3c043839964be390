"""Each shipped corpus holds one graph per isomorphism class, checked by
counting labelled graphs.

A graph on n vertices has n!/|Aut G| labellings, so the classes of a
corpus sum to the number of labelled graphs it stands for: OEIS A001187
for connected graphs, Cayley's n^(n-2) for trees. A duplicated class or
a missing one moves the sum. |Aut G| comes from orbit-stabilizer along
a chain of point stabilizers, each orbit element shown by one
automorphism: no group is listed, and nothing here is shared with
``smallgraphs.canonical_key``.
"""

from math import comb, factorial

import pytest

from kforcing import Graph, parse_graph6

from conftest import DATA

# OEIS A001187: labelled connected graphs on n vertices
LABELLED_CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256,
                      8: 251548592}


def automorphism_count(g: Graph) -> int:
    """|Aut g|: the product over i of the orbit of order[i] under the
    automorphisms that fix order[:i], for a breadth-first vertex order."""
    n, adj = g.n, g.adj
    degree = [a.bit_count() for a in adj]
    order, seen = [], 0
    for root in range(n):  # each vertex after a root has an earlier neighbour
        if not seen >> root & 1:
            seen |= 1 << root
            order.append(root)
            for u in order:  # order grows as it is walked: breadth first
                new = adj[u] & ~seen
                seen |= new
                order += [v for v in range(n) if new >> v & 1]

    def candidates(image: list[int]) -> list[int]:
        """The images of order[len(image)] that keep the map a partial isomorphism."""
        u, used = order[len(image)], sum(1 << x for x in image)
        hood = sum(1 << x for v, x in zip(order, image) if adj[u] >> v & 1)
        return [x for x in range(n) if not used >> x & 1 and degree[x] == degree[u]
                and adj[x] & used == hood]

    def extends(image: list[int]) -> bool:
        if len(image) == n:
            return True
        return any(extends(image + [x]) for x in candidates(image))

    size = 1
    for i in range(n):
        fixed = order[:i]
        size *= sum(extends(fixed + [x]) for x in candidates(fixed))
    return size


def test_labelled_connected_counts_follow_from_all_labelled_graphs():
    # a labelled graph is the connected one holding vertex 1, of some order
    # j, beside any labelled graph on the other n - j vertices
    for n, count in LABELLED_CONNECTED.items():
        assert count == 2 ** comb(n, 2) - sum(
            comb(n - 1, j - 1) * LABELLED_CONNECTED[j] * 2 ** comb(n - j, 2)
            for j in range(1, n))


def labelled_sum(lines: list[str]) -> int:
    total = 0
    for line in lines:
        g = parse_graph6(line)
        total += factorial(g.n) // automorphism_count(g)
    return total


def corpus(name: str) -> list[str]:
    return (DATA / f"{name}.g6").read_text(encoding="ascii").split()


@pytest.mark.parametrize("n", sorted(LABELLED_CONNECTED))
def test_connected_corpus_counts_every_labelled_connected_graph_once(n):
    assert labelled_sum(corpus(f"connected_{n}")) == LABELLED_CONNECTED[n]


@pytest.mark.parametrize("n", range(1, 11))
def test_tree_corpus_counts_every_labelled_tree_once(n):
    assert labelled_sum(corpus(f"trees_{n}")) == (1 if n == 1 else n ** (n - 2))


def test_a_duplicated_class_moves_the_sum():
    lines = corpus("connected_7")
    lines[5] = lines[6]  # line 6 replaced by line 7
    assert labelled_sum(lines) == 1866886 != LABELLED_CONNECTED[7]
