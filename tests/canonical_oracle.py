"""Permutation-minimum canonical key, for use as a test oracle.

It shares no refinement or search code with
``kforcing.smallgraphs.canonical_key``: it refines a colouring from
degrees by sorted neighbour-colour tuples, where the package splits cell
bitmasks by neighbour counts, then places every permutation inside each
colour cell and keeps the least upper-triangle bitstring, which the
package finds row by row.
"""

from itertools import permutations

from kforcing.graph import Graph, iter_bits, vertices_from


def _refined_coloring(g: Graph) -> list[int]:
    """Stable vertex coloring refined from degrees by neighbor multisets."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in iter_bits(g.adj[v]))))
            for v in range(g.n)
        ]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [rank[sig[v]] for v in range(g.n)]
        if new == colors:
            return colors
        colors = new


def ordered_cells(colors: list[int]) -> list[int]:
    """The colour classes as vertex bitmasks, in ascending colour order."""
    cells = {}
    for v, c in enumerate(colors):
        cells[c] = cells.get(c, 0) | 1 << v
    return [cells[c] for c in sorted(cells)]


def canonical_key_oracle(g: Graph) -> tuple[int, int]:
    """(n, minimal adjacency bitstring), trying every cell permutation."""
    n = g.n
    if n <= 1:
        return n, 0
    cells = [vertices_from(c) for c in ordered_cells(_refined_coloring(g))]

    # bit position of pair (i, j), i < j, in column-major upper-triangle order
    bitpos = {}
    pos = 0
    for j in range(1, n):
        for i in range(j):
            bitpos[i, j] = pos
            pos += 1

    edges = list(g.edges())
    best = None
    for parts in _cell_permutations(cells):
        place = [0] * n
        slot = 0
        for cell in parts:
            for v in cell:
                place[v] = slot
                slot += 1
        key = 0
        for u, v in edges:
            a, b = place[u], place[v]
            if a > b:
                a, b = b, a
            key |= 1 << bitpos[a, b]
        if best is None or key < best:
            best = key
    return n, best


def _cell_permutations(cells: list[tuple[int, ...]]):
    def rec(i: int, acc: list[tuple[int, ...]]):
        if i == len(cells):
            yield acc
            return
        for perm in permutations(cells[i]):
            yield from rec(i + 1, acc + [perm])

    yield from rec(0, [])
