"""Permutation-minimum canonical key, for use as a test oracle.

It shares no search code with ``kforcing.smallgraphs.canonical_key``: it
places every permutation inside each refined colour cell and keeps the
least upper-triangle bitstring, which the package finds row by row.
"""

from itertools import permutations

from kforcing.graph import Graph
from kforcing.smallgraphs import _refined_coloring


def canonical_key_oracle(g: Graph) -> tuple[int, int]:
    """(n, minimal adjacency bitstring), trying every cell permutation."""
    n = g.n
    if n <= 1:
        return n, 0
    colors = _refined_coloring(g)
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    ordered_cells = [cells[c] for c in sorted(cells)]

    # bit position of pair (i, j), i < j, in column-major upper-triangle order
    bitpos = {}
    pos = 0
    for j in range(1, n):
        for i in range(j):
            bitpos[i, j] = pos
            pos += 1

    edges = list(g.edges())
    best = None
    for parts in _cell_permutations(ordered_cells):
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


def _cell_permutations(cells: list[list[int]]):
    def rec(i: int, acc: list[tuple[int, ...]]):
        if i == len(cells):
            yield acc
            return
        for perm in permutations(cells[i]):
            yield from rec(i + 1, acc + [perm])

    yield from rec(0, [])
