"""Exhaustive enumeration of small graphs up to isomorphism.

Corpus generator for the verification campaigns: one representative
per isomorphism class, built by vertex augmentation with canonical-form
deduplication. The canonical form minimizes the upper-triangle
adjacency bitstring over all permutations compatible with an
iteratively refined degree partition, so it is exact (if slow for
highly regular graphs, which are rare at this scale).

Run as a module to regenerate corpus files:

    python -m kforcing.smallgraphs 7 --connected -o data/connected_7.g6
"""

from __future__ import annotations

import random
from itertools import permutations

from .graph import Graph, iter_bits


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


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, minimal adjacency bitstring) identifying the isomorphism class."""
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


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    n, key = canonical_key(g)
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if key & (1 << pos):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(adj))


def all_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism (canonical forms).

    Augments each (n-1)-vertex class by every neighbor subset of a new
    vertex and deduplicates canonically.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    layer = [Graph(1, (0,))]
    for size in range(2, n + 1):
        seen = set()
        nxt = []
        for h in layer:
            for nbrs in range(1 << (size - 1)):
                adj = [a | ((nbrs >> v & 1) << (size - 1)) for v, a in enumerate(h.adj)]
                adj.append(nbrs)
                g = Graph(size, tuple(adj))
                key = canonical_key(g)
                if key not in seen:
                    seen.add(key)
                    nxt.append(canonical_graph(g))
        layer = sorted(nxt, key=canonical_key)
    return layer


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices up to isomorphism."""
    return [g for g in all_graphs(n) if g.is_connected()]


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism, by leaf augmentation."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    layer = [Graph(1, (0,))]
    for size in range(2, n + 1):
        seen = set()
        nxt = []
        for h in layer:
            for v in range(size - 1):
                adj = list(h.adj)
                adj[v] |= 1 << (size - 1)
                adj.append(1 << v)
                t = Graph(size, tuple(adj))
                key = canonical_key(t)
                if key not in seen:
                    seen.add(key)
                    nxt.append(canonical_graph(t))
        layer = sorted(nxt, key=canonical_key)
    return layer


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """One labeled Erdos-Renyi graph G(n, p)."""
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def _main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    from .graphio import write_graph6_file

    ap = argparse.ArgumentParser(
        description="enumerate small graphs up to isomorphism as graph6 lines"
    )
    ap.add_argument("n", type=int)
    ap.add_argument("--connected", action="store_true")
    ap.add_argument("--trees", action="store_true")
    ap.add_argument("-o", "--out", default="-")
    args = ap.parse_args(argv)

    enumerate_graphs = all_trees if args.trees else (
        connected_graphs if args.connected else all_graphs)
    # lazy, so an unwritable output path fails before the enumeration runs
    graphs = (g for n in [args.n] for g in enumerate_graphs(n))
    try:
        write_graph6_file(args.out, graphs)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
