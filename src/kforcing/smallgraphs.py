"""Exhaustive enumeration of small graphs up to isomorphism.

Corpus generator for the verification campaigns: one representative
per isomorphism class, built by vertex augmentation with canonical-form
deduplication. The canonical form is the least upper-triangle adjacency
bitstring over every vertex order that keeps the cells of an iteratively
refined degree colouring in ascending colour order, so it is exact.

It is found row by row rather than by trying every order. Read from its
most significant bit, with positions counted from the last slot, the
bitstring is row 0, row 1, ..., where row r marks which later positions
hold neighbours of the vertex at position r. Row r depends only on that
vertex and on the ordered cells still to fill, and it is least exactly
when every cell lists the vertex's non-neighbours before its neighbours.
So each level tries every vertex of the first cell, keeps those with the
least row (branching on ties) and splits every cell into non-neighbours,
then neighbours. A vertex whose twin (same neighbours apart from each
other) was already tried in the same cell is skipped: swapping the two
is an automorphism that keeps every cell, so both give the same rows.
No further refinement follows a choice, since minimality does not imply
it and it would change the key.

Run as a module to regenerate corpus files:

    python -m kforcing.smallgraphs 7 --connected -o data/connected_7.g6
"""

from __future__ import annotations

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
    """(n, minimal adjacency bitstring) identifying the isomorphism class.

    The bitstring is the least over every vertex order that lists the
    refined colour cells in ascending colour order, found row by row as
    the module docstring explains.
    """
    n, adj = g.n, g.adj
    if n <= 1:
        return n, 0
    cells = {}
    for v, c in enumerate(_refined_coloring(g)):
        cells[c] = cells.get(c, 0) | 1 << v
    # Positions count from the last slot, so cells come in descending colour
    # order. A state is the ordered cells of the vertices not yet placed; the
    # rows to come depend on nothing else, so equal states are merged.
    frontier = {tuple(cells[c] for c in sorted(cells, reverse=True))}
    key = 0
    for r in range(n - 1):
        best, nxt = None, set()
        for first, *rest in frontier:
            tried = []
            for v in iter_bits(first):
                bit, nv = 1 << v, adj[v]
                if any(adj[u] & ~bit == nv & ~(1 << u) for u in tried):
                    continue  # a twin: swapping them fixes every cell
                tried.append(v)
                later = (first & ~bit, *rest)
                row = 0
                for cell in later:
                    row = row << cell.bit_count() | (1 << (cell & nv).bit_count()) - 1
                if best is not None and row > best:
                    continue
                if row != best:
                    best, nxt = row, set()
                nxt.add(tuple(part for cell in later
                              for part in (cell & ~nv, cell & nv) if part))
        key = key << (n - 1 - r) | best
        frontier = nxt
    return n, key


def _graph_from_key(n: int, key: int) -> Graph:
    """The graph whose upper-triangle bitstring is ``key``."""
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if key & (1 << pos):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return Graph(n, tuple(adj))


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return _graph_from_key(*canonical_key(g))


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
        for h in layer:
            for nbrs in range(1 << (size - 1)):
                adj = [a | ((nbrs >> v & 1) << (size - 1)) for v, a in enumerate(h.adj)]
                adj.append(nbrs)
                seen.add(canonical_key(Graph(size, tuple(adj))))
        layer = [_graph_from_key(*key) for key in sorted(seen)]
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
        for h in layer:
            for v in range(size - 1):
                adj = list(h.adj)
                adj[v] |= 1 << (size - 1)
                adj.append(1 << v)
                seen.add(canonical_key(Graph(size, tuple(adj))))
        layer = [_graph_from_key(*key) for key in sorted(seen)]
    return layer


def _main(argv: list[str] | None = None) -> int:
    import argparse
    import sys

    from .graphio import write_graph6_file

    ap = argparse.ArgumentParser(
        description="enumerate small graphs up to isomorphism as graph6 lines"
    )
    ap.add_argument("n", type=int)
    family = ap.add_mutually_exclusive_group()
    family.add_argument("--connected", action="store_true")
    family.add_argument("--trees", action="store_true")
    ap.add_argument("-o", "--out", default="-")
    args = ap.parse_args(argv)
    if args.n < 1:
        print(f"error: n must be positive, got {args.n}", file=sys.stderr)
        return 2

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
