"""Exhaustive enumeration of small graphs up to isomorphism.

Corpus generator for the verification campaigns: one representative per
isomorphism class, grown from K_1 a vertex at a time and deduplicated by
canonical key. Connected graphs grow from connected classes only, which
reaches every class: each has a non-cut vertex.

Only the augmentations that a least-score deletion can reach are keyed,
after McKay's canonical construction path ("Isomorph-free exhaustive
generation", 1998), used here as a filter in front of the set of keys.
A vertex's score is its degree, then the sum of its neighbours' degrees.
It is eligible when deleting it stays in the family: any vertex of a
graph, a non-cut vertex of a connected graph or tree. Two filters drop a
candidate, a class with a new vertex joined to a neighbour set:

- twin order: the class's vertices with one open neighbourhood, or with
  one closed neighbourhood, are twins, and any permutation of them is an
  automorphism; the set must hold a twin only with every later twin;
- least score: some eligible vertex scores strictly below the new one.

No class is lost: deleting a least-score eligible vertex of any class
gives a class of the previous layer, and re-adding it, with its
neighbours moved into twin order by such an automorphism, is a kept
candidate. The keys still deduplicate, so the output is unchanged.

The vertices fall into the cells of the refined degree partition (McKay
and Piperno, "Practical graph isomorphism, II", 2014), kept as bitmasks:
from the degree classes, ascending, each round splits every cell by its
vertices' neighbour counts in the previous round's cells, larger counts
in earlier cells first, until none splits. The canonical key is the least
:func:`~kforcing.graph.upper_triangle` over every vertex order that lists
these cells in order, so it is exact.

It is found row by row rather than by trying every order. Read from its
most significant bit, with positions counted from the last slot, that
int is row 0, row 1, ..., where row r marks which later positions hold
neighbours of the vertex at position r. Row r depends only on that
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

from typing import Callable, Iterable, Iterator

from .graph import Graph, components, from_upper_triangle, iter_bits


def _refined_cells(g: Graph) -> list[int]:
    """The refined degree partition of g as ordered cell bitmasks."""
    n, adj = g.n, g.adj
    cells = [sum(1 << v for v in range(n) if adj[v].bit_count() == d)
             for d in sorted({nv.bit_count() for nv in adj})]
    while len(cells) < n:
        split = []
        for cell in cells:
            parts = {}
            rest = cell if cell & (cell - 1) else 0  # a single vertex never splits
            while rest:
                bit = rest & -rest
                rest ^= bit
                nv = adj[bit.bit_length() - 1]
                sig = tuple([-(nv & c).bit_count() for c in cells])
                parts[sig] = parts.get(sig, 0) | bit
            split += [parts[sig] for sig in sorted(parts)] if parts else [cell]
        if len(split) == len(cells):
            break
        cells = split
    return cells


def canonical_key(g: Graph) -> tuple[int, int]:
    """(n, least upper_triangle) identifying the isomorphism class."""
    n, adj = g.n, g.adj
    # Cells run in reverse, as positions count from the last slot. A state,
    # the ordered cells still to fill, fixes every later row: equal ones merge.
    frontier = {tuple(reversed(_refined_cells(g)))}
    key = 0
    for r in range(n - 1):
        best, nxt = None, set()
        for state in frontier:
            tried, todo = [], state[0]
            while todo:
                bit = todo & -todo
                todo ^= bit
                nv = adj[v := bit.bit_length() - 1]
                if any(adj[u] & ~bit == nv & ~(1 << u) for u in tried):
                    continue  # a twin: swapping them fixes every cell
                tried.append(v)
                later = [state[0] ^ bit, *state[1:]]
                row = 0
                for cell in later:
                    row = row << cell.bit_count() | (1 << (cell & nv).bit_count()) - 1
                if best is not None and row > best:
                    continue
                if row != best:
                    best, nxt = row, set()
                nxt.add(tuple([part for cell in later
                               for part in (cell & ~nv, cell & nv) if part]))
        key = key << (n - 1 - r) | best
        frontier = nxt
    return n, key


def canonical_graph(g: Graph) -> Graph:
    """The canonical representative of g's isomorphism class."""
    return from_upper_triangle(*canonical_key(g))


def _twin_classes(g: Graph) -> list[int]:
    """g's twin classes of two or more vertices as bitmasks: the vertices
    with one open neighbourhood, then those with one closed neighbourhood.
    Any permutation of a class is an automorphism of g."""
    by_open, by_closed = {}, {}
    for v, nv in enumerate(g.adj):
        by_open[nv] = by_open.get(nv, 0) | 1 << v
        by_closed[nv | 1 << v] = by_closed.get(nv | 1 << v, 0) | 1 << v
    return [c for c in (*by_open.values(), *by_closed.values()) if c & (c - 1)]


def _keeps_twin_order(nbrs: int, classes: list[int]) -> bool:
    """True iff nbrs holds a member of each class only with every later one."""
    return all((s := nbrs & c) == c & -(s & -s) for c in classes)


def _kept_neighbour_sets(h: Graph, nbr_sets: Iterable[int],
                         connected: bool) -> Iterator[int]:
    """The masks of nbr_sets that pass both filters as the neighbours of a
    new vertex h.n, where an eligible vertex is a non-cut one if
    ``connected`` and any vertex otherwise."""
    n, adj = h.n, h.adj
    deg = [nv.bit_count() for nv in adj]
    dsum = [sum(deg[u] for u in iter_bits(nv)) for nv in adj]
    upto = [sum(1 << v for v in range(n) if deg[v] <= t) for t in range(n + 1)]
    # v is eligible when the new vertex meets every component of h - v
    pieces = [components(h, h.full_mask ^ 1 << v) if connected else () for v in range(n)]
    classes = _twin_classes(h)
    for nbrs in nbr_sets:
        if not _keeps_twin_order(nbrs, classes):
            continue
        k = nbrs.bit_count()
        score = (k, sum(deg[u] for u in iter_bits(nbrs)) + k)
        for u in iter_bits(upto[k] & ~nbrs | upto[k - 1] & nbrs):  # degree <= k in the candidate
            inside = nbrs >> u & 1
            if ((deg[u] + inside, dsum[u] + (adj[u] & nbrs).bit_count() + k * inside) < score
                    and all(piece & nbrs for piece in pieces[u])):
                break
        else:
            yield nbrs


def _grow(n: int, neighbour_sets: Callable[[int], Iterable[int]],
          connected: bool) -> list[Graph]:
    """The classes on n vertices, grown from K_1: a class on v vertices gains
    a vertex v adjacent to each mask of ``neighbour_sets(v)`` that
    :func:`_kept_neighbour_sets` keeps, and the results are keyed."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    layer = [Graph._unchecked(1, (0,))]
    for new in range(1, n):
        seen = set()
        for h in layer:
            for nbrs in _kept_neighbour_sets(h, neighbour_sets(new), connected):
                adj = (*(a | (nbrs >> v & 1) << new for v, a in enumerate(h.adj)), nbrs)
                seen.add(canonical_key(Graph._unchecked(new + 1, adj)))
        layer = [from_upper_triangle(*key) for key in sorted(seen)]
    return layer


def all_graphs(n: int) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, grown by every neighbor subset."""
    return _grow(n, lambda new: range(1 << new), connected=False)


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, grown by non-empty neighbor subsets."""
    return _grow(n, lambda new: range(1, 1 << new), connected=True)


def all_trees(n: int) -> list[Graph]:
    """All trees on n vertices up to isomorphism, grown by single neighbors."""
    return _grow(n, lambda new: (1 << v for v in range(new)), connected=True)


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
