"""Parameterized constructors for the graph families used in verification.

Each family has a constructor plus an entry in :data:`FAMILIES`, and
:func:`generate` dispatches a :class:`FamilySpec`. All constructors are
deterministic: the same spec always yields the same labeled graph.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .graph import Graph, GraphError


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise GraphError(f"complete bipartite needs p, q >= 1, got ({p}, {q})")
    return Graph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def star(rays: int) -> Graph:
    """Star with a center (vertex 0) and ``rays`` leaves."""
    if rays < 1:
        raise GraphError(f"star needs rays >= 1, got {rays}")
    return Graph.from_edges(rays + 1, [(0, i) for i in range(1, rays + 1)])


def subdivided_star(rays: int, subdivisions: int) -> Graph:
    """Star with every edge subdivided the same number of times.

    Vertex 0 is the center; each ray becomes a path of
    ``subdivisions + 1`` edges ending in a leaf.
    """
    if rays < 1:
        raise GraphError(f"subdivided star needs rays >= 1, got {rays}")
    if subdivisions < 0:
        raise GraphError(f"subdivisions must be >= 0, got {subdivisions}")
    edges = []
    nxt = 1
    for _ in range(rays):
        prev = 0
        for _ in range(subdivisions + 1):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def double_leaf_caterpillar(spine: int) -> Graph:
    """Path on ``spine`` vertices with two leaves attached to each."""
    if spine < 1:
        raise GraphError(f"caterpillar needs spine >= 1, got {spine}")
    edges = [(i, i + 1) for i in range(spine - 1)]
    nxt = spine
    for i in range(spine):
        edges.append((i, nxt))
        edges.append((i, nxt + 1))
        nxt += 2
    return Graph.from_edges(nxt, edges)


def pendant_path(spine: int) -> Graph:
    """Path on ``spine`` vertices with one leaf attached to each (a comb)."""
    if spine < 1:
        raise GraphError(f"pendant path needs spine >= 1, got {spine}")
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i) for i in range(spine)]
    return Graph.from_edges(2 * spine, edges)


def cycle_tree(lengths: tuple[int, ...]) -> Graph:
    """Vertex-disjoint cycles joined into a chain by bridge edges.

    Cycle i occupies a consecutive index block; the bridge from cycle i
    attaches its last vertex to the first vertex of cycle i+1, so the
    contracted skeleton is a path. Any chain arrangement satisfies the
    cycle-tree definition, and this one keeps max degree at 3.
    """
    if not lengths:
        raise GraphError("cycle tree needs at least one cycle")
    if any(c < 3 for c in lengths):
        raise GraphError(f"every cycle length must be >= 3, got {lengths}")
    edges = []
    offset = 0
    prev_last = None
    for c in lengths:
        edges += [(offset + i, offset + (i + 1) % c) for i in range(c)]
        if prev_last is not None:
            edges.append((prev_last, offset))
        prev_last = offset + c - 1
        offset += c
    return Graph.from_edges(offset, edges)


def circulant(n: int, steps: tuple[int, ...]) -> Graph:
    """Circulant graph: vertex i adjacent to i +/- s (mod n) for each step s."""
    if n < 3:
        raise GraphError(f"circulant needs n >= 3, got {n}")
    if not steps or any(not 1 <= s <= n // 2 for s in steps):
        raise GraphError(f"steps must lie in 1..n//2, got {steps}")
    return Graph.from_edges(n, [(i, (i + s) % n) for s in steps for i in range(n)])


class FamilySpec(NamedTuple("FamilySpec", [("family", str), ("args", tuple)])):
    """A family tag plus its positional integer parameters.

    ``cycle_tree`` takes one tuple argument (the cycle lengths);
    ``circulant`` takes n plus a tuple of steps; every other family
    takes plain integers.
    """

    __slots__ = ()

    def __new__(cls, family: str, args: tuple = ()) -> FamilySpec:
        if family not in FAMILIES:
            raise GraphError(f"unknown family {family!r}")
        return super().__new__(cls, family, args)


FAMILIES: dict[str, Callable[..., Graph]] = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "star": star,
    "subdivided_star": subdivided_star,
    "double_leaf_caterpillar": double_leaf_caterpillar,
    "cycle_tree": cycle_tree,
    "circulant": circulant,
    "pendant_path": pendant_path,
}


def generate(spec: FamilySpec) -> Graph:
    """Build the graph described by ``spec``; invalid parameters raise GraphError."""
    ctor = FAMILIES[spec.family]
    try:
        return ctor(*spec.args)
    except TypeError as exc:
        raise GraphError(f"bad arguments for {spec.family}: {spec.args}") from exc

