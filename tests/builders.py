"""Graph and vertex-set builders that only the tests use."""

from typing import Iterable

from kforcing.graph import Graph, GraphError, iter_bits, vertices_from


def mask_from(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    """The neighbours of ``v`` in ``g``, in increasing order."""
    return vertices_from(g.adj[v])


def induced_subgraph(g: Graph, mask: int) -> Graph:
    """Subgraph of ``g`` induced by the vertices of ``mask``, re-indexed
    densely; relative vertex order is preserved."""
    keep = vertices_from(mask)
    index = {v: i for i, v in enumerate(keep)}
    adj = [0] * len(keep)
    for v in keep:
        for u in iter_bits(g.adj[v] & mask):
            adj[index[v]] |= 1 << index[u]
    return Graph(len(keep), tuple(adj))


def delete_vertex(g: Graph, v: int) -> Graph:
    """``g`` without vertex ``v``, the later vertices shifted down by one."""
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range")
    return induced_subgraph(g, g.full_mask & ~(1 << v))


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union, with each graph's vertices shifted past the previous."""
    n = 0
    adj: list[int] = []
    for g in graphs:
        adj.extend(a << n for a in g.adj)
        n += g.n
    return Graph(n, tuple(adj))
