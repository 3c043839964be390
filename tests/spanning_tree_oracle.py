"""Exact maximum-leaf spanning trees, for use as a test oracle.

No bound reads this invariant. It cross-checks connected domination
through max leaves = n - gamma_c, by a branch and bound over
include/exclude edge decisions that reaches graphs on 8 vertices, where
the edge-subset scan in ``test_invariants.py`` is too slow.
"""

from kforcing import ExactScopeError, Graph, GraphError, iter_bits

from builders import edges

_MAX_LEAF_SCOPE = 10


def max_leaf_spanning_tree(g: Graph) -> int:
    """Maximum leaf count over all spanning trees, by exhaustive search.

    Branch-and-bound over include/exclude edge decisions; exact. Inputs
    beyond the enumeration scope raise ExactScopeError rather than
    falling back to an approximation.
    """
    if g.n < 3:
        raise GraphError("max-leaf spanning tree needs n >= 3")
    if not g.is_connected():
        raise GraphError("max-leaf spanning tree needs a connected graph")
    if g.n > _MAX_LEAF_SCOPE:
        raise ExactScopeError(
            f"spanning-tree enumeration capped at n={_MAX_LEAF_SCOPE}, got {g.n}"
        )
    n = g.n
    edge_list = list(edges(g))
    m = len(edge_list)

    # suffix_adj[i][v]: neighbors of v among edges i..m-1
    suffix_adj = [[0] * n for _ in range(m + 1)]
    for i in range(m - 1, -1, -1):
        u, v = edge_list[i]
        row = suffix_adj[i + 1][:]
        row[u] |= 1 << v
        row[v] |= 1 << u
        suffix_adj[i] = row

    full = g.full_mask
    best = 2  # every spanning tree of a connected graph on n >= 2 has >= 2 leaves

    def connects(chosen_adj: list[int], i: int) -> bool:
        # can the chosen edges plus edges i.. still span everything?
        seen = 1
        frontier = 1
        suffix = suffix_adj[i]
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= chosen_adj[v] | suffix[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == full

    def rec(i: int, count: int, comp: list[int], deg: list[int], adj: list[int]):
        nonlocal best
        if count == n - 1:
            leaves = sum(1 for v in range(n) if deg[v] == 1)
            if leaves > best:
                best = leaves
            return
        if i == m or m - i < n - 1 - count:
            return
        # vertices already forced internal can never become leaves again
        internal = sum(1 for v in range(n) if deg[v] >= 2)
        if n - internal <= best:
            return
        u, v = edge_list[i]
        if comp[u] != comp[v]:
            new_comp = [comp[v] if c == comp[u] else c for c in comp]
            deg[u] += 1
            deg[v] += 1
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rec(i + 1, count + 1, new_comp, deg, adj)
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            deg[u] -= 1
            deg[v] -= 1
        if connects(adj, i + 1):
            rec(i + 1, count, comp, deg, adj)

    rec(0, 0, list(range(n)), [0] * n, [0] * n)
    return best
