"""Exact companion invariants: domination, independence, path cover,
max-leaf spanning trees, connectivity, Hamiltonicity, and family checks.

Everything here is exact search at desk scale. Solvers that would stop
being exact past a size cap raise :class:`ExactScopeError` instead of
approximating.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .graph import Graph, GraphError, iter_bits, subsets_of_size, vertices_from


class ExactScopeError(GraphError):
    """Raised when an input exceeds the exact-computation scale of a solver."""


def connected_k_domination(g: Graph, k: int) -> tuple[int, int] | None:
    """Smallest connected k-dominating set, as (size, witness mask).

    Every vertex outside the set must have at least k neighbors inside,
    and the set must induce a connected subgraph. Returns None when no
    such set exists (disconnected graphs).
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if g.n < 1:
        raise GraphError("domination undefined for the empty graph")
    if not g.is_connected():
        return None
    adj, full = g.adj, g.full_mask
    for c in range(1, g.n + 1):
        for mask in subsets_of_size(g.n, c):
            # domination first: it is cheaper and rejects most masks
            rest = full & ~mask
            while rest:
                low = rest & -rest
                if (adj[low.bit_length() - 1] & mask).bit_count() < k:
                    break
                rest ^= low
            else:
                if g.is_connected_within(mask):
                    return c, mask
    return None


def k_independence_numbers(g: Graph, ks: Iterable[int]) -> dict[int, tuple[int, int]]:
    """Largest set inducing a subgraph of maximum degree below k, as
    (size, colex-first witness mask), for every k in ``ks`` at once.

    One downward scan: the first subset of induced maximum degree d
    answers every open k above d; counting stops at the largest open k.
    """
    open_ks = sorted(set(ks)) or [0]
    if open_ks[0] < 1:
        raise ValueError(f"k must be positive, got {open_ks[0]}")
    if g.n < 1:
        raise GraphError("independence undefined for the empty graph")
    adj, found = g.adj, {}
    for c in range(g.n, 0, -1):
        for mask in subsets_of_size(g.n, c):
            worst = 0
            rest = mask
            while rest:
                low = rest & -rest
                d = (adj[low.bit_length() - 1] & mask).bit_count()
                if d > worst:
                    if d >= open_ks[-1]:
                        break
                    worst = d
                rest ^= low
            else:
                while open_ks and open_ks[-1] > worst:
                    found[open_ks.pop()] = c, mask
                if not open_ks:
                    return found
    raise AssertionError("unreachable: a single vertex always qualifies")


def k_independence_number(g: Graph, k: int) -> tuple[int, int]:
    """:func:`k_independence_numbers` at the one index k."""
    return k_independence_numbers(g, (k,))[k]


# -- path cover of trees ------------------------------------------------

def path_cover_number(t: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertex-disjoint induced paths covering a tree.

    Returns (count, partition as a tuple of vertex masks). A partition
    into p paths uses exactly n - p tree edges with every vertex meeting
    at most 2 of them, so minimizing p is maximizing such an edge
    subset; that is a two-state DP pruned up from the leaves.
    """
    if not t.is_tree():
        raise GraphError("path cover is defined here for trees only")
    n = t.n
    if n == 1:
        return 1, (1,)

    parent = [-1] * n
    order = [0]
    seen = 1
    for v in order:
        for u in iter_bits(t.adj[v] & ~seen):
            seen |= 1 << u
            parent[u] = v
            order.append(u)

    # dp_free[v]: best edge count in v's subtree, parent edge unused
    # (v may keep up to 2 child edges); dp_used[v]: parent edge used
    # (at most 1 child edge). pick_* remember the chosen child edges.
    dp_free = [0] * n
    dp_used = [0] * n
    pick_free: list[tuple[int, ...]] = [()] * n
    pick_used: list[tuple[int, ...]] = [()] * n
    for v in reversed(order):
        kids = [u for u in iter_bits(t.adj[v]) if parent[u] == v]
        base = sum(dp_free[u] for u in kids)
        gains = sorted(
            ((dp_used[u] + 1 - dp_free[u], u) for u in kids), reverse=True
        )
        for cap, dp, pick in ((2, dp_free, pick_free), (1, dp_used, pick_used)):
            take = [u for gain, u in gains[:cap] if gain > 0]
            dp[v] = base + sum(dp_used[u] + 1 - dp_free[u] for u in take)
            pick[v] = tuple(take)

    chosen_adj = [0] * n
    stack = [(0, False)]
    while stack:
        v, used = stack.pop()
        picked = pick_used[v] if used else pick_free[v]
        kids = [u for u in iter_bits(t.adj[v]) if parent[u] == v]
        for u in kids:
            if u in picked:
                chosen_adj[v] |= 1 << u
                chosen_adj[u] |= 1 << v
                stack.append((u, True))
            else:
                stack.append((u, False))

    parts = []
    remaining = t.full_mask
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            nxt = 0
            for v in iter_bits(frontier):
                nxt |= chosen_adj[v]
            frontier = nxt & ~comp
            comp |= frontier
        parts.append(comp)
        remaining &= ~comp
    assert len(parts) == n - dp_free[0]
    return len(parts), tuple(parts)


# -- spanning trees ------------------------------------------------------

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
    edge_list = list(g.edges())
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


# -- connectivity ---------------------------------------------------------

def vertex_connectivity(g: Graph) -> int:
    """The fewest vertices whose deletion disconnects the graph: n - 1
    for K_n, 0 for a disconnected graph (or one with under 2 vertices).

    Never above the minimum degree, since deleting a vertex's neighbors
    isolates it, so the scan stops there.
    """
    if g.n < 2:
        return 0
    full = g.full_mask
    min_degree = min(a.bit_count() for a in g.adj)
    for c in range(min_degree):
        for mask in subsets_of_size(g.n, c):
            if not g.is_connected_within(full & ~mask):
                return c
    return min_degree


def vertex_k_connected(g: Graph, k: int) -> bool:
    """True iff n > k and deleting any fewer than k vertices leaves the
    graph connected (the empty deletion included)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return g.n > k and vertex_connectivity(g) >= k


# -- Hamiltonian cycles ----------------------------------------------------

def hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """Find a Hamiltonian cycle by backtracking, or None.

    The search starts at vertex 0 and tries neighbors in index order,
    so the returned cycle is deterministic. The chord count of a
    Hamiltonian graph is m - n.
    """
    if g.n < 3:
        raise GraphError("Hamiltonian cycles need n >= 3")
    if any(g.degree(v) < 2 for v in range(g.n)):
        return None
    n = g.n
    path = [0]

    def extend(visited: int) -> bool:
        v = path[-1]
        if len(path) == n:
            return bool(g.adj[v] & 1)
        for u in iter_bits(g.adj[v] & ~visited):
            path.append(u)
            if extend(visited | (1 << u)):
                return True
            path.pop()
        return False

    if extend(1):
        return tuple(path)
    return None


# -- induced-star freeness ---------------------------------------------------

def is_k1r_free(g: Graph, r: int) -> bool:
    """True iff no vertex has r pairwise non-adjacent neighbors."""
    if r < 3:
        raise ValueError(f"r must be at least 3, got {r}")
    for v in range(g.n):
        nbrs = vertices_from(g.adj[v])
        if len(nbrs) < r:
            continue
        for combo in combinations(nbrs, r):
            if all(not g.has_edge(a, b) for a, b in combinations(combo, 2)):
                return False
    return True


def _independence(adj: tuple[int, ...], mask: int) -> int:
    """Independence number of the subgraph that ``mask`` induces."""
    if not mask:
        return 0
    v = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << v)
    taken = 1 + _independence(adj, rest & ~adj[v])
    return taken if not adj[v] & rest else max(taken, _independence(adj, rest))


def min_star_free_index(g: Graph) -> int:
    """Smallest r >= 3 such that no vertex has r independent neighbours."""
    if g.n < 1:
        raise GraphError("star-free index undefined for the empty graph")
    return max(3, 1 + max(_independence(g.adj, nbrs) for nbrs in g.adj))


# -- cycle-trees ---------------------------------------------------------

def is_bridge(g: Graph, u: int, v: int) -> bool:
    """True iff removing edge (u, v) separates u from v."""
    if not g.has_edge(u, v):
        raise GraphError(f"no edge ({u}, {v})")
    seen = 1 << u
    frontier = seen
    while frontier:
        nxt = 0
        for w in iter_bits(frontier):
            reach = g.adj[w]
            if w == u:
                reach &= ~(1 << v)
            elif w == v:
                reach &= ~(1 << u)
            nxt |= reach
        frontier = nxt & ~seen
        seen |= frontier
    return not seen & (1 << v)


def is_cycle_tree(g: Graph) -> tuple[bool, int | None]:
    """Recognize chains of vertex-disjoint cycles joined by bridges.

    A cycle-tree is connected, every vertex lies on exactly one cycle,
    and the cycles are joined by bridge edges whose contraction is a
    tree. Returns (True, number of cycles) or (False, None).
    """
    # every vertex is on a cycle; m - n + 1 disjoint cycles need 3 vertices each
    if (g.n < 3 or min(a.bit_count() for a in g.adj) < 2
            or 3 * (g.m - g.n + 1) > g.n or not g.is_connected()):
        return False, None
    nonbridge_deg = [0] * g.n
    bridges = 0
    for u, v in g.edges():
        if is_bridge(g, u, v):
            bridges += 1
        else:
            nonbridge_deg[u] += 1
            nonbridge_deg[v] += 1
    if any(d != 2 for d in nonbridge_deg):
        return False, None
    q = g.m - g.n + 1
    assert bridges == q - 1
    return True, q
