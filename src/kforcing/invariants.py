"""Exact companion invariants: domination, independence, path cover,
connectivity, Hamiltonicity, and family checks.

Each solver computes a quantity that a bound in ``bounds.BOUNDS`` reads.
Everything here is exact search at desk scale; past the size cap a
record raises :class:`ExactScopeError` instead of approximating.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, GraphError, components, iter_bits, subsets_of_size


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
        stack += [(u, u in picked) for u in iter_bits(t.adj[v]) if parent[u] == v]
        for u in picked:
            chosen_adj[v] |= 1 << u
            chosen_adj[u] |= 1 << v

    parts = components(Graph(n, tuple(chosen_adj)))
    assert len(parts) == n - dp_free[0]
    return len(parts), tuple(parts)


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


# no caller in src/: kept because kbench/tracer.py binds it by name, until the
# tracer work of ROADMAP item 9 spans vertex_connectivity instead
def vertex_k_connected(g: Graph, k: int) -> bool:
    """True iff n > k and deleting any fewer than k vertices leaves the
    graph connected (the empty deletion included)."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return g.n > k and vertex_connectivity(g) >= k


# -- Hamiltonian cycles ----------------------------------------------------

def hamiltonian_cycle(g: Graph) -> tuple[int, ...] | None:
    """Find a Hamiltonian cycle by backtracking, or None; a graph with
    fewer than 3 vertices has none.

    The search starts at vertex 0 and tries neighbors in index order,
    so the returned cycle is deterministic. The chord count of a
    Hamiltonian graph is m - n.
    """
    if g.n < 3 or any(g.degree(v) < 2 for v in range(g.n)):
        return None
    adj, path, visited = g.adj, [0], 1
    untried = [adj[0] & ~1]  # untried[i]: the next vertices to try after path[i]
    while untried:
        if untried[-1]:
            low = untried[-1] & -untried[-1]
            untried[-1] ^= low
            path.append(low.bit_length() - 1)
            visited |= low
            untried.append(adj[path[-1]] & ~visited)
        elif len(path) == g.n and adj[path[-1]] & 1:
            return tuple(path)
        else:
            untried.pop()
            visited ^= 1 << path.pop()
    return None


# -- induced-star freeness ---------------------------------------------------

def _independence(adj: tuple[int, ...], mask: int) -> int:
    """Independence number of the subgraph that ``mask`` induces."""
    best, branches = 0, [(mask, 0)]  # (vertices left, vertices taken)
    while branches:
        mask, size = branches.pop()
        while mask:  # take the lowest vertex; a neighbour left makes leaving it out a branch
            low = mask & -mask
            mask ^= low
            if (nbrs := adj[low.bit_length() - 1]) & mask:
                branches.append((mask, size))
            mask &= ~nbrs
            size += 1
        best = max(best, size)
    return best


def min_star_free_index(g: Graph) -> int:
    """Smallest r >= 3 such that no vertex has r independent neighbours."""
    if g.n < 1:
        raise GraphError("star-free index undefined for the empty graph")
    return max(3, 1 + max(_independence(g.adj, nbrs) for nbrs in g.adj))


# -- cycle-trees ---------------------------------------------------------

def is_bridge(g: Graph, u: int, v: int) -> bool:
    """True iff removing edge (u, v) separates u from v."""
    return not g.delete_edge(u, v).component_of(u) & 1 << v


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
