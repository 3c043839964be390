"""Exact companion invariants: domination, independence, path cover,
connectivity, Hamiltonicity, and family checks.

Each solver but the tree path cover (F_1's value on trees, kept for
``compute`` and as the tests' oracle) computes a quantity that a bound
in ``bounds.BOUNDS`` reads. Everything here is exact search at desk scale.
"""

from __future__ import annotations

from typing import Iterable

from .graph import Graph, GraphError, components, iter_bits, subsets_of_size


class ExactScopeError(GraphError):
    """Raised by ``compute_record`` and ``compute`` past the exact-scope cap."""


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
    subset. From the leaves up, each vertex joins the paths of its two
    highest-index open children, or of fewer if it has fewer, and stays
    open, free to join its parent, unless it joined two: the edge to an
    open child is never worth less than the edge to the parent.
    """
    if not t.is_tree():
        raise GraphError("path cover is defined here for trees only")
    order, seen = [0], 1
    for v in order:  # breadth first, so each vertex's children come after it
        for u in iter_bits(t.adj[v] & ~seen):
            seen |= 1 << u
            order.append(u)

    joined = [0] * t.n  # the chosen edges, as adjacency masks
    open_ = 0  # the vertices that joined fewer than two children
    for v in reversed(order):
        kids = t.adj[v] & open_  # its parent comes later, so is not yet open
        while kids.bit_count() > 2:
            kids &= kids - 1  # drop the lowest index
        joined[v] = kids
        for u in iter_bits(kids):
            joined[u] |= 1 << v
        if kids.bit_count() < 2:
            open_ |= 1 << v

    parts = components(Graph(t.n, tuple(joined)))
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

def is_cycle_tree(g: Graph) -> tuple[bool, int | None]:
    """Recognize chains of vertex-disjoint cycles joined by bridges.

    A cycle-tree is connected, every vertex lies on exactly one cycle,
    and the cycles are joined by bridge edges whose contraction is a
    tree. Returns (True, number of cycles) or (False, None).

    Edge uv lies on a cycle exactly when the piece of G - v that holds u
    holds another neighbour of v, so v's non-bridge edges number the
    sum of |P & N(v)| over the pieces P of G - v meeting N(v) twice.
    """
    # every vertex is on a cycle; m - n + 1 disjoint cycles need 3 vertices each
    if (g.n < 3 or min(a.bit_count() for a in g.adj) < 2
            or 3 * (g.m - g.n + 1) > g.n or not g.is_connected()):
        return False, None
    for v, nbrs in enumerate(g.adj):
        met = [(p & nbrs).bit_count() for p in components(g, g.full_mask ^ 1 << v)]
        if sum(c for c in met if c > 1) != 2:
            return False, None
    return True, g.m - g.n + 1
