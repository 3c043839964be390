"""The k-forcing process: closures, set checking, and the exact minimum.

The color-change rule: a colored vertex with at least one and at most k
non-colored neighbors colors all of them. A set whose closure under the
rule is the whole vertex set is a k-forcing set; the k-forcing number
is the smallest size of one.

Closures here run in synchronous rounds (every eligible forcer fires
simultaneously) to their fixpoint, which is scheduler-independent;
:func:`_fixpoint` keeps no trace of the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, components, subsets_of_size


@dataclass(frozen=True)
class KForcingResult:
    """Exact k-forcing number with its colex-first minimum witness."""

    k: int
    value: int
    witness: int
    all_minimum: tuple[int, ...] | None = None


def _fixpoint(adj: tuple[int, ...], colored: int, k: int) -> int:
    """The colored set once no forcer fires, from ``colored``; no checks."""
    while True:
        newly = 0
        rest = colored
        while rest:
            low = rest & -rest
            uncolored = adj[low.bit_length() - 1] & ~colored
            if uncolored and uncolored.bit_count() <= k:
                newly |= uncolored
            rest ^= low
        if not newly:
            return colored
        colored |= newly


def is_k_forcing_set(g: Graph, s: int, k: int) -> bool:
    """True iff the closure of ``s`` colors every vertex."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    full = g.full_mask
    if s & ~full:
        raise GraphError("initial set contains out-of-range vertices")
    return _fixpoint(g.adj, s, k) == full


def k_forcing_number(
    g: Graph, k: int, collect_all_minimum: bool = False
) -> KForcingResult:
    """Exact k-forcing number with a minimum witness.

    Candidate cardinalities increase from the component count, since
    every component needs a vertex of its own; within a cardinality,
    subsets are tried in colex order and the first success is the
    witness. No other lower bound is assumed, so the bounds checked
    against this value (the minimum-degree one among them) can fail.
    With ``collect_all_minimum`` the scan of the winning cardinality is
    completed to gather every minimum k-forcing set.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if g.n < 1:
        raise GraphError("k-forcing number undefined for the empty graph")
    for c in range(len(components(g)), g.n + 1):
        found: list[int] = []
        for mask in subsets_of_size(g.n, c):
            if is_k_forcing_set(g, mask, k):
                if not collect_all_minimum:
                    return KForcingResult(k=k, value=c, witness=mask)
                found.append(mask)
        if found:
            return KForcingResult(
                k=k, value=c, witness=found[0], all_minimum=tuple(found)
            )
    raise AssertionError("unreachable: the full vertex set always forces")


def greedy_k_forcing_upper(g: Graph, k: int) -> tuple[int, int]:
    """Greedy upper bound: (size, witness mask) of a verified k-forcing set.

    Repeatedly adds the vertex whose addition maximizes the closure
    size, ties broken by smallest index.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if g.n < 1:
        raise GraphError("greedy forcing undefined for the empty graph")
    chosen = 0
    covered = 0
    while covered != g.full_mask:
        best_v = -1
        best_gain = -1
        for v in range(g.n):
            bit = 1 << v
            if chosen & bit:
                continue
            gain = _fixpoint(g.adj, chosen | bit, k).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        chosen |= 1 << best_v
        covered = _fixpoint(g.adj, chosen, k)
    return chosen.bit_count(), chosen


def check_spread(g: Graph, k: int = 1) -> bool:
    """Check that deleting any one vertex or edge moves F_k by at most 1."""
    if g.n < 2:
        raise GraphError("spread check needs at least two vertices")
    base = k_forcing_number(g, k).value
    for v in range(g.n):
        if abs(base - k_forcing_number(g.delete_vertex(v), k).value) > 1:
            return False
    for u, v in g.edges():
        if abs(base - k_forcing_number(g.delete_edge(u, v), k).value) > 1:
            return False
    return True


class NotKConnectedError(GraphError):
    """Raised when an operation requires k-connectivity the graph lacks."""


def min_forcing_connected_complement(g: Graph, k: int) -> tuple[int, int]:
    """Smallest k-forcing set whose complement induces a connected subgraph.

    Returns (witness mask, size). Requires g to be k-connected with
    n > k; complements of at most one vertex count as connected
    vacuously.
    """
    from .invariants import vertex_k_connected

    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if not vertex_k_connected(g, k):
        raise NotKConnectedError(f"graph is not {k}-connected")
    full = g.full_mask
    for c in range(1, g.n + 1):
        for mask in subsets_of_size(g.n, c):
            rest = full & ~mask
            if rest.bit_count() > 1 and not g.is_connected_within(rest):
                continue
            if is_k_forcing_set(g, mask, k):
                return mask, c
    raise AssertionError("unreachable: n-1 vertices always qualify")
