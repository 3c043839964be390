"""Brute-force twins of the forcing engine, for use as test oracles.

They share no code with ``kforcing.forcing``. :func:`closure` runs the
synchronous rounds with a full trace, :func:`closure_async` fires forcers
one at a time instead, and the minimum is found by a plain scan over every
mask instead of Gosper's colex enumeration by size.
:func:`min_forcing_cc_oracle` finds a minimum forcing set with a connected
complement; no bound reads it, so the package has no such solver.
"""

from dataclasses import dataclass
from itertools import combinations

from kforcing import Graph, GraphError, iter_bits, mask_from


@dataclass(frozen=True)
class ForcingTrace:
    """Record of one closure run.

    ``rounds[i]`` lists (forcer, mask of neighbors it forced) for every
    vertex that fired in round i; ``final`` is the fixpoint colored set.
    """

    initial: int
    k: int
    rounds: tuple[tuple[tuple[int, int], ...], ...]
    final: int


def closure(g: Graph, initial: int, k: int) -> ForcingTrace:
    """Run the k-forcing process to its fixpoint from ``initial``.

    Synchronous rounds: every colored vertex with 1..k non-colored
    neighbors forces all of them at once. Stops when no vertex
    qualifies.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if initial & ~g.full_mask:
        raise GraphError("initial set contains out-of-range vertices")
    colored = initial
    rounds: list[tuple[tuple[int, int], ...]] = []
    while True:
        fires = []
        newly = 0
        for v in iter_bits(colored):
            uncolored = g.adj[v] & ~colored
            if uncolored and uncolored.bit_count() <= k:
                fires.append((v, uncolored))
                newly |= uncolored
        if not fires:
            break
        rounds.append(tuple(fires))
        colored |= newly
    return ForcingTrace(initial=initial, k=k, rounds=tuple(rounds), final=colored)


def closure_async(g: Graph, initial: int, k: int) -> int:
    """Fixpoint colored set, firing one forcer at a time in index order."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    colored = initial
    while True:
        for v in iter_bits(colored):
            uncolored = g.adj[v] & ~colored
            if uncolored and uncolored.bit_count() <= k:
                colored |= uncolored
                break
        else:
            return colored


def forcing_number_oracle(g: Graph, k: int) -> tuple[int, int]:
    """(F_k, colex-first witness), scanning every mask in ascending order.

    Colex order on sets of one size is ascending mask order, so the first
    forcing mask met at the minimum size is the colex-first witness.
    """
    best, witness = g.n + 1, None
    for mask in range(1 << g.n):
        if mask.bit_count() < best and closure_async(g, mask, k) == g.full_mask:
            best, witness = mask.bit_count(), mask
    return best, witness


def forcing_sets_oracle(g: Graph, k: int, c: int) -> list[int]:
    """Every k-forcing c-subset, scanning every mask in ascending order."""
    return [
        mask
        for mask in range(1 << g.n)
        if mask.bit_count() == c and closure_async(g, mask, k) == g.full_mask
    ]


def min_forcing_cc_oracle(g: Graph, k: int) -> tuple[int, int]:
    """(size, witness mask) of a smallest k-forcing set whose complement
    induces a connected subgraph, by a set-based scan over itertools
    combinations, smallest size first."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}

    def connected(sub):
        sub = set(sub)
        if len(sub) <= 1:
            return True
        seen = {min(sub)}
        frontier = set(seen)
        while frontier:
            frontier = {u for v in frontier for u in adj[v] & sub} - seen
            seen |= frontier
        return seen == sub

    for c in range(1, g.n + 1):
        for combo in combinations(range(g.n), c):
            rest = set(range(g.n)) - set(combo)
            if not connected(rest):
                continue
            if closure_async(g, mask_from(combo), k) == g.full_mask:
                return c, mask_from(combo)
    raise AssertionError("unreachable")
