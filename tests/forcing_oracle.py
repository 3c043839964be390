"""Brute-force twins of the forcing engine, for use as test oracles.

They share no code with ``kforcing.forcing``: forcers fire one at a time
instead of in synchronous rounds, and the minimum is found by a plain scan
over every mask instead of Gosper's colex enumeration by size.
"""

from kforcing import Graph, iter_bits


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
