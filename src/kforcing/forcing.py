"""The k-forcing process: closures, set checking, and the exact minimum.

The color-change rule: a colored vertex with at least one and at most k
non-colored neighbors colors all of them. A set whose closure under the
rule is the whole vertex set is a k-forcing set; the k-forcing number
is the smallest size of one.

Closures here run in synchronous rounds (every eligible forcer fires
simultaneously) to their fixpoint, which is scheduler-independent;
:func:`_fixpoint` keeps no trace of the rounds.

Only what the bounds and ``search`` read lives here: F_k and the level
scans that decide F_k = v.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graph import Graph, GraphError, subsets_of_size


class KForcingResult(NamedTuple):
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
    full = (1 << g.n) - 1
    if s & ~full:
        raise GraphError("initial set contains out-of-range vertices")
    return _fixpoint(g.adj, s, k) == full


def k_forcing_sets(g: Graph, k: int, c: int) -> Iterator[int]:
    """The k-forcing c-subsets of ``g`` as bitmasks, in colex order.

    Each c-subset comes from :func:`subsets_of_size` and is tested by
    :func:`is_k_forcing_set` only when the iterator reaches it, so a
    caller that stops at the first set tests no more than it needs.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return (mask for mask in subsets_of_size(g.n, c)
            if is_k_forcing_set(g, mask, k))


def k_forcing_number(
    g: Graph, k: int, collect_all_minimum: bool = False
) -> KForcingResult:
    """Exact k-forcing number with a minimum witness.

    Levels of :func:`k_forcing_sets` are scanned by increasing size from
    1; the witness is the colex-first set of the lowest non-empty level.
    No lower bound is assumed, so the bounds checked against this value
    (the minimum-degree one among them) can fail. A graph with c
    components needs a vertex in each, so its levels 1..c-1 all fail,
    at C(n, i) closures for level i.
    With ``collect_all_minimum`` that whole level is gathered as
    ``all_minimum``, every minimum k-forcing set in colex order.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if g.n < 1:
        raise GraphError("k-forcing number undefined for the empty graph")
    for c in range(1, g.n + 1):
        if collect_all_minimum:
            found = tuple(k_forcing_sets(g, k, c))
            if found:
                return KForcingResult(
                    k=k, value=c, witness=found[0], all_minimum=found
                )
            continue
        # k_forcing_sets' test, inline: no generator to build and resume per level
        for mask in subsets_of_size(g.n, c):
            if is_k_forcing_set(g, mask, k):
                return KForcingResult(k=k, value=c, witness=mask)
    raise AssertionError("unreachable: the full vertex set always forces")


def is_k_forcing_number(g: Graph, k: int, value: int) -> bool:
    """True iff F_k(g) == ``value``, decided by two level scans.

    No (value - 1)-set may force and some value-set must, both found
    by :func:`k_forcing_sets`. This rests on one fact only: a superset
    of a k-forcing set is a k-forcing set, since the closure grows with
    its initial set; so any forcing set smaller than value - 1 would
    leave one of size value - 1. No bound from ``bounds.BOUNDS`` is
    assumed. A non-empty graph's F_k lies in 1..n, so other values are
    rejected without a scan.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if g.n < 1:
        raise GraphError("k-forcing number undefined for the empty graph")
    if not 1 <= value <= g.n:
        return False
    return (next(k_forcing_sets(g, k, value - 1), None) is None
            and next(k_forcing_sets(g, k, value), None) is not None)
