"""Exact invariant values for one graph, each computed when first read.

:func:`compute_record` checks the exact scope and computes n, m and the
maximum and minimum degree, from one pass over the adjacency. Everything
else (leaf and degree-3 counts, connectedness, components, and every
solver-backed value: forcing numbers, domination, independence,
connectivity, Hamiltonicity, cycle-tree shape, star-freeness, path
cover) runs only when a bound gate, a bound formula or a caller reads
it, and is kept for later reads.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from .forcing import k_forcing_number
from .graph import Graph, GraphError, components
from .invariants import (
    ExactScopeError,
    connected_k_domination,
    hamiltonian_cycle,
    is_cycle_tree,
    k_independence_numbers,
    min_star_free_index,
    path_cover_number,
    vertex_connectivity,
)

DEFAULT_MAX_N = 12


class _OnDemand(dict):
    """A dict keeping ``compute(self, key)`` for a missing key; compute may add more."""

    def __init__(self, compute: Callable[[dict, int], object]):
        super().__init__()
        self._compute = compute

    def __missing__(self, key: int):
        value = self[key] = self._compute(self, key)
        return value


class _cached_property:
    """``functools.cached_property`` as of Python 3.12, without the lock
    that 3.11 takes on every first read: the first read stores the value
    in the instance dict, where later reads find it before this
    (non-data) descriptor is consulted."""

    def __init__(self, compute: Callable[[object], object]):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type | None = None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class InvariantRecord:
    """Exact invariant values for one graph.

    ``forcing``, ``gamma_kc``, ``alpha`` and ``k_connected`` are keyed by
    the index they are computed at; looking up a missing index runs the
    solver. ``get`` never computes, so it reports only what is known.
    """

    def __init__(self, g: Graph):
        self.graph = g
        degrees = [a.bit_count() for a in g.adj]
        self.n, self.m = g.n, sum(degrees) // 2
        self.max_degree, self.min_degree = max(degrees), min(degrees)

    # the solver closures capture ``g`` and ``dmax``, not the record, so no
    # record is in a reference cycle

    @_cached_property
    def forcing(self) -> _OnDemand:
        # no vertex has over dmax uncolored neighbours: all k >= dmax force alike
        g, dmax = self.graph, max(self.max_degree, 1)
        return _OnDemand(lambda known, k: known[dmax] if k > dmax
                         else k_forcing_number(g, k).value)

    @_cached_property
    def gamma_kc(self) -> _OnDemand:
        g = self.graph
        return _OnDemand(lambda known, k: (res := connected_k_domination(g, k)) and res[0])

    @_cached_property
    def alpha(self) -> _OnDemand:
        g, dmax = self.graph, max(self.max_degree, 1)

        def alphas(known: dict, k: int) -> int:
            # one scan answers every k up to dmax, and verify reads them all
            found = k_independence_numbers(g, {k, *range(1, dmax + 1)})
            known.update((j, size) for j, (size, _) in found.items())
            return known[k]

        return _OnDemand(alphas)

    @_cached_property
    def k_connected(self) -> _OnDemand:
        g = self.graph
        # one connectivity scan serves every k
        kappa = cache(lambda: vertex_connectivity(g))
        return _OnDemand(lambda known, k: g.n > k and kappa() >= k)

    @_cached_property
    def leaf_count(self) -> int:
        return sum(a.bit_count() == 1 for a in self.graph.adj)

    @_cached_property
    def degree3_count(self) -> int:
        return sum(a.bit_count() == 3 for a in self.graph.adj)

    @_cached_property
    def component_count(self) -> int:
        return len(components(self.graph))

    @_cached_property
    def connected(self) -> bool:
        return self.graph.is_connected()

    @_cached_property
    def tree(self) -> bool:
        return self.connected and self.m == self.n - 1

    @property
    def gamma_c(self) -> int | None:
        return self.gamma_kc[1]

    @_cached_property
    def hamiltonian(self) -> bool:
        return self.n >= 3 and hamiltonian_cycle(self.graph) is not None

    @property
    def chord_count(self) -> int | None:
        return self.m - self.n if self.hamiltonian else None

    @_cached_property
    def cycle_tree_q(self) -> int | None:
        return is_cycle_tree(self.graph)[1]

    @_cached_property
    def star_free_index(self) -> int:
        return min_star_free_index(self.graph)

    @_cached_property
    def path_cover(self) -> int | None:
        return path_cover_number(self.graph)[0] if self.tree else None


def compute_record(g: Graph, max_n: int = DEFAULT_MAX_N) -> InvariantRecord:
    """The invariant record of ``g``, within the exact scope ``max_n``."""
    if g.n < 1:
        raise GraphError("invariants undefined for the empty graph")
    if g.n > max_n:
        raise ExactScopeError(f"exact invariants capped at n={max_n}, got {g.n}")
    return InvariantRecord(g)
