"""The bound gates as single predicates, verbatim as ``bounds.BOUNDS``
stated them before each became a tuple of named hypotheses: the oracle
that the tuples are checked against.

The predicates read two fields that the record no longer holds.
``OracleRecord`` supplies them by other routes, ``k_connected[k]`` from
``vertex_k_connected`` and ``tree`` from ``Graph.is_tree``, and reads
every other field from the record it wraps.
"""

from functools import cache

from kforcing.bounds import BoundId
from kforcing.invariants import vertex_k_connected
from kforcing.records import InvariantRecord


class OracleRecord:
    def __init__(self, rec: InvariantRecord):
        self._rec = rec
        self.tree = rec.graph.is_tree()
        self.k_connected = _KConnected(rec.graph)

    def __getattr__(self, name: str):
        return getattr(self._rec, name)


class _KConnected:
    def __init__(self, g):
        self.is_k_connected = cache(lambda k: vertex_k_connected(g, k))

    def __getitem__(self, k: int) -> bool:
        return self.is_k_connected(k)


def _connected_d2(rec, k: int) -> bool:
    return k == 1 and rec.connected and rec.max_degree >= 2


GATES = {
    BoundId.LOWER_DEG: lambda rec, k: True,
    BoundId.MAIN:
        lambda rec, k: rec.n >= 2 and rec.max_degree >= k and rec.min_degree >= 1,
    BoundId.KCOR: lambda rec, k: rec.n >= 2 and rec.min_degree >= k,
    BoundId.RATIO: lambda rec, k: k == 1 and rec.min_degree >= 1,
    BoundId.CONN_KDOM: lambda rec, k: rec.k_connected[k],
    BoundId.CONN_DOM: lambda rec, k: k == 1 and rec.connected and rec.n >= 2,
    BoundId.MAIN2: lambda rec, k: rec.k_connected[k] and rec.max_degree >= 2,
    BoundId.COR3: _connected_d2,
    BoundId.CHAIN: _connected_d2,
    BoundId.GAMMA_LOWER: _connected_d2,
    BoundId.HAM_CHORDS:
        lambda rec, k: k == 1 and rec.n >= 4 and rec.hamiltonian
        and rec.chord_count >= 1,
    BoundId.HAM_CUBIC:
        lambda rec, k: k == 1 and rec.max_degree == 3 and rec.degree3_count >= 2
        and rec.hamiltonian,
    BoundId.CYCLE_TREE: lambda rec, k: k == 1 and rec.cycle_tree_q is not None,
    BoundId.TREE_LEAF: lambda rec, k: k == 1 and rec.tree and rec.n >= 2,
    BoundId.TREE_COR: lambda rec, k: k == 1 and rec.tree and rec.max_degree >= 2,
    BoundId.K1R:
        lambda rec, k: rec.min_degree >= 1 and rec.max_degree >= k and rec.connected,
    BoundId.K1R_ALPHA: lambda rec, k: k == 1 and rec.min_degree >= 1,
    BoundId.CLAWFREE:
        lambda rec, k: rec.min_degree >= 1 and rec.max_degree >= k and rec.connected
        and rec.star_free_index == 3,
}
