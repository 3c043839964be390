"""Immutable simple undirected graphs over dense 0-based vertex indices.

Adjacency is stored as one int bitmask per vertex, so subset-heavy
algorithms (forcing closures, domination solvers, subset enumeration)
run on machine-word operations. Vertex sets travel through the whole
package as plain int bitmasks; :func:`vertices_from` unpacks one where
output lists vertices. :func:`upper_triangle` packs a whole graph into
one int, in the bit order that graph6 and canonical keys share.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Raised for structurally invalid graph input."""


def vertices_from(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex indices."""
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: Levels of at most this many subsets are kept once built (every level
#: for n <= 14); larger ones stream, so big scans hold no new memory.
LEVEL_CAP = 4096

_levels: dict[tuple[int, int], tuple[int, ...]] = {}


def subsets_of_size(n: int, c: int) -> Iterable[int]:
    """All c-subsets of 0..n-1 as bitmasks, in colexicographic order.

    A level of at most :data:`LEVEL_CAP` subsets is a tuple built once
    per process and returned to every later call; a larger level is a
    fresh iterator, since its masks are not kept. Either way, scans see
    the same masks in the same order. A negative ``n`` or ``c`` raises
    ``ValueError``; ``c > n`` gives no subsets.
    """
    level = _levels.get((n, c))
    if level is not None:
        return level
    if n < 0:
        raise ValueError(f"vertex count must be non-negative, got {n}")
    if c < 0:
        raise ValueError(f"subset size must be non-negative, got {c}")
    if comb(n, c) > LEVEL_CAP:
        return _gosper(n, c)
    level = _levels[n, c] = tuple(_gosper(n, c))
    return level


def _gosper(n: int, c: int) -> Iterator[int]:
    """The c-subsets of 0..n-1, for 0 <= c, in ascending bitmask order.

    Colex order on same-size sets is exactly ascending bitmask order,
    so Gosper's hack enumerates it directly.
    """
    if c == 0:
        yield 0
        return
    if c > n:
        return
    mask = (1 << c) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitmask of ``v``.

    Instances are immutable value objects and safe to share between
    concurrent workers: equal (to a graph of the same class), hashed,
    printed and pickled by (n, adj), and set only on creation, through
    ``object.__setattr__``.
    """

    __slots__ = ("n", "adj")
    n: int
    adj: tuple[int, ...]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self):
        return type(self), (self.n, self.adj)

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        if n < 0:
            raise GraphError(f"negative vertex count {n}")
        if len(adj) != n:
            raise GraphError("adjacency length does not match vertex count")
        full = (1 << n) - 1
        for v, nbrs in enumerate(adj):
            if nbrs & (1 << v):
                raise GraphError(f"self-loop at vertex {v}")
            if nbrs & ~full:
                raise GraphError(f"neighbor of {v} out of range")
        for v in range(n):
            for u in iter_bits(adj[v]):
                if not adj[u] & (1 << v):
                    raise GraphError(f"asymmetric edge ({v}, {u})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _unchecked(cls, n: int, adj: tuple[int, ...]) -> Graph:
        """A graph from adjacency valid by construction, left unchecked.

        The slots are set through their member descriptors, which skip
        ``object.__setattr__``'s attribute lookup."""
        g = object.__new__(cls)
        _set_n(g, n)
        _set_adj(g, adj)
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph on ``n`` vertices from an edge iterable."""
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return Graph(n, tuple(adj))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    # -- connectivity ---------------------------------------------------

    def component_of(self, start: int, within: int) -> int:
        """Bitmask of the component containing ``start``, restricted to ``within``."""
        adj = self.adj
        seen = frontier = 1 << start
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & within & ~seen
            seen |= frontier
        return seen

    def is_connected_within(self, mask: int) -> bool:
        """True iff the subgraph induced by ``mask`` is connected.

        A singleton is connected; the empty mask is not.
        """
        if mask == 0:
            return False
        start = (mask & -mask).bit_length() - 1
        return self.component_of(start, mask) == mask

    def is_connected(self) -> bool:
        return self.is_connected_within(self.full_mask)

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected() and self.m == self.n - 1


_set_n, _set_adj = Graph.n.__set__, Graph.adj.__set__


def upper_triangle(g: Graph) -> int:
    """The pairs above the diagonal as one int: bit p is the p-th pair
    (i, j), i < j, in column order (0,1), (0,2), (1,2), (0,3), ..., so
    column j is the low j bits of ``adj[j]``."""
    bits = 0
    for j in range(g.n - 1, 0, -1):
        bits = bits << j | g.adj[j] & (1 << j) - 1
    return bits


def from_upper_triangle(n: int, bits: int) -> Graph:
    """The graph on n vertices whose :func:`upper_triangle` is ``bits``,
    unchecked: one triangle's adjacency is symmetric and loop-free."""
    adj = [0] * n
    for j in range(1, n):
        adj[j] = col = bits & (1 << j) - 1
        bits >>= j
        bit = 1 << j
        while col:
            low = col & -col
            adj[low.bit_length() - 1] |= bit
            col ^= low
    return Graph._unchecked(n, tuple(adj))


def components(g: Graph, within: int | None = None) -> list[int]:
    """Split ``within``, or every vertex when it is None, into its pieces:
    the connected components of the subgraph it induces.

    Returns one bitmask per piece, ordered by smallest member vertex.
    """
    out = []
    rest = g.full_mask if within is None else within
    while rest:
        piece = g.component_of((rest & -rest).bit_length() - 1, rest)
        out.append(piece)
        rest ^= piece
    return out


def degree_profile(g: Graph) -> tuple[int, int, int, dict[int, int]]:
    """Return (max degree, min degree, leaf count, degree histogram).

    Leaves are vertices of degree exactly one. Rejects the empty graph.
    """
    if g.n == 0:
        raise GraphError("degree profile undefined for the empty graph")
    hist: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    degrees = sorted(hist)
    return degrees[-1], degrees[0], hist.get(1, 0), hist
