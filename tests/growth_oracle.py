"""Unpruned growth of isomorphism classes, for use as a test oracle.

Each layer gives every class of the previous layer a new vertex joined to
each of the family's neighbour sets, keys every result with
``kforcing.smallgraphs.canonical_key`` and keeps one graph per key, sorted
by key. It drops no candidate before keying, where the package keeps only
twin-ordered sets whose new vertex is a least-score deletion.
"""

from functools import lru_cache

from kforcing.graph import Graph, from_upper_triangle
from kforcing.smallgraphs import canonical_key

NEIGHBOUR_SETS = {
    "all": lambda new: range(1 << new),
    "connected": lambda new: range(1, 1 << new),
    "trees": lambda new: [1 << v for v in range(new)],
}


def augmentations(h: Graph, family: str) -> list[Graph]:
    """h with a new vertex joined to each of the family's neighbour sets."""
    new = h.n
    return [
        Graph(new + 1, (*(a | (nbrs >> v & 1) << new for v, a in enumerate(h.adj)), nbrs))
        for nbrs in NEIGHBOUR_SETS[family](new)
    ]


@lru_cache(maxsize=None)
def unpruned_growth(
    family: str, n: int
) -> tuple[tuple[tuple[Graph, ...], ...], tuple[Graph, ...]]:
    """The layers on 1..n vertices and every augmentation keyed on the way,
    as tuples, since the cache hands the same result to every caller."""
    layers, keyed = [(Graph(1, (0,)),)], []
    for _ in range(1, n):
        grown = [g for h in layers[-1] for g in augmentations(h, family)]
        keyed += grown
        layers.append(tuple(from_upper_triangle(*key)
                            for key in sorted({canonical_key(g) for g in grown})))
    return tuple(layers), tuple(keyed)
