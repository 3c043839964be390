"""Seeded random graphs shared by the test modules."""

import random

from kforcing.graph import Graph


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """One labeled Erdos-Renyi graph G(n, p)."""
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
