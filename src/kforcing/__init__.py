"""Exact k-forcing numbers, companion graph invariants, and the proved
bounds relating them, with an exhaustive small-graph verification harness.
"""

from .bounds import (
    ALL_BOUNDS,
    BoundId,
    BoundReport,
    bound_value,
    evaluate_bounds,
)
from .families import FAMILIES, FamilySpec, generate
from .forcing import (
    KForcingResult,
    is_k_forcing_number,
    is_k_forcing_set,
    k_forcing_number,
    k_forcing_sets,
)
from .graph import (
    Graph,
    GraphError,
    components,
    degree_profile,
    disjoint_union,
    iter_bits,
    mask_from,
    subsets_of_size,
    vertices_from,
)
from .graphio import (
    Graph6Error,
    graph6_order,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .invariants import (
    ExactScopeError,
    connected_k_domination,
    hamiltonian_cycle,
    is_cycle_tree,
    k_independence_number,
    min_star_free_index,
    path_cover_number,
    vertex_connectivity,
    vertex_k_connected,
)
from .records import DEFAULT_MAX_N, InvariantRecord, compute_record

__version__ = "0.1.0"

__all__ = [
    "ALL_BOUNDS",
    "BoundId",
    "BoundReport",
    "DEFAULT_MAX_N",
    "ExactScopeError",
    "FAMILIES",
    "FamilySpec",
    "Graph",
    "Graph6Error",
    "GraphError",
    "InvariantRecord",
    "KForcingResult",
    "bound_value",
    "components",
    "compute_record",
    "connected_k_domination",
    "degree_profile",
    "disjoint_union",
    "evaluate_bounds",
    "generate",
    "graph6_order",
    "hamiltonian_cycle",
    "is_cycle_tree",
    "is_k_forcing_number",
    "is_k_forcing_set",
    "iter_bits",
    "k_forcing_number",
    "k_forcing_sets",
    "k_independence_number",
    "mask_from",
    "min_star_free_index",
    "parse_edge_list",
    "parse_graph6",
    "path_cover_number",
    "subsets_of_size",
    "vertex_connectivity",
    "vertex_k_connected",
    "vertices_from",
    "write_graph6",
]
