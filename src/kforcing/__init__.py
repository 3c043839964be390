"""Exact k-forcing numbers, companion graph invariants, and the proved
bounds relating them, with an exhaustive small-graph verification harness.
"""

from .bounds import (
    ALL_BOUNDS,
    BoundId,
    BoundReport,
    ComparisonReport,
    bound_value,
    comparison_main2_vs_main,
    evaluate_bounds,
)
from .families import FAMILIES, FamilySpec, generate
from .forcing import (
    ForcingTrace,
    KForcingResult,
    NotKConnectedError,
    check_spread,
    closure,
    greedy_k_forcing_upper,
    is_k_forcing_set,
    k_forcing_number,
    min_forcing_connected_complement,
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
    parse_edge_list,
    parse_graph6,
    read_graph6_file,
    write_edge_list,
    write_graph6,
)
from .invariants import (
    ExactScopeError,
    connected_k_domination,
    hamiltonian_cycle,
    is_cycle_tree,
    is_k1r_free,
    k_independence_number,
    max_leaf_spanning_tree,
    min_star_free_index,
    path_cover_number,
    vertex_k_connected,
)
from .records import DEFAULT_MAX_N, InvariantRecord, compute_record

__version__ = "0.1.0"

__all__ = [
    "ALL_BOUNDS",
    "BoundId",
    "BoundReport",
    "ComparisonReport",
    "DEFAULT_MAX_N",
    "ExactScopeError",
    "FAMILIES",
    "FamilySpec",
    "ForcingTrace",
    "Graph",
    "Graph6Error",
    "GraphError",
    "InvariantRecord",
    "KForcingResult",
    "NotKConnectedError",
    "bound_value",
    "check_spread",
    "closure",
    "comparison_main2_vs_main",
    "components",
    "compute_record",
    "connected_k_domination",
    "degree_profile",
    "disjoint_union",
    "evaluate_bounds",
    "generate",
    "greedy_k_forcing_upper",
    "hamiltonian_cycle",
    "is_cycle_tree",
    "is_k1r_free",
    "is_k_forcing_set",
    "iter_bits",
    "k_forcing_number",
    "k_independence_number",
    "mask_from",
    "max_leaf_spanning_tree",
    "min_forcing_connected_complement",
    "min_star_free_index",
    "parse_edge_list",
    "parse_graph6",
    "path_cover_number",
    "read_graph6_file",
    "subsets_of_size",
    "vertex_k_connected",
    "vertices_from",
    "write_edge_list",
    "write_graph6",
]
