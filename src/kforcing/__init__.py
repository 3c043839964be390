"""Exact k-forcing numbers, companion graph invariants, and the proved
bounds relating them, with an exhaustive small-graph verification harness.

Importing the package loads none of its modules: each public name is
looked up in its defining module when it is read (PEP 562), so a command
loads only the modules it runs. Nothing is cached here, so a rebinding
of the name in its defining module is always what the package returns.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "bounds": ("ALL_BOUNDS", "BOUNDS", "BoundId", "BoundReport", "bound_outcomes",
               "evaluate_bounds"),
    "families": ("FAMILIES", "FamilySpec", "generate"),
    "forcing": ("KForcingResult", "is_k_forcing_number", "is_k_forcing_set",
                "k_forcing_number", "k_forcing_sets"),
    "graph": ("Graph", "GraphError", "components", "degree_profile", "iter_bits",
              "subsets_of_size", "vertices_from"),
    "graphio": ("Graph6Error", "graph6_order", "parse_edge_list", "parse_graph6",
                "write_graph6"),
    "invariants": ("ExactScopeError", "connected_k_domination",
                   "hamiltonian_cycle", "is_cycle_tree", "k_independence_number",
                   "min_star_free_index", "path_cover_number",
                   "vertex_connectivity", "vertex_k_connected"),
    "records": ("DEFAULT_MAX_N", "InvariantRecord", "compute_record"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
