"""The ``compute`` command: one invariant of one graph, with its witness."""

from __future__ import annotations

import argparse
import json

from . import cli
from .forcing import k_forcing_number, k_forcing_sets
from .graph import Graph, GraphError, degree_profile, vertices_from
from .graphio import decode_graph6, graph6_order
from .invariants import (
    ExactScopeError,
    connected_k_domination,
    hamiltonian_cycle,
    is_cycle_tree,
    k_independence_number,
    min_star_free_index,
    path_cover_number,
)
from .records import compute_record


def _fmt_mask(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices_from(mask)) + "}"


def _value_witness(k: int, value, witness: int) -> dict:
    return {"k": k, "value": value, "witness": _fmt_mask(witness)}


def _forcing(g: Graph, args: argparse.Namespace) -> dict:
    res = k_forcing_number(g, args.k)
    out = _value_witness(args.k, res.value, res.witness)
    if args.all_min:
        out["all_minimum"] = [_fmt_mask(m) for m in k_forcing_sets(g, args.k, res.value)]
    return out


def _gamma_c(g: Graph, args: argparse.Namespace) -> dict:
    return _gamma_kc(g, args, 1)


def _gamma_kc(g: Graph, args: argparse.Namespace, k: int | None = None) -> dict:
    k = args.k if k is None else k
    res = connected_k_domination(g, k)
    return {"k": k, "value": None} if res is None else _value_witness(k, *res)


def _alpha(g: Graph, args: argparse.Namespace) -> dict:
    return _value_witness(args.k, *k_independence_number(g, args.k))


def _path_cover(g: Graph, args: argparse.Namespace) -> dict:
    value, parts = path_cover_number(g)
    return {"value": value, "parts": [_fmt_mask(p) for p in parts]}


def _hamiltonian(g: Graph, args: argparse.Namespace) -> dict:
    cyc = hamiltonian_cycle(g)
    return {"value": cyc is not None, "cycle": list(cyc) if cyc else None,
            "chords": g.m - g.n if cyc else None}


def _cycle_tree(g: Graph, args: argparse.Namespace) -> dict:
    return dict(zip(("value", "cycles"), is_cycle_tree(g)))


def _star_free(g: Graph, args: argparse.Namespace) -> dict:
    return {"value": min_star_free_index(g)}


def _profile(g: Graph, args: argparse.Namespace) -> dict:
    dmax, dmin, leaves, hist = degree_profile(g)
    return {"max_degree": dmax, "min_degree": dmin, "leaf_count": leaves,
            "histogram": {str(d): c for d, c in sorted(hist.items())}}


def _record(g: Graph, args: argparse.Namespace) -> dict:
    rec = compute_record(g, max_n=args.max_n)
    ks = cli._parse_ks(args.ks, rec.max_degree, args.max_n)
    r = rec.star_free_index
    # the indices the checks read at these ks, whatever their gates
    forcing_ks = {i for k in ks for i in (k, k * (r - 1), 2 * k)}
    ks = sorted({1, *ks})
    return {
        "max_degree": rec.max_degree,
        "min_degree": rec.min_degree,
        "leaf_count": rec.leaf_count,
        "connected": rec.connected,
        "forcing": {str(i): rec.forcing[i] for i in sorted(forcing_ks)},
        "gamma_c": rec.gamma_c,
        "gamma_kc": {str(i): rec.gamma_kc[i] for i in ks},
        "alpha": {str(i): rec.alpha[i] for i in ks},
        "hamiltonian": rec.hamiltonian,
        "chord_count": rec.chord_count,
        "cycle_tree_q": rec.cycle_tree_q,
        "star_free_index": rec.star_free_index,
        "path_cover": rec.path_cover,
    }


# --invariant name -> the function named after it, which returns the fields it
# adds. Each solver is called by its module-level name, so a rebinding counts.
_INVARIANTS = {name: globals()["_" + name.replace("-", "_")]
               for name in cli._INVARIANT_NAMES}


def cmd_compute(args: argparse.Namespace) -> int:
    cli._check_max_n(args.max_n)
    if args.graph6:
        g6, n = graph6_order(args.graph6)
    elif args.input:
        graphs = cli._load_graphs(cli.CampaignConfig(input=args.input, format=args.format,
                                                     max_n=args.max_n))
        if not 0 <= args.index < len(graphs):
            raise GraphError(f"graph index {args.index} out of range")
        g6, n, _ = graphs[args.index]
    else:
        raise GraphError("compute needs --graph6 or --input")
    if n == 0:
        raise GraphError("graph has no vertices")
    if n > args.max_n:
        raise ExactScopeError(f"n={n} exceeds exact scope cap {args.max_n}")

    g = decode_graph6(g6, n)
    out = {"graph6": g6, "n": g.n, "m": g.m}
    out |= _INVARIANTS[args.invariant](g, args)
    if args.json:
        print(json.dumps(out))
    else:
        for key, val in out.items():
            print(f"{key}: {val}")
    return cli.EXIT_OK
