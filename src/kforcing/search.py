"""The ``search`` command: the graphs of a corpus that attain a bound at k = 1."""

from __future__ import annotations

import argparse
import json
from contextlib import ExitStack
from typing import Iterable, NamedTuple

from . import cli
from .bounds import BOUNDS
from .forcing import is_k_forcing_number
from .graphio import decode_graph6
from .records import DEFAULT_MAX_N, InvariantRecord, compute_record


class EqualitySearchResult(NamedTuple):
    """Outcome of an equality-case search over a corpus.

    Every achiever was re-verified from its serialized graph6 form.
    For the cor3 target, any achiever outside the conjectured families
    flips the status to counterexample_found.
    """

    target: str
    achievers: tuple[dict, ...]
    status: str
    skipped: int


def _classify_achiever(rec: InvariantRecord) -> str:
    """An achiever's shape, read from its record."""
    if 2 * rec.m == rec.n * (rec.n - 1):
        return "complete"
    # only K_{p,q} has two distinct neighbourhoods, each part's being the
    # other part: no vertex is in its own, and an edge puts each end in the other's
    hoods = set(rec.graph.adj)
    q, p = sorted(map(int.bit_count, hoods)) if len(hoods) == 2 else (0, 0)
    if q and p == q:
        return "balanced_bipartite"
    if rec.connected and rec.max_degree == rec.min_degree == 2:
        return "cycle"
    if q >= 2:
        return "bipartite_p_ge_q_ge_2"
    return "OTHER"


def search_equality(
    graphs: Iterable[tuple[str, int]], target: str, max_n: int = DEFAULT_MAX_N
) -> EqualitySearchResult:
    """Find every connected graph achieving the target equality at k = 1.

    ``graphs`` holds (graph6, n) pairs as :func:`graphio.graph6_order`
    returns them, each with at least one vertex; each graph in scope is
    decoded from its graph6 string, so every reported string is the
    graph that was checked. Every target's exact side is F_1, so an
    integral bound b is met iff :func:`is_k_forcing_number` finds F_1 = b
    by two level scans; an achiever's ``f1`` then comes from the exact
    solver, which checks the equality a second time by another route.
    """
    if target not in cli._SEARCH_TARGETS:
        raise ValueError(f"unknown search target {target!r}")
    bound_id, predicted = cli._SEARCH_TARGETS[target]
    entry = BOUNDS[bound_id]
    check, = entry.checks
    achievers = []
    skipped = 0
    for index, (g6, n) in enumerate(graphs):
        if n > max_n:
            skipped += 1
            continue
        g = decode_graph6(g6, n)
        rec = compute_record(g, max_n)
        for _, holds in entry.gate:
            if not holds(rec, 1):
                break
        else:
            value, rest = divmod(*check.value(rec, 1))  # p/q with q > 0
            if rest or not is_k_forcing_number(g, 1, value):  # no scan if not integral
                continue
            f1 = rec.forcing[1]
            if f1 != value:
                raise RuntimeError(f"level scans found F_1 = {value} but the "
                                   f"exact solver {f1}, graph6={g6}")
            achievers.append({"index": index, "graph6": g6, "n": n,
                              "max_degree": rec.max_degree, "f1": f1,
                              "bound_value": str(value),
                              "classification": _classify_achiever(rec)})

    if predicted is None:
        status = "open_problem_data"
    elif any(a["classification"] not in predicted for a in achievers):
        status = "counterexample_found"
    else:
        status = "consistent_on_searched_range"
    return EqualitySearchResult(
        target=target, achievers=tuple(achievers), status=status, skipped=skipped
    )


def cmd_search(args: argparse.Namespace) -> int:
    cfg = cli._campaign(args)
    graphs = ((g6, n) for g6, n, _ in cli._load_corpus(cfg))
    with ExitStack() as stack:
        out = cli._open_output(stack, cfg.out_jsonl)
        result = search_equality(graphs, args.target, cfg.max_n)
        if out:
            out.writelines(json.dumps(a) + "\n" for a in result.achievers)

    predicted = cli._SEARCH_TARGETS[args.target][1]
    print(f"search target={args.target} achievers={len(result.achievers)} "
          f"status={result.status} skipped={result.skipped}")
    for a in result.achievers:
        marker = ""
        if predicted is not None and a["classification"] not in predicted:
            marker = "  <-- NOT PREDICTED (possible counterexample)"
        print(
            f"  graph6={a['graph6']} n={a['n']} max_degree={a['max_degree']} "
            f"f1={a['f1']} class={a['classification']}{marker}"
        )
    return cli.EXIT_OK
