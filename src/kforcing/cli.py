"""Command-line harness: compute, verify, search, gen.

Exit codes: 0 clean, 1 bound violation, 2 parse error, 3 exact scope
exceeded. ``verify`` streams one JSON line per bound check plus a CSV
summary; output order is independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import ALL_BOUNDS, BOUNDS, Bound, BoundId, evaluate_bounds
from .families import (
    FamilySpec,
    complete_bipartite_parts,
    generate,
    is_complete_graph,
    is_cycle_graph,
)
from .forcing import (
    check_spread,
    greedy_k_forcing_upper,
    k_forcing_number,
    min_forcing_connected_complement,
)
from .graph import Graph, GraphError, degree_profile, vertices_from
from .graphio import graph6_order, parse_edge_list, parse_graph6, write_graph6
from .invariants import (
    ExactScopeError,
    connected_k_domination,
    hamiltonian_cycle,
    is_cycle_tree,
    k_independence_number,
    max_leaf_spanning_tree,
    min_star_free_index,
    path_cover_number,
)
from .records import DEFAULT_MAX_N, InvariantRecord, compute_record

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_SCOPE = 3

JOBS_ENV = "KFORCING_JOBS"


@dataclass(frozen=True)
class CampaignConfig:
    """Resolved settings for one verify run."""

    input: str | None = None
    format: str = "g6"
    specs: tuple[str, ...] = ()
    k: str = "auto"
    bounds: str = "all"
    max_n: int = DEFAULT_MAX_N
    jobs: int = 1
    out_jsonl: str | None = None
    out_csv: str | None = None
    sample: int | None = None
    seed: int = 0


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _load_graphs(cfg: CampaignConfig) -> list[tuple[str, int]]:
    """Return (graph6, n) pairs from the configured source.

    graph6 lines are syntax-checked but not parsed; callers parse the
    graphs they use.
    """
    graphs: list[tuple[str, int]] = []
    if cfg.input:
        if cfg.format == "g6":
            with open(cfg.input, encoding="ascii") as fh:
                graphs = [graph6_order(line) for line in fh if line.strip()]
        elif cfg.format == "edges":
            with open(cfg.input, encoding="utf-8") as fh:
                g = parse_edge_list(fh.read())
            graphs.append((write_graph6(g), g.n))
        else:
            raise ValueError(f"unknown format {cfg.format!r}")
    for spec in cfg.specs:
        for fs in expand_family_spec(spec):
            g = generate(fs)
            graphs.append((write_graph6(g), g.n))
    return graphs


# -- family sweep grammar --------------------------------------------------

_TUPLE_PARAMS = {
    "path": ("int",),
    "cycle": ("int",),
    "complete": ("int",),
    "complete_bipartite": ("int", "int"),
    "star": ("int",),
    "subdivided_star": ("int", "int"),
    "double_leaf_caterpillar": ("int",),
    "cycle_tree": ("tuple",),
    "circulant": ("int", "tuple"),
    "pendant_path": ("int",),
}


def _expand_item(item: str) -> list[int]:
    if ".." in item:
        lo, _, hi = item.partition("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(item)]


def expand_family_spec(text: str) -> list[FamilySpec]:
    """Expand ``family:group[:group...]`` into concrete specs.

    Groups are ':'-separated; a group is a comma list of ints or
    ``a..b`` ranges. Scalar parameters take one group each; tuple
    parameters (cycle lengths, circulant steps) take the whole comma
    group as the value, with ranges product-expanded.
    """
    head, *groups = text.split(":")
    family = head.strip()
    if family not in _TUPLE_PARAMS:
        raise ValueError(f"unknown family {family!r}")
    shapes = _TUPLE_PARAMS[family]
    if len(groups) != len(shapes):
        raise ValueError(
            f"{family} takes {len(shapes)} parameter group(s), got {len(groups)}"
        )
    choices: list[list] = []
    for shape, group in zip(shapes, groups):
        expanded = [_expand_item(item) for item in group.split(",")]
        if shape == "int":
            if len(expanded) != 1:
                raise ValueError(
                    f"{family}: scalar parameter takes one value or range, got {group!r}"
                )
            choices.append(expanded[0])
        else:
            tuples = [()]
            for options in expanded:
                tuples = [t + (x,) for t in tuples for x in options]
            choices.append(tuples)
    specs = [()]
    for options in choices:
        specs = [s + (value,) for s in specs for value in options]
    return [FamilySpec(family, args) for args in specs]


# -- verify ------------------------------------------------------------------

def _parse_ks(text: str, max_degree: int) -> list[int]:
    if text == "auto":
        return list(range(1, max(max_degree, 1) + 1))
    out = []
    for part in text.split(","):
        out.extend(_expand_item(part.strip()))
    if not out:
        raise ValueError(f"no forcing index in {text!r}")
    if any(k < 1 for k in out):
        raise ValueError(f"forcing indices must be positive: {text!r}")
    return sorted(set(out))


def _parse_bounds(text: str) -> tuple[BoundId, ...]:
    if text == "all":
        return ALL_BOUNDS
    ids = []
    for part in text.split(","):
        try:
            ids.append(BoundId[part.strip().upper()])
        except KeyError:
            raise ValueError(f"unknown bound id {part.strip()!r}") from None
    return tuple(ids)


def _frac(x: Fraction | None) -> str | None:
    return None if x is None else str(x)


def _verify_one(
    task: tuple[int, str, list[int] | None, tuple[BoundId, ...], int]
) -> tuple[int, list[dict], dict]:
    """Worker: evaluate the configured bounds on one graph.

    ``ks`` None means auto: 1 up to the graph's maximum degree.
    """
    index, g6, ks, ids, max_n = task
    g = parse_graph6(g6)
    rec = compute_record(g, max_n=max_n)
    if ks is None:
        ks = _parse_ks("auto", rec.max_degree)
    lines = []
    equalities = []
    for rep in evaluate_bounds(g, ks, ids, graph_id=index, rec=rec):
        lines.append(
            {
                "index": index,
                "graph6": g6,
                "n": g.n,
                "k": rep.k,
                "bound": rep.bound.value,
                "side": rep.side,
                "applicable": rep.applicable,
                "bound_value": _frac(rep.bound_value),
                "exact": rep.exact_value,
                "slack": _frac(rep.slack),
                "equality": rep.equality,
                "satisfied": rep.satisfied,
                "detail": dict(rep.detail),
            }
        )
        if rep.equality:
            equalities.append(f"{rep.bound.value}@{rep.k}:{rep.side}")
    row = {
        "index": index,
        "graph6": g6,
        "n": g.n,
        "m": g.m,
        "max_degree": rec.max_degree,
        "min_degree": rec.min_degree,
        "forcing": {k: rec.forcing[k] for k in ks},
        "gamma_c": rec.gamma_c,
        "alpha_1": rec.alpha[1],
        "equalities": ";".join(equalities),
    }
    return index, lines, row


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        cfg = _campaign_from_args(args)
        ks = None if cfg.k == "auto" else _parse_ks(cfg.k, 0)
        ids = _parse_bounds(cfg.bounds)
        if cfg.sample is not None and cfg.sample < 0:
            raise ValueError(f"sample size must be non-negative, got {cfg.sample}")
        if cfg.jobs < 1:
            raise ValueError(f"worker count must be positive, got {cfg.jobs}")
        graphs = _load_graphs(cfg)
        for index, (g6, n) in enumerate(graphs):
            if n == 0:
                raise GraphError(f"graph {index} has no vertices: graph6={g6}")
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    indexed = list(enumerate(graphs))
    if cfg.sample is not None and cfg.sample < len(indexed):
        rng = random.Random(cfg.seed)
        keep = sorted(rng.sample(range(len(indexed)), cfg.sample))
        indexed = [indexed[i] for i in keep]

    skipped = [(i, g6) for i, (g6, n) in indexed if n > cfg.max_n]
    work = [(i, g6, ks, ids, cfg.max_n) for i, (g6, n) in indexed if n <= cfg.max_n]

    if cfg.jobs > 1 and len(work) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_verify_one, work, chunksize=8))
    else:
        results = [_verify_one(t) for t in work]
    results.sort(key=lambda r: r[0])

    counts = {
        "checked": 0,
        "satisfied": 0,
        "equality": 0,
        "not_applicable": 0,
        "violations": 0,
        "skipped": len(skipped),
    }
    violations = []
    jsonl_fh = open(cfg.out_jsonl, "w", encoding="utf-8") if cfg.out_jsonl else None
    csv_rows = []
    try:
        for index, lines, row in results:
            csv_rows.append(row)
            for line in lines:
                if not line["applicable"]:
                    counts["not_applicable"] += 1
                else:
                    counts["checked"] += 1
                    if line["satisfied"]:
                        counts["satisfied"] += 1
                    else:
                        counts["violations"] += 1
                        violations.append(line)
                    if line["equality"]:
                        counts["equality"] += 1
                if jsonl_fh:
                    jsonl_fh.write(json.dumps(line) + "\n")
    finally:
        if jsonl_fh:
            jsonl_fh.close()

    if cfg.out_csv:
        _write_csv(cfg.out_csv, csv_rows)

    for index, g6 in skipped:
        print(f"skipped (n over scope cap {cfg.max_n}): index={index} graph6={g6}")
    print(
        "verify: checked={checked} satisfied={satisfied} equality={equality} "
        "not_applicable={not_applicable} violations={violations} "
        "skipped={skipped}".format(**counts)
    )
    for line in violations:
        print(
            f"VIOLATION: graph6={line['graph6']} k={line['k']} "
            f"bound={line['bound']} side={line['side']} "
            f"bound_value={line['bound_value']} exact={line['exact']}"
        )
    return EXIT_VIOLATION if violations else EXIT_OK


def _write_csv(path: str, rows: list[dict]) -> None:
    import csv as csv_mod

    max_k = 0
    for row in rows:
        if row["forcing"]:
            max_k = max(max_k, max(row["forcing"]))
    fields = ["index", "graph6", "n", "m", "max_degree", "min_degree"]
    fields += [f"f{k}" for k in range(1, max_k + 1)]
    fields += ["gamma_c", "alpha_1", "equalities"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv_mod.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            flat = {key: row[key] for key in fields if key in row}
            for k in range(1, max_k + 1):
                flat[f"f{k}"] = row["forcing"].get(k, "")
            flat["gamma_c"] = "" if row["gamma_c"] is None else row["gamma_c"]
            writer.writerow(flat)


# -- search -----------------------------------------------------------------

@dataclass(frozen=True)
class EqualitySearchResult:
    """Outcome of an equality-case search over a corpus.

    Every achiever was re-verified from its serialized graph6 form.
    For the cor3 target, any achiever outside the conjectured families
    flips the status to counterexample_found.
    """

    target: str
    achievers: tuple[dict, ...]
    status: str
    skipped: int


def _classify_achiever(g: Graph) -> str:
    dmax = max(g.degree(v) for v in range(g.n))
    if is_complete_graph(g) and g.n == dmax + 1:
        return "complete"
    parts = complete_bipartite_parts(g)
    if parts is not None and parts[0] == parts[1]:
        return "balanced_bipartite"
    if is_cycle_graph(g):
        return "cycle"
    if parts is not None and parts[1] >= 2:
        return "bipartite_p_ge_q_ge_2"
    return "OTHER"


_SEARCH_TARGETS = {"cor3": BoundId.COR3, "conn-dom": BoundId.CONN_DOM}


def _equality_at_k1(entry: Bound, rec: InvariantRecord) -> Fraction | None:
    """The bound value when the entry holds with equality at k = 1."""
    if not entry.gate(rec, 1):
        return None
    check, = entry.checks
    value = check.value(rec, 1)
    return value if value == check.exact(rec, 1) else None


def search_equality(
    graphs: list[tuple[str, int]], target: str, max_n: int = DEFAULT_MAX_N
) -> EqualitySearchResult:
    """Find every connected graph achieving the target equality.

    ``graphs`` holds (graph6, n) pairs; each graph in scope is parsed
    from its graph6 string, so every reported string is the graph that
    was checked.
    """
    if target not in _SEARCH_TARGETS:
        raise ValueError(f"unknown search target {target!r}")
    entry = BOUNDS[_SEARCH_TARGETS[target]]
    achievers = []
    skipped = 0
    for index, (g6, n) in enumerate(graphs):
        if n > max_n:
            skipped += 1
            continue
        if n < 2:
            continue
        g = parse_graph6(g6)
        rec = compute_record(g, max_n)
        value = _equality_at_k1(entry, rec)
        if value is None:
            continue
        achievers.append(
            {
                "index": index,
                "graph6": g6,
                "n": n,
                "max_degree": rec.max_degree,
                "f1": rec.forcing[1],
                "bound_value": str(value),
                "classification": _classify_achiever(g),
            }
        )

    if target == "cor3":
        others = [a for a in achievers if a["classification"] not in
                  ("complete", "balanced_bipartite")]
        status = "counterexample_found" if others else "consistent_on_searched_range"
    else:
        status = "open_problem_data"
    return EqualitySearchResult(
        target=target, achievers=tuple(achievers), status=status, skipped=skipped
    )


def cmd_search(cfg: CampaignConfig, target: str) -> int:
    try:
        result = search_equality(_load_graphs(cfg), target, cfg.max_n)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if cfg.out_jsonl:
        with open(cfg.out_jsonl, "w", encoding="utf-8") as fh:
            for a in result.achievers:
                fh.write(json.dumps(a) + "\n")

    print(f"search target={target} achievers={len(result.achievers)} "
          f"status={result.status} skipped={result.skipped}")
    for a in result.achievers:
        marker = ""
        if target == "cor3" and a["classification"] not in ("complete", "balanced_bipartite"):
            marker = "  <-- NOT PREDICTED (possible counterexample)"
        print(
            f"  graph6={a['graph6']} n={a['n']} max_degree={a['max_degree']} "
            f"f1={a['f1']} class={a['classification']}{marker}"
        )
    return EXIT_OK


def _search_from_args(args: argparse.Namespace) -> int:
    try:
        cfg = _campaign_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return cmd_search(cfg, args.target)


# -- compute ----------------------------------------------------------------

def _fmt_mask(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices_from(mask)) + "}"


def cmd_compute(args: argparse.Namespace) -> int:
    try:
        if args.graph6:
            g = parse_graph6(args.graph6)
        elif args.input:
            cfg = CampaignConfig(input=args.input, format=args.format)
            graphs = _load_graphs(cfg)
            if not 0 <= args.index < len(graphs):
                raise GraphError(f"graph index {args.index} out of range")
            g = parse_graph6(graphs[args.index][0])
        else:
            raise GraphError("compute needs --graph6 or --input")
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if g.n > args.max_n:
        print(f"error: n={g.n} exceeds exact scope cap {args.max_n}", file=sys.stderr)
        return EXIT_SCOPE

    k = args.k
    out: dict = {"graph6": write_graph6(g), "n": g.n, "m": g.m}
    try:
        name = args.invariant
        if name == "forcing":
            res = k_forcing_number(g, k, collect_all_minimum=args.all_min)
            out |= {"k": k, "value": res.value, "witness": _fmt_mask(res.witness)}
            if args.all_min:
                out["all_minimum"] = [_fmt_mask(m) for m in res.all_minimum]
        elif name == "greedy-forcing":
            value, witness = greedy_k_forcing_upper(g, k)
            out |= {"k": k, "value": value, "witness": _fmt_mask(witness)}
        elif name == "gamma-c" or name == "gamma-kc":
            kk = 1 if name == "gamma-c" else k
            res = connected_k_domination(g, kk)
            if res is None:
                out |= {"k": kk, "value": None}
            else:
                out |= {"k": kk, "value": res[0], "witness": _fmt_mask(res[1])}
        elif name == "alpha":
            value, witness = k_independence_number(g, k)
            out |= {"k": k, "value": value, "witness": _fmt_mask(witness)}
        elif name == "path-cover":
            value, parts = path_cover_number(g)
            out |= {"value": value, "parts": [_fmt_mask(p) for p in parts]}
        elif name == "max-leaf":
            out |= {"value": max_leaf_spanning_tree(g)}
        elif name == "hamiltonian":
            cyc = hamiltonian_cycle(g)
            out |= {
                "value": cyc is not None,
                "cycle": list(cyc) if cyc else None,
                "chords": g.m - g.n if cyc else None,
            }
        elif name == "cycle-tree":
            flag, q = is_cycle_tree(g)
            out |= {"value": flag, "cycles": q}
        elif name == "star-free":
            out |= {"value": min_star_free_index(g)}
        elif name == "spread":
            out |= {"k": k, "value": check_spread(g, k)}
        elif name == "forcing-cc":
            witness, value = min_forcing_connected_complement(g, k)
            out |= {"k": k, "value": value, "witness": _fmt_mask(witness)}
        elif name == "profile":
            dmax, dmin, leaves, hist = degree_profile(g)
            out |= {
                "max_degree": dmax,
                "min_degree": dmin,
                "leaf_count": leaves,
                "histogram": {str(d): c for d, c in sorted(hist.items())},
            }
        elif name == "record":
            rec = compute_record(g, max_n=args.max_n)
            ks = _parse_ks(args.ks, rec.max_degree)
            r = rec.star_free_index
            # the indices the bounds read at these ks, whatever their gates
            forcing_ks = {1, r - 1} | {i for k in ks for i in (k, k * (r - 1), 2 * k)}
            ks = sorted({1, *ks})
            out |= {
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
        else:
            print(f"error: unknown invariant {name!r}", file=sys.stderr)
            return EXIT_PARSE
    except ExactScopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.json:
        print(json.dumps(out))
    else:
        for key, val in out.items():
            print(f"{key}: {val}")
    return EXIT_OK


# -- gen ---------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    try:
        specs = [fs for text in args.specs for fs in expand_family_spec(text)]
        graphs = [generate(fs) for fs in specs]
    except (GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="ascii")
    try:
        for g in graphs:
            out.write(write_graph6(g) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

def _default_jobs() -> int:
    value = os.environ.get(JOBS_ENV, "")
    if not value:
        return 1
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{JOBS_ENV} must be an integer, got {value!r}") from None


def _campaign_from_args(args: argparse.Namespace) -> CampaignConfig:
    cfg = CampaignConfig(jobs=_default_jobs())
    if getattr(args, "config", None):
        raw = _parse_config_file(args.config)
        fields = {
            "input": str, "format": str, "k": str, "bounds": str,
            "max_n": int, "jobs": int, "out_jsonl": str, "out_csv": str,
            "sample": int, "seed": int,
        }
        updates = {}
        for key, conv in fields.items():
            if key in raw:
                updates[key] = conv(raw[key])
        if "spec" in raw:
            updates["specs"] = tuple(raw["spec"].split())
        cfg = replace(cfg, **updates)
    overrides = {}
    for key in ("input", "format", "k", "bounds", "max_n", "jobs",
                "out_jsonl", "out_csv", "sample", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "spec", None):
        overrides["specs"] = tuple(args.spec)
    return replace(cfg, **overrides)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kforcing",
        description="exact k-forcing numbers, companion invariants, and bound verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", "-i", help="graph6 or edge-list file")
        p.add_argument("--format", choices=("g6", "edges"), default=None)
        p.add_argument("--max-n", type=int, dest="max_n", default=None,
                       help=f"exact-scope cap (default {DEFAULT_MAX_N})")

    pc = sub.add_parser("compute", help="one invariant on one graph")
    pc.add_argument("--graph6", help="literal graph6 string")
    pc.add_argument("--input", "-i")
    pc.add_argument("--format", choices=("g6", "edges"), default="g6")
    pc.add_argument("--index", type=int, default=0, help="graph index within the input")
    pc.add_argument("--invariant", required=True,
                    choices=("forcing", "greedy-forcing", "gamma-c", "gamma-kc",
                             "alpha", "path-cover", "max-leaf", "hamiltonian",
                             "cycle-tree", "star-free", "spread", "forcing-cc",
                             "profile", "record"))
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--ks", default="auto", help="k list for 'record' (e.g. 1..3)")
    pc.add_argument("--all-min", action="store_true", dest="all_min")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--max-n", type=int, dest="max_n", default=DEFAULT_MAX_N)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="bound campaign over a corpus")
    pv.add_argument("--config", help="key = value file mirroring the flags")
    add_io(pv)
    pv.add_argument("--spec", action="append", help="family sweep (repeatable)")
    pv.add_argument("--k", default=None, help="'auto' (1..max degree) or list/range")
    pv.add_argument("--bounds", default=None, help="'all' or comma list of bound ids")
    pv.add_argument("--jobs", type=int, default=None,
                    help=f"worker processes (default ${JOBS_ENV} or 1)")
    pv.add_argument("--out-jsonl", dest="out_jsonl", default=None)
    pv.add_argument("--out-csv", dest="out_csv", default=None)
    pv.add_argument("--sample", type=int, default=None,
                    help="verify a seeded random sample of this many graphs")
    pv.add_argument("--seed", type=int, default=None)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("search", help="equality-case search over a corpus")
    ps.add_argument("--target", required=True, choices=("cor3", "conn-dom"))
    add_io(ps)
    ps.add_argument("--spec", action="append")
    ps.add_argument("--out-jsonl", dest="out_jsonl", default=None)
    ps.set_defaults(func=_search_from_args)

    pg = sub.add_parser("gen", help="generate family sweeps as graph6 lines")
    pg.add_argument("specs", nargs="+",
                    help="family:params, e.g. cycle:3..6 or cycle_tree:3,3")
    pg.add_argument("--out", "-o", default="-")
    pg.set_defaults(func=cmd_gen)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
