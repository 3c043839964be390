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
from contextlib import ExitStack, closing
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .bounds import ALL_BOUNDS, BOUNDS, BoundId, bound_outcomes
from .forcing import is_k_forcing_number, k_forcing_number
from .graph import Graph, GraphError, degree_profile, vertices_from
from .graphio import (
    decode_graph6,
    graph6_lines,
    graph6_order,
    parse_edge_list,
    write_graph6,
    write_graph6_file,
)
from .invariants import (
    ExactScopeError,
    connected_k_domination,
    hamiltonian_cycle,
    is_cycle_tree,
    k_independence_number,
    min_star_free_index,
    path_cover_number,
)
from .records import DEFAULT_MAX_N, compute_record

if TYPE_CHECKING:  # families loads only where --spec, gen or search reads it
    from .families import FamilySpec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_SCOPE = 3

JOBS_ENV = "KFORCING_JOBS"


class CampaignConfig(NamedTuple):
    """Resolved settings for one verify or search run.

    The field names are both the config-file keys (with '-' for '_') and
    the flag destinations, so each setting is declared only here.
    """

    input: str | None = None
    format: str = "g6"
    spec: tuple[str, ...] = ()
    k: str = "auto"
    bounds: str = "all"
    max_n: int = DEFAULT_MAX_N
    jobs: int = 1
    out_jsonl: str | None = None
    out_csv: str | None = None
    sample: int | None = None
    seed: int = 0


def _parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines into CampaignConfig field values."""
    # the annotation text, which NamedTuple keeps as a ForwardRef
    types = {name: ref.__forward_arg__
             for name, ref in CampaignConfig.__annotations__.items()}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            name, _, val = (part.strip() for part in line.partition("="))
            key = name.replace("-", "_")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown key {name!r}")
            if types[key].startswith("tuple"):
                values[key] = tuple(val.split())
            elif not types[key].startswith("int"):
                values[key] = val
            else:
                try:
                    values[key] = int(val)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: {name} must be an integer, got {val!r}"
                    ) from None
    return values


def _campaign(args: argparse.Namespace) -> CampaignConfig:
    """Defaults, then $KFORCING_JOBS, then the config file, then the flags."""
    try:
        cfg = CampaignConfig(jobs=int(os.environ.get(JOBS_ENV) or 1))
    except ValueError:
        raise ValueError(
            f"{JOBS_ENV} must be an integer, got {os.environ[JOBS_ENV]!r}"
        ) from None
    if getattr(args, "config", None):
        cfg = cfg._replace(**_parse_config_file(args.config))
    flags = {name: getattr(args, name, None) for name in CampaignConfig._fields}
    cfg = cfg._replace(**{key: tuple(value) if isinstance(value, list) else value
                          for key, value in flags.items() if value is not None})
    if not (cfg.input or cfg.spec):
        raise ValueError(f"{args.command} needs --input or --spec")
    return cfg


def _load_graphs(cfg: CampaignConfig) -> list[tuple[str | None, int, str]]:
    """Return (graph6, n, origin) triples from the configured source.

    Every graph6 line is syntax-checked before this returns, but none is
    parsed; callers parse the graphs they use. Encoding is quadratic in
    n, so an edge-list or spec graph over ``cfg.max_n`` is not encoded:
    its graph6 is None, and ``origin`` names the file or spec it came
    from.
    """
    graphs, built = [], []
    if cfg.input:
        origin = f"input={cfg.input}"
        if cfg.format == "g6":
            with open(cfg.input, encoding="ascii") as fh:
                graphs = [(g6, n, origin) for g6, n in graph6_lines(fh.read())]
        elif cfg.format == "edges":
            with open(cfg.input, encoding="utf-8") as fh:
                built.append((parse_edge_list(fh.read()), origin))
        else:
            raise ValueError(f"unknown format {cfg.format!r}")
    if cfg.spec:
        from .families import generate

        built += [(generate(fs), f"spec={spec}")
                  for spec in cfg.spec for fs in expand_family_spec(spec)]
    return graphs + [(write_graph6(g) if g.n <= cfg.max_n else None, g.n, origin)
                     for g, origin in built]


def _graph_name(g6: str | None, n: int, origin: str) -> str:
    """A graph from :func:`_load_graphs` as messages name it."""
    return f"graph6={g6}" if g6 is not None else f"n={n} {origin}"


# -- family sweep grammar --------------------------------------------------

def _item_ends(item: str, owner: str) -> tuple[int, int]:
    """The first and last integer of an ``a`` or ``a..b`` item; errors
    name its ``owner``."""
    lo, dots, hi = item.partition("..")
    try:
        return (int(lo), int(hi)) if dots else (int(item), int(item))
    except ValueError:
        raise ValueError(f"{owner}: expected an integer or a..b, got {item!r}") from None


def _expand_item(item: str, owner: str) -> list[int]:
    """The integers of an ``a`` or ``a..b`` item; errors name its ``owner``."""
    lo, hi = _item_ends(item, owner)
    return list(range(lo, hi + 1))


def expand_family_spec(text: str) -> list[FamilySpec]:
    """Expand ``family:group[:group...]`` into concrete specs.

    Groups are ':'-separated; a group is a comma list of ints or
    ``a..b`` ranges. Scalar parameters take one group each; tuple
    parameters (cycle lengths, circulant steps) take the whole comma
    group as the value, with ranges product-expanded.
    """
    from .families import FAMILIES, FamilySpec

    head, *groups = text.split(":")
    family = head.strip()
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    # each constructor annotates its parameters "int" or "tuple[int, ...]"
    shapes = [shape for name, shape in FAMILIES[family].__annotations__.items()
              if name != "return"]
    if len(groups) != len(shapes):
        raise ValueError(
            f"{family} takes {len(shapes)} parameter group(s), got {len(groups)}"
        )
    choices: list[list] = []
    for shape, group in zip(shapes, groups):
        expanded = [_expand_item(item, family) for item in group.split(",")]
        if shape == "int":
            if len(expanded) != 1:
                raise ValueError(
                    f"{family}: scalar parameter takes one value or range, got {group!r}"
                )
            choices.append(expanded[0])
        else:
            choices.append(list(product(*expanded)))
    return [FamilySpec(family, args) for args in product(*choices)]


# -- verify ------------------------------------------------------------------

def _parse_ks(text: str, max_degree: int, max_n: int = DEFAULT_MAX_N) -> list[int]:
    """The forcing indices of ``--k``; ``auto`` is 1..max(max_degree, 1).

    Every k must lie in 1..max_n, since no graph in scope has a vertex
    of degree max_n; the ends of each range are checked before it is
    expanded, so a huge range fails fast instead of filling memory.
    """
    if text == "auto":
        return list(range(1, max(max_degree, 1) + 1))
    ends = [_item_ends(part.strip(), "--k") for part in text.split(",")]
    ends = [(lo, hi) for lo, hi in ends if lo <= hi]
    if not ends:
        raise ValueError(f"no forcing index in {text!r}")
    if min(lo for lo, _ in ends) < 1:
        raise ValueError(f"forcing indices must be positive: {text!r}")
    top = max(hi for _, hi in ends)
    if top > max_n:
        raise ValueError(f"forcing index {top} exceeds --max-n {max_n}: {text!r}")
    return sorted({k for lo, hi in ends for k in range(lo, hi + 1)})


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


_BOUND_NAMES = {bound: bound.value for bound in BoundId}


def _tail(outcome: tuple) -> str:
    """A :func:`bound_outcomes` outcome's JSONL line after its graph's prefix."""
    k, bound, side, *checked = outcome
    line = {"k": k, "bound": _BOUND_NAMES[bound], "side": side,
            "applicable": bool(checked), "bound_value": None, "exact": None,
            "slack": None, "equality": None, "satisfied": None, "detail": {}}
    if checked:
        p, q, exact, d, detail = checked
        line |= {"bound_value": str(Fraction(p, q)), "exact": exact,
                 "slack": str(Fraction(d, q)), "equality": d == 0,
                 "satisfied": d >= 0, "detail": dict(detail)}
    return json.dumps(line)[1:] + "\n"


_TAILS: dict[tuple, str] = {}  # outcome -> _tail(outcome), filled per process


def _verify_one(
    task: tuple[int, str, int, list[int] | None, tuple[BoundId, ...], int, bool]
) -> tuple[int, str, tuple[int, int, int], list[str], dict | None]:
    """Worker: evaluate the configured bounds on one graph.

    Returns the graph's finished JSONL block, its (checked, equal,
    not_applicable) counts, its ``VIOLATION:`` lines and its CSV row, which
    reads gamma_c and alpha_1, so it is None unless ``want_row`` is set.
    ``ks`` None means auto: 1 up to the graph's maximum degree. The
    graph6 string and order ``n`` come from :func:`_load_graphs`, checked.
    """
    index, g6, n, ks, ids, max_n, want_row = task
    g = decode_graph6(g6, n)
    rec = compute_record(g, max_n=max_n)
    if ks is None:
        ks = _parse_ks("auto", rec.max_degree)
    outcomes = bound_outcomes(rec, ks, ids)
    prefix = json.dumps({"index": index, "graph6": g6, "n": g.n})[:-1] + ", "
    tails = []
    equalities = []
    violations = []
    not_applicable = 0
    for outcome in outcomes:
        tail = _TAILS.get(outcome)
        if tail is None:
            tail = _TAILS[outcome] = _tail(outcome)
        tails.append(tail)
        if len(outcome) == 3:
            not_applicable += 1
        elif outcome[6] <= 0:
            k, bound, side, p, q, exact, d, _ = outcome
            if d == 0:
                equalities.append(f"{_BOUND_NAMES[bound]}@{k}:{side}")
            else:
                violations.append(
                    f"VIOLATION: graph6={g6} k={k} bound={_BOUND_NAMES[bound]} "
                    f"side={side} bound_value={Fraction(p, q)} exact={exact}")
    counts = (len(outcomes) - not_applicable, len(equalities), not_applicable)
    row = None if not want_row else {
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
    return index, prefix + prefix.join(tails), counts, violations, row


def _verify_forked(work: list[tuple], jobs: int) -> Iterator[tuple]:
    """``map(_verify_one, work)`` run by ``jobs`` processes, this one included.

    Chunk i of 8 tasks runs in process i % jobs; process 0 is this one and
    the others are forked up front. A child appends each chunk's pickled
    results, with a task's exception in its result's place, to a spool file
    and writes the record's length to its pipe. This process yields in
    input order, reading a child's record with ``os.pread``, and holds one
    chunk at a time. Without ``os.fork`` it runs every chunk alone. On any
    exit it kills and reaps the children.
    """
    import pickle
    import signal
    import tempfile

    chunks = [work[i:i + 8] for i in range(0, len(work), 8)]
    procs = min(jobs, len(chunks)) if hasattr(os, "fork") else 1
    children = []  # (pid, pipe read end, spool) of processes 1, 2, ...
    try:
        for p in range(1, procs):
            spool = tempfile.TemporaryFile()
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child never prints and skips exit handlers
                try:
                    for chunk in chunks[p::procs]:
                        results = []
                        try:
                            for task in chunk:
                                results.append(_verify_one(task))
                        except BaseException as exc:
                            results.append(exc)
                        spool.write(record := pickle.dumps(results))
                        spool.flush()
                        os.write(w, len(record).to_bytes(8, "little"))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r, spool))
        offsets = [0] * procs  # how far each child's spool has been read
        for i, chunk in enumerate(chunks):
            p = i % procs
            if p == 0:
                yield from map(_verify_one, chunk)
                continue
            pid, r, spool = children[p - 1]
            size = int.from_bytes(os.read(r, 8), "little")  # 0 once the child is gone
            if not size:
                raise ChildProcessError(
                    f"verify worker {p} (pid {pid}) exited without a result")
            record = os.pread(spool.fileno(), size, offsets[p])
            offsets[p] += size
            for result in pickle.loads(record):
                if isinstance(result, BaseException):
                    raise result
                yield result
    finally:
        for pid, r, spool in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(r)
            spool.close()


def _open_output(stack: ExitStack, path: str | None, **kwargs):
    """``path`` opened for writing until ``stack`` closes, or None if unset."""
    return path and stack.enter_context(open(path, "w", encoding="utf-8", **kwargs))


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = _campaign(args)
    ks = None if cfg.k == "auto" else _parse_ks(cfg.k, 0, cfg.max_n)
    ids = _parse_bounds(cfg.bounds)
    if cfg.sample is not None and cfg.sample < 0:
        raise ValueError(f"sample size must be non-negative, got {cfg.sample}")
    if cfg.jobs < 1:
        raise ValueError(f"worker count must be positive, got {cfg.jobs}")
    graphs = _load_graphs(cfg)
    for index, graph in enumerate(graphs):
        if graph[1] == 0:
            raise GraphError(f"graph {index} has no vertices: {_graph_name(*graph)}")

    indexed = list(enumerate(graphs))
    if cfg.sample is not None and cfg.sample < len(indexed):
        rng = random.Random(cfg.seed)
        keep = sorted(rng.sample(range(len(indexed)), cfg.sample))
        indexed = [indexed[i] for i in keep]

    skipped = [(i, graph) for i, graph in indexed if graph[1] > cfg.max_n]
    work = [(i, g6, n, ks, ids, cfg.max_n, bool(cfg.out_csv))
            for i, (g6, n, _) in indexed if n <= cfg.max_n]

    checked = equal = not_applicable = 0
    violations: list[str] = []
    csv_rows = []
    with ExitStack() as stack:
        jsonl = _open_output(stack, cfg.out_jsonl)
        csv = _open_output(stack, cfg.out_csv, newline="")
        results = map(_verify_one, work)
        if cfg.jobs > 1:
            results = stack.enter_context(closing(_verify_forked(work, cfg.jobs)))
        # both yield in input order: write each graph's block as it lands
        for _, text, (n_checked, n_equal, n_not_applicable), found, row in results:
            checked += n_checked
            equal += n_equal
            not_applicable += n_not_applicable
            violations += found
            if csv:
                csv_rows.append(row)
            if jsonl:
                jsonl.write(text)
        if csv:
            _write_csv(csv, csv_rows)

    for index, graph in skipped:
        print(f"skipped (n over scope cap {cfg.max_n}): index={index} "
              f"{_graph_name(*graph)}")
    print(
        f"verify: checked={checked} satisfied={checked - len(violations)} "
        f"equality={equal} not_applicable={not_applicable} "
        f"violations={len(violations)} skipped={len(skipped)}"
    )
    for line in violations:
        print(line)
    return EXIT_VIOLATION if violations else EXIT_OK


_CSV_HEAD = ("index", "graph6", "n", "m", "max_degree", "min_degree")
_CSV_TAIL = ("gamma_c", "alpha_1", "equalities")


def _write_csv(fh, rows: list[dict]) -> None:
    import csv as csv_mod

    ks = range(1, max((k for row in rows for k in row["forcing"]), default=0) + 1)
    head, tail = itemgetter(*_CSV_HEAD), itemgetter(*_CSV_TAIL)
    writer = csv_mod.writer(fh)
    writer.writerow([*_CSV_HEAD, *(f"f{k}" for k in ks), *_CSV_TAIL])
    # a missing f{k} (k over the graph's max degree) and None both print empty
    writer.writerows([*head(row), *map(row["forcing"].get, ks), *tail(row)]
                     for row in rows)


# -- search -----------------------------------------------------------------

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


def _classify_achiever(g: Graph) -> str:
    from .families import complete_bipartite_parts, is_complete_graph, is_cycle_graph

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


# target: (bound, the classes its conjecture predicts; None for open data)
_SEARCH_TARGETS = {
    "cor3": (BoundId.COR3, ("complete", "balanced_bipartite")),
    "conn-dom": (BoundId.CONN_DOM, None),
}


def search_equality(
    graphs: Iterable[tuple[str, int]], target: str, max_n: int = DEFAULT_MAX_N
) -> EqualitySearchResult:
    """Find every connected graph achieving the target equality at k = 1.

    ``graphs`` holds (graph6, n) pairs as :func:`graphio.graph6_order`
    returns them; each graph in scope is decoded from its graph6 string,
    so every reported string is the graph that was checked. Every
    target's exact side is F_1, so an integral bound b is met iff
    :func:`is_k_forcing_number` finds F_1 = b by two level scans; an
    achiever's ``f1`` then comes from the exact solver, which checks the
    equality a second time by another route.
    """
    if target not in _SEARCH_TARGETS:
        raise ValueError(f"unknown search target {target!r}")
    bound_id, predicted = _SEARCH_TARGETS[target]
    entry = BOUNDS[bound_id]
    check, = entry.checks
    achievers = []
    skipped = 0
    for index, (g6, n) in enumerate(graphs):
        if n > max_n:
            skipped += 1
            continue
        if n < 2:
            continue
        g = decode_graph6(g6, n)
        rec = compute_record(g, max_n)
        if not entry.gate(rec, 1):
            continue
        value, rest = divmod(*check.value(rec, 1))  # p/q with q > 0
        if rest or not is_k_forcing_number(g, 1, value):  # no scan if not integral
            continue
        f1 = rec.forcing[1]
        if f1 != value:
            raise RuntimeError(f"level scans found F_1 = {value} but the "
                               f"exact solver {f1}, graph6={g6}")
        achievers.append(
            {
                "index": index,
                "graph6": g6,
                "n": n,
                "max_degree": rec.max_degree,
                "f1": f1,
                "bound_value": str(value),
                "classification": _classify_achiever(g),
            }
        )

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
    cfg = _campaign(args)
    graphs = ((g6, n) for g6, n, _ in _load_graphs(cfg))
    with ExitStack() as stack:
        out = _open_output(stack, cfg.out_jsonl)
        result = search_equality(graphs, args.target, cfg.max_n)
        if out:
            out.writelines(json.dumps(a) + "\n" for a in result.achievers)

    predicted = _SEARCH_TARGETS[args.target][1]
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
    return EXIT_OK


# -- compute ----------------------------------------------------------------

def _fmt_mask(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices_from(mask)) + "}"


def _value_witness(k: int, value, witness: int) -> dict:
    return {"k": k, "value": value, "witness": _fmt_mask(witness)}


def _forcing(g: Graph, args: argparse.Namespace) -> dict:
    res = k_forcing_number(g, args.k, collect_all_minimum=args.all_min)
    out = _value_witness(args.k, res.value, res.witness)
    if args.all_min:
        out["all_minimum"] = [_fmt_mask(m) for m in res.all_minimum]
    return out


def _connected_domination(g: Graph, k: int) -> dict:
    res = connected_k_domination(g, k)
    return {"k": k, "value": None} if res is None else _value_witness(k, *res)


def _path_cover(g: Graph, args: argparse.Namespace) -> dict:
    value, parts = path_cover_number(g)
    return {"value": value, "parts": [_fmt_mask(p) for p in parts]}


def _hamiltonian(g: Graph, args: argparse.Namespace) -> dict:
    cyc = hamiltonian_cycle(g)
    return {
        "value": cyc is not None,
        "cycle": list(cyc) if cyc else None,
        "chords": g.m - g.n if cyc else None,
    }


def _profile(g: Graph, args: argparse.Namespace) -> dict:
    dmax, dmin, leaves, hist = degree_profile(g)
    return {
        "max_degree": dmax,
        "min_degree": dmin,
        "leaf_count": leaves,
        "histogram": {str(d): c for d, c in sorted(hist.items())},
    }


def _record(g: Graph, args: argparse.Namespace) -> dict:
    rec = compute_record(g, max_n=args.max_n)
    ks = _parse_ks(args.ks, rec.max_degree, args.max_n)
    r = rec.star_free_index
    # the indices the bounds read at these ks, whatever their gates
    forcing_ks = {1, r - 1} | {i for k in ks for i in (k, k * (r - 1), 2 * k)}
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


# --invariant name -> the fields it adds to the output. Every solver is
# called through its module-level name, so a rebound name takes effect.
_INVARIANTS = {
    "forcing": _forcing,
    "gamma-c": lambda g, a: _connected_domination(g, 1),
    "gamma-kc": lambda g, a: _connected_domination(g, a.k),
    "alpha": lambda g, a: _value_witness(a.k, *k_independence_number(g, a.k)),
    "path-cover": _path_cover,
    "hamiltonian": _hamiltonian,
    "cycle-tree": lambda g, a: dict(zip(("value", "cycles"), is_cycle_tree(g))),
    "star-free": lambda g, a: {"value": min_star_free_index(g)},
    "profile": _profile,
    "record": _record,
}


def cmd_compute(args: argparse.Namespace) -> int:
    if args.graph6:
        g6, n = graph6_order(args.graph6)
    elif args.input:
        graphs = _load_graphs(CampaignConfig(input=args.input, format=args.format,
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
    return EXIT_OK


# -- gen ---------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    from .families import generate

    specs = [fs for text in args.specs for fs in expand_family_spec(text)]
    write_graph6_file(args.out, [generate(fs) for fs in specs])
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kforcing",
        description="exact k-forcing numbers, companion invariants, and bound verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", "-i", help="graph6 or edge-list file")
        p.add_argument("--format", choices=("g6", "edges"))
        p.add_argument("--max-n", type=int,
                       help=f"exact-scope cap (default {DEFAULT_MAX_N})")

    def add_corpus(p: argparse.ArgumentParser) -> None:
        add_io(p)
        p.add_argument("--spec", action="append", help="family sweep (repeatable)")
        p.add_argument("--out-jsonl")

    pc = sub.add_parser("compute", help="one invariant on one graph")
    pc.add_argument("--graph6", help="literal graph6 string")
    add_io(pc)
    pc.add_argument("--index", type=int, default=0, help="graph index within the input")
    pc.add_argument("--invariant", required=True, choices=tuple(_INVARIANTS))
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--ks", default="auto", help="k list for 'record' (e.g. 1..3)")
    pc.add_argument("--all-min", action="store_true")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(func=cmd_compute, format="g6", max_n=DEFAULT_MAX_N)

    pv = sub.add_parser("verify", help="bound campaign over a corpus")
    pv.add_argument("--config", help="key = value file mirroring the flags")
    add_corpus(pv)
    pv.add_argument("--k", help="'auto' (1..max degree) or list/range")
    pv.add_argument("--bounds", help="'all' or comma list of bound ids")
    pv.add_argument("--jobs", type=int,
                    help=f"worker processes (default ${JOBS_ENV} or 1)")
    pv.add_argument("--out-csv")
    pv.add_argument("--sample", type=int,
                    help="verify a seeded random sample of this many graphs")
    pv.add_argument("--seed", type=int)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("search", help="equality-case search over a corpus")
    ps.add_argument("--target", required=True, choices=tuple(_SEARCH_TARGETS))
    add_corpus(ps)
    ps.set_defaults(func=cmd_search)

    pg = sub.add_parser("gen", help="generate family sweeps as graph6 lines")
    pg.add_argument("specs", nargs="+",
                    help="family:params, e.g. cycle:3..6 or cycle_tree:3,3")
    pg.add_argument("--out", "-o", default="-")
    pg.set_defaults(func=cmd_gen)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE if isinstance(exc, ExactScopeError) else EXIT_PARSE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
