"""The ``verify`` command: one JSON line per bound check of each graph, in
input order at every worker count, and a CSV summary."""

from __future__ import annotations

import argparse
import json
import os
import random
from contextlib import ExitStack, closing
from fractions import Fraction
from operator import itemgetter
from typing import Iterator

from . import cli
from .bounds import ALL_BOUNDS, BoundId, bound_outcomes
from .graph import GraphError
from .graphio import decode_graph6
from .records import compute_record


def _graph_name(g6: str | None, n: int, origin: str) -> str:
    """A graph from :func:`cli._load_graphs` as messages name it."""
    return f"graph6={g6}" if g6 is not None else f"n={n} {origin}"


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
    graph6 string and order ``n`` come from :func:`cli._load_graphs`, checked.
    """
    index, g6, n, ks, ids, max_n, want_row = task
    g = decode_graph6(g6, n)
    rec = compute_record(g, max_n=max_n)
    if ks is None:
        ks = cli._parse_ks("auto", rec.max_degree)
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
        "index": index, "graph6": g6, "n": g.n, "m": g.m,
        "max_degree": rec.max_degree, "min_degree": rec.min_degree,
        "forcing": {k: rec.forcing[k] for k in ks}, "gamma_c": rec.gamma_c,
        "alpha_1": rec.alpha[1], "equalities": ";".join(equalities)}
    return index, prefix + prefix.join(tails), counts, violations, row


def _verify_forked(work: list[tuple], jobs: int) -> Iterator[tuple]:
    """``map(_verify_one, work)`` run by ``jobs`` processes, this one included.

    Chunk i of 8 tasks runs in process i % jobs; process 0 is this one and
    the others are forked up front. A child appends each chunk's pickled
    results, with a task's exception in its result's place, to a spool file
    and writes the record's length to its pipe. This process yields in
    input order, reading a child's record with ``os.pread``, and holds one
    chunk at a time. With one process (``jobs`` 1, one chunk, or no
    ``os.fork``) it runs every chunk alone and forks nothing. On any exit
    it kills and reaps the children.
    """
    chunks = [work[i:i + 8] for i in range(0, len(work), 8)]
    procs = min(jobs, len(chunks)) if hasattr(os, "fork") else 1
    if procs > 1:  # only forked workers spool and pickle
        import pickle
        import signal
        import tempfile
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


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = cli._campaign(args)
    ks = None if cfg.k == "auto" else cli._parse_ks(cfg.k, 0, cfg.max_n)
    ids = _parse_bounds(cfg.bounds)
    if cfg.sample is not None and cfg.sample < 0:
        raise ValueError(f"sample size must be non-negative, got {cfg.sample}")
    if cfg.jobs < 1:
        raise ValueError(f"worker count must be positive, got {cfg.jobs}")
    graphs = cli._load_graphs(cfg)
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
        jsonl = cli._open_output(stack, cfg.out_jsonl)
        csv = cli._open_output(stack, cfg.out_csv, newline="")
        results = stack.enter_context(closing(_verify_forked(work, cfg.jobs)))
        # results come in input order: write each graph's block as it lands
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
    return cli.EXIT_VIOLATION if violations else cli.EXIT_OK


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
