"""The ``verify`` command: one JSON line per bound check of each graph, in
input order at every worker count, and a CSV summary."""

from __future__ import annotations

import argparse
import json
import os
import random
from contextlib import ExitStack, closing, suppress
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from . import cli
from .bounds import ALL_BOUNDS, BoundId, bound_outcomes
from .graphio import decode_graph6
from .records import compute_record


def _parse_bounds(text: str) -> tuple[BoundId, ...]:
    """The bounds ``--bounds`` names, once each, in declaration order."""
    if text == "all":
        return ALL_BOUNDS
    named = set()
    for part in text.split(","):
        try:
            named.add(BoundId[part.strip().upper()])
        except KeyError:
            raise ValueError(f"unknown bound id {part.strip()!r}") from None
    return tuple(bound for bound in BoundId if bound in named)


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
    index: int, *, graphs: list[tuple[str, int, str]], ks: list[int] | None,
    ids: tuple[BoundId, ...], max_n: int, want_row: bool,
) -> tuple[int, str, tuple[int, int, int], list[str], list | None]:
    """Worker: evaluate the run's bounds on ``graphs[index]``; the loaded
    graphs and the run's settings are bound once by ``partial``.

    Returns the graph's finished JSONL block, its (checked, equal,
    not_applicable) counts, its ``VIOLATION:`` lines and its CSV row: the
    columns with f1..f{max k} only, None where a k is not checked. The row
    reads gamma_c and alpha_1, so it is None unless ``want_row`` is set.
    ``ks`` None means auto: 1 up to the graph's maximum degree. ``graphs``
    holds the checked (graph6, n, origin) triples of :func:`cli._load_corpus`.
    """
    g6, n, _ = graphs[index]
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
    row = None if not want_row else [
        index, g6, g.n, g.m, rec.max_degree, rec.min_degree,
        *(rec.forcing[k] if k in ks else None for k in range(1, ks[-1] + 1)),
        rec.gamma_c, rec.alpha[1], ";".join(equalities)]
    return index, prefix + prefix.join(tails), counts, violations, row


def _verify_forked(verify_one: Callable, work: Sequence[int], jobs: int) -> Iterator[tuple]:
    """``map(verify_one, work)`` run by ``jobs`` processes, this one included.

    Chunk i of 8 tasks runs in process i % jobs: process 0 is this one, the
    others are forked up front. A child pickles each chunk's results, a
    task's exception in its result's place, into its own pipe: a full pipe
    (1 MiB where the platform allows) blocks it, and its next write fails
    once this process is gone. This process unpickles each chunk at its
    turn, in input order. With one process (``jobs`` 1, one chunk, or no
    ``os.fork``) it forks nothing. On any exit it kills and reaps children.
    """
    chunks = [work[i:i + 8] for i in range(0, len(work), 8)]
    procs = min(jobs, len(chunks)) if hasattr(os, "fork") else 1
    if procs > 1:  # only forked workers pickle
        import fcntl
        import pickle
        import signal
    children = []  # (pid, pipe reader) of processes 1, 2, ...
    try:
        for p in range(1, procs):
            r, w = os.pipe()
            with suppress(AttributeError, OSError):  # else the default size
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
            pid = os.fork()
            if pid == 0:  # the child never prints and skips exit handlers
                try:
                    os.close(r)  # only the main process reads the pipes
                    for _, reader in children:
                        reader.close()
                    with open(w, "wb") as out:
                        for chunk in chunks[p::procs]:
                            results = []
                            try:
                                for task in chunk:
                                    results.append(verify_one(task))
                            except BaseException as exc:
                                results.append(exc)
                            pickle.dump(results, out)
                            out.flush()
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        for i, chunk in enumerate(chunks):
            p = i % procs
            if p == 0:
                yield from map(verify_one, chunk)
                continue
            pid, reader = children[p - 1]
            try:
                results = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):  # it died, maybe mid-record
                raise ChildProcessError(f"verify worker {p} (pid {pid}) exited without a result")
            for result in results:
                if isinstance(result, BaseException):
                    raise result
                yield result
    finally:
        for pid, reader in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            reader.close()


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = cli._campaign(args)
    ks = None if cfg.k == "auto" else cli._parse_ks(cfg.k, 0, cfg.max_n)
    ids = _parse_bounds(cfg.bounds)
    if cfg.sample is not None and cfg.sample < 0:
        raise ValueError(f"sample size must be non-negative, got {cfg.sample}")
    if cfg.jobs < 1:
        raise ValueError(f"worker count must be positive, got {cfg.jobs}")
    graphs = cli._load_corpus(cfg)

    picked = range(len(graphs))
    if cfg.sample is not None and cfg.sample < len(graphs):
        picked = sorted(random.Random(cfg.seed).sample(picked, cfg.sample))
    skipped = [i for i in picked if graphs[i][1] > cfg.max_n]
    work = [i for i in picked if graphs[i][1] <= cfg.max_n] if skipped else picked
    verify_one = partial(_verify_one, graphs=graphs, ks=ks, ids=ids, max_n=cfg.max_n,
                         want_row=bool(cfg.out_csv))

    checked = equal = not_applicable = 0
    violations: list[str] = []
    with ExitStack() as stack:
        jsonl = cli._open_output(stack, cfg.out_jsonl)
        table = cli._open_output(stack, cfg.out_csv, newline="")
        if table:
            import csv
            header = _csv_header(ks, (graphs[i][:2] for i in work))
            writer = csv.writer(table)
            writer.writerow(header)
        results = stack.enter_context(closing(_verify_forked(verify_one, work, cfg.jobs)))
        # results come in input order: write each graph's block and row as it lands
        for _, text, (n_checked, n_equal, n_not_applicable), found, row in results:
            checked += n_checked
            equal += n_equal
            not_applicable += n_not_applicable
            violations += found
            if jsonl:
                jsonl.write(text)
            if table:  # f{k} over the graph's largest k prints empty
                row[-3:-3] = [None] * (len(header) - len(row))
                writer.writerow(row)

    for index in skipped:
        print(f"skipped (n over scope cap {cfg.max_n}): index={index} "
              f"{cli._graph_name(*graphs[index])}")
    print(
        f"verify: checked={checked} satisfied={checked - len(violations)} "
        f"equality={equal} not_applicable={not_applicable} "
        f"violations={len(violations)} skipped={len(skipped)}"
    )
    for line in violations:
        print(line)
    return cli.EXIT_VIOLATION if violations else cli.EXIT_OK


def _csv_header(ks: list[int] | None, pairs: Iterable[tuple[str, int]]) -> list[str]:
    """The CSV's columns, f1..fK for the largest k checked on the (graph6, n)
    ``pairs``: for auto ``ks``, max(max degree, 1) from a decoding pass that
    keeps no graph."""
    top = max((ks[-1] if ks else max(1, *map(int.bit_count, decode_graph6(g6, n).adj))
               for g6, n in pairs), default=0)
    return ["index", "graph6", "n", "m", "max_degree", "min_degree",
            *(f"f{k}" for k in range(1, top + 1)), "gamma_c", "alpha_1", "equalities"]
