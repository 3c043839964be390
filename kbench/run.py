#!/usr/bin/env python3
"""Benchmark of the kforcing verifier, run from the root of a source checkout.

    python3 kbench/run.py --workload verify_c7 --seed 1 --seconds 20 --trace 0

Each workload drives ``kforcing`` the way a user does, closed-loop from one
process: one command starts when the previous one has finished. Untraced
runs (``--trace 0``) start every command as a fresh interpreter with
``PYTHONPATH=src``, so nothing needs installing, and report the end-to-end
metrics. Traced runs (``--trace 1``) call the same entry points in-process,
alternating untraced and traced passes, and report per-layer metrics (see
``tracer.py``).

Every output is checked against the references in ``reference.json`` (and,
for the sampled campaign, the per-graph digests in ``connected_8.digests``),
which ``record.py`` wrote. A command fails when it exits nonzero, writes a
traceback or writes output that differs from the reference.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is a manifest of the run's environment and raw samples.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
WORK = ROOT / ".kbench_work"
REFERENCE = BENCH / "reference.json"
DIGESTS = BENCH / "connected_8.digests"

CAMPAIGN_SAMPLE = 500
SETUP_RUNS = 7
COMMAND_TIMEOUT_S = 150
MIN_ACCOUNTED_FRAC = 0.9

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "1/s",
    "par_graphs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


# -- workloads -----------------------------------------------------------------

@dataclass
class Command:
    """One invocation: ``python3 <args>`` and the files it must reproduce."""

    args: list[str]
    dir: Path  # holds the command's stdout and stderr
    graphs: int  # graphs verified or searched, or classes emitted
    jobs: int = 1
    outputs: dict[str, Path] = field(default_factory=dict)  # reference key -> file

    def entry(self):
        """The function ``python -m <module>`` runs, for in-process calls."""
        if self.args[:2] == ["-m", "kforcing"]:
            import kforcing.cli

            return kforcing.cli.main
        if self.args[:2] == ["-m", "kforcing.smallgraphs"]:
            import kforcing.smallgraphs

            return kforcing.smallgraphs._main
        raise ValueError(f"no in-process entry for {self.args}")


def corpus_size(path: Path) -> int:
    with open(path, encoding="ascii") as fh:
        return sum(1 for line in fh if line.strip())


def workload_unit(name: str, seed: int, out: Path) -> list[Command]:
    """The commands of one unit of a workload, writing under ``out``."""
    c7, c8, t10 = DATA / "connected_7.g6", DATA / "connected_8.g6", DATA / "trees_10.g6"
    if name == "verify_c7":
        unit = []
        for jobs in (1, 2):
            d = out / f"jobs{jobs}"
            unit.append(Command(
                ["-m", "kforcing", "verify", "-i", str(c7), "--k", "auto",
                 "--bounds", "all", "--jobs", str(jobs),
                 "--out-jsonl", str(d / "out.jsonl"), "--out-csv", str(d / "out.csv")],
                d, graphs=corpus_size(c7), jobs=jobs,
                outputs={"verify_c7.jsonl": d / "out.jsonl", "verify_c7.csv": d / "out.csv"},
            ))
        return unit
    if name == "campaign_c8":
        d = out / "campaign"
        return [Command(
            ["-m", "kforcing", "verify", "-i", str(c8), "--sample",
             str(CAMPAIGN_SAMPLE), "--seed", str(seed), "--jobs", "1",
             "--out-jsonl", str(d / "out.jsonl"), "--out-csv", str(d / "out.csv")],
            d, graphs=CAMPAIGN_SAMPLE,
            outputs={"campaign_c8.jsonl": d / "out.jsonl", "campaign_c8.csv": d / "out.csv"},
        )]
    if name == "search_c8":
        d = out / "search"
        return [Command(
            ["-m", "kforcing", "search", "--target", "cor3", "-i", str(c8)],
            d, graphs=corpus_size(c8), outputs={"search_c8.stdout": d / "stdout"},
        )]
    if name == "enum_corpus":
        d7, d10 = out / "connected_7", out / "trees_10"
        return [
            Command(["-m", "kforcing.smallgraphs", "7", "--connected",
                     "-o", str(d7 / "out.g6")],
                    d7, graphs=corpus_size(c7),
                    outputs={"enum_corpus.connected_7": d7 / "out.g6"}),
            Command(["-m", "kforcing.smallgraphs", "10", "--trees",
                     "-o", str(d10 / "out.g6")],
                    d10, graphs=corpus_size(t10),
                    outputs={"enum_corpus.trees_10": d10 / "out.g6"}),
        ]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("verify_c7", "campaign_c8", "search_c8", "enum_corpus")
CORPORA = {
    "verify_c7": ("connected_7.g6",),
    "campaign_c8": ("connected_8.g6",),
    "search_c8": ("connected_8.g6",),
    "enum_corpus": ("connected_7.g6", "trees_10.g6"),
}


# -- output checks ---------------------------------------------------------------

def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def graph_digest(jsonl_block: bytes, csv_row: bytes) -> str:
    """Short digest of one graph's JSONL lines and CSV row."""
    return hashlib.sha256(jsonl_block + b"\0" + csv_row).hexdigest()[:12]


def split_campaign(jsonl: Path, csv: Path) -> tuple[bytes, list[tuple[int, bytes, bytes]]]:
    """(CSV header, [(graph index, JSONL lines, CSV row)]) of a verify run.

    Raises ValueError when the files do not have one contiguous block of
    JSONL lines and one CSV row per graph, in the same index order.
    """
    prefix = b'{"index": '
    order: list[int] = []
    blocks: dict[int, list[bytes]] = {}
    with open(jsonl, "rb") as fh:
        for line in fh:
            if not line.startswith(prefix):
                raise ValueError("JSONL line does not start with its index")
            index = int(line[len(prefix):line.index(b",")])
            if not order or order[-1] != index:
                if index in blocks:
                    raise ValueError(f"graph {index} split across the JSONL")
                order.append(index)
                blocks[index] = []
            blocks[index].append(line)
    lines = csv.read_bytes().split(b"\r\n")
    if lines[-1] != b"":
        raise ValueError("CSV does not end with a row terminator")
    header, rows = lines[0], lines[1:-1]
    if len(rows) != len(order):
        raise ValueError(f"{len(rows)} CSV rows for {len(order)} JSONL graphs")
    graphs = []
    for index, row in zip(order, rows):
        if not row.startswith(b"%d," % index):
            raise ValueError(f"CSV row out of order at graph {index}")
        graphs.append((index, b"".join(blocks[index]), row))
    return header, graphs


def check_campaign(jsonl: Path, csv: Path, seed: int, ref: dict,
                   digests: list[str]) -> list[str]:
    """Problems with a sampled campaign's output, graph by graph."""
    try:
        header, graphs = split_campaign(jsonl, csv)
    except (OSError, ValueError) as exc:
        return [f"campaign_c8: {exc}"]
    problems = []
    # The header lists f1..f<max degree in the sample>; a sample of 500 graphs
    # of connected_8 all without a vertex of degree 7 has odds below 1e-20.
    if header.decode("ascii", "replace") != ref["csv_header"]:
        problems.append("campaign_c8: CSV header differs")
    indices = [index for index, _, _ in graphs]
    if len(indices) != ref["sample"] or indices != sorted(indices):
        problems.append("campaign_c8: wrong number or order of graphs")
    bad = [i for i, block, row in graphs
           if not 0 <= i < len(digests) or graph_digest(block, row) != digests[i]]
    if bad:
        problems.append(f"campaign_c8: {len(bad)} graphs differ, first index {bad[0]}")
    whole = ref["seeds"].get(str(seed))
    if whole and (sha256_file(jsonl), sha256_file(csv)) != (whole["jsonl"], whole["csv"]):
        problems.append(f"campaign_c8: files differ from the seed-{seed} reference")
    return problems


@dataclass
class References:
    data: dict
    digests: list[str]

    @classmethod
    def load(cls) -> "References":
        if not REFERENCE.is_file() or not DIGESTS.is_file():
            raise SetupError(f"missing {REFERENCE.name} or {DIGESTS.name}")
        return cls(json.loads(REFERENCE.read_text()), DIGESTS.read_text().split())

    def check(self, cmd: Command, seed: int) -> list[str]:
        problems = []
        if "campaign_c8.jsonl" in cmd.outputs:
            return check_campaign(cmd.outputs["campaign_c8.jsonl"],
                                  cmd.outputs["campaign_c8.csv"], seed,
                                  self.data["campaign_c8"], self.digests)
        for key, path in cmd.outputs.items():
            try:
                digest = sha256_file(path)
            except OSError as exc:
                problems.append(f"{key}: {exc}")
                continue
            if digest != self.data["outputs"][key]:
                problems.append(f"{key}: output differs from the reference")
        return problems


# -- running commands ------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "KFORCING_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    problems: list[str]


def run_child(args: list[str], out: Path, cpu: int | None = None) -> Outcome:
    """Run ``python3 <args>`` with stdout and stderr in ``out``, on ``cpu``
    alone if given; wait for it, which includes the pool workers it reaps."""
    out.mkdir(parents=True, exist_ok=True)
    own_cpus = os.sched_getaffinity(0)
    with open(out / "stdout", "wb") as fo, open(out / "stderr", "wb") as fe:
        t0 = time.perf_counter()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # inherited by the child
        try:
            proc = subprocess.Popen([sys.executable, *args], stdout=fo, stderr=fe,
                                    env=child_env(), cwd=ROOT)
        finally:
            os.sched_setaffinity(0, own_cpus)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        problems.append(f"{' '.join(args[:3])}: exit code {proc.returncode}")
    if b"Traceback (most recent call last)" in (out / "stderr").read_bytes():
        problems.append(f"{' '.join(args[:3])}: wrote a traceback")
    # ru_maxrss is in KiB on Linux; wait4 covers the child and its reaped workers
    return Outcome(wall, usage.ru_maxrss / 1024, problems)


def run_in_process(cmd: Command) -> Outcome:
    """Call the command's entry point in this process, stdout to its dir."""
    out = cmd.dir
    out.mkdir(parents=True, exist_ok=True)
    entry = cmd.entry()
    problems = []
    with open(out / "stdout", "w", encoding="utf-8") as fo:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(fo):
                code = entry(cmd.args[2:])
        except SystemExit as exc:  # argparse rejecting the arguments
            code = exc.code
        except Exception:  # a failed command is counted, not fatal
            code = None
            (out / "stderr").write_text(traceback.format_exc())
            problems.append(f"{' '.join(cmd.args[:3])}: raised")
        wall = time.perf_counter() - t0
    if code not in (0, None):
        problems.append(f"{' '.join(cmd.args[:3])}: exit code {code}")
    return Outcome(wall, 0.0, problems)


# -- runs ----------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def rates(done: list[tuple[Command, float]]) -> tuple[float, float]:
    """(rate at --jobs 1, rate at --jobs 2) in graphs per second: graphs
    finished over time taken by the (command, wall time) pairs ``done``.

    A workload with no --jobs 2 command runs single-process either way, so
    its serial rate is also its rate with two workers allowed.
    """
    def rate(jobs: int) -> float | None:
        ran = [(c.graphs, w) for c, w in done if c.jobs == jobs]
        return sum(g for g, _ in ran) / sum(w for _, w in ran) if ran else None

    serial = rate(1)
    par = rate(2)
    return serial, serial if par is None else par


def run_untraced(workload: str, seed: int, seconds: float, refs: References,
                 work: Path, tally: Tally) -> tuple[dict, dict]:
    setup = []
    for i in range(SETUP_RUNS):
        res = run_child(["-c", "import kforcing.cli"], work / f"setup{i}")
        tally.count(res.problems)
        setup.append(res.wall_s)

    # The two vCPUs of a shared host slow down independently, for tens of
    # seconds at a time, so each unit's single-process commands run on the
    # next CPU in turn rather than wherever the scheduler first put them.
    cpus = sorted(os.sched_getaffinity(0))
    done: list[tuple[Command, float]] = []
    rss: list[float] = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        out = work / f"unit{len(rss)}"
        unit = workload_unit(workload, seed, out)
        unit_rss = []
        for cmd in unit:
            cpu = cpus[len(rss) % len(cpus)] if cmd.jobs == 1 else None
            res = run_child(cmd.args, cmd.dir, cpu)
            tally.count(res.problems + refs.check(cmd, seed))
            done.append((cmd, res.wall_s))
            unit_rss.append(res.rss_mb)
        rss.append(max(unit_rss))
        shutil.rmtree(out)
    serial, par = rates(done)
    metrics = {"setup_s": statistics.median(setup), "graphs_per_s": serial,
               "par_graphs_per_s": par, "peak_rss_mb": statistics.median(rss)}
    walls = [{"jobs": c.jobs, "graphs": c.graphs, "wall_s": w} for c, w in done]
    return metrics, {"setup_s": setup, "commands": walls, "peak_rss_mb": rss}


def plain_pass(unit: list[Command], seed: int, refs: References,
               tally: Tally) -> list[float]:
    walls = []
    for cmd in unit:
        res = run_in_process(cmd)
        tally.count(res.problems + refs.check(cmd, seed))
        walls.append(res.wall_s)
    return walls


def traced_pass(unit: list[Command], seed: int, refs: References, tally: Tally):
    from tracer import Tracer

    wall = 0.0
    with Tracer() as tr:
        for cmd in unit:
            res = run_in_process(cmd)
            tally.count(res.problems + refs.check(cmd, seed))
            wall += res.wall_s
    return tr, wall


def run_traced(workload: str, seed: int, seconds: float, refs: References,
               work: Path, tally: Tally) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    passes: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        out = work / f"pass{len(passes)}"
        plain = workload_unit(workload, seed, out / "plain")
        traced = [c for c in workload_unit(workload, seed, out / "traced") if c.jobs == 1]
        # alternate which side goes first, so drift in machine speed cancels
        if len(passes) % 2:
            tr, traced_s = traced_pass(traced, seed, refs, tally)
            walls = plain_pass(plain, seed, refs, tally)
        else:
            walls = plain_pass(plain, seed, refs, tally)
            tr, traced_s = traced_pass(traced, seed, refs, tally)
        serial, par = rates(list(zip(plain, walls)))
        plain_s = sum(w for c, w in zip(plain, walls) if c.jobs == 1)
        metrics = tr.metrics(traced_s, classes=sum(c.graphs for c in traced))
        metrics["cli.scaling_eff"] = par / (2 * serial)
        metrics["trace_overhead_frac"] = traced_s / plain_s - 1
        passes.append(metrics)
        shutil.rmtree(out)

    for name in passes[0]:
        if per_layer_unit(name) == "count" and len({p[name] for p in passes}) > 1:
            tally.problems.append(f"{name} differs between traced passes")
    medians = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    if medians["trace.accounted_frac"] < MIN_ACCOUNTED_FRAC:
        tally.problems.append(
            f"layers account for {medians['trace.accounted_frac']:.3f} of traced wall time"
        )
    return medians, {"passes": passes}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_frac", "scaling_eff")):
        return "frac"
    if name.endswith(".ms_tail"):
        return "ms"
    if name.endswith(".tail_pct"):
        return "%"
    return "count"


# -- manifest ------------------------------------------------------------------------

def manifest(workload: str, args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "kforcing").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "campaign_sample": CAMPAIGN_SAMPLE if workload == "campaign_c8" else None,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "corpus_sha256": {f"data/{f}": sha256_file(DATA / f) for f in CORPORA[workload]},
    }


def check_checkout(workload: str, refs: References) -> None:
    if not (SRC / "kforcing" / "cli.py").is_file():
        raise SetupError(f"no kforcing sources under {SRC}")
    for name in CORPORA[workload]:
        path = DATA / name
        if not path.is_file():
            raise SetupError(f"missing corpus {path}")
        if sha256_file(path) != refs.data["corpus"][f"data/{name}"]:
            raise SetupError(f"corpus {path} differs from the one the references used")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1,
                    help="campaign_c8 sample seed (default 1; 2 is the held-out seed)")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        refs = References.load()
        check_checkout(args.workload, refs)
    except SetupError as exc:
        print(f"kbench: {exc}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    try:
        metrics, samples = run(args.workload, args.seed, args.seconds, refs, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    units = END_TO_END if not args.trace else {m: per_layer_unit(m) for m in metrics}
    info = manifest(args.workload, args) | {"problems": tally.problems, "samples": samples}
    print(json.dumps({"manifest": info}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
