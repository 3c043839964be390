"""Command-line harness: compute, verify, search, gen.

What every command shares; ``main`` imports the module of the command it
runs, ``kforcing.verify``, ``.search`` or ``.compute``, and no other. Exit
codes: 0 clean, 1 bound violation, 2 parse error, 3 exact scope exceeded
or out of memory.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import ExitStack
from importlib import import_module
from itertools import product
from math import prod
from typing import TYPE_CHECKING, NamedTuple

from .bounds import BoundId
from .graph import GraphError
from .graphio import (
    MAX_ORDER,
    graph6_lines,
    parse_edge_list,
    write_graph6,
    write_graph6_file,
)
from .invariants import ExactScopeError
from .records import DEFAULT_MAX_N

if TYPE_CHECKING:  # families loads only where --spec, gen or search reads it
    from .families import FamilySpec

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_SCOPE = 3

JOBS_ENV = "KFORCING_JOBS"

# the --invariant choices; kforcing.compute answers each with its function
# _<name>, '-' written as '_'
_INVARIANT_NAMES = ("forcing", "gamma-c", "gamma-kc", "alpha", "path-cover",
                    "hamiltonian", "cycle-tree", "star-free", "profile", "record")

# search target: (bound, the classes its conjecture predicts; None for open data)
_SEARCH_TARGETS = {
    "cor3": (BoundId.COR3, ("complete", "balanced_bipartite")),
    "conn-dom": (BoundId.CONN_DOM, None),
}


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
    """Defaults, then $KFORCING_JOBS (read by verify alone, the one command
    with workers), then the config file, then the flags."""
    jobs = os.environ.get(JOBS_ENV) if args.command == "verify" else None
    try:
        cfg = CampaignConfig(jobs=int(jobs or 1))
    except ValueError:
        raise ValueError(f"{JOBS_ENV} must be an integer, got {jobs!r}") from None
    if getattr(args, "config", None):
        cfg = cfg._replace(**_parse_config_file(args.config))
    flags = {name: getattr(args, name, None) for name in CampaignConfig._fields}
    cfg = cfg._replace(**{key: tuple(value) if isinstance(value, list) else value
                          for key, value in flags.items() if value is not None})
    if not (cfg.input or cfg.spec):
        raise ValueError(f"{args.command} needs --input or --spec")
    _check_max_n(cfg.max_n)
    return cfg


def _check_max_n(max_n: int) -> None:
    if max_n > MAX_ORDER:  # so no k checked against it can fill memory
        raise ValueError(f"--max-n {max_n} exceeds graph6's largest order {MAX_ORDER}")


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
            graphs = [(g6, n, origin)
                      for g6, n in graph6_lines(_read_input(cfg.input, "ascii"))]
        elif cfg.format == "edges":
            built.append((parse_edge_list(_read_input(cfg.input, "utf-8")), origin))
        else:
            raise ValueError(f"unknown format {cfg.format!r}")
    if cfg.spec:
        from .families import generate

        built += [(generate(fs), f"spec={spec}")
                  for spec in cfg.spec for fs in expand_family_spec(spec)]
    return graphs + [(write_graph6(g) if g.n <= cfg.max_n else None, g.n, origin)
                     for g, origin in built]


def _load_corpus(cfg: CampaignConfig) -> list[tuple[str | None, int, str]]:
    """The graphs of :func:`_load_graphs`, once each is checked to have a vertex."""
    graphs = _load_graphs(cfg)
    for index, graph in enumerate(graphs):
        if graph[1] == 0:
            raise GraphError(f"graph {index} has no vertices: {_graph_name(*graph)}")
    return graphs


def _graph_name(g6: str | None, n: int, origin: str) -> str:
    """A graph from :func:`_load_graphs` as messages name it."""
    return f"graph6={g6}" if g6 is not None else f"n={n} {origin}"


def _read_input(path: str, encoding: str) -> str:
    """The text of file ``path``, or of file descriptor 0 for ``-``,
    which stays open."""
    stdin = path == "-"
    with open(0 if stdin else path, encoding=encoding, closefd=not stdin) as fh:
        return fh.read()


# -- family sweep grammar --------------------------------------------------

def _item_ends(item: str, owner: str) -> tuple[int, int]:
    """The first and last integer of an ``a`` or ``a..b`` item; errors
    name its ``owner``."""
    lo, dots, hi = item.partition("..")
    try:
        return (int(lo), int(hi)) if dots else (int(item), int(item))
    except ValueError:
        raise ValueError(f"{owner}: expected an integer or a..b, got {item!r}") from None


def _item_range(item: str, owner: str) -> range:
    """The integers of an ``a`` or ``a..b`` item; errors name its ``owner``."""
    lo, hi = _item_ends(item, owner)
    if max(abs(lo), abs(hi)) > MAX_ORDER:  # no family parameter exceeds its n
        raise ValueError(f"{owner}: {item!r} exceeds graph6's largest order {MAX_ORDER}")
    return range(lo, hi + 1)


#: The most specs one family sweep may expand to.
MAX_SWEEP = 100_000


def expand_family_spec(text: str) -> list[FamilySpec]:
    """Expand ``family:group[:group...]`` into concrete specs.

    Groups are ':'-separated; a group is a comma list of ints or
    ``a..b`` ranges. Scalar parameters take one group each; tuple
    parameters (cycle lengths, circulant steps) take the whole comma
    group as the value, with ranges product-expanded. A sweep of more
    than :data:`MAX_SWEEP` specs (the product of its range lengths) is
    rejected before any is built.
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
    params = []
    for shape, group in zip(shapes, groups):
        ranges = [_item_range(item, family) for item in group.split(",")]
        if shape == "int" and len(ranges) != 1:
            raise ValueError(
                f"{family}: scalar parameter takes one value or range, got {group!r}"
            )
        params.append((shape, ranges))
    size = prod(len(r) for _, ranges in params for r in ranges)
    if size > MAX_SWEEP:
        raise ValueError(f"{family}: {text!r} expands to {size} specs, over {MAX_SWEEP}")
    choices = [ranges[0] if shape == "int" else product(*ranges)
               for shape, ranges in params]
    return [FamilySpec(family, args) for args in product(*choices)]


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


def _open_output(stack: ExitStack, path: str | None, **kwargs):
    """``path`` opened for writing until ``stack`` closes, or None if unset."""
    return path and stack.enter_context(open(path, "w", encoding="utf-8", **kwargs))


# -- gen ---------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    from .families import generate

    # every spec is checked before -o is opened; a graph is built when written
    specs = [fs for text in args.specs for fs in expand_family_spec(text)]
    write_graph6_file(args.out, map(generate, specs))
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
    pc.add_argument("--invariant", required=True, choices=_INVARIANT_NAMES)
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--ks", default="auto", help="k list for 'record' (e.g. 1..3)")
    pc.add_argument("--all-min", action="store_true")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(format="g6", max_n=DEFAULT_MAX_N)

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

    ps = sub.add_parser("search", help="equality-case search over a corpus")
    ps.add_argument("--target", required=True, choices=tuple(_SEARCH_TARGETS))
    add_corpus(ps)

    pg = sub.add_parser("gen", help="generate family sweeps as graph6 lines")
    pg.add_argument("specs", nargs="+",
                    help="family:params, e.g. cycle:3..6 or cycle_tree:3,3")
    pg.add_argument("--out", "-o", default="-")

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        # every other command runs from its own module, loaded only here
        module = import_module(f"kforcing.{args.command}")
        return getattr(module, f"cmd_{args.command}")(args)
    except (OSError, GraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE if isinstance(exc, ExactScopeError) else EXIT_PARSE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_SCOPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
