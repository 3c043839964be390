"""graph6 reading and writing, and the edge-list reader.

graph6 packs the bits of :func:`kforcing.graph.upper_triangle`, pair 0
first, into 6-bit groups offset by 63, after a length header: a single
byte for n <= 62, or '~' plus three bytes carrying 18 bits for larger n.
The writer always emits the short form when it applies, so writing is
canonical and parse/write round-trip exactly.

The edge-list format is line oriented: "u v" adds an edge, a bare "v"
declares an isolated (or just present) vertex, '#' starts a comment.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from typing import Iterable

from .graph import Graph, GraphError, from_upper_triangle, upper_triangle

_HEADER = ">>graph6<<"
# a graph6 byte to its 6 adjacency bits, least significant first
_REVERSED_BITS = {c + 63: f"{c:06b}"[::-1] for c in range(64)}


class Graph6Error(GraphError):
    """Raised for malformed graph6 input."""


def graph6_order(text: str) -> tuple[str, int]:
    """Check one graph6 line's syntax without building the graph.

    Returns (canonical graph6, n): the line without its optional
    ``>>graph6<<`` header and surrounding whitespace, which is already
    canonical once every check has passed.
    """
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        raise Graph6Error(f"character outside the printable range 63..126: {s!r}")

    if s[0] != "~":
        n, head = ord(s[0]) - 63, 1
    else:
        if len(s) < 4:
            raise Graph6Error(f"malformed length header: {s!r}")
        if s[1] == "~":
            raise Graph6Error("the 8-byte length form (n > 258047) is not supported")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        if n <= 62:
            raise Graph6Error(f"long-form header used for n={n} <= 62")
        head = 4

    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(s) - head != ngroups:
        raise Graph6Error(
            f"expected {ngroups} adjacency bytes for n={n}, got {len(s) - head}"
        )
    if ngroups and (ord(s[-1]) - 63) & ((1 << (6 * ngroups - nbits)) - 1):
        raise Graph6Error("nonzero padding bits")
    return s, n


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a :class:`Graph`."""
    s, n = graph6_order(text)
    # the adjacency groups, last first, each bit-reversed: pair 0 lands lowest
    body = s[::-1][:(n * (n - 1) // 2 + 5) // 6]
    return from_upper_triangle(n, int("0" + body.translate(_REVERSED_BITS), 2))


def write_graph6(g: Graph) -> str:
    """Encode a graph as its canonical graph6 string."""
    if g.n <= 62:
        head = [g.n]
    elif g.n <= 258047:
        head = [63, (g.n >> 12) & 63, (g.n >> 6) & 63, g.n & 63]
    else:
        raise Graph6Error(f"n={g.n} too large for the supported graph6 forms")
    nbits = g.n * (g.n - 1) // 2
    # pair 0 first, zero-padded to whole 6-bit groups
    bits = f"{upper_triangle(g):0{(nbits + 5) // 6 * 6}b}"[::-1]
    groups = [int(bits[i:i + 6], 2) for i in range(0, nbits, 6)]
    return "".join(chr(x + 63) for x in head + groups)


def write_graph6_file(path: str, graphs: Iterable[Graph]) -> None:
    """Write one graph6 line per graph to ``path``, or to stdout for '-'.

    The file is opened before ``graphs`` is consumed, so an unwritable
    path fails before a lazy source does any work.
    """
    with (nullcontext(sys.stdout) if path == "-"
          else open(path, "w", encoding="ascii")) as out:
        for g in graphs:
            out.write(write_graph6(g) + "\n")


def parse_edge_list(text: str) -> Graph:
    """Parse the human-readable edge-list format."""
    edges: list[tuple[int, int]] = []
    present: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise GraphError(f"line {lineno}: expected integers, got {raw!r}") from None
        if any(v < 0 for v in values):
            raise GraphError(f"line {lineno}: negative vertex index")
        if len(values) == 1:
            present.add(values[0])
        elif len(values) == 2:
            u, v = values
            if u == v:
                raise GraphError(f"line {lineno}: self-loop at {u}")
            edges.append((u, v))
            present.update(values)
        else:
            raise GraphError(f"line {lineno}: expected 'u v' or 'v', got {raw!r}")
    n = max(present) + 1 if present else 0
    return Graph.from_edges(n, edges)
