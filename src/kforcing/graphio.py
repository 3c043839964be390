"""graph6 reading and writing, and the edge-list reader.

graph6 packs the bits of :func:`kforcing.graph.upper_triangle`, pair 0
first, into 6-bit groups offset by 63, after a length header: a single
byte for n <= 62, or '~' plus three bytes carrying 18 bits for larger n.
The writer always emits the short form when it applies, so writing is
canonical and parse/write round-trip exactly. :func:`graph6_lines`
checks a whole file's text at once, and :func:`decode_graph6` decodes
graphs of up to :data:`TABLE_CAP` vertices through per-n byte tables.

The edge-list format is line oriented: "u v" adds an edge, a bare "v"
declares an isolated (or just present) vertex, '#' starts a comment.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext
from functools import reduce
from operator import getitem, itemgetter, or_
from typing import Iterable

from .graph import Graph, GraphError, from_upper_triangle, upper_triangle

_HEADER = ">>graph6<<"
MAX_ORDER = 258047  # the largest n of the 4-byte header; larger n need the 8-byte form
# a graph6 byte to its 6 adjacency bits, least significant first
_REVERSED_BITS = {c + 63: f"{c:06b}"[::-1] for c in range(64)}
# the bytes of a text that only needs its line classes checked
_PLAIN_BYTES = bytes(range(63, 127)) + b"\n"
_FIRST, _LAST = itemgetter(0), itemgetter(-1)
# a short-form first byte to its n
_SHORT_ORDER = {chr(c + 63): c for c in range(63)}.__getitem__


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
            raise Graph6Error(f"the 8-byte length form (n > {MAX_ORDER}) is not supported")
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


def graph6_lines(text: str) -> Iterable[tuple[str, int]]:
    """``graph6_order`` of every nonblank line of ``text``, in order.

    Every line is checked before this returns; the pairs of a clean text
    come lazily, so a caller that builds its own tuples from them holds
    no second list.

    Lines end at '\\n' only, as iterating a file opened in text mode
    splits them (it has already turned '\\r\\n' and '\\r' into '\\n'), so
    the first bad line raises the error ``graph6_order`` raises for it.
    When the text holds only bytes 63..126 and newlines, and no line
    starts with '~', a line's validity depends only on its length, first
    byte and last byte: one line per such class is checked, and n is
    read from each first byte. Any other text is checked line by line.
    """
    if (text.isascii() and not text.encode().translate(None, _PLAIN_BYTES)
            and not text.startswith("~") and "\n~" not in text):
        lines = text.split()  # no blank line: '\n' is the only whitespace
        del text  # freed before the caller builds its tuples
        classes = zip(map(len, lines), map(_FIRST, lines), map(_LAST, lines))
        try:
            for line in dict(zip(classes, lines)).values():
                graph6_order(line)
        except Graph6Error:
            return [graph6_order(line) for line in lines]  # raises at the first bad line
        return zip(lines, map(_SHORT_ORDER, map(_FIRST, lines)))
    return [graph6_order(line) for line in text.split("\n") if line.strip()]


#: Graphs of at most this many vertices decode through byte tables.
TABLE_CAP = 16

# n -> the byte tables of its graph6 string, built on first use
_tables: dict[int, list[list[int]]] = {}
# swaps the bytes of a 2-byte row where memoryview.cast("H") reads big-endian
_ROW_SWAP = 8 if sys.byteorder == "big" else 0


def _byte_tables(n: int) -> list[list[int]]:
    """Entry [i][c] of n's tables: the adjacency that byte value c at
    position i of a graph6 string adds, as packed rows (row v in bits
    v*w..v*w+w-1, w = 8 for n <= 8 and 16 up to ``TABLE_CAP``). The header
    byte's table is all zeros."""
    w = 8 if n <= 8 else 16
    swap = 0 if w == 8 else _ROW_SWAP
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    tables = [[0] * 127]
    for start in range(0, len(pairs), 6):
        # the adjacency of each pair in this group, pair 0 in the top bit
        bits = [1 << (i * w + (j ^ swap)) | 1 << (j * w + (i ^ swap))
                for i, j in pairs[start:start + 6]]
        table = [0] * 127
        for c in range(64):
            for b, pair_bits in enumerate(bits):
                if c >> (5 - b) & 1:
                    table[c + 63] |= pair_bits
        tables.append(table)
    _tables[n] = tables
    return tables


def decode_graph6(s: str, n: int) -> Graph:
    """The graph of a (graph6, n) pair that :func:`graph6_order` returned.

    Nothing is checked, so pass only such a pair: another string may
    decode to a wrong graph or raise ``ValueError`` or ``IndexError``.
    """
    if n <= TABLE_CAP:
        tables = _tables.get(n) or _byte_tables(n)
        rows = reduce(or_, map(getitem, tables, s.encode()))
        if n <= 8:
            return Graph._unchecked(n, tuple(rows.to_bytes(n, "little")))
        return Graph._unchecked(
            n, tuple(memoryview(rows.to_bytes(2 * n, "little")).cast("H")))
    # the adjacency groups, last first, each bit-reversed: pair 0 lands lowest
    body = s[::-1][:(n * (n - 1) // 2 + 5) // 6]
    return from_upper_triangle(n, int("0" + body.translate(_REVERSED_BITS), 2))


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a :class:`Graph`: check, then decode."""
    return decode_graph6(*graph6_order(text))


def write_graph6(g: Graph) -> str:
    """Encode a graph as its canonical graph6 string."""
    if g.n <= 62:
        head = [g.n]
    elif g.n <= MAX_ORDER:
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
        if any(not 0 <= v < MAX_ORDER for v in values):  # so n fits graph6's largest order
            raise GraphError(f"line {lineno}: vertex index outside 0..{MAX_ORDER - 1}")
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
