"""The graph6 loader against the per-line loop it replaced.

``verify``, ``search`` and ``compute --input`` read a graph6 file through
:func:`kforcing.graphio.graph6_lines`, which checks one line per
(length, first byte, last byte) class when it can. The oracle is the
loop the loader ran before: ``graph6_order`` on every nonblank line of
the file as iterating it yields them. On every input the loader must
return the same pairs, or raise the same error with the same message.
"""

import pytest

import kforcing.graphio as graphio
from kforcing.cli import _load_graphs, main
from kforcing.families import path
from kforcing.graphio import graph6_order, write_graph6

from conftest import DATA


def oracle(path_):
    """The (graph6, n) pairs of the old loader, or the error it raised."""
    try:
        with open(path_, encoding="ascii") as fh:
            return [graph6_order(line) for line in fh if line.strip()]
    except ValueError as exc:
        return type(exc), str(exc)


def loaded(path_):
    """The (graph6, n) pairs ``_load_graphs`` returns, or the error it raised."""
    try:
        triples = _load_graphs(str(path_))
    except ValueError as exc:
        return type(exc), str(exc)
    assert all(origin == f"input={path_}" for _, _, origin in triples)
    return [(g6, n) for g6, n, _ in triples]


def assert_loads_as_oracle(tmp_path, text: str):
    """Write ``text`` byte for byte; return what both loaders gave."""
    src = tmp_path / "in.g6"
    src.write_bytes(text.encode("latin-1"))
    want = oracle(src)
    assert loaded(src) == want, repr(text)
    return want


def test_every_shipped_corpus_loads_as_before():
    for path_ in sorted(DATA.glob("*.g6")):
        want = oracle(path_)
        assert isinstance(want, list) and want
        assert loaded(path_) == want


def test_every_mutated_byte_of_connected_5(tmp_path):
    lines = (DATA / "connected_5.g6").read_text().split()
    outcomes = set()
    for i, line in enumerate(lines):
        for pos in range(len(line)):
            # below 63 (whitespace and not), above 126, and the long-form marker
            for byte in (" ", "\t", "0", ">", "\x7f", "~"):
                mutated = line[:pos] + byte + line[pos + 1:]
                text = "\n".join(lines[:i] + [mutated] + lines[i + 1:]) + "\n"
                want = assert_loads_as_oracle(tmp_path, text)
                outcomes.add(want[0] if isinstance(want, tuple) else list)
    assert outcomes == {graphio.Graph6Error, list}


@pytest.mark.parametrize("text", [
    "Dhc\nD?\n",  # truncated body
    "Dhc\nDhc?\nDhc\n",  # extended body
    "Dhc\nDhd\n",  # the lowest padding bit set
    "Dhc\nDh\n",
    "Dhc\n?\n@\nA_\n",  # n = 0, 1 and 2
    "Dhc\n@?\n",  # n = 1 with a body byte
    "DQo\nDhc",  # no newline at the end
])
def test_truncated_extended_and_padded_bodies(tmp_path, text):
    assert_loads_as_oracle(tmp_path, text)


@pytest.mark.parametrize("text", [
    ">>graph6<<Dhc\n",
    "Dhc\n>>graph6<<DQo\n",
    ">>graph6<<\n",  # a header and nothing else
    ">>graph6<<Dh\n",
    " Dhc\n",
    "Dhc \n",
    "\tDhc\t\n",
    "Dhc\n  DQo  \n",
    "Dhc\x0c\nDQo\n",  # stripped like any whitespace
    "Dhc\x0cDQo\n",  # not a line end: one line with a bad byte
    "Dhc\x0bDQo\n",
    "",  # the empty file
    "\n\n\n",
    "Dhc\n\n  \n\t\nDQo\n",  # blank and whitespace-only lines
    " \n",
    "Dhc\n~\n",
    "~??B\n",  # long form used for n <= 62
    "Dhc\n~?\n",  # long-form header cut short
    "~~??????\n",  # the 8-byte length form
    "Dhc\n\xe9\n",  # outside ASCII: the decode error of a small file
])
def test_headers_whitespace_and_blank_lines(tmp_path, text):
    assert_loads_as_oracle(tmp_path, text)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_crlf_and_lone_cr_line_ends(tmp_path, end):
    lines = (DATA / "connected_5.g6").read_text().split()
    want = assert_loads_as_oracle(tmp_path, end.join(lines) + end)
    assert [g6 for g6, _ in want] == lines
    assert isinstance(assert_loads_as_oracle(tmp_path, end.join(lines + ["D?"])), tuple)


def test_long_form_lines(tmp_path):
    s = write_graph6(path(63))
    assert s.startswith("~")
    for text in (s + "\n", f"Dhc\n{s}\nDQo\n", f"Dhc\n{s[:-1]}\n",
                 f"Dhc\n{s}?\n", f"{s[:-1]}{chr(ord(s[-1]) + 1)}\n"):
        assert_loads_as_oracle(tmp_path, text)


def test_first_bad_line_is_reported_on_a_large_file(tmp_path):
    lines = (DATA / "connected_8.g6").read_text().split()
    for bad in ("H" + lines[-1][1:-1], lines[100] + "?"):
        text = "\n".join(lines[:5000] + [bad] + lines[5000:] + ["D?"]) + "\n"
        want = assert_loads_as_oracle(tmp_path, text)
        assert want[0] is graphio.Graph6Error


def test_a_clean_corpus_checks_one_line_per_class(monkeypatch):
    lines = (DATA / "connected_8.g6").read_text().split()
    classes = {(len(line), line[0], line[-1]) for line in lines}
    calls = []

    def counted(text):
        calls.append(text)
        return graph6_order(text)

    monkeypatch.setattr(graphio, "graph6_order", counted)
    graphs = _load_graphs(str(DATA / "connected_8.g6"))
    assert len(graphs) == len(lines) == 11117
    assert 1 <= len(calls) <= len(classes)


def test_malformed_line_exits_2_with_the_oracles_message(tmp_path, capsys):
    lines = (DATA / "connected_6.g6").read_text().split()
    src = tmp_path / "in.g6"
    src.write_text("\n".join(lines[:50] + ["EBj"] + lines[50:]) + "\n")
    _, message = oracle(src)
    for argv in (["verify", "-i", str(src)], ["search", "--target", "cor3", "-i", str(src)],
                 ["compute", "-i", str(src), "--invariant", "profile"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"
