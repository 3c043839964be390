import pytest

from kforcing import (
    Graph,
    Graph6Error,
    GraphError,
    graph6_order,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from kforcing.families import complete, cycle, path
from kforcing.graphio import decode_graph6
from kforcing.smallgraphs import all_graphs

from conftest import DATA


def test_decoded_graphs_pass_validation(connected_upto_7, trees_by_n):
    # parse_graph6 builds its graphs unchecked, as valid by construction
    for g in connected_upto_7 + trees_by_n[10]:
        assert Graph(g.n, g.adj) == g


def test_empty_graph_on_five_vertices():
    g = parse_graph6("D??")
    assert g.n == 5 and g.m == 0


def test_hand_decoded_fixture():
    # 'D' -> n=5; 'Q'=18=010010, 'o'=48=110000; first 10 bits decode to
    # column-major upper-triangle entries (0,2),(1,3),(0,4),(1,4).
    g = parse_graph6("DQo")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 2), (0, 4), (1, 3), (1, 4)]


def test_cycle5_hand_packed_encoding():
    # C_5 bits in column-major order: 1 01 001 1001, padded to
    # 101001 100100 -> chr(41+63) chr(36+63) = "hc".
    assert write_graph6(cycle(5)) == "Dhc"


def test_single_vertex():
    assert write_graph6(complete(1)) == "@"
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_null_graph():
    g = parse_graph6("?")
    assert g.n == 0 and g.m == 0
    assert write_graph6(g) == "?"


def test_round_trip_on_corpus_files():
    for name in ("connected_5.g6", "connected_6.g6", "trees_8.g6"):
        for line in (DATA / name).read_text().splitlines():
            assert write_graph6(parse_graph6(line)) == line


def test_round_trip_all_graphs_on_5():
    for g in all_graphs(5):
        h = parse_graph6(write_graph6(g))
        assert h.adj == g.adj


def test_matches_networkx_codec():
    nx = pytest.importorskip("networkx")
    for g in all_graphs(5):
        ours = write_graph6(g)
        gg = nx.Graph()
        gg.add_nodes_from(range(g.n))
        gg.add_edges_from(g.edges())
        assert ours == nx.to_graph6_bytes(gg, header=False).decode().strip()
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == g.n
        assert sorted(map(tuple, map(sorted, back.edges()))) == sorted(g.edges())


def test_header_prefix_accepted():
    g = parse_graph6(">>graph6<<Dhc")
    assert g.n == 5 and g.m == 5


def test_long_form_for_63_vertices():
    g = path(63)
    s = write_graph6(g)
    assert s.startswith("~")
    h = parse_graph6(s)
    assert h.n == 63 and h.adj == g.adj


def test_writer_rejects_an_oversized_n_before_encoding(monkeypatch):
    import kforcing.graphio as graphio

    def encode(g):
        raise AssertionError("encoded before the range check")

    monkeypatch.setattr(graphio, "upper_triangle", encode)
    with pytest.raises(Graph6Error):
        write_graph6(Graph._unchecked(258048, (0,) * 258048))


def test_long_form_header_with_three_nonzero_bytes():
    n = 4161  # 1 << 12 | 1 << 6 | 1: the header bytes are "@@@"
    s = "~@@@" + "?" * ((n * (n - 1) // 2 + 5) // 6)
    assert graph6_order(s) == (s, n)
    assert write_graph6(Graph._unchecked(n, (0,) * n)) == s


MALFORMED_G6 = (
    "",
    "D\x1f?",  # character below 63
    "D?",  # truncated body
    "D???",  # extra body
    "A?" + chr(127),  # character above 126
    "~??B",  # long form used for small n
    "~?",  # long-form header cut short
    "~~??????",  # the unsupported 8-byte length form
    "@?",  # '@' is n=1: no adjacency bits, so any body byte is an error
)


def test_parse_errors():
    for text in MALFORMED_G6:
        with pytest.raises(Graph6Error):
            parse_graph6(text)


def test_trailing_padding_must_be_zero():
    good = write_graph6(cycle(5))  # "Dhc": last group carries 2 padding zeros
    bad = good[:-1] + chr(ord(good[-1]) + 1)  # flip lowest padding bit
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_graph6_order_rejects_what_parse_rejects():
    good = write_graph6(cycle(5))
    bad_padding = good[:-1] + chr(ord(good[-1]) + 1)
    for text in MALFORMED_G6 + (bad_padding,):
        with pytest.raises(Graph6Error):
            graph6_order(text)


def test_graph6_order_is_parse_then_write_on_corpus():
    lines = [
        line
        for path_ in sorted(DATA.glob("*.g6"))
        for line in path_.read_text().splitlines()
    ]
    assert len(lines) == 12314
    for line in lines:
        n = parse_graph6(line).n
        for text in (line, ">>graph6<<" + line + " \n"):
            assert graph6_order(text) == (write_graph6(parse_graph6(text)), n)
    s = write_graph6(path(63))
    assert graph6_order(s) == (s, 63)


def test_decoder_on_checked_lines_of_every_corpus():
    # what verify and search do: check each line once, decode it later
    for path_ in sorted(DATA.glob("*.g6")):
        for line in path_.read_text().splitlines():
            g = decode_graph6(*graph6_order(line))
            assert g == parse_graph6(line) == Graph(g.n, g.adj)
            assert write_graph6(g) == line


def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 4)])  # vertices 2, 3 isolated
    h = parse_edge_list("0 1\n1 4\n2\n3\n")
    assert h.adj == g.adj


def test_edge_list_comments_and_isolated():
    g = parse_edge_list("# a triangle plus a loner\n0 1\n1 2 # back edge\n2 0\n5\n")
    assert g.n == 6 and g.m == 3
    assert g.degree(5) == 0


def test_edge_list_errors():
    with pytest.raises(GraphError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(GraphError):
        parse_edge_list("a b\n")
    with pytest.raises(GraphError):
        parse_edge_list("3 3\n")
    with pytest.raises(GraphError):
        parse_edge_list("-1 2\n")
