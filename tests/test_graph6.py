import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from addcolor.cli import _iter_corpus
from addcolor.graph import Graph
from addcolor.graph6 import Graph6FormatError, parse_graph6, write_graph6


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, [p for idx, p in enumerate(pairs) if mask >> idx & 1])


# hand-decoded reference lines: header 63+n, then upper-triangle bits packed
# 6 per byte (checked against networkx below)
def test_parse_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edge_count == 1


def test_parse_k3():
    g = parse_graph6("Bw")
    assert g.n == 3 and g.edge_count == 3


def test_parse_empty_pair():
    g = parse_graph6("A?")
    assert g.n == 2 and g.edge_count == 0


def test_write_k2():
    assert write_graph6(complete(2)) == "A_"


def test_write_single_vertex():
    assert write_graph6(Graph.from_edges(1, [])) == "@"


def test_write_k3():
    assert write_graph6(complete(3)) == "Bw"


def test_header_prefix_tolerated():
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_trailing_newline_tolerated():
    assert parse_graph6("A_\n") == complete(2)


def test_sparse6_rejected():
    with pytest.raises(Graph6FormatError):
        parse_graph6(":Fa@x^")


def test_digraph6_rejected():
    with pytest.raises(Graph6FormatError):
        parse_graph6("&B|o")


def test_byte_out_of_range():
    with pytest.raises(Graph6FormatError):
        parse_graph6("A" + chr(30))


def test_truncated_bits():
    with pytest.raises(Graph6FormatError):
        parse_graph6("B")


def test_trailing_garbage():
    with pytest.raises(Graph6FormatError):
        parse_graph6("A__")


def test_nonzero_padding_strict():
    # n=2 needs one bit; 0b011111 sets only padding bits
    line = "A" + chr(63 + 0b011111)
    with pytest.raises(Graph6FormatError):
        parse_graph6(line)


def test_long_header_roundtrip():
    g = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    line = write_graph6(g)
    assert line.startswith(chr(126))
    assert parse_graph6(line) == g
    ref = nx.to_graph6_bytes(nx.path_graph(70), header=False).decode().strip()
    assert line == ref


def test_eight_byte_header_parsed():
    # tolerate the 8-byte size form even for small n: '~~' then six 6-bit bytes
    line = chr(126) * 2 + chr(63) * 5 + chr(63 + 3) + "w"
    assert parse_graph6(line) == complete(3)


def test_writer_rejects_huge():
    with pytest.raises(ValueError):
        write_graph6(Graph.from_edges(258048, []))


@given(graphs())
@settings(max_examples=200)
def test_roundtrip_random(g):
    assert parse_graph6(write_graph6(g)) == g


@given(graphs(max_n=9))
@settings(max_examples=100)
def test_matches_networkx_encoding(g):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert write_graph6(g) == nx.to_graph6_bytes(nxg, header=False).decode().strip()


def test_record_iterator(tmp_path):
    # the sweep's corpus reader skips blank lines and strips the rest
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\n\nA_\n")
    with open(path) as fh:
        items = list(_iter_corpus(fh))
    assert items == [(0, "Bw"), (2, "A_")]
    graphs = [parse_graph6(line) for _, line in items]
    assert [g.n for g in graphs] == [3, 2]
    assert [write_graph6(g) for g in graphs] == ["Bw", "A_"]


def test_corpus_roundtrip_and_counts(conn_corpus_path):
    from collections import Counter

    counts = Counter()
    with open(conn_corpus_path) as fh:
        for line in fh:
            line = line.strip()
            g = parse_graph6(line)
            assert write_graph6(g) == line
            counts[g.n] += 1
    # connected graphs per order, published corpus metadata
    assert dict(counts) == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
