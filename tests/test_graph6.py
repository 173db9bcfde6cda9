import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from addcolor.cli import _iter_corpus
from addcolor.families import generate, parse_spec
from addcolor.graph import Graph
from addcolor.graph6 import Graph6FormatError, parse_graph6, write_graph6

from conftest import DATA
from oracles import parse_graph6_naive, write_graph6_naive
from test_families import small_specs


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


# every character outside '?'..'~': the ASCII controls, space and the rest of
# 0..62, DEL, and non-ASCII ones, which a lossy ASCII encoding would turn
# into '?' (byte 63, in range)
BAD_CHARS = [chr(b) for b in range(63)] + [chr(127), "\u00e9", "\ufffd", "\U0001f600"]


@pytest.mark.parametrize("ch", BAD_CHARS)
def test_out_of_range_character_named(ch):
    message = "^" + re.escape(f"byte {ord(ch)} outside graph6 range 63..126") + "$"
    # n = 63: the 4-byte header '~??~', then 326 bytes of bits
    line = write_graph6(Graph.from_edges(63, []))
    # inside the header, and in the bit section of a long and a short line
    for bad in (line[0] + ch + line[2:], line[:100] + ch + line[101:], "D?" + ch + "?"):
        with pytest.raises(Graph6FormatError, match=message):
            parse_graph6(bad)
    # the first bad character is named, whatever follows it
    other = chr(0) if ch == "\u00e9" else "\u00e9"
    with pytest.raises(Graph6FormatError, match=message):
        parse_graph6(line[0] + ch + line[2:100] + other + line[101:])


@pytest.mark.parametrize("line, message", [
    ("", "empty line"),
    ("~", "truncated size header"),
    ("~?", "truncated 4-byte size header"),
    ("~~", "truncated 8-byte size header"),
])
def test_short_line_rejected(line, message):
    with pytest.raises(Graph6FormatError, match=f"^{message}$"):
        parse_graph6(line)


def test_truncated_bits():
    message = r"^truncated bit section: need 1 bytes for n=3, got 0$"
    with pytest.raises(Graph6FormatError, match=message):
        parse_graph6("B")


def test_trailing_garbage():
    with pytest.raises(Graph6FormatError, match=r"^trailing bytes after bit section for n=2$"):
        parse_graph6("A__")


def test_nonzero_padding_strict():
    # n=2 needs one bit; 0b011111 sets only padding bits
    line = "A" + chr(63 + 0b011111)
    with pytest.raises(Graph6FormatError, match=r"^nonzero padding bits$"):
        parse_graph6(line)
    # the last padding bit past a long header: n=63 has 1953 bits, 3 of
    # them padding
    line = write_graph6(Graph.from_edges(63, []))
    with pytest.raises(Graph6FormatError, match=r"^nonzero padding bits$"):
        parse_graph6(line[:-1] + chr(63 + 1))


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


# graph6 bytes, size headers, prefixes and line ends, so that random lines
# reach the parser's branches and not only its byte-range check
G6_PIECES = st.one_of(
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=12),
    st.sampled_from([">>graph6<<", ">>sparse6<<", ">>digraph6<<", ":", "&", "~", "~~", "\r\n"]),
    st.text(max_size=3),
)


@given(st.one_of(st.text(max_size=40), st.lists(G6_PIECES, max_size=4).map("".join)))
@settings(max_examples=500)
def test_parse_arbitrary_text(text):
    # a Graph, or the documented error: never another exception
    try:
        g = parse_graph6(text)
    except Graph6FormatError:
        return
    assert parse_graph6(write_graph6(g)) == g


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


# the certify-export grid of the benchmark, n = 17..201
EXPORT_SPECS = (
    "multipartite:5,4,3,3,2", "cycle:201", "wheel:150", "thick-spider:40",
    "complete-split:30,60", "complete:60", "regular-bipartite:60,7",
    "join-complete:5:cycle:80", "fan:120", "path:150", "thin-spider:40",
    "complete-sun:40", "cycle-sun:50", "wheel-sun:50", "windmill:6,20",
    "join-complete:3:wheel-sun:20",
)


def assert_matches_reference(line, g):
    """`line` and `g` encode each other, in the codec and in the bit-by-bit
    reference alike."""
    assert parse_graph6(line) == parse_graph6_naive(line) == g
    assert write_graph6(g) == write_graph6_naive(g) == line


@pytest.mark.parametrize(
    "name", ["graphs_all_n1-6.g6", "graphs_conn_n1-7.g6", "graphs_conn_n8.g6"]
)
def test_corpus_lines_match_reference_codec(name):
    lines = (DATA / name).read_text().split()
    assert lines
    for line in lines:
        assert_matches_reference(line, parse_graph6_naive(line))


@pytest.mark.parametrize("text", small_specs() + list(EXPORT_SPECS))
def test_family_graphs_match_reference_codec(text):
    g = generate(parse_spec(text))
    assert_matches_reference(write_graph6_naive(g), g)


# n(n - 1)/2 mod 24, the bits left over past whole base64 blocks, runs
# through one full period as n runs through 0..47
@pytest.mark.parametrize("n", range(48))
def test_writer_matches_reference_over_block_remainders(n):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for g in (
        Graph.from_edges(n, []),
        Graph.from_edges(n, pairs[::2]),
        Graph.from_edges(n, pairs),
    ):
        assert write_graph6(g) == write_graph6_naive(g)


# n = 62 / 63 straddle the switch to the 4-byte header
@pytest.mark.parametrize("n", [0, 1, 2, 7, 61, 62, 63, 64, 100])
def test_random_graphs_match_reference_codec_and_networkx(n):
    rng = random.Random(n)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for p in (0.1, 0.5, 0.9):
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < p])
        line = write_graph6_naive(g)
        assert_matches_reference(line, g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(g.edges())
        assert line == nx.to_graph6_bytes(nxg, header=False).decode().strip()
        back = nx.from_graph6_bytes(line.encode())
        assert back.number_of_nodes() == n
        assert sorted(tuple(sorted(e)) for e in back.edges()) == list(g.edges())
