"""Bit-exact reader/writer for the graph6 text format.

graph6 encodes an undirected graph as printable ASCII: a size header N(n)
followed by the upper triangle of the adjacency matrix read column by column
((0,1), (0,2), (1,2), (0,3), ...), packed 6 bits per byte MSB-first, each
byte offset by 63. Headers: one byte 63+n for n <= 62; byte 126 plus three
6-bit bytes for n <= 258047; two bytes 126 plus six 6-bit bytes for larger n
(up to 2^36 - 1). Only graph6 is handled here; sparse6 and digraph6 lines are
rejected with a format error.

Both directions hold the bits as a '0'/'1' string. The parser builds it
with one join over a table of each byte's six bits, then visits only the set
bits. The writer builds it column by column with bin() and packs it six bits
per byte MSB-first, as base64 does (RFC 4648): binascii encodes the bits,
and one translate maps the base64 alphabet to the graph6 bytes 63..126.
"""

from __future__ import annotations

import binascii

from .graph import Graph

HEADER_PREFIX = ">>graph6<<"

# largest n with a 4-byte size header: the writer's limit, and the largest
# vertex count the command line accepts from an edge list
WRITER_MAX_N = 258047

_MIN_BYTE = 63
_MAX_BYTE = 126

# the six bits of each byte 63..126, MSB first; None for every other byte
_SEXTET = [None] * _MIN_BYTE + [format(v, "06b") for v in range(64)] + [None] * (255 - _MAX_BYTE)

# base64 digit v -> graph6 byte 63 + v
_FROM_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(_MIN_BYTE, _MAX_BYTE + 1)),
)


class Graph6FormatError(ValueError):
    """Raised for lines that are not valid graph6."""


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line (an optional '>>graph6<<' prefix is tolerated).
    Nonzero padding bits are a format error."""
    data = line.rstrip("\r\n")
    if data.startswith(HEADER_PREFIX):
        data = data[len(HEADER_PREFIX):]
    if data.startswith(":") or data.startswith(">>sparse6<<"):
        raise Graph6FormatError("sparse6 input is not supported")
    if data.startswith("&") or data.startswith(">>digraph6<<"):
        raise Graph6FormatError("digraph6 input is not supported")
    if not data:
        raise Graph6FormatError("empty line")
    # a character outside 63..126 fails the ASCII encoding or hits a None
    # in the table; the error names the first one
    try:
        raw = data.encode("ascii")
        bits = "".join(map(_SEXTET.__getitem__, raw))
    except (UnicodeEncodeError, TypeError):
        b = next(b for b in map(ord, data) if not _MIN_BYTE <= b <= _MAX_BYTE)
        raise Graph6FormatError(f"byte {b!r} outside graph6 range 63..126") from None

    n, pos = _decode_size([b - _MIN_BYTE for b in raw[:8]])
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - pos < nbytes:
        raise Graph6FormatError(
            f"truncated bit section: need {nbytes} bytes for n={n}, got {len(raw) - pos}"
        )
    if len(raw) - pos > nbytes:
        raise Graph6FormatError(f"trailing bytes after bit section for n={n}")

    bits = bits[6 * pos:]
    if "1" in bits[nbits:]:
        raise Graph6FormatError("nonzero padding bits")
    # before each set bit, `start` steps over whole columns (column j holds
    # the (i, j), i < j). The graph is built directly, as every index is in
    # range and distinct; each neighbor list comes out sorted
    masks = [0] * n
    neighbors: list[list[int]] = [[] for _ in range(n)]
    m = 0
    j = start = 0
    k = bits.find("1")
    while k >= 0:
        while k >= start + j:
            start += j
            j += 1
        i = k - start
        masks[i] |= 1 << j
        masks[j] |= 1 << i
        neighbors[i].append(j)
        neighbors[j].append(i)
        m += 1
        k = bits.find("1", k + 1)
    return Graph(n, tuple(map(tuple, neighbors)), tuple(masks), m)


def _decode_size(values: list[int]) -> tuple[int, int]:
    if values[0] < 63:
        return values[0], 1
    # values[0] == 63 marks a long header
    if len(values) < 2:
        raise Graph6FormatError("truncated size header")
    if values[1] < 63:
        if len(values) < 4:
            raise Graph6FormatError("truncated 4-byte size header")
        n = (values[1] << 12) | (values[2] << 6) | values[3]
        return n, 4
    if len(values) < 8:
        raise Graph6FormatError("truncated 8-byte size header")
    n = 0
    for v in values[2:8]:
        n = (n << 6) | v
    return n, 8


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; inverse of parse_graph6 on valid input."""
    n = g.n
    if n <= 62:
        header = chr(_MIN_BYTE + n)
    elif n <= WRITER_MAX_N:
        header = chr(_MAX_BYTE) + "".join(
            chr(_MIN_BYTE + (n >> shift & 0x3F)) for shift in (12, 6, 0)
        )
    else:
        raise ValueError(f"writer supports n <= {WRITER_MAX_N}, got {n}")
    # column j is bits 0..j-1 of masks[j] read upward; a guard bit j keeps
    # their leading zeros. Padded to whole 24-bit base64 blocks, the bits
    # encode without '=' and the extra bytes are cut off
    bits = "".join([bin(mask & ~(-1 << j) | 1 << j)[:2:-1] for j, mask in enumerate(g.masks)])
    nbytes = (len(bits) + 5) // 6
    bits += "0" * (-len(bits) % 24)
    packed = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return header + binascii.b2a_base64(packed, newline=False)[:nbytes].translate(
        _FROM_BASE64
    ).decode("ascii")
