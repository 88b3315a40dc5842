"""graph6 encoding of small simple undirected graphs."""

from __future__ import annotations

import base64
from typing import Iterable

# the bit buffer holds one bit per vertex pair: about 16.8 MB at this limit
GRAPH6_VERTEX_LIMIT = 1 << 14

# base64 symbol of each six-bit value -> the graph6 byte 63 + value
_B64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    bytes(range(63, 127)),
)


def _size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])


def encode_graph6(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """graph6 string for the graph on vertices 0..n-1 with the given edges.

    Bits cover the upper triangle column by column: (0,1), (0,2), (1,2),
    (0,3), ...; pair (i, j) with i < j is bit k = j*(j-1)/2 + i.  The buffer
    holds them packed, MSB first, zero-padded to whole 3-byte blocks; base64
    splits each block into four 6-bit groups, and one translate table maps
    each group to the printable byte 63 + group.
    n must lie in 0..GRAPH6_VERTEX_LIMIT, checked before any allocation.
    """
    if not 0 <= n <= GRAPH6_VERTEX_LIMIT:
        raise ValueError(f"graph6 export takes 0 to {GRAPH6_VERTEX_LIMIT} vertices, got {n}")
    groups = -(-(n * (n - 1) // 2) // 6)
    bits = bytearray(-(-groups // 4) * 3)
    for u, v in edges:
        if u == v:
            raise ValueError("graph6 does not allow self-loops")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        i, j = (u, v) if u < v else (v, u)
        k = j * (j - 1) // 2 + i
        bits[k >> 3] |= 128 >> (k & 7)
    body = base64.b64encode(bits).translate(_B64_TO_GRAPH6)[:groups]
    return (_size_bytes(n) + body).decode("ascii")
