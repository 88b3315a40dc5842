"""graph6 encoding of small simple undirected graphs."""

from __future__ import annotations

from typing import Iterable

# the bit buffer holds one byte per vertex pair: 134 MB at this limit
GRAPH6_VERTEX_LIMIT = 1 << 14


def _size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    return bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])


def encode_graph6(n: int, edges: Iterable[tuple[int, int]]) -> str:
    """graph6 string for the graph on vertices 0..n-1 with the given edges.

    Bits cover the upper triangle column by column: (0,1), (0,2), (1,2),
    (0,3), ...; each 6-bit group maps to one printable byte offset by 63.
    n must lie in 0..GRAPH6_VERTEX_LIMIT, checked before any allocation.
    """
    if not 0 <= n <= GRAPH6_VERTEX_LIMIT:
        raise ValueError(f"graph6 export takes 0 to {GRAPH6_VERTEX_LIMIT} vertices, got {n}")
    nbits = n * (n - 1) // 2
    bits = bytearray(nbits)
    for u, v in edges:
        if u == v:
            raise ValueError("graph6 does not allow self-loops")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        i, j = (u, v) if u < v else (v, u)
        bits[j * (j - 1) // 2 + i] = 1
    out = bytearray(_size_bytes(n))
    for k in range(0, nbits, 6):
        group = 0
        for b in bits[k : k + 6]:
            group = (group << 1) | b
        group <<= max(0, 6 - (nbits - k))
        out.append(63 + group)
    return out.decode("ascii")
