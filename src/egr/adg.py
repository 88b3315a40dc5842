"""Bipartite graphs cut out by triangular systems of coordinate relations.

Vertices are two copies of F_q^d, points and lines.  A point (p_1,...,p_d)
and a line [l_1,...,l_d] are adjacent when p_i + l_i =
f_i(p_1, l_1, ..., p_{i-1}, l_{i-1}) holds for every i in 2..d.  Each
relation determines one coordinate from earlier ones, so fixing a vertex
and the first coordinate of an opposite-side vertex pins down a unique
neighbour: the graph is q-regular and can be walked without ever
materializing adjacency.

Vertices carry a canonical integer id: side bit times q**d plus the
base-q encoding of the coordinate indices, first coordinate least
significant.  Points occupy [0, q**d), lines [q**d, 2*q**d).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .finite_field import Field, FieldElement
from .graph6 import encode_graph6

ADJACENCY_CACHE_LIMIT = 1 << 20


class Side(Enum):
    POINT = 0
    LINE = 1


@dataclass(frozen=True)
class Vertex:
    side: Side
    coords: tuple[FieldElement, ...]

    def __repr__(self):
        inner = ",".join(repr(c) for c in self.coords)
        return f"({inner})" if self.side is Side.POINT else f"[{inner}]"


@dataclass(frozen=True)
class RelationSet:
    """The defining system: relations[j] is f_i for i = j + 2.

    Each f takes (p_prefix, l_prefix), the first i-1 coordinates of either
    side, so a relation can never look at coordinates it is supposed to
    determine.
    """

    field: Field
    d: int
    relations: tuple[Callable[..., FieldElement], ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("coordinate dimension must be >= 1")
        if len(self.relations) != self.d - 1:
            raise ValueError(f"expected {self.d - 1} relations, got {len(self.relations)}")


def _check_vertex(v: Vertex, rel: RelationSet, side: Side | None = None) -> None:
    if len(v.coords) != rel.d:
        raise ValueError(f"vertex has {len(v.coords)} coordinates, expected {rel.d}")
    if side is not None and v.side is not side:
        raise ValueError(f"expected a {side.name.lower()} vertex")


def adjacent(point: Vertex, line: Vertex, rel: RelationSet) -> bool:
    """Whether the point and line satisfy every defining relation."""
    _check_vertex(point, rel, Side.POINT)
    _check_vertex(line, rel, Side.LINE)
    p, l = point.coords, line.coords
    for j, f in enumerate(rel.relations):
        if p[j + 1] + l[j + 1] != f(p[: j + 1], l[: j + 1]):
            return False
    return True


def neighbors(v: Vertex, rel: RelationSet) -> list[Vertex]:
    """The q neighbours of v, ordered by the first coordinate's index."""
    _check_vertex(v, rel)
    from_point = v.side is Side.POINT
    known = v.coords
    out = []
    for x in rel.field.elements():
        solved = [x]
        for j, f in enumerate(rel.relations):
            if from_point:
                rhs = f(known[: j + 1], tuple(solved))
            else:
                rhs = f(tuple(solved), known[: j + 1])
            solved.append(rhs - known[j + 1])
        out.append(Vertex(Side.LINE if from_point else Side.POINT, tuple(solved)))
    return out


def vertex_count(rel: RelationSet) -> int:
    return 2 * rel.field.q**rel.d


def edge_count(rel: RelationSet) -> int:
    return rel.field.q ** (rel.d + 1)


def vertex_id(v: Vertex, rel: RelationSet) -> int:
    _check_vertex(v, rel)
    q = rel.field.q
    n = 0
    for c in reversed(v.coords):
        n = n * q + c.index
    return v.side.value * q**rel.d + n


def vertex_from_id(vid: int, rel: RelationSet) -> Vertex:
    q, d = rel.field.q, rel.d
    half = q**d
    if not 0 <= vid < 2 * half:
        raise ValueError(f"vertex id {vid} out of range [0, {2 * half})")
    side = Side.POINT if vid < half else Side.LINE
    n = vid % half
    coords = []
    for _ in range(d):
        coords.append(rel.field.from_index(n % q))
        n //= q
    return Vertex(side, tuple(coords))


def edge_iter(rel: RelationSet) -> Iterator[tuple[Vertex, Vertex]]:
    """Every edge exactly once, as (point, line), points in id order."""
    for pid in range(rel.field.q**rel.d):
        pt = vertex_from_id(pid, rel)
        for nb in neighbors(pt, rel):
            yield pt, nb


def point_rows(rel: RelationSet) -> Iterator[tuple[int, ...]]:
    """Each point's line ids in neighbour order, points in id order.

    This is where relations become ids: the adjacency build and both
    exports read it.  It solves the relations as `neighbors` does, but
    reads each line id straight off the solved coordinates' indices.
    """
    q, d = rel.field.q, rel.d
    half = q**d
    elems = list(rel.field.elements())
    steps = [(j, f, q ** (j + 1)) for j, f in enumerate(rel.relations)]
    for pid in range(half):
        known = tuple(elems[pid // q**i % q] for i in range(d))
        prefixes = [known[: j + 1] for j in range(d - 1)]
        row = []
        for x in elems:
            solved = (x,)
            lid = half + x.index
            for j, f, weight in steps:
                c = f(prefixes[j], solved) - known[j + 1]
                solved += (c,)
                lid += c.index * weight
            row.append(lid)
        yield tuple(row)


def build_adjacency(rel: RelationSet) -> list[tuple[int, ...]]:
    """Materialized adjacency by canonical id; point rows in neighbour order."""
    q, d = rel.field.q, rel.d
    half = q**d
    if half > ADJACENCY_CACHE_LIMIT:
        raise ValueError(
            f"adjacency cache limited to {ADJACENCY_CACHE_LIMIT} points per side; "
            f"this graph has {half} ({q}**{d})"
        )
    line_rows: list[list[int]] = [[] for _ in range(half)]
    adj: list[tuple[int, ...]] = [()] * (2 * half)
    for pid, row in enumerate(point_rows(rel)):
        adj[pid] = row
        for lid in row:
            line_rows[lid - half].append(pid)
    for i, row in enumerate(line_rows):
        adj[half + i] = tuple(row)
    return adj


def edge_list_lines(rel: RelationSet) -> list[str]:
    """Sorted text export, one edge per line: 'P<point id> L<line id>'."""
    return [f"P{pid} L{lid}" for pid, row in enumerate(point_rows(rel)) for lid in sorted(row)]


def to_graph6(rel: RelationSet) -> str:
    """graph6 export on 2*q**d vertices, points first then lines, in id order."""
    edges = ((pid, lid) for pid, row in enumerate(point_rows(rel)) for lid in row)
    return encode_graph6(vertex_count(rel), edges)
