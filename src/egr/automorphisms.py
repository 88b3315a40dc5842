"""Explicit automorphisms of the linearized Wenger graphs.

For each coordinate index i in 0..m+1 and each field element x there is a
map sigma(i, x) acting on points and lines:

  i = 1      points:  p_j += p_1**(p**(j-2)) * x  for j >= 2
             lines:   l_1 += x
  i >= 2     points:  p_i -= x
             lines:   l_i += x
  i = 0      points:  p_1 += x
             lines:   l_j += l_1 * x**(p**(j-2))  for j >= 2

Composing sigma(1, -l_1), ..., sigma(m+1, -l_{m+1}) and then
sigma(0, -p'_1) carries any given edge onto the all-zero edge, which is the
constructive form of edge-transitivity for this family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .adg import (
    RelationSet,
    Side,
    Vertex,
    adjacent,
    edge_iter,
    neighbors,
    vertex_count,
    vertex_from_id,
)
from .census import sample_draws
from .families import Family, FamilySpec, relations
from .finite_field import FieldElement

EXHAUSTIVE_VERTEX_LIMIT = 10_000
SAMPLE_EDGE_COUNT = 512


@dataclass(frozen=True)
class SigmaMap:
    """One translation-type generator sigma(i, x) on the m-index graph."""

    i: int
    x: FieldElement
    m: int

    def __post_init__(self):
        if not 0 <= self.i <= self.m + 1:
            raise ValueError(f"sigma index must lie in [0, {self.m + 1}], got {self.i}")


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    counterexample: tuple[Vertex, Vertex] | None = None
    edges_checked: int = 0

    def __bool__(self):
        return self.ok


@lru_cache(maxsize=8)
def lwenger_relations(m: int, q: int) -> RelationSet:
    """The L_m(q) relation set, built once per (m, q) and then shared."""
    return relations(FamilySpec(Family.LINEARIZED, q, m))


def apply_sigma(sigma: SigmaMap, v: Vertex) -> Vertex:
    """Image of a vertex under sigma(i, x)."""
    m, x = sigma.m, sigma.x
    if len(v.coords) != m + 1:
        raise ValueError(f"vertex has {len(v.coords)} coordinates, expected {m + 1}")
    c = list(v.coords)
    i = sigma.i
    if i >= 2:
        if v.side is Side.POINT:
            c[i - 1] = c[i - 1] - x
        else:
            c[i - 1] = c[i - 1] + x
    elif i == 1:
        if v.side is Side.POINT:
            p1 = c[0]
            for j in range(2, m + 2):
                c[j - 1] = c[j - 1] + p1.frobenius(j - 2) * x
        else:
            c[0] = c[0] + x
    else:
        if v.side is Side.POINT:
            c[0] = c[0] + x
        else:
            l1 = c[0]
            for j in range(2, m + 2):
                c[j - 1] = c[j - 1] + l1 * x.frobenius(j - 2)
    return Vertex(v.side, tuple(c))


def apply_sequence(maps: list[SigmaMap], v: Vertex) -> Vertex:
    for s in maps:
        v = apply_sigma(s, v)
    return v


def check_edges(
    rel: RelationSet, mode: str = "auto", seed: int = 0
) -> list[tuple[Vertex, Vertex]]:
    """The (point, line) edges an automorphism check runs over.

    Every edge when mode is exhaustive, or auto on a graph of at most
    EXHAUSTIVE_VERTEX_LIMIT vertices; otherwise SAMPLE_EDGE_COUNT seeded
    draws, duplicates kept.
    """
    if mode not in ("auto", "exhaustive", "sampled"):
        raise ValueError(f"mode must be auto, exhaustive or sampled, got {mode!r}")
    if mode == "auto":
        mode = "exhaustive" if vertex_count(rel) <= EXHAUSTIVE_VERTEX_LIMIT else "sampled"
    if mode == "exhaustive":
        return list(edge_iter(rel))
    edges = []
    for pid, slot in sample_draws(seed, rel.field.q**rel.d, rel.field.q, SAMPLE_EDGE_COUNT):
        pt = vertex_from_id(pid, rel)
        edges.append((pt, neighbors(pt, rel)[slot]))
    return edges


def verify_automorphism(rel: RelationSet, image, edges) -> VerifyResult:
    """Check that `image` (a SigmaMap or vertex map) keeps every listed
    (point, line) edge an edge."""
    if isinstance(image, SigmaMap):
        sigma = image
        image = lambda v: apply_sigma(sigma, v)
    checked = 0
    for pt, ln in edges:
        checked += 1
        if not adjacent(image(pt), image(ln), rel):
            return VerifyResult(ok=False, counterexample=(pt, ln), edges_checked=checked)
    return VerifyResult(ok=True, edges_checked=checked)


@dataclass(frozen=True)
class LwengerCheck:
    """Outcome of `verify_lwenger`.  On failure, `counterexample` is the
    first edge that broke, and `sigma` the map that broke it, or None when
    `edge_to_base` failed to carry it onto the zero edge."""

    maps_checked: int
    edges_mapped_to_base: int
    counterexample: tuple[Vertex, Vertex] | None = None
    sigma: SigmaMap | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def verify_lwenger(m: int, q: int, mode: str = "auto", seed: int = 0) -> LwengerCheck:
    """Check on one edge set that all (m+2)*q maps sigma(i, x) are
    automorphisms of L_m(q) and that `edge_to_base` carries every edge onto
    the zero edge; stop at the first failure."""
    rel = lwenger_relations(m, q)
    edges = check_edges(rel, mode, seed)
    maps_checked = 0
    for i in range(m + 2):
        for x in rel.field.elements():
            sigma = SigmaMap(i, x, m)
            result = verify_automorphism(rel, sigma, edges)
            maps_checked += 1
            if not result.ok:
                return LwengerCheck(maps_checked, 0, result.counterexample, sigma)
    base = (vertex_from_id(0, rel), vertex_from_id(q**rel.d, rel))
    for mapped, (pt, ln) in enumerate(edges):
        maps = edge_to_base((pt, ln), m, q)
        if (apply_sequence(maps, pt), apply_sequence(maps, ln)) != base:
            return LwengerCheck(maps_checked, mapped, (pt, ln))
    return LwengerCheck(maps_checked, len(edges))


def edge_to_base(edge: tuple[Vertex, Vertex], m: int, q: int) -> list[SigmaMap]:
    """A composite, applied left to right, sending the edge to the zero edge."""
    rel = lwenger_relations(m, q)
    point, line = edge
    if point.side is Side.LINE:
        point, line = line, point
    if not adjacent(point, line, rel):
        raise ValueError("the given vertex pair is not an edge")
    maps = [SigmaMap(i, -line.coords[i - 1], m) for i in range(1, m + 2)]
    moved_point = apply_sequence(maps, point)
    maps.append(SigmaMap(0, -moved_point.coords[0], m))
    return maps
