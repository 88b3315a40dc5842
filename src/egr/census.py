"""Exact girth measurement and girth-cycle census.

Girth is measured, never assumed: the census never relies on
vertex-transitivity or on a family's closed-form girth.  A 2-colouring pass
first checks that the graph is bipartite.  Every cycle alternates sides, so
it passes through a point, and a level-by-level BFS runs from each point
root r in turn.  A vertex that a level's expansion reaches a second time
closes two tree paths into a closed walk, which contains a cycle no longer
than that walk; so the running minimum never drops below the girth.  Two
prunes keep it exact (after Itai and Rodeh, "Finding a minimum circuit in
a graph", SIAM J. Comput. 1978, who run the BFS from every vertex):

- Root pruning.  Root r's BFS skips the roots below r.  A shortest cycle
  C whose smallest root is r avoids them, and every vertex of C is within
  g/2 steps of r along C.  If r's BFS reached no vertex of depth at most
  g/2 twice, every edge among those vertices would be a tree edge and C
  could not exist; so r's BFS finds a length of at most g.
- One level less.  No edge joins two vertices of the same depth in a
  bipartite graph, and an edge from depth d back to a second vertex of
  depth d - 1 was already seen when depth d - 1 was expanded.  So expanding
  depth d can only find the length 2d + 2, and depth d is expanded only
  while 2d + 2 is below the best length so far.  Once some root has found
  g, no later root expands the widest level, depth g/2 - 1.

Per-edge girth-cycle counts meet in the middle (Alon, Yuster and Zwick,
"Finding and counting given length cycles", Algorithmica 1997).  Let g be
the measured girth and k = g/2 - 1.  Mark the endpoints of the
non-backtracking walks of k edges from w that do not start through u, walk
the same way from u without starting through w, and count the edges from a
u-leaf to a marked w-leaf.  Two different walks of this kind that end at
the same vertex, joined through uw when they start at different ends,
would contain a cycle of at most 2k + 1 < g edges.  So the ball of radius
k around uw is a tree: the walks' endpoints are distinct and the two sides
share no vertex.  Each leaf-to-leaf edge therefore closes exactly one
cycle of 2k + 2 = g edges through uw, and each g-cycle through uw splits
at its edge opposite uw into exactly one such pair, so no visited table is
needed.  The cost is about q(q-1)**k steps per edge, against (q-1)**(g-2)
for a depth-first walk of the g-1 edge paths from u to w.

That depth-first walk, `count_simple_paths`, stays as the test oracle and
for cycle lengths other than the girth, where the ball need not be a tree.

Exhaustive runs count one edge per orbit of the shift tau_x, the one
symmetry the census uses.  For x in F_q, tau_x sends a point
(..., p_d) to (..., p_d - x) and a line [..., l_d] to [..., l_d + x],
fixing every other coordinate.  It is an automorphism of every
`RelationSet` graph: relation i < d tests p_i + l_i against a function of
the first i - 1 coordinates of each side, none of which tau_x moves, and
relation d reads p_d + l_d, which tau_x keeps.  (For d = 1 there are no
relations and the graph is K_{q,q}.)  So the girth-cycle count is the same
on the q edges of an orbit, and each orbit holds exactly one edge whose
point has p_d = 0.  Coordinate d is the most significant digit of a point
id, so those points are the ids below n_points / q, and their q**d edges
come first in point-id order.  The census counts these edges alone and
checks that the counts agree; if they do, every edge's count is that
value.  If they do not, the first edge in point-id order whose count
differs is one of them (its orbit's p_d = 0 edge has the same count and an
earlier point), so the witnesses are those a count of every edge would
name.  The non-backtracking-walk oracle in the tests counts every edge of
the full graph and shares none of this.

The counts fan over a fork pool of at most one process per core and merge
by edge index, so output is identical for any worker count or scheduling,
and where fork is unavailable the same counts run serially.  Handshake:
the per-edge counts of an exhaustive run sum to g times the number of
girth cycles, which `count_cycles_total` reads off the certificate.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field as dataclass_field

from . import adg
from .adg import RelationSet, Side, Vertex
from .families import FamilySpec, relations
from .finite_field import Field

_NO_CYCLE = 1 << 30

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator; draws use the top 31 bits."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK64

    def next_raw(self) -> int:
        self.state = (self.state * LCG_MULTIPLIER + LCG_INCREMENT) & _MASK64
        return self.state

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return (self.next_raw() >> 33) % n


def sample_draws(seed: int, n_points: int, q: int, count: int) -> list[tuple[int, int]]:
    """The seeded edge sample: `count` draws of (point id, neighbour slot),
    duplicates kept.  Slot s names the point's s-th neighbour in canonical
    order, so every command that samples the same graph draws the same edges."""
    rng = Lcg(seed)
    return [(rng.below(n_points), rng.below(q)) for _ in range(count)]


# -- census modes ------------------------------------------------------------

@dataclass(frozen=True)
class BaseEdgeOnly:
    def describe(self) -> str:
        return "base-edge-only"


SAMPLE_COUNT_LIMIT = 10**6


def _require_sample_count(count: int) -> None:
    """Every draw is built before the census drops repeats, at about 1 s
    and 85 MB per 10**6 draws, so the count is capped."""
    if not 1 <= count <= SAMPLE_COUNT_LIMIT:
        raise ValueError(
            f"sample count must be between 1 and {SAMPLE_COUNT_LIMIT}, got {count}"
        )


@dataclass(frozen=True)
class Sampled:
    seed: int = 0
    count: int = 256

    def __post_init__(self):
        _require_sample_count(self.count)

    def describe(self) -> str:
        return f"sampled:seed={self.seed},count={self.count}"


@dataclass(frozen=True)
class Exhaustive:
    def describe(self) -> str:
        return "exhaustive"


AUTO_BUDGET = 10**9


@dataclass(frozen=True)
class Auto:
    """Exhaustive when the census fits AUTO_BUDGET steps, else a sample of
    `count` draws; certify resolves it once it has measured the girth.

    The exhaustive census counts the edges/q shift-orbit representatives
    (see the module docstring) at q*(q-1)**(g/2-1) steps each, so it takes
    edges*(q-1)**(g/2-1) steps.  Serial counting ran at 7 to 13 * 10**6
    steps per second on a 2-core x86-64 host under CPython 3.11.7
    (lie:M3,q=5 to lwenger:m=2,q=9), so AUTO_BUDGET buys about 1.3 to 2.4
    minutes of one core on such graphs.  The rate falls on large graphs:
    lie:M3,q=7 (235298 vertices) counted at about 4 * 10**6 steps per
    second per core, so a census at the budget there takes about 4 minutes
    of one core.
    """

    seed: int = 0
    count: int = 256

    def __post_init__(self):
        _require_sample_count(self.count)

    def resolve(self, edges: int, q: int, g: int) -> "CensusMode":
        if edges * (q - 1) ** (g // 2 - 1) <= AUTO_BUDGET:
            return Exhaustive()
        return Sampled(seed=self.seed, count=self.count)


CensusMode = BaseEdgeOnly | Sampled | Exhaustive | Auto


class NonUniformCountsError(Exception):
    """Two edges of the same graph lie on different numbers of girth cycles.

    This falsifies edge-girth-regularity for the graph at hand; the two
    offending edges are kept as (point_id, line_id, count) witnesses, with
    the girth g whose cycles were counted.
    """

    def __init__(self, witness_a, witness_b, g: int):
        self.witness_a = witness_a
        self.witness_b = witness_b
        self.g = g
        super().__init__(
            f"per-edge girth-cycle counts differ at girth g = {g}: edge {witness_a[:2]} lies on "
            f"{witness_a[2]} cycles, edge {witness_b[:2]} on {witness_b[2]}"
        )


@dataclass
class EgrCertificate:
    """Measured regularity data: order, degree, girth, per-edge cycle count,
    and the field the graph was built over."""

    family: str
    q: int
    index: int | None
    field: Field = dataclass_field(repr=False)
    v: int
    k: int
    g: int
    lam: int
    mode: str
    total_girth_cycles: int
    per_edge_counts: dict[tuple[int, int], int] = dataclass_field(repr=False, default=None)

    def parameters(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.g, self.lam)

    @property
    def edges_counted(self) -> int:
        """Distinct edges certified: the keys of per_edge_counts (a sample's
        draws may repeat an edge).  An exhaustive census certifies all
        q**(d+1) edges but counts only the q**d of its shift-orbit
        representatives (see the module docstring)."""
        return len(self.per_edge_counts)


def certificate_to_json(cert: EgrCertificate, elapsed_ms: float, workers: int) -> dict:
    return {
        "family": cert.family,
        "q": cert.q,
        "index": cert.index,
        "field": cert.field.to_json(),
        "v": cert.v,
        "k": cert.k,
        "g": cert.g,
        "lambda": cert.lam,
        "mode": cert.mode,
        "edges_counted": cert.edges_counted,
        "total_girth_cycles": cert.total_girth_cycles,
        "elapsed_ms": elapsed_ms,
        "workers": workers,
    }


# -- graph context -----------------------------------------------------------

@dataclass
class GraphContext:
    """A graph instance with its field, relations and adjacency cache."""

    field: Field
    rel: RelationSet
    adj: list[tuple[int, ...]]

    @classmethod
    def build(cls, spec: FamilySpec) -> "GraphContext":
        return cls.from_relations(relations(spec))

    @classmethod
    def from_relations(cls, rel: RelationSet) -> "GraphContext":
        return cls(field=rel.field, rel=rel, adj=adg.build_adjacency(rel))

    @property
    def n_points(self) -> int:
        return len(self.adj) // 2

    @property
    def n_vertices(self) -> int:
        return len(self.adj)


# -- girth -------------------------------------------------------------------

def girth_of_adjacency(adj, n_points: int) -> int:
    """Shortest cycle length, or 2**30 if the graph has no cycle.

    The graph must be bipartite (checked: ValueError naming an odd cycle
    otherwise), and every cycle must pass through a root 0..n_points-1,
    as it does when each edge joins a point to a line.  Root r's BFS
    skips the roots below r and expands depth d only while 2d + 2 < the
    best length so far; the module docstring states why both prunes keep
    the result exact.
    """
    _require_bipartite(adj)
    best = _NO_CYCLE
    # root r's BFS marks a vertex at depth d with (r + 1) * span + d, so a
    # mark below the current base means unseen; finished roots stay removed
    span = len(adj) + 2
    removed = (n_points + 1) * span
    mark = [0] * len(adj)
    for root in range(n_points):
        if best == 4:
            break
        best = _shortest_cycle_from(adj, mark, root, (root + 1) * span, best)
        mark[root] = removed
    return best


def _shortest_cycle_from(adj, mark, root: int, base: int, best: int) -> int:
    """2d + 2 for the first depth d whose expansion reaches a vertex a
    second time, if that is below best; else best."""
    mark[root] = base
    frontier = [root]
    depth = 0
    while frontier and 2 * depth + 2 < best:
        seen_next = base + depth + 1
        nxt = []
        for x in frontier:
            for y in adj[x]:
                m = mark[y]
                if m < base:
                    mark[y] = seen_next
                    nxt.append(y)
                elif m == seen_next:
                    return 2 * depth + 2
        frontier = nxt
        depth += 1
    return best


def _require_bipartite(adj) -> None:
    """Raise ValueError naming an odd cycle unless the graph 2-colours."""
    colour = [-1] * len(adj)
    parent = [-1] * len(adj)
    for start in range(len(adj)):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = [start]
        for x in queue:  # the queue grows as the loop walks it
            cx = colour[x]
            for y in adj[x]:
                if colour[y] < 0:
                    colour[y] = 1 - cx
                    parent[y] = x
                    queue.append(y)
                elif colour[y] == cx:
                    raise ValueError(
                        f"graph is not bipartite: odd cycle {_tree_cycle(parent, x, y)}"
                    )


def _tree_cycle(parent, x: int, y: int) -> list[int]:
    """The cycle closed by edge xy through the BFS tree given by parent."""
    up_x = [x]
    while parent[up_x[-1]] >= 0:
        up_x.append(parent[up_x[-1]])
    on_x = set(up_x)
    up_y = [y]
    while up_y[-1] not in on_x:
        up_y.append(parent[up_y[-1]])
    meet = up_x.index(up_y[-1])
    return up_x[: meet + 1] + up_y[-2::-1]


def girth(spec: FamilySpec) -> int:
    """Exact girth of the family instance."""
    return girth_of_context(GraphContext.build(spec))


def girth_of_context(ctx: GraphContext) -> int:
    g = girth_of_adjacency(ctx.adj, ctx.n_points)
    if g >= _NO_CYCLE:
        raise ValueError("graph is acyclic; no girth")
    return g


# -- per-edge path counting ---------------------------------------------------

def count_simple_paths(adj, u: int, w: int, length: int) -> int:
    """Simple paths from u to w with `length` edges, interior avoiding u, w.

    Depth-first over the adjacency cache with an on-path visited table; the
    two deepest levels are flattened into plain loops since they dominate
    the running time.
    """
    n = len(adj)
    target = bytearray(n)
    for y in adj[w]:
        target[y] = 1
    if length == 1:
        return 1 if target[u] else 0
    visited = bytearray(n)
    visited[u] = 1
    visited[w] = 1

    def rec(x: int, remaining: int) -> int:
        c = 0
        if remaining == 2:
            for y in adj[x]:
                if target[y] and not visited[y]:
                    c += 1
            return c
        if remaining == 3:
            # z != y needs no check: consecutive vertices alternate sides
            for y in adj[x]:
                if not visited[y]:
                    for z in adj[y]:
                        if target[z] and not visited[z]:
                            c += 1
            return c
        rem = remaining - 1
        for y in adj[x]:
            if not visited[y]:
                visited[y] = 1
                c += rec(y, rem)
                visited[y] = 0
        return c

    return rec(u, length)


class GirthCycleCounter:
    """Girth cycles through edges of one graph, met in the middle.

    g must be the graph's girth (see the module docstring).  One mark list
    serves every edge: each count takes a fresh stamp, so nothing is reset.
    """

    def __init__(self, adj, g: int):
        self.adj = adj
        self.depth = g // 2 - 1
        self.mark = [0] * len(adj)
        self.stamp = 0

    def _leaves(self, root: int, avoid: int) -> list[tuple[int, int]]:
        """(endpoint, previous vertex) of each non-backtracking walk of
        `depth` edges from root whose first step avoids `avoid`."""
        adj = self.adj
        frontier = [(root, avoid)]
        for _ in range(self.depth):
            frontier = [(z, y) for y, p in frontier for z in adj[y] if z != p]
        return frontier

    def __call__(self, u: int, w: int) -> int:
        self.stamp += 1
        stamp, mark, adj = self.stamp, self.mark, self.adj
        for a, _ in self._leaves(w, u):
            mark[a] = stamp
        c = 0
        for b, _ in self._leaves(u, w):
            for a in adj[b]:
                if mark[a] == stamp:
                    c += 1
        return c


def count_cycles_through_edge(
    spec: FamilySpec, edge: tuple[Vertex, Vertex], length: int
) -> int:
    """Exact number of cycles of the given even length containing the edge."""
    if length % 2 or length < 4:
        raise ValueError(f"cycle length must be an even integer >= 4, got {length}")
    ctx = GraphContext.build(spec)
    a, b = edge
    if a.side is Side.LINE:
        a, b = b, a
    if not adg.adjacent(a, b, ctx.rel):
        raise ValueError("the given vertex pair is not an edge")
    u = adg.vertex_id(a, ctx.rel)
    w = adg.vertex_id(b, ctx.rel)
    return count_simple_paths(ctx.adj, u, w, length - 1)


# -- parallel per-edge census --------------------------------------------------

_WORKER_STATE: GirthCycleCounter | None = None


def _worker_init(adj, g):
    global _WORKER_STATE
    _WORKER_STATE = GirthCycleCounter(adj, g)


def _worker_count(edge):
    return _WORKER_STATE(*edge)


def _count_edges(ctx: GraphContext, edges: list[tuple[int, int]], g: int, workers: int):
    """Girth cycles through each listed edge; order-stable and parallel-safe.

    The pool starts min(workers, cores, chunks) processes and hands each
    about four chunks; where fork is unavailable the count runs serially.
    """
    processes = min(workers, default_workers())
    if processes > 1 and len(edges) >= 4:
        try:
            mp = multiprocessing.get_context("fork")
        except ValueError:
            mp = None
        if mp is not None:
            chunksize = math.ceil(len(edges) / (4 * processes))
            processes = min(processes, math.ceil(len(edges) / chunksize))
            with mp.Pool(processes, initializer=_worker_init, initargs=(ctx.adj, g)) as pool:
                return pool.map(_worker_count, edges, chunksize=chunksize)
    counter = GirthCycleCounter(ctx.adj, g)
    return [counter(u, w) for u, w in edges]


def default_workers() -> int:
    return os.cpu_count() or 1


# -- certification -------------------------------------------------------------

def _base_edge_ids(ctx: GraphContext) -> tuple[int, int]:
    base_line = ctx.n_points  # all-zero line
    if base_line not in ctx.adj[0]:
        raise ValueError("the all-zero point and line are not adjacent in this graph")
    return 0, base_line


def _sample_edges(ctx: GraphContext, seed: int, count: int) -> list[tuple[int, int]]:
    """The distinct edges among the seeded draws, in first-drawn order."""
    draws = sample_draws(seed, ctx.n_points, ctx.field.q, count)
    return list(dict.fromkeys((pid, ctx.adj[pid][slot]) for pid, slot in draws))


def _check_uniform(edges, counts, g: int):
    first = counts[0]
    for e, c in zip(edges, counts):
        if c != first:
            raise NonUniformCountsError(
                (edges[0][0], edges[0][1], first), (e[0], e[1], c), g
            )


def certify(
    spec: FamilySpec,
    mode: CensusMode = Exhaustive(),
    *,
    workers: int | None = None,
) -> EgrCertificate:
    """Measure (v, k, g, lambda) for the family instance.

    Exhaustive mode counts through one edge per shift orbit and insists the
    counts agree, which certifies every edge (see the module docstring);
    Sampled counts the edges of a seeded pseudo-random set and insists they
    agree; BaseEdgeOnly counts through the all-zero edge alone, which
    certifies lambda only for graphs already known to be edge-transitive.
    Auto becomes Exhaustive or Sampled once the girth is measured.
    """
    return _certify_context(
        GraphContext.build(spec),
        mode,
        workers,
        family=spec.family.value,
        index=spec.index,
    )


def certify_relations(
    rel: RelationSet,
    mode: CensusMode = Exhaustive(),
    *,
    workers: int | None = None,
    family: str = "custom",
) -> EgrCertificate:
    """certify() for an arbitrary relation set, named families or not."""
    return _certify_context(
        GraphContext.from_relations(rel), mode, workers, family=family, index=None
    )


def _certify_context(
    ctx: GraphContext,
    mode: CensusMode,
    workers: int | None,
    *,
    family: str,
    index: int | None,
) -> EgrCertificate:
    if workers is None:
        workers = default_workers()
    g = girth_of_context(ctx)
    v = ctx.n_vertices
    k = ctx.field.q

    if isinstance(mode, Auto):
        mode = mode.resolve(ctx.n_points * k, k, g)
    if isinstance(mode, BaseEdgeOnly):
        edges = [_base_edge_ids(ctx)]
    elif isinstance(mode, Sampled):
        edges = _sample_edges(ctx, mode.seed, mode.count)
    elif isinstance(mode, Exhaustive):
        # the points with p_d = 0: one edge of every shift orbit
        edges = [(pid, lid) for pid in range(ctx.n_points // k) for lid in ctx.adj[pid]]
    else:
        raise TypeError(f"unknown census mode {mode!r}")

    counts = _count_edges(ctx, edges, g, workers)
    if not isinstance(mode, BaseEdgeOnly):
        _check_uniform(edges, counts, g)
    lam = counts[0]
    if lam < 1:
        raise ValueError("counted edge lies on no girth cycle; the graph is not edge-girth-regular")

    numerator = v * k * lam
    if numerator % (2 * g):
        raise ValueError(
            f"v*k*lambda = {numerator} is not divisible by 2g = {2 * g}; census is inconsistent"
        )
    total = numerator // (2 * g)
    if isinstance(mode, Exhaustive):
        # the counts agree, and every edge shares its orbit's count
        edges = [(pid, lid) for pid in range(ctx.n_points) for lid in ctx.adj[pid]]
        counts = [lam] * len(edges)
        edge_sum = sum(counts)
        if edge_sum != g * total:
            raise ValueError(
                f"handshake failure: per-edge counts sum to {edge_sum}, expected {g * total}"
            )
    return EgrCertificate(
        family=family,
        q=k,
        index=index,
        field=ctx.field,
        v=v,
        k=k,
        g=g,
        lam=lam,
        mode=mode.describe(),
        total_girth_cycles=total,
        per_edge_counts=dict(zip(edges, counts)),
    )


def count_cycles_total(spec: FamilySpec, *, workers: int | None = None) -> int:
    """Total girth cycles of an edge-girth-regular instance, from the
    exhaustive certificate, whose per-edge counts cover all q**(d+1) edges
    (q**d of them counted, the rest their shift orbits' counts) and pass
    the handshake check."""
    return certify(spec, Exhaustive(), workers=workers).total_girth_cycles
