"""Checks of the census primitives against hand-built graphs and third-party
enumeration, independent of the algebraic construction machinery."""

import networkx as nx
import pytest

from egr import adg, census
from egr.adg import Side, Vertex
from egr.census import (
    BaseEdgeOnly,
    Exhaustive,
    Sampled,
    certify,
    count_simple_paths,
    girth_of_adjacency,
)
from egr.families import Family, FamilySpec, relations


def cycle_adj(n):
    return [((i - 1) % n, (i + 1) % n) for i in range(n)]


def test_girth_of_plain_cycles():
    assert girth_of_adjacency(cycle_adj(8), 8) == 8
    assert girth_of_adjacency(cycle_adj(6), 6) == 6
    # two disjoint cycles: the shorter one wins
    adj = [tuple(x) for x in cycle_adj(10)] + [
        tuple(10 + v for v in e) for e in cycle_adj(6)
    ]
    assert girth_of_adjacency(adj, 16) == 6


def test_girth_of_complete_bipartite():
    # K_{3,3} with points 0..2 and lines 3..5
    adj = [(3, 4, 5)] * 3 + [(0, 1, 2)] * 3
    assert girth_of_adjacency(adj, 3) == 4


def test_girth_of_tree_is_unbounded():
    adj = [(1,), (0, 2), (1, 3), (2,)]
    assert girth_of_adjacency(adj, 4) > 1 << 29
    with pytest.raises(ValueError, match="acyclic"):
        census._girth(adj)


def test_path_counts_on_cycle():
    adj = cycle_adj(8)
    # between adjacent vertices: the one way around, and nothing shorter
    assert count_simple_paths(adj, 0, 1, 7) == 1
    assert count_simple_paths(adj, 0, 1, 1) == 1
    assert count_simple_paths(adj, 0, 1, 3) == 0
    assert count_simple_paths(adj, 0, 1, 8 - 1) == 1


@pytest.mark.parametrize("length", [-1, 0, 2, 4, 8])
def test_path_length_must_be_odd_and_positive(length):
    # both ends of an edge of a bipartite graph: every joining path is odd
    with pytest.raises(ValueError, match="odd integer >= 1"):
        count_simple_paths(cycle_adj(8), 0, 1, length)


def test_path_counts_on_complete_bipartite():
    adj = [(3, 4, 5)] * 3 + [(0, 1, 2)] * 3
    # 4-cycles through an edge of K_{3,3}: 2 choices each side
    assert count_simple_paths(adj, 0, 3, 4 - 1) == 4
    # 6-cycles through an edge: 6 hamiltonian cycles, 6 edges each, 9 edges
    assert count_simple_paths(adj, 0, 3, 6 - 1) == 6 * 6 // 9


def test_modes_agree_on_lambda():
    spec = FamilySpec(Family.WENGER, 4, 2)
    exhaustive = certify(spec, Exhaustive(), workers=1)
    sampled = certify(spec, Sampled(seed=3, count=32), workers=1)
    base = certify(spec, BaseEdgeOnly(), workers=1)
    assert exhaustive.lam == sampled.lam == base.lam == 45
    assert exhaustive.total_girth_cycles == sampled.total_girth_cycles


def test_graph6_size_header_boundary():
    from egr.graph6 import encode_graph6

    for n in (62, 63, 64):
        edges = [(i, i + 1) for i in range(n - 1)]
        s = encode_graph6(n, edges)
        decoded = nx.from_graph6_bytes(s.encode("ascii"))
        assert decoded.number_of_nodes() == n
        assert decoded.number_of_edges() == n - 1


def test_w2_q9_lambda_uniform_sample():
    # third odd-q data point for the measured closed form (q-1)^2 (q^2-4q+5),
    # and the first with a non-prime odd q
    spec = FamilySpec(Family.WENGER, 9, 2)
    cert = certify(spec, Sampled(seed=0, count=64), workers=2)
    assert cert.lam == 8**2 * (81 - 36 + 5) == 3200


@pytest.mark.slow
def test_w2_q5_lambda_confirmed_by_networkx():
    # the discriminating case for acceptance criteria 2 and 5: lambda is 160,
    # where the paper's odd-q form (q-1)^3 (q-2) gives 192
    spec = FamilySpec(Family.WENGER, 5, 2)
    rel = relations(spec)
    G = nx.Graph()
    for pt, ln in adg.edge_iter(rel):
        G.add_edge(adg.vertex_id(pt, rel), adg.vertex_id(ln, rel))
    base_line = 125
    through_base = 0
    for cyc in nx.simple_cycles(G, length_bound=8):
        assert len(cyc) == 8  # girth 8: no shorter cycles exist at all
        if {0, base_line} <= set(cyc):
            k = cyc.index(0)
            if cyc[(k + 1) % 8] == base_line or cyc[(k - 1) % 8] == base_line:
                through_base += 1
    assert through_base == 160
    assert certify(spec, Exhaustive()).lam == 160


# ---------------------------------------------------------------------------
# W_2(q) from plain integer arithmetic mod a prime q: nothing below this line
# calls into egr, so these counts share no code with the census.


def w2_mod_prime(q):
    """Adjacency of W_2(q), q prime: point (a, b, c) ~ line (x, y, z) iff
    b + y = a*x and c + z = a*y (mod q).  Points are 0..q^3-1, lines follow."""
    half = q**3
    adj = [[] for _ in range(2 * half)]
    for a in range(q):
        for b in range(q):
            for c in range(q):
                pt = a + q * b + q * q * c
                for x in range(q):
                    y = (a * x - b) % q
                    z = (a * y - c) % q
                    ln = half + x + q * y + q * q * z
                    adj[pt].append(ln)
                    adj[ln].append(pt)
    return adj


def eight_cycles_through(adj, u, w):
    """Simple paths u -> w of length 7; with girth 8 each closes one 8-cycle."""
    on_path = {u}

    def walk(x, left):
        if left == 1:
            return int(w in adj[x])
        total = 0
        for y in adj[x]:
            if y != w and y not in on_path:
                on_path.add(y)
                total += walk(y, left - 1)
                on_path.remove(y)
        return total

    return walk(u, 7)


def shortest_cycle_through(adj, u, w, cap):
    """Length of the shortest cycle through edge uw, or None if above cap."""
    dist = {u: 0}
    frontier = [u]
    for depth in range(1, cap):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if x == u and y == w:
                    continue
                if y == w:
                    return depth + 1
                if y not in dist:
                    dist[y] = depth
                    nxt.append(y)
        frontier = nxt
    return None


@pytest.mark.parametrize("q,lam", [(5, 160), (7, 936)])
def test_w2_integer_model_eight_cycle_count(q, lam):
    adj = w2_mod_prime(q)
    assert all(len(nb) == q for nb in adj)
    assert lam == (q - 1) ** 2 * (q * q - 4 * q + 5)
    assert lam != (q - 1) ** 3 * (q - 2)  # the paper's odd-q form
    half = q**3
    # the base edge (0,0,0) ~ [0,0,0], and a generic one: (1,2,3) with x = 4
    a, b, c, x = 1, 2, 3, 4
    y, z = (a * x - b) % q, (a * ((a * x - b) % q) - c) % q
    generic = (a + q * b + q * q * c, half + x + q * y + q * q * z)
    for u, w in ((0, half), generic):
        assert w in adj[u]
        assert shortest_cycle_through(adj, u, w, 7) is None  # nothing below 8
        assert eight_cycles_through(adj, u, w) == lam


@pytest.mark.parametrize("q", [4, 8])
def test_lwenger_m2_char2_is_swapped_wenger_alt(q):
    # In characteristic 2, p_3 + l_3 = p_1^2 l_1 is p_3 + l_3 = p_1 l_1^2 with
    # the sides exchanged, so L_2(q) and the wenger-alt W_2(q) share lambda.
    lin = relations(FamilySpec(Family.LINEARIZED, q, 2))
    alt = relations(FamilySpec(Family.WENGER_ALT, q, 2), lin.field)
    swapped = set()
    for pt, ln in adg.edge_iter(lin):
        image = (Vertex(Side.POINT, ln.coords), Vertex(Side.LINE, pt.coords))
        assert adg.adjacent(*image, alt)
        swapped.add(image)
    # the swap is injective and the edge counts agree: a bijection on edges
    assert len(swapped) == adg.edge_count(lin) == adg.edge_count(alt) == q**4
