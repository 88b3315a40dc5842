"""The census against non-backtracking walk counts, on every edge.

Let A be the adjacency matrix of a k-regular graph.  A_1 = A,
A_2 = A**2 - kI and A_{r+1} = A A_r - (k-1) A_{r-1} count the
non-backtracking walks of r edges between two vertices (Hashimoto 1989;
Alon, Benjamini, Lubetzky and Sodin, "Non-backtracking random walks mix
faster", 2007).  A closed non-backtracking walk of fewer than g + 2 edges
is a cycle, so for a graph of girth g:

- g is the least r >= 3 with a positive diagonal entry of A_r;
- lambda(uw) = (A_{g-1})_{uw}: a walk of g - 1 edges from u to w closes
  through wu into one g-cycle, and each g-cycle through uw gives one walk;
- the diagonal of A_g, summed over the points, is g times the number of
  g-cycles (each cycle has g/2 points and two directions).

This is linear algebra on the adjacency lists, so it shares no code with
the census's BFS, its meet-in-the-middle counter or the depth-first oracle.
"""

from collections import Counter

import networkx as nx
import pytest
from hypothesis import HealthCheck, example, given, settings

from egr.census import Exhaustive, GraphContext, certify
from egr.families import parse_family_spec
from test_girth_counter import (
    EVERY_EDGE_SPECS,
    build_relations,
    census_outcome,
    relation_descriptions,
)


def nonbacktracking_census(adj, n_points):
    """(g, {(point, line): lambda}, sum over points of (A_g)_{uu}) of a
    k-regular bipartite graph whose points are 0..n_points-1.

    Column u of A_r is computed for each point u, one r at a time.  Walks
    from a point end on a line after an odd number of edges and on a point
    after an even one, so each step fills one side and leaves the other 0.
    """
    n = len(adj)
    k = len(adj[0])
    n_lines = n - n_points
    g = n + 1  # above any cycle length
    lam_rows, closed = [], []
    for u in range(n_points):
        prev = [0] * n
        prev[u] = 1
        cur = [0] * n
        for w in adj[u]:
            cur[w] = 1
        rows = {1: [1] * k}  # r -> [(A_r)_{uw} for w in adj[u]], r odd
        diagonal = {}  # r -> (A_r)_{uu}, r even
        r = 1
        while r < g:
            c = k if r == 1 else k - 1
            if r % 2:  # A_{r+1} lives on the points
                nxt = [
                    sum(map(cur.__getitem__, adj[y])) - c * prev[y] for y in range(n_points)
                ] + [0] * n_lines
            else:
                nxt = [0] * n_points + [
                    sum(map(cur.__getitem__, adj[y])) - c * prev[y] for y in range(n_points, n)
                ]
            prev, cur = cur, nxt
            r += 1
            if r % 2:
                rows[r] = [cur[w] for w in adj[u]]
            else:
                diagonal[r] = cur[u]
                if cur[u] and r >= 3:
                    g = r
        lam_rows.append(rows)
        closed.append(diagonal)
    if g > n:
        raise ValueError("no cycle")
    lam = {
        (u, w): count
        for u in range(n_points)
        for w, count in zip(adj[u], lam_rows[u][g - 1])
    }
    return g, lam, sum(diagonal[g] for diagonal in closed)


def test_oracle_on_hand_built_graphs():
    eight_cycle = [((i - 1) % 8, (i + 1) % 8) for i in range(8)]
    # points are the even vertices; relabel so they come first
    order = [0, 2, 4, 6, 1, 3, 5, 7]
    new = {v: i for i, v in enumerate(order)}
    adj = [tuple(new[y] for y in eight_cycle[v]) for v in order]
    g, lam, closed = nonbacktracking_census(adj, 4)
    assert (g, set(lam.values()), closed) == (8, {1}, 8 * 1)
    k33 = [(3, 4, 5)] * 3 + [(0, 1, 2)] * 3
    g, lam, closed = nonbacktracking_census(k33, 3)
    # K_{3,3} has 9 four-cycles, each through 4 of its 9 edges
    assert (g, set(lam.values()), closed) == (4, {4}, 4 * 9)


@pytest.mark.parametrize("text", EVERY_EDGE_SPECS)
def test_census_equals_nonbacktracking_walks_on_every_edge(text):
    spec = parse_family_spec(text)
    ctx = GraphContext.build(spec)
    g, lam, closed = nonbacktracking_census(ctx.adj, ctx.n_points)
    cert = certify(spec, Exhaustive(), workers=1)
    assert cert.g == g
    assert cert.per_edge_counts == lam
    assert cert.total_girth_cycles * g == closed


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relation_descriptions())
@example((5, 2, [[(1, 0, 2, 0, 1)]]))  # p_1**2 * l_1: not edge-girth-regular
@example((3, 2, [[(1, 0, 1, 0, 1)]]))  # the Wenger graph W_1(3)
@example((4, 3, [[(1, 0, 1, 0, 1)], [(1, 0, 1, 1, 1)]]))  # W_2(4), over GF(4)
def test_census_equals_nonbacktracking_walks_on_random_relation_sets(description):
    """The relations are FieldElement lambdas, so this also runs the field
    tables under arbitrary polynomial relations.  Over GF(2) and GF(3),
    networkx's girth and cycle enumeration check the walk counts too."""
    rel = build_relations(description)
    outcome = census_outcome(rel)
    if outcome[0] == "error":
        return
    ctx = GraphContext.from_relations(rel)
    g, lam, closed = nonbacktracking_census(ctx.adj, ctx.n_points)
    if rel.field.q <= 3:
        graph = nx.Graph((u, w) for u in range(ctx.n_points) for w in ctx.adj[u])
        assert nx.girth(graph) == g
        through = Counter()
        for cycle in nx.simple_cycles(graph, length_bound=g):
            if len(cycle) == g:
                through.update(tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1]))
        assert {edge: through[edge] for edge in lam} == lam
    if outcome[0] == "non-uniform":
        _, witness_a, witness_b = outcome
        assert lam[witness_a[:2]] == witness_a[2] != witness_b[2] == lam[witness_b[:2]]
        return
    cert = outcome[1]
    assert cert.g == g
    assert cert.per_edge_counts == lam
    assert cert.total_girth_cycles * g == closed
