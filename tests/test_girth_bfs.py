"""The pruned girth BFS against the unpruned one and against networkx."""

import multiprocessing
from collections import deque

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egr.adg import build_adjacency
from egr.census import girth_of_adjacency
from egr.families import parse_family_spec, relations
from test_girth_counter import EVERY_EDGE_SPECS, build_relations, relation_descriptions

NO_CYCLE = 1 << 30


def unpruned_girth(adj, roots):
    """Shortest cycle length, or NO_CYCLE if there is no cycle.

    The BFS from every root of Itai and Rodeh (SIAM J. Comput. 1978), with
    neither of the census's prunes: every root sees the whole graph, and
    every depth below best/2 is expanded.  A non-tree edge touching depths
    dx and dy witnesses a closed walk of length dx + dy + 1 containing a
    cycle no longer than that, and a root on a shortest cycle realizes it
    exactly.
    """
    n = len(adj)
    best = NO_CYCLE
    dist = [0] * n
    parent = [0] * n
    stamp = [0] * n
    token = 0
    for root in roots:
        token += 1
        dq = deque((root,))
        stamp[root] = token
        dist[root] = 0
        parent[root] = -1
        while dq:
            x = dq.popleft()
            dx = dist[x]
            if 2 * dx >= best:
                break
            px = parent[x]
            dx1 = dx + 1
            for y in adj[x]:
                if stamp[y] != token:
                    stamp[y] = token
                    dist[y] = dx1
                    parent[y] = x
                    dq.append(y)
                elif y != px:
                    c = dx + dist[y] + 1
                    if c < best:
                        best = c
        if best == 4:
            break
    return best


def _unpruned_task(task):
    adj, roots = task
    return unpruned_girth(adj, roots)


def adjacency(text):
    return build_adjacency(relations(parse_family_spec(text)))


@pytest.mark.parametrize("text", EVERY_EDGE_SPECS)
def test_pruned_equals_unpruned_on_families(text):
    adj = adjacency(text)
    assert girth_of_adjacency(adj, len(adj) // 2) == unpruned_girth(adj, range(len(adj) // 2))


def test_pruned_equals_unpruned_on_lie_m3_q5():
    adj = adjacency("lie:M3,q=5")
    n = len(adj) // 2
    # the unpruned BFS takes seconds here; split its roots over two processes
    halves = [(adj, range(0, n, 2)), (adj, range(1, n, 2))]
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        unpruned = min(pool.map(_unpruned_task, halves))
    assert girth_of_adjacency(adj, n) == unpruned == 12


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relation_descriptions())
def test_pruned_equals_unpruned_on_random_relation_sets(description):
    adj = build_adjacency(build_relations(description))
    assert girth_of_adjacency(adj, len(adj) // 2) == unpruned_girth(adj, range(len(adj) // 2))


# -- small random bipartite graphs against networkx ----------------------------

def _forest_edges(draw, a, b):
    """Edges of a forest on points 0..a-1 and lines a..a+b-1, grown one
    vertex at a time, each joined to an earlier vertex of the other side."""
    order = [0, *draw(st.permutations(range(1, a + b)))]
    edges = []
    for i, v in enumerate(order[1:], start=1):
        other_side = [u for u in order[:i] if (u < a) != (v < a)]
        if other_side:
            edges.append((v, draw(st.sampled_from(other_side))))
    return edges


@st.composite
def bipartite_graphs(draw):
    """(adj, n_points, networkx graph).  Either the points come first, with
    ids shuffled within each side, or every id is shuffled and every vertex
    is a root.  Half the draws are forests."""
    a = draw(st.integers(1, 7))
    b = draw(st.integers(1, 7))
    n = a + b
    if draw(st.booleans()):
        edges = _forest_edges(draw, a, b)
    else:
        pairs = [(i, a + j) for i in range(a) for j in range(b)]
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    if draw(st.booleans()):
        ids = [*draw(st.permutations(range(a))), *draw(st.permutations(range(a, n)))]
        n_points = a
    else:
        ids = draw(st.permutations(range(n)))
        n_points = n
    adj = [[] for _ in range(n)]
    graph = nx.empty_graph(n)
    for u, w in edges:
        adj[ids[u]].append(ids[w])
        adj[ids[w]].append(ids[u])
        graph.add_edge(ids[u], ids[w])
    return [tuple(ys) for ys in adj], n_points, graph


@settings(max_examples=150, deadline=None)
@given(bipartite_graphs())
def test_pruned_equals_networkx(drawn):
    adj, n_points, graph = drawn
    g = nx.girth(graph)  # inf for a forest
    assert girth_of_adjacency(adj, n_points) == min(g, NO_CYCLE)


# -- odd cycles ------------------------------------------------------------------

def assert_odd_cycle_in(message, adj):
    cycle = [int(x) for x in message.split("[")[1].rstrip("]").split(",")]
    assert len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        assert y in adj[x]


def test_odd_cycle_is_rejected_with_a_witness():
    five_cycle = [((i - 1) % 5, (i + 1) % 5) for i in range(5)]
    with pytest.raises(ValueError, match="not bipartite") as err:
        girth_of_adjacency(five_cycle, 5)
    assert_odd_cycle_in(str(err.value), five_cycle)
    # a triangle hanging off a square, reached from the square's side
    adj = [(1, 3), (0, 2), (1, 3, 4, 5), (0, 2), (2, 5), (2, 4)]
    with pytest.raises(ValueError, match="not bipartite") as err:
        girth_of_adjacency(adj, 6)
    assert_odd_cycle_in(str(err.value), adj)
