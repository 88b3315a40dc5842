"""The meet-in-the-middle girth-cycle counter against the depth-first oracle."""

import multiprocessing
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from egr import census
from egr.adg import RelationSet, build_adjacency
from egr.census import (
    Exhaustive,
    GirthCycleCounter,
    NonUniformCountsError,
    certify,
    certify_relations,
    count_cycles_total,
    count_simple_paths,
)
from egr.families import Family, FamilySpec, parse_family_spec, relations
from egr.finite_field import Field


def _oracle_chunk(task):
    adj, chunk, length = task
    return [count_simple_paths(adj, u, w, length) for u, w in chunk]


@pytest.fixture(scope="module")
def oracle_pool():
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        yield pool


def assert_counter_matches_oracle(adj, pool, sample=None):
    """The counter equals count_simple_paths at length g - 1 on every edge,
    or on `sample` edges drawn with a seeded random.Random."""
    g = census.girth_of_adjacency(adj, len(adj) // 2)
    edges = [(pid, lid) for pid in range(len(adj) // 2) for lid in adj[pid]]
    if sample is not None:
        edges = random.Random(0).sample(edges, sample)
    counter = GirthCycleCounter(adj, g)
    size = -(-len(edges) // 8)
    tasks = [(adj, edges[i : i + size], g - 1) for i in range(0, len(edges), size)]
    oracle = [c for part in pool.map(_oracle_chunk, tasks) for c in part]
    assert [counter(u, w) for u, w in edges] == oracle
    return g


EVERY_EDGE_SPECS = [
    "wenger:n=1,q=3",
    "wenger:n=1,q=4",
    "wenger:n=1,q=5",
    "wenger:n=2,q=3",
    "wenger:n=2,q=4",
    "wenger:n=2,q=5",
    "wenger-alt:n=2,q=3",
    "wenger-alt:n=2,q=4",
    "lwenger:m=2,q=2",
    "lwenger:m=2,q=4",
    "lwenger:m=2,q=8",
    "lwenger:m=2,q=9",
    "lwenger:m=3,q=3",
    "lie:M1,q=3",
    "lie:M2,q=3",
]
# The DFS takes about 20 s over all 4096 edges of L_2(8), so it checks a
# seeded sample there; the non-backtracking-walk oracle of
# test_nonbacktracking.py still checks every edge of every spec above.
DFS_SAMPLE = {"lwenger:m=2,q=8": 256}


@pytest.mark.parametrize("text", EVERY_EDGE_SPECS)
def test_counter_equals_dfs_on_every_edge(text, oracle_pool):
    adj = build_adjacency(relations(parse_family_spec(text)))
    assert_counter_matches_oracle(adj, oracle_pool, DFS_SAMPLE.get(text))


def square_relation_graph():
    f5 = Field(5)
    return RelationSet(field=f5, d=2, relations=(lambda pp, ll: pp[0] * pp[0] * ll[0],))


def test_counter_equals_dfs_at_girth_four(oracle_pool):
    adj = build_adjacency(square_relation_graph())
    assert assert_counter_matches_oracle(adj, oracle_pool) == 4


def test_counter_reuses_its_mark_list():
    adj = build_adjacency(relations(FamilySpec(Family.WENGER, 3, 1)))
    counter = GirthCycleCounter(adj, 6)
    mark = counter.mark
    assert [counter(0, 9) for _ in range(3)] == [4, 4, 4]
    assert counter.mark is mark
    assert counter.stamp == 3


def test_census_does_not_call_the_dfs(monkeypatch):
    def forbidden(*args):
        raise AssertionError("count_simple_paths is the test oracle only")

    monkeypatch.setattr(census, "count_simple_paths", forbidden)
    for workers in (1, 2):
        assert certify(FamilySpec(Family.WENGER, 3, 2), Exhaustive(), workers=workers).lam == 8
        assert count_cycles_total(FamilySpec(Family.WENGER, 3, 1), workers=workers) == 18


# -- random relation sets ------------------------------------------------------

class DfsCounter:
    """GirthCycleCounter's interface over the depth-first oracle."""

    def __init__(self, adj, g):
        self.adj, self.length = adj, g - 1

    def __call__(self, u, w):
        return count_simple_paths(self.adj, u, w, self.length)


# a monomial c * p[a]**i * l[b]**j, with a, b indices into the prefixes
def _monomial(field, c, a, i, b, j):
    coeff = field.from_index(c)

    def term(pp, ll):
        return coeff * pp[min(a, len(pp) - 1)] ** i * ll[min(b, len(ll) - 1)] ** j

    return term


def build_relations(description):
    q, d, polys = description
    field = Field.of_order(q)
    fs = []
    for terms in polys:
        monomials = [_monomial(field, *t) for t in terms]
        fs.append(lambda pp, ll, ms=monomials: sum((m(pp, ll) for m in ms), field.zero()))
    return RelationSet(field=field, d=d, relations=tuple(fs))


@st.composite
def relation_descriptions(draw):
    q = draw(st.sampled_from([2, 3, 4, 5]))
    d = draw(st.integers(2, 3))
    monomial = st.tuples(
        st.integers(1, q - 1), st.integers(0, 1), st.integers(0, 3), st.integers(0, 1), st.integers(0, 3)
    )
    polys = [draw(st.lists(monomial, min_size=1, max_size=2)) for _ in range(d - 1)]
    return q, d, polys


def census_outcome(rel):
    try:
        cert = certify_relations(rel, Exhaustive(), workers=1)
    except NonUniformCountsError as err:
        return ("non-uniform", err.witness_a, err.witness_b)
    except ValueError as err:
        return ("error", str(err))
    return ("certificate", cert)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relation_descriptions())
@example((5, 2, [[(1, 0, 2, 0, 1)]]))  # p_1**2 * l_1: not edge-girth-regular
@example((3, 2, [[(1, 0, 1, 0, 1)]]))  # the Wenger graph W_1(3)
def test_random_relation_sets_census_equals_dfs_census(description):
    rel = build_relations(description)
    fast = census_outcome(rel)
    with mock.patch.object(census, "GirthCycleCounter", DfsCounter):
        slow = census_outcome(rel)
    assert fast == slow
