"""The shift tau_x that lets the exhaustive census count one edge per orbit.

tau_x sends a point (..., p_d) to (..., p_d - x) and a line [..., l_d] to
[..., l_d + x].  These tests check that premise on ids, computing the
shifted ids here with Field arithmetic on the top base-q digit, and pin
the census outputs that the reduction must leave as they were.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from egr import census
from egr.adg import RelationSet
from egr.census import Exhaustive, NonUniformCountsError, certify, certify_relations
from egr.families import FamilySpec, Family, parse_family_spec
from egr.finite_field import Field
from test_girth_counter import EVERY_EDGE_SPECS, build_relations, relation_descriptions


def assert_every_shift_maps_edges_to_edges(ctx):
    field, d = ctx.field, ctx.rel.d
    q = field.q
    half = q**d
    top = q ** (d - 1)  # weight of coordinate d, the most significant digit

    def shifted(vid, x, sign):
        rest, digit = vid % half % top, vid % half // top
        coord = field.from_index(digit)
        coord = coord - x if sign < 0 else coord + x
        return vid // half * half + coord.index * top + rest

    edges = {(pid, lid) for pid in range(half) for lid in ctx.adj[pid]}
    assert len(edges) == q ** (d + 1)
    for x in field.elements():
        images = {(shifted(pid, x, -1), shifted(lid, x, +1)) for pid, lid in edges}
        assert images == edges, f"tau_{x!r} moves an edge off the graph"


@pytest.mark.parametrize("text", EVERY_EDGE_SPECS)
def test_shift_is_an_automorphism_of_every_edge_spec(text):
    assert_every_shift_maps_edges_to_edges(census.GraphContext.build(parse_family_spec(text)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relation_descriptions())
def test_shift_is_an_automorphism_of_random_relation_sets(description):
    rel = build_relations(description)
    assert_every_shift_maps_edges_to_edges(census.GraphContext.from_relations(rel))


@pytest.mark.parametrize("q", [3, 4, 5])
def test_complete_bipartite_certifies_exhaustively(q):
    # d = 1: no relations, so the graph is K_{q,q}, and tau_x moves the slot
    rel = RelationSet(field=Field.of_order(q), d=1, relations=())
    assert_every_shift_maps_edges_to_edges(census.GraphContext.from_relations(rel))
    cert = certify_relations(rel, Exhaustive(), workers=1)
    assert cert.parameters() == (2 * q, q, 4, (q - 1) ** 2)
    assert cert.total_girth_cycles == (q * (q - 1) // 2) ** 2
    assert cert.edges_counted == q * q


def test_non_uniform_witnesses_are_pinned():
    # p_2 + l_2 = p_1**2 * l_1 over F_5
    rel = RelationSet(field=Field(5), d=2, relations=(lambda pp, ll: pp[0] * pp[0] * ll[0],))
    with pytest.raises(NonUniformCountsError) as err:
        certify_relations(rel, Exhaustive(), workers=2)
    assert (err.value.witness_a, err.value.witness_b, err.value.g) == ((0, 25, 0), (1, 25, 4), 4)


@pytest.mark.parametrize("text", ["wenger:n=1,q=4", "wenger:n=2,q=3", "lwenger:m=2,q=4"])
def test_exhaustive_keys_keep_point_and_slot_order(text):
    spec = parse_family_spec(text)
    ctx = census.GraphContext.build(spec)
    cert = certify(spec, Exhaustive(), workers=2)
    assert list(cert.per_edge_counts) == [
        (pid, lid) for pid in range(ctx.n_points) for lid in ctx.adj[pid]
    ]
    assert set(cert.per_edge_counts.values()) == {cert.lam}
    assert cert.edges_counted == spec.q ** (spec.dimension + 1)


def test_exhaustive_counts_one_edge_per_orbit(monkeypatch):
    counted = []

    class RecordingCounter(census.GirthCycleCounter):
        def __call__(self, u, w):
            counted.append((u, w))
            return super().__call__(u, w)

    monkeypatch.setattr(census, "GirthCycleCounter", RecordingCounter)
    spec = FamilySpec(Family.WENGER, 3, 2)
    cert = certify(spec, Exhaustive(), workers=1)
    assert len(counted) == 3**3
    assert {u for u, _ in counted} == set(range(9))  # the points with p_3 = 0
    assert (cert.lam, cert.edges_counted) == (8, 3**4)
