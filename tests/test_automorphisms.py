import pytest

from egr import adg
from egr.adg import Side, Vertex, adjacent
from egr.automorphisms import (
    SigmaMap,
    apply_sequence,
    apply_sigma,
    check_edges,
    edge_to_base,
    lwenger_relations,
    verify_automorphism,
)
from egr.census import GraphContext, Lcg, _sample_edges
from egr.finite_field import Field

EXHAUSTIVE_CASES = [(1, 3), (1, 4), (2, 3), (2, 2)]


def all_vertices(rel):
    return [adg.vertex_from_id(i, rel) for i in range(adg.vertex_count(rel))]


def zero_edge(rel):
    return adg.vertex_from_id(0, rel), adg.vertex_from_id(rel.field.q**rel.d, rel)


def test_sigma_i_ge_2_translates_one_coordinate():
    rel = lwenger_relations(2, 3)
    f = rel.field
    x = f.element(1)
    p = Vertex(Side.POINT, (f.element(2), f.element(1), f.element(0)))
    image = apply_sigma(SigmaMap(2, x, 2), p)
    assert image.coords == (f.element(2), f.element(0), f.element(0))
    l = Vertex(Side.LINE, (f.element(2), f.element(1), f.element(0)))
    image = apply_sigma(SigmaMap(2, x, 2), l)
    assert image.coords == (f.element(2), f.element(2), f.element(0))


def test_sigma_zero_x_is_identity():
    rel = lwenger_relations(2, 3)
    zero = rel.field.zero()
    for i in range(4):
        s = SigmaMap(i, zero, 2)
        for v in all_vertices(rel):
            assert apply_sigma(s, v) == v


def test_sigma_1_acts_on_line_first_coordinate():
    rel = lwenger_relations(1, 3)
    f = rel.field
    s = SigmaMap(1, f.one(), 1)
    l = Vertex(Side.LINE, (f.element(2), f.element(1)))
    assert apply_sigma(s, l).coords == (f.element(0), f.element(1))


def test_sigma_1_point_action_uses_frobenius():
    rel = lwenger_relations(2, 9)
    f = rel.field
    p1 = f.from_index(3)
    x = f.from_index(7)
    p = Vertex(Side.POINT, (p1, f.zero(), f.zero()))
    image = apply_sigma(SigmaMap(1, x, 2), p)
    assert image.coords == (p1, p1 * x, p1**3 * x)


def test_sigma_0_line_action_uses_frobenius():
    rel = lwenger_relations(2, 9)
    f = rel.field
    l1 = f.from_index(5)
    x = f.from_index(2)
    l = Vertex(Side.LINE, (l1, f.zero(), f.zero()))
    image = apply_sigma(SigmaMap(0, x, 2), l)
    assert image.coords == (l1, l1 * x, l1 * x**3)


def test_sigma_dimension_check():
    rel = lwenger_relations(2, 3)
    v = adg.vertex_from_id(0, lwenger_relations(1, 3))
    with pytest.raises(ValueError):
        apply_sigma(SigmaMap(0, rel.field.zero(), 2), v)
    with pytest.raises(ValueError):
        SigmaMap(4, rel.field.zero(), 2)


@pytest.mark.parametrize("m,q", EXHAUSTIVE_CASES)
def test_every_sigma_is_an_automorphism(m, q):
    rel = lwenger_relations(m, q)
    edges = check_edges(rel, "exhaustive")
    for i in range(m + 2):
        for x in rel.field.elements():
            result = verify_automorphism(rel, SigmaMap(i, x, m), edges)
            assert result.ok
            assert result.edges_checked == q ** (m + 2)


@pytest.mark.parametrize("m,q", [(1, 3), (2, 2)])
def test_sigma_inverse(m, q):
    rel = lwenger_relations(m, q)
    for i in range(m + 2):
        for x in rel.field.elements():
            s, s_inv = SigmaMap(i, x, m), SigmaMap(i, -x, m)
            for v in all_vertices(rel):
                assert apply_sigma(s_inv, apply_sigma(s, v)) == v


@pytest.mark.parametrize("m,q", [(1, 3), (2, 3)])
def test_sigma_translation_composition(m, q):
    rel = lwenger_relations(m, q)
    for i in range(m + 2):
        for x in rel.field.elements():
            for y in rel.field.elements():
                combined = SigmaMap(i, x + y, m)
                for v in all_vertices(rel):
                    two_step = apply_sigma(SigmaMap(i, x, m), apply_sigma(SigmaMap(i, y, m), v))
                    assert two_step == apply_sigma(combined, v)


@pytest.mark.parametrize("m,q", EXHAUSTIVE_CASES)
def test_edge_to_base_is_total(m, q):
    rel = lwenger_relations(m, q)
    base = zero_edge(rel)
    for pt, ln in adg.edge_iter(rel):
        maps = edge_to_base((pt, ln), m, q)
        assert (apply_sequence(maps, pt), apply_sequence(maps, ln)) == base


def test_edge_to_base_fixes_base_edge():
    rel = lwenger_relations(2, 3)
    pt, ln = zero_edge(rel)
    maps = edge_to_base((pt, ln), 2, 3)
    assert apply_sequence(maps, pt) == pt
    assert apply_sequence(maps, ln) == ln


def test_edge_to_base_seeded_random_edges_l2_q4():
    m, q = 2, 4
    rel = lwenger_relations(m, q)
    base = zero_edge(rel)
    rng = Lcg(0)
    n_points = q ** rel.d
    for _ in range(50):
        pt = adg.vertex_from_id(rng.below(n_points), rel)
        ln = adg.neighbors(pt, rel)[rng.below(q)]
        maps = edge_to_base((pt, ln), m, q)
        assert (apply_sequence(maps, pt), apply_sequence(maps, ln)) == base


def test_edge_to_base_builds_no_field_per_call(monkeypatch):
    rel = lwenger_relations(2, 3)
    built = []
    original = Field.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Field, "__init__", counted)
    for pt, ln in adg.edge_iter(rel):
        edge_to_base((pt, ln), 2, 3)
    assert built == []
    assert lwenger_relations(2, 3) is rel


def test_edge_to_base_rejects_non_edge():
    rel = lwenger_relations(1, 3)
    f = rel.field
    pt = Vertex(Side.POINT, (f.zero(), f.zero()))
    bad = Vertex(Side.LINE, (f.zero(), f.one()))
    assert not adjacent(pt, bad, rel)
    with pytest.raises(ValueError):
        edge_to_base((pt, bad), 1, 3)


def test_corrupted_map_fails_with_witness():
    # sigma(2, x) that adds x on the point side instead of subtracting
    m, q = 2, 3
    rel = lwenger_relations(m, q)
    x = rel.field.one()

    def corrupted(v):
        c = list(v.coords)
        c[1] = c[1] + x
        return Vertex(v.side, tuple(c))

    result = verify_automorphism(rel, corrupted, check_edges(rel, "exhaustive"))
    assert not result.ok
    pt, ln = result.counterexample
    assert adjacent(pt, ln, rel)
    assert not adjacent(corrupted(pt), corrupted(ln), rel)


def test_verify_sampled_mode():
    rel = lwenger_relations(2, 4)
    edges = check_edges(rel, "sampled")
    result = verify_automorphism(rel, SigmaMap(1, rel.field.from_index(2), 2), edges)
    assert result.ok
    assert result.edges_checked == len(edges) == 512


def test_check_edges_auto_resolves_by_vertex_count():
    # L_2(4) has 2 * 4**3 = 128 vertices, L_3(11) has 2 * 11**4 = 29282
    small = lwenger_relations(2, 4)
    assert check_edges(small) == list(adg.edge_iter(small))
    rel = lwenger_relations(3, 11)
    assert len(check_edges(rel, "auto", seed=2)) == 512
    with pytest.raises(ValueError, match="mode"):
        check_edges(rel, "every")


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_one_sampler_for_census_and_automorphisms(seed):
    # the census keeps the distinct draws in first-drawn order; the
    # automorphism check keeps every draw
    rel = lwenger_relations(2, 4)
    drawn = [
        (adg.vertex_id(pt, rel), adg.vertex_id(ln, rel))
        for pt, ln in check_edges(rel, "sampled", seed)
    ]
    assert len(drawn) == 512
    assert _sample_edges(GraphContext.from_relations(rel), seed, 512) == list(dict.fromkeys(drawn))


def test_per_edge_counts_constant_consequence():
    # the constructive edge-transitivity should show up as census uniformity
    from egr.census import Exhaustive, certify
    from egr.families import Family, FamilySpec

    cert = certify(FamilySpec(Family.LINEARIZED, 3, 2), Exhaustive(), workers=1)
    assert set(cert.per_edge_counts.values()) == {cert.lam}
