import pytest

from egr import adg
from egr.adg import RelationSet, Side, adjacent
from egr.families import (
    Family,
    FamilySpec,
    parse_family_spec,
    relations,
    representation_pair,
)
from egr.finite_field import Field


def test_dimensions():
    assert FamilySpec(Family.WENGER, 3, 1).dimension == 2
    assert FamilySpec(Family.WENGER_ALT, 3, 4).dimension == 5
    assert FamilySpec(Family.LINEARIZED, 4, 2).dimension == 3
    assert FamilySpec(Family.LIE_M1, 5).dimension == 2
    assert FamilySpec(Family.LIE_M2, 5).dimension == 3
    assert FamilySpec(Family.LIE_M3, 5).dimension == 5


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(Family.WENGER, 3)  # missing n
    with pytest.raises(ValueError):
        FamilySpec(Family.WENGER, 3, 0)
    with pytest.raises(ValueError):
        FamilySpec(Family.LIE_M1, 3, 1)  # stray index
    with pytest.raises(ValueError):
        FamilySpec(Family.WENGER, 6, 1)  # not a prime power


def test_parse_family_spec():
    s = parse_family_spec("wenger:n=2,q=3")
    assert s == FamilySpec(Family.WENGER, 3, 2)
    assert parse_family_spec("wenger-alt:n=1,q=4") == FamilySpec(Family.WENGER_ALT, 4, 1)
    assert parse_family_spec("lwenger:m=2,q=4") == FamilySpec(Family.LINEARIZED, 4, 2)
    assert parse_family_spec("lie:M3,q=5") == FamilySpec(Family.LIE_M3, 5)
    assert parse_family_spec("lie:m1,q=7") == FamilySpec(Family.LIE_M1, 7)
    for text in ["wenger", "wenger:q=3", "lie:M4,q=5", "nope:q=3", "wenger:n=1,q=6"]:
        with pytest.raises(ValueError):
            parse_family_spec(text)
    for text, named in [
        ("wenger:n=1,q=3,q=5", "repeated key 'q'"),
        ("lie:M3,q=5,q=5", "repeated key 'q'"),
        ("lie:M1,q=5,n=9", "unknown key 'n'"),
        ("wenger:n=1,q=5,m=7", "unknown key 'm'"),
        ("lwenger:m=1,n=1,q=4", "unknown key 'n'"),
        ("wenger:n=1,q=abc", "q must be an integer, got 'abc'"),
        ("wenger-alt:n=,q=3", "n must be an integer, got ''"),
        ("wenger:M3,n=1,q=3", "unrecognized parameter 'M3'"),
    ]:
        with pytest.raises(ValueError) as err:
            parse_family_spec(text)
        assert named in str(err.value) and repr(text) in str(err.value)
    assert parse_family_spec(" Wenger: N = 2 , Q = 3 ,") == FamilySpec(Family.WENGER, 3, 2)


def test_label_roundtrip():
    for spec in [
        FamilySpec(Family.WENGER, 3, 2),
        FamilySpec(Family.WENGER_ALT, 4, 1),
        FamilySpec(Family.LINEARIZED, 9, 3),
        FamilySpec(Family.LIE_M3, 5),
    ]:
        assert parse_family_spec(spec.label()) == spec


def test_wenger_relation_values():
    rel = relations(FamilySpec(Family.WENGER, 3, 1))
    f = rel.field
    # p_2 + l_2 = p_1*l_1 at p_1 = 2, l_1 = 2: rhs = 4 = 1 mod 3
    rhs = rel.relations[0]((f.element(2),), (f.element(2),))
    assert rhs == f.element(1)


def test_linearized_relations_use_frobenius():
    rel = relations(FamilySpec(Family.LINEARIZED, 9, 2))
    f = rel.field
    a = f.from_index(3)  # a generator-ish element with a**3 != a
    l1 = f.from_index(5)
    assert rel.relations[0]((a,), (l1,)) == a * l1
    assert rel.relations[1]((a, f.zero()), (l1, f.zero())) == a**3 * l1


def test_linearized_over_prime_field_is_constant_relations():
    # frobenius is the identity on prime fields, so every f_i collapses to p1*l1
    spec = FamilySpec(Family.LINEARIZED, 3, 2)
    rel = relations(spec)
    const = RelationSet(
        field=rel.field,
        d=3,
        relations=(lambda pp, ll: pp[0] * ll[0], lambda pp, ll: pp[0] * ll[0]),
    )
    assert _same_adjacency(rel, const)


def _same_adjacency(rel_a, rel_b):
    assert rel_a.d == rel_b.d and rel_a.field == rel_b.field
    edges_a = {
        (adg.vertex_id(p, rel_a), adg.vertex_id(l, rel_a)) for p, l in adg.edge_iter(rel_a)
    }
    edges_b = {
        (adg.vertex_id(p, rel_b), adg.vertex_id(l, rel_b)) for p, l in adg.edge_iter(rel_b)
    }
    return edges_a == edges_b


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_lie_m1_is_wenger_n1(q):
    assert _same_adjacency(
        relations(FamilySpec(Family.LIE_M1, q)), relations(FamilySpec(Family.WENGER, q, 1))
    )


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_lie_m2_is_wenger_n2(q):
    assert _same_adjacency(
        relations(FamilySpec(Family.LIE_M2, q)), relations(FamilySpec(Family.WENGER, q, 2))
    )


def test_representation_pair_coincides_at_n1():
    for q in (3, 4):
        std, alt = representation_pair(1, q)
        assert _same_adjacency(std, alt)


def test_representation_pair_differs_pointwise_at_n2():
    # isomorphic but not identical: certificates agree, adjacency does not
    std, alt = representation_pair(2, 3)
    assert not _same_adjacency(std, alt)


def test_lie_m3_last_relation_coefficient():
    # p_5 + l_5 = p_2*l_3 - 2*p_3*l_2 + p_4*l_1, with -2 reduced in F_q
    spec = FamilySpec(Family.LIE_M3, 5)
    rel = relations(spec)
    f = rel.field
    pp = tuple(f.element(c) for c in (1, 1, 1, 1))
    ll = tuple(f.element(c) for c in (1, 1, 1, 1))
    # 1*1 - 2*1*1 + 1*1 = 0 mod 5
    assert rel.relations[3](pp, ll) == f.zero()
    pp = tuple(f.element(c) for c in (0, 2, 3, 4))
    ll = tuple(f.element(c) for c in (1, 1, 2, 0))
    # 2*2 - 2*3*1 + 4*1 = 4 - 6 + 4 = 2 mod 5
    assert rel.relations[3](pp, ll) == f.element(2)


@pytest.mark.parametrize("q,expected", [(2, 0), (3, 1)])
def test_lie_m3_minus_two_in_small_characteristic(q, expected):
    with pytest.warns(UserWarning):
        rel = relations(FamilySpec(Family.LIE_M3, q))
    f = rel.field
    one = f.one()
    pp = (f.zero(), f.zero(), one, f.zero())
    ll = (f.zero(), one, f.zero(), f.zero())
    # only the -2*p_3*l_2 term survives
    assert rel.relations[3](pp, ll) == -f.element(2) * one * one
    assert rel.relations[3](pp, ll) == f.element(-2)
    assert f.element(-2).index == expected


def test_lie_m3_no_warning_for_q5():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        relations(FamilySpec(Family.LIE_M3, 5))


def test_relations_reject_mismatched_field():
    with pytest.raises(ValueError):
        relations(FamilySpec(Family.WENGER, 3, 1), field=Field(5))


def test_lie_m3_neighbors_consistent():
    rel = relations(FamilySpec(Family.LIE_M3, 5))
    for vid in (0, 1, 700, 3125, 4000):
        v = adg.vertex_from_id(vid, rel)
        for w in adg.neighbors(v, rel):
            pt, ln = (v, w) if v.side is Side.POINT else (w, v)
            assert adjacent(pt, ln, rel)
            assert v in adg.neighbors(w, rel)
