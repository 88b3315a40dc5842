import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from egr import adg
from egr.adg import RelationSet, Side, Vertex, adjacent, neighbors
from egr.families import Family, FamilySpec, relations
from egr.finite_field import Field

W13 = relations(FamilySpec(Family.WENGER, 3, 1))

SMALL_FAMILIES = [
    FamilySpec(Family.WENGER, 3, 1),
    FamilySpec(Family.WENGER, 4, 2),
    FamilySpec(Family.WENGER, 5, 2),
    FamilySpec(Family.WENGER_ALT, 3, 3),
    FamilySpec(Family.LINEARIZED, 4, 2),
    FamilySpec(Family.LINEARIZED, 3, 3),
    FamilySpec(Family.LIE_M2, 5),
]


def _vertex(rel, side, indices):
    return Vertex(side, tuple(rel.field.from_index(i) for i in indices))


def test_adjacency_examples_w1_q3():
    p00 = _vertex(W13, Side.POINT, (0, 0))
    l00 = _vertex(W13, Side.LINE, (0, 0))
    assert adjacent(p00, l00, W13)
    p11 = _vertex(W13, Side.POINT, (1, 1))
    l10 = _vertex(W13, Side.LINE, (1, 0))
    assert adjacent(p11, l10, W13)
    l11 = _vertex(W13, Side.LINE, (1, 1))
    assert not adjacent(p11, l11, W13)


def test_adjacent_validates_sides_and_dimension():
    p = _vertex(W13, Side.POINT, (0, 0))
    l = _vertex(W13, Side.LINE, (0, 0))
    with pytest.raises(ValueError):
        adjacent(l, p, W13)
    rel3 = relations(FamilySpec(Family.WENGER, 3, 2))
    with pytest.raises(ValueError):
        adjacent(p, l, rel3)


def test_neighbors_of_zero_vertices():
    zero_point = _vertex(W13, Side.POINT, (0, 0))
    lines = neighbors(zero_point, W13)
    assert [(v.coords[0].index, v.coords[1].index) for v in lines] == [
        (0, 0),
        (1, 0),
        (2, 0),
    ]
    zero_line = _vertex(W13, Side.LINE, (0, 0))
    points = neighbors(zero_line, W13)
    assert [(v.coords[0].index, v.coords[1].index) for v in points] == [
        (0, 0),
        (1, 0),
        (2, 0),
    ]


def test_regularity_across_families():
    for spec in SMALL_FAMILIES:
        rel = relations(spec)
        v = adg.vertex_from_id(0, rel)
        assert len(neighbors(v, rel)) == spec.q


def test_vertex_and_edge_counts():
    assert adg.vertex_count(relations(FamilySpec(Family.WENGER, 3, 2))) == 54
    assert adg.vertex_count(relations(FamilySpec(Family.WENGER, 2, 1))) == 8
    assert adg.vertex_count(relations(FamilySpec(Family.LINEARIZED, 4, 2))) == 128
    assert adg.edge_count(W13) == 27
    assert adg.edge_count(relations(FamilySpec(Family.WENGER, 2, 1))) == 8
    assert len(list(adg.edge_iter(W13))) == 27


def test_neighbors_adjacent_consistency_and_symmetry():
    for spec in SMALL_FAMILIES:
        rel = relations(spec)
        n = adg.vertex_count(rel)
        for vid in range(n):
            v = adg.vertex_from_id(vid, rel)
            for w in neighbors(v, rel):
                assert w.side is not v.side
                pt, ln = (v, w) if v.side is Side.POINT else (w, v)
                assert adjacent(pt, ln, rel)
                assert v in neighbors(w, rel)


def test_vertex_id_roundtrip_all():
    rel = relations(FamilySpec(Family.WENGER, 3, 2))
    for vid in range(adg.vertex_count(rel)):
        v = adg.vertex_from_id(vid, rel)
        assert adg.vertex_id(v, rel) == vid
    with pytest.raises(ValueError):
        adg.vertex_from_id(54, rel)


@given(st.integers(0, 2 * 4**3 - 1))
def test_vertex_id_roundtrip_hypothesis(vid):
    rel = relations(FamilySpec(Family.LINEARIZED, 4, 2))
    assert adg.vertex_id(adg.vertex_from_id(vid, rel), rel) == vid


def test_relation_set_validation():
    f3 = Field(3)
    with pytest.raises(ValueError):
        RelationSet(field=f3, d=3, relations=(lambda pp, ll: pp[0],))


def test_build_adjacency_matches_neighbors():
    for spec in [FamilySpec(Family.WENGER, 3, 2), FamilySpec(Family.LINEARIZED, 4, 1)]:
        rel = relations(spec)
        built = adg.build_adjacency(rel)
        for vid in range(adg.vertex_count(rel)):
            v = adg.vertex_from_id(vid, rel)
            expect = sorted(adg.vertex_id(w, rel) for w in neighbors(v, rel))
            assert sorted(built[vid]) == expect
        # point rows keep the canonical neighbour order
        pt = adg.vertex_from_id(0, rel)
        assert list(built[0]) == [adg.vertex_id(w, rel) for w in neighbors(pt, rel)]
    # extension fields, p = 2 and odd p, and lie-m3: every point row, in slot order
    for spec in [
        FamilySpec(Family.LINEARIZED, 8, 2),
        FamilySpec(Family.WENGER_ALT, 9, 2),
        FamilySpec(Family.LIE_M3, 5),
    ]:
        rel = relations(spec)
        built = adg.build_adjacency(rel)
        for pid in range(rel.field.q**rel.d):
            pt = adg.vertex_from_id(pid, rel)
            assert built[pid] == tuple(adg.vertex_id(w, rel) for w in neighbors(pt, rel))


def test_edge_list_golden_w1_q2():
    rel = relations(FamilySpec(Family.WENGER, 2, 1))
    assert adg.edge_list_lines(rel) == [
        "P0 L4",
        "P0 L5",
        "P1 L4",
        "P1 L7",
        "P2 L6",
        "P2 L7",
        "P3 L5",
        "P3 L6",
    ]


def _edges_as_set(rel):
    return {
        (adg.vertex_id(pt, rel), adg.vertex_id(ln, rel)) for pt, ln in adg.edge_iter(rel)
    }


def _nx_graph6(n, edges):
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(edges)
    return nx.to_graph6_bytes(ref, header=False).strip()


@pytest.mark.parametrize(
    "spec",
    [
        FamilySpec(Family.WENGER, 2, 1),
        FamilySpec(Family.WENGER, 3, 1),
        FamilySpec(Family.LINEARIZED, 2, 1),
        FamilySpec(Family.WENGER, 4, 2),  # 128 vertices exercises the long size header
    ],
)
def test_graph6_roundtrip_against_networkx(spec):
    rel = relations(spec)
    s = adg.to_graph6(rel)
    decoded = nx.from_graph6_bytes(s.encode("ascii"))
    assert decoded.number_of_nodes() == adg.vertex_count(rel)
    assert {tuple(sorted(e)) for e in decoded.edges()} == {
        tuple(sorted(e)) for e in _edges_as_set(rel)
    }
    # byte-for-byte identical to the reference encoder
    assert s.encode("ascii") == _nx_graph6(adg.vertex_count(rel), _edges_as_set(rel))


def _random_edges(n, pairs, seed):
    # both orientations and repeated edges, as callers may pass them
    rng = random.Random(seed)
    return [tuple(rng.sample(range(n), 2)) for _ in range(pairs)] if n > 1 else []


@pytest.mark.parametrize("n", [*range(71), 258])
def test_graph6_bytes_match_networkx_on_random_graphs(n):
    # n = 0..70 meets every value that n(n-1)/2 takes mod 24, the bit length
    # of one base64 block; 258 takes the four-byte size header
    from egr.graph6 import encode_graph6

    edges = _random_edges(n, n * (n - 1) // 6, seed=n)
    assert encode_graph6(n, edges).encode("ascii") == _nx_graph6(n, edges)


def test_graph6_bytes_match_networkx_at_4096_vertices():
    # networkx's encoder takes about 17 s here, its decoder about 2 s: a
    # string that decodes to the same graph, has the length graph6 fixes
    # and zero padding bits is the one networkx's encoder would give
    from egr.graph6 import encode_graph6

    n = 4096
    edges = _random_edges(n, 4 * n, seed=n)
    s = encode_graph6(n, edges)
    assert s[:4] == chr(126) + chr(63 + 1) + chr(63) + chr(63)
    decoded = nx.from_graph6_bytes(s.encode("ascii"))
    assert sorted(decoded.nodes()) == list(range(n))
    assert {frozenset(e) for e in decoded.edges()} == {frozenset(e) for e in edges}
    nbits = n * (n - 1) // 2
    assert len(s) == 4 + -(-nbits // 6)
    assert (ord(s[-1]) - 63) & ((1 << (-nbits % 6)) - 1) == 0


def test_graph6_buffer_holds_one_bit_per_vertex_pair(monkeypatch):
    from egr import graph6

    sizes = []

    def recorded(size):
        sizes.append(size)
        return bytearray(size)

    monkeypatch.setattr(graph6, "bytearray", recorded, raising=False)
    rel = relations(FamilySpec(Family.WENGER, 16, 2))
    n = adg.vertex_count(rel)
    adg.to_graph6(rel)
    assert len(sizes) == 1
    assert sizes[0] <= -(-(n * (n - 1) // 2) // 8) + 3


def test_graph6_rejects_bad_edges():
    from egr.graph6 import encode_graph6

    with pytest.raises(ValueError):
        encode_graph6(4, [(0, 0)])
    with pytest.raises(ValueError):
        encode_graph6(4, [(0, 7)])


def test_graph6_vertex_limit_is_checked_before_allocating(monkeypatch):
    from egr import graph6

    def no_buffer(*args):
        raise AssertionError("graph6 allocated its bit buffer")

    monkeypatch.setattr(graph6, "bytearray", no_buffer, raising=False)
    limit = graph6.GRAPH6_VERTEX_LIMIT
    for n in (-1, limit + 1):
        with pytest.raises(ValueError, match=str(limit)):
            graph6.encode_graph6(n, [])
    # W_2(32) has 65536 vertices, a 2.1 GB buffer; W_2(16) stays under the limit
    with pytest.raises(ValueError, match="65536"):
        adg.to_graph6(relations(FamilySpec(Family.WENGER, 32, 2)))
    assert adg.vertex_count(relations(FamilySpec(Family.WENGER, 16, 2))) <= limit


def test_adjacency_cache_limit():
    rel = relations(FamilySpec(Family.WENGER, 1021, 2))
    with pytest.raises(ValueError):
        adg.build_adjacency(rel)
    # 17**5 = 1419857 points; the check runs before any vertex is built,
    # and its message names the point count and the limit
    f17 = Field(17)
    rel = RelationSet(field=f17, d=5, relations=(lambda pp, ll: pp[0] * ll[0],) * 4)
    with pytest.raises(ValueError) as err:
        adg.build_adjacency(rel)
    assert "1419857" in str(err.value)
    assert str(adg.ADJACENCY_CACHE_LIMIT) in str(err.value)
