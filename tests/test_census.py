import json

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from egr import adg, census
from egr.adg import RelationSet, Side, Vertex
from egr.census import (
    BaseEdgeOnly,
    Exhaustive,
    Lcg,
    NonUniformCountsError,
    Sampled,
    certify,
    certify_relations,
    count_cycles_through_edge,
    count_cycles_total,
    girth,
)
from egr.families import Family, FamilySpec, relations
from egr.finite_field import Field


def spec(fam, q, idx=None):
    return FamilySpec(fam, q, idx)


def base_edge(rel):
    pt = adg.vertex_from_id(0, rel)
    ln = adg.vertex_from_id(rel.field.q**rel.d, rel)
    return pt, ln


# the smallest genuinely non-edge-girth-regular control graph found here:
# squaring the point coordinate makes opposite points share all neighbours
def square_relation_graph():
    f5 = Field(5)
    return RelationSet(field=f5, d=2, relations=(lambda pp, ll: pp[0] * pp[0] * ll[0],))


# ---------------------------------------------------------------------------
# girth

@pytest.mark.parametrize(
    "fam,q,idx,expected",
    [
        (Family.WENGER, 3, 1, 6),
        (Family.WENGER, 2, 2, 8),
        (Family.WENGER, 2, 1, 8),
        (Family.LINEARIZED, 4, 1, 6),
        (Family.LINEARIZED, 3, 2, 6),
        (Family.LINEARIZED, 2, 2, 8),
        (Family.WENGER_ALT, 3, 2, 8),
    ],
)
def test_girth_known_values(fam, q, idx, expected):
    assert girth(spec(fam, q, idx)) == expected


# ---------------------------------------------------------------------------
# per-edge counts

def test_count_through_base_edge_examples():
    w13 = spec(Family.WENGER, 3, 1)
    assert count_cycles_through_edge(w13, base_edge(relations(w13)), 6) == 4
    w23 = spec(Family.WENGER, 3, 2)
    assert count_cycles_through_edge(w23, base_edge(relations(w23)), 8) == 8
    w24 = spec(Family.WENGER, 4, 2)
    assert count_cycles_through_edge(w24, base_edge(relations(w24)), 8) == 45
    w12 = spec(Family.WENGER, 2, 1)
    rel = relations(w12)
    for pt, ln in adg.edge_iter(rel):
        assert count_cycles_through_edge(w12, (pt, ln), 8) == 1


def test_count_below_girth_is_zero():
    w13 = spec(Family.WENGER, 3, 1)
    assert count_cycles_through_edge(w13, base_edge(relations(w13)), 4) == 0


def test_count_rejects_bad_input():
    w13 = spec(Family.WENGER, 3, 1)
    rel = relations(w13)
    pt, ln = base_edge(rel)
    with pytest.raises(ValueError):
        count_cycles_through_edge(w13, (pt, ln), 5)
    not_line = Vertex(Side.LINE, (rel.field.one(), rel.field.one()))
    assert not adg.adjacent(pt, not_line, rel)
    with pytest.raises(ValueError):
        count_cycles_through_edge(w13, (pt, not_line), 6)


def test_count_endpoint_symmetric():
    for fam, q, idx in [(Family.WENGER, 3, 1), (Family.LINEARIZED, 4, 2), (Family.WENGER, 4, 2)]:
        s = spec(fam, q, idx)
        ctx = census.GraphContext.build(s)
        g = census.girth_of_context(ctx)
        for pid in (0, 1, ctx.n_points - 1):
            for lid in ctx.adj[pid][:2]:
                forward = census.count_simple_paths(ctx.adj, pid, lid, g - 1)
                backward = census.count_simple_paths(ctx.adj, lid, pid, g - 1)
                assert forward == backward


def test_count_matches_networkx_oracle():
    s = spec(Family.WENGER, 3, 1)
    rel = relations(s)
    G = nx.Graph()
    for pt, ln in adg.edge_iter(rel):
        G.add_edge(adg.vertex_id(pt, rel), adg.vertex_id(ln, rel))
    through_base = 0
    total = 0
    for cyc in nx.simple_cycles(G, length_bound=6):
        assert len(cyc) == 6
        total += 1
        if {0, 9} <= set(cyc):
            k = cyc.index(0)
            if cyc[(k + 1) % 6] == 9 or cyc[(k - 1) % 6] == 9:
                through_base += 1
    assert through_base == count_cycles_through_edge(s, base_edge(rel), 6) == 4
    assert total == count_cycles_total(s) == 18


# ---------------------------------------------------------------------------
# certificates

def test_certify_known_certificates():
    c = certify(spec(Family.WENGER, 3, 2), Exhaustive(), workers=1)
    assert c.parameters() == (54, 3, 8, 8)
    assert c.total_girth_cycles == 81
    c = certify(spec(Family.WENGER, 3, 1), Exhaustive(), workers=1)
    assert c.parameters() == (18, 3, 6, 4)
    assert c.total_girth_cycles == 18
    c = certify(spec(Family.LINEARIZED, 2, 2), Exhaustive(), workers=1)
    assert c.parameters() == (16, 2, 8, 1)


def test_certify_handshake_identity():
    for fam, q, idx in [(Family.WENGER, 3, 1), (Family.WENGER, 4, 2), (Family.LINEARIZED, 3, 2)]:
        c = certify(spec(fam, q, idx), Exhaustive(), workers=1)
        assert sum(c.per_edge_counts.values()) == c.g * c.total_girth_cycles
        assert c.total_girth_cycles * 2 * c.g == c.v * c.k * c.lam
        assert len(c.per_edge_counts) == q ** (idx + 2)


def test_count_cycles_total_examples():
    assert count_cycles_total(spec(Family.WENGER, 3, 2)) == 81
    assert count_cycles_total(spec(Family.WENGER, 5, 1)) == 1000
    assert count_cycles_total(spec(Family.WENGER, 2, 1)) == 1


@pytest.mark.parametrize("n,q", [(1, 3), (1, 4), (2, 3), (2, 4), (3, 3)])
def test_representation_certificates_agree(n, q):
    std = certify(spec(Family.WENGER, q, n), Exhaustive(), workers=1)
    alt = certify(spec(Family.WENGER_ALT, q, n), Exhaustive(), workers=1)
    assert std.parameters() == alt.parameters()
    assert std.total_girth_cycles == alt.total_girth_cycles


def test_base_edge_mode():
    c = certify(spec(Family.WENGER, 3, 2), BaseEdgeOnly(), workers=1)
    assert c.parameters() == (54, 3, 8, 8)
    assert c.mode == "base-edge-only"
    assert list(c.per_edge_counts) == [(0, 27)]


def test_sampled_mode_deterministic():
    s = spec(Family.WENGER, 4, 2)
    a = certify(s, Sampled(seed=7, count=40), workers=1)
    b = certify(s, Sampled(seed=7, count=40), workers=1)
    assert a == b
    assert a.lam == 45
    assert 0 < len(a.per_edge_counts) <= 40
    c = certify(s, Sampled(seed=8, count=40), workers=1)
    assert set(c.per_edge_counts) != set(a.per_edge_counts)


def test_parallel_census_deterministic():
    s = spec(Family.WENGER, 3, 2)
    certs = [certify(s, Exhaustive(), workers=w) for w in (1, 2, 3)]
    assert certs[0] == certs[1] == certs[2]


class InlinePoolContext:
    """A stand-in for multiprocessing's fork context: its Pool records the
    process count it is asked for and maps in this process, starting none."""

    def __init__(self):
        self.processes = []

    def Pool(self, processes, initializer, initargs):
        self.processes.append(processes)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


@pytest.fixture
def inline_pool(monkeypatch):
    context = InlinePoolContext()
    monkeypatch.setattr(census, "_WORKER_STATE", None)
    monkeypatch.setattr(census.multiprocessing, "get_context", lambda method: context)
    return context


@pytest.mark.parametrize(
    "workers, cores, processes",
    [(5000, 4, [4]), (3, 4, [3]), (5000, 1, []), (1, 4, [])],
)
def test_pool_size_is_capped_by_cores(monkeypatch, inline_pool, workers, cores, processes):
    monkeypatch.setattr(census.os, "cpu_count", lambda: cores)
    s = spec(Family.WENGER, 3, 2)
    assert certify(s, Exhaustive(), workers=workers) == certify(s, Exhaustive(), workers=1)
    assert inline_pool.processes == processes


def test_pool_size_is_capped_by_chunks(monkeypatch, inline_pool):
    monkeypatch.setattr(census.os, "cpu_count", lambda: 8)
    ctx = census.GraphContext.build(spec(Family.WENGER, 3, 2))
    edges = [(pid, ctx.adj[pid][0]) for pid in range(5)]
    assert census._count_edges(ctx, edges, 8, workers=8) == [8] * 5
    assert inline_pool.processes == [5]


def test_certify_json_keeps_the_requested_workers(capsys, monkeypatch, inline_pool):
    from egr.cli import main

    monkeypatch.setattr(census.os, "cpu_count", lambda: 2)
    argv = ["certify", "--family", "wenger:n=2,q=3", "--mode", "exhaustive", "--workers", "5000"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["workers"] == 5000
    assert inline_pool.processes == [2]


def test_census_without_fork_runs_serially(monkeypatch):
    asked = []

    def no_fork(method=None):
        asked.append(method)
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(census.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(census.multiprocessing, "get_context", no_fork)
    s = spec(Family.WENGER, 3, 2)
    assert certify(s, Exhaustive(), workers=2) == certify(s, Exhaustive(), workers=1)
    assert asked == ["fork"]


def test_non_uniform_graph_raises_with_witnesses():
    with pytest.raises(NonUniformCountsError) as err:
        certify_relations(square_relation_graph(), Exhaustive(), workers=1)
    wa, wb = err.value.witness_a, err.value.witness_b
    assert wa[:2] != wb[:2]
    assert wa[2] != wb[2]
    assert {wa[2], wb[2]} == {0, 4}
    # the counts are of 4-cycles: the control graph's girth
    assert err.value.g == 4
    assert "girth g = 4" in str(err.value)


def test_non_uniform_graph_base_edge_rejected():
    # the base edge of the control graph lies on no 4-cycle at all
    with pytest.raises(ValueError):
        certify_relations(square_relation_graph(), BaseEdgeOnly(), workers=1)


def test_certify_relations_named_family_matches():
    rel = relations(spec(Family.WENGER, 3, 1))
    c = certify_relations(rel, Exhaustive(), workers=1)
    assert c.parameters() == (18, 3, 6, 4)
    assert c.family == "custom"


def test_certificate_json_schema():
    s = spec(Family.WENGER, 3, 2)
    cert = certify(s, Exhaustive(), workers=1)
    payload = census.certificate_to_json(cert, 12.5, 2)
    assert list(payload) == [
        "family",
        "q",
        "index",
        "field",
        "v",
        "k",
        "g",
        "lambda",
        "mode",
        "edges_counted",
        "total_girth_cycles",
        "elapsed_ms",
        "workers",
    ]
    assert payload["lambda"] == 8
    json.dumps(payload)


def test_auto_mode_policy():
    def resolve(s, g):
        return census.Auto(seed=5).resolve(s.q ** (s.dimension + 1), s.q, g)

    assert isinstance(resolve(spec(Family.WENGER, 3, 2), 8), Exhaustive)
    assert isinstance(resolve(spec(Family.LIE_M3, 5), 12), Exhaustive)
    # 7**6 edges * 6**5 = 9.1e8 steps over the 7**5 orbit representatives
    assert isinstance(resolve(spec(Family.LIE_M3, 7), 12), Exhaustive)
    assert resolve(spec(Family.LIE_M3, 9), 12) == Sampled(seed=5, count=256)


def test_auto_mode_honours_its_sample_count():
    # lie:M3,q=9 has 9**6 edges and is over budget (9**6 * 8**5 = 1.7e10), so auto samples
    assert census.Auto(seed=5, count=64).resolve(9**6, 9, 12) == Sampled(5, 64)
    with pytest.raises(ValueError, match="sample count"):
        census.Auto(count=0)


def test_auto_budget_prices_the_orbit_reduced_census(monkeypatch):
    # W_2(3): 81 edges, 27 representatives of 3 * 2**3 steps each
    price = 81 * 2**3
    monkeypatch.setattr(census, "AUTO_BUDGET", price)
    assert census.Auto().resolve(81, 3, 8) == Exhaustive()
    monkeypatch.setattr(census, "AUTO_BUDGET", price - 1)
    assert census.Auto().resolve(81, 3, 8) == Sampled(seed=0, count=256)


def test_sample_count_is_capped():
    limit = census.SAMPLE_COUNT_LIMIT
    assert census.Sampled(count=limit).count == limit
    assert census.Auto(count=limit).count == limit
    for mode in (census.Sampled, census.Auto):
        with pytest.raises(ValueError, match=str(limit)):
            mode(count=limit + 1)


# ---------------------------------------------------------------------------
# seeded generator

def test_lcg_reference_states():
    rng = Lcg(0)
    assert rng.next_raw() == 1442695040888963407
    assert rng.next_raw() == 1876011003808476466
    assert rng.next_raw() == 11166244414315200793


def test_lcg_draws_are_top_bits():
    rng = Lcg(0)
    assert rng.below(1 << 31) == 1442695040888963407 >> 33


@given(st.integers(0, 2**64 - 1), st.integers(1, 10**6))
def test_lcg_below_in_range(seed, n):
    rng = Lcg(seed)
    for _ in range(5):
        assert 0 <= rng.below(n) < n
