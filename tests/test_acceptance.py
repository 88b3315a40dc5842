"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criteria 2 and 5 assert the two-index closed forms as the census measures
them.  For the two-index Wenger graph that is lambda = (q-1)**2*(q**2-4q+5)
at every q, where the paper's abstract states (q-1)**3*(q-2) for odd q; the
two agree at q = 3 only.  The measured value is confirmed by a networkx
enumeration, by both equation representations and by a count on W_2(q)
built from plain integer arithmetic (tests/test_census_oracles.py).  The
same value holds for lwenger m=2 in characteristic 2, where that graph is
the point/line swap of the two-index Wenger graph.  The README's section on
closed forms that differ from the paper has the evidence.
"""

import time

import pytest

from egr import adg, census
from egr.adg import Vertex, adjacent
from egr.automorphisms import (
    SigmaMap,
    apply_sequence,
    edge_to_base,
    lwenger_relations,
    verify_automorphism,
)
from egr.census import Exhaustive, certify
from egr.families import Family, FamilySpec
from egr.predictions import (
    extremal_lower_bounds,
    moore_bound,
    predict_linearized,
    turan_lower_bound,
)

WORKERS = 2

_CERTS: dict[tuple, census.EgrCertificate] = {}


def cert(family: Family, q: int, index=None) -> census.EgrCertificate:
    key = (family, q, index)
    if key not in _CERTS:
        _CERTS[key] = certify(FamilySpec(family, q, index), Exhaustive(), workers=WORKERS)
    return _CERTS[key]


def report(num: int, name: str, failures: list[str], elapsed: float, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    detail = f" ({'; '.join(failures)})" if failures else (f" ({extra})" if extra else "")
    print(f"ACCEPTANCE {num:02d} {name}: {status} [{elapsed:.1f}s]{detail}")
    assert not failures, f"criterion {num}: {'; '.join(failures)}"


def test_criterion_01_one_index_wenger():
    start = time.perf_counter()
    failures = []
    for q in (3, 4, 5, 7, 8, 9):
        c = cert(Family.WENGER, q, 1)
        want = (2 * q * q, q, 6, (q - 1) ** 2 * (q - 2))
        if c.parameters() != want:
            failures.append(f"W1({q}): measured {c.parameters()}, stated {want}")
    c = cert(Family.WENGER, 2, 1)
    if c.parameters() != (8, 2, 8, 1):
        failures.append(f"W1(2): measured {c.parameters()}, stated (8, 2, 8, 1)")
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(1, "one-index wenger certificates", failures, elapsed, "7 cells, exhaustive")


def test_criterion_02_two_index_wenger_odd():
    start = time.perf_counter()
    failures = []
    for q in (3, 5, 7):
        c = cert(Family.WENGER, q, 2)
        want = (2 * q**3, q, 8, (q - 1) ** 2 * (q * q - 4 * q + 5))
        if c.parameters() != want:
            failures.append(f"W2({q}): measured {c.parameters()}, stated {want}")
    c3 = cert(Family.WENGER, 3, 2)
    if c3.total_girth_cycles != 81:
        failures.append(f"W2(3) total: {c3.total_girth_cycles} != 81")
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(2, "two-index wenger, odd q", failures, elapsed, "3 cells + total")


def test_criterion_03_two_index_wenger_even():
    start = time.perf_counter()
    failures = []
    for q in (2, 4, 8):
        c = cert(Family.WENGER, q, 2)
        want = (2 * q**3, q, 8, (q - 1) ** 3 * (q - 3) + 2 * (q - 1) ** 2)
        if c.parameters() != want:
            failures.append(f"W2({q}): measured {c.parameters()}, stated {want}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(3, "two-index wenger, even q", failures, elapsed, "3 cells, exhaustive incl q=8")


def test_criterion_04_higher_index_wenger():
    start = time.perf_counter()
    failures = []
    for n, q in ((3, 3), (3, 4), (3, 5), (4, 3)):
        c = cert(Family.WENGER, q, n)
        want = (2 * q ** (n + 1), q, 8, (q - 1) ** 3)
        if c.parameters() != want:
            failures.append(f"W{n}({q}): measured {c.parameters()}, stated {want}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    report(4, "wenger n >= 3 certificates", failures, elapsed, "4 cells")


def test_criterion_05_linearized_wenger():
    start = time.perf_counter()
    failures = []
    cells = [(1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 8), (2, 9), (3, 2), (3, 3)]
    for m, q in cells:
        c = cert(Family.LINEARIZED, q, m)
        g, lam = predict_linearized(m, q)
        want = (2 * q ** (m + 1), q, g, lam)
        if c.parameters() != want:
            failures.append(f"L{m}({q}): measured {c.parameters()}, stated {want}")
    elapsed = time.perf_counter() - start
    assert elapsed < 180
    report(5, "linearized wenger certificates", failures, elapsed, "10 cells")


def test_criterion_06_cycle_total_identities():
    start = time.perf_counter()
    failures = []
    # make sure a representative exhaustive set exists even standalone
    for fam, q, idx in [
        (Family.WENGER, 3, 1),
        (Family.WENGER, 3, 2),
        (Family.LINEARIZED, 3, 2),
        (Family.WENGER_ALT, 3, 2),
    ]:
        cert(fam, q, idx)
    checked = 0
    for c in _CERTS.values():
        if c.mode != "exhaustive":
            continue
        checked += 1
        edge_sum = sum(c.per_edge_counts.values())
        if edge_sum != c.g * c.total_girth_cycles:
            failures.append(f"{c.family} q={c.q}: edge sum {edge_sum} != g*total")
        if c.v * c.k * c.lam % (2 * c.g) or c.total_girth_cycles * 2 * c.g != c.v * c.k * c.lam:
            failures.append(f"{c.family} q={c.q}: total != v*k*lambda/(2g) exactly")
    elapsed = time.perf_counter() - start
    report(6, "per-edge sums vs totals", failures, elapsed, f"{checked} exhaustive runs")


def test_criterion_07_turan_bounds():
    start = time.perf_counter()
    failures = []
    for q in range(3, 101, 2):
        try:
            FamilySpec(Family.WENGER, q, 1)
        except ValueError:
            continue
        turan_lower_bound(3, q)
        turan_lower_bound(4, q)
    if turan_lower_bound(3, 3) != 18:
        failures.append("turan(3, 3) != 18")
    if turan_lower_bound(4, 3) != 81:
        failures.append("turan(4, 3) != 81")
    if cert(Family.WENGER, 3, 1).total_girth_cycles != turan_lower_bound(3, 3):
        failures.append("W1(3) census total differs from turan(3, 3)")
    if cert(Family.WENGER, 3, 2).total_girth_cycles != turan_lower_bound(4, 3):
        failures.append("W2(3) census total differs from turan(4, 3)")
    elapsed = time.perf_counter() - start
    report(7, "cycle-count lower bounds", failures, elapsed, "odd prime powers to 100")


def test_criterion_08_automorphisms():
    start = time.perf_counter()
    failures = []
    for m, q in ((1, 3), (1, 4), (2, 2), (2, 3)):
        rel = lwenger_relations(m, q)
        edges = list(adg.edge_iter(rel))
        for i in range(m + 2):
            for x in rel.field.elements():
                if not verify_automorphism(rel, SigmaMap(i, x, m), edges).ok:
                    failures.append(f"sigma({i}, {x}) fails on L{m}({q})")
        base = (adg.vertex_from_id(0, rel), adg.vertex_from_id(q**rel.d, rel))
        for pt, ln in edges:
            maps = edge_to_base((pt, ln), m, q)
            if (apply_sequence(maps, pt), apply_sequence(maps, ln)) != base:
                failures.append(f"edge_to_base misses base edge on L{m}({q})")
                break
    rel = lwenger_relations(2, 3)
    x = rel.field.one()

    def corrupted(v):
        c = list(v.coords)
        c[1] = c[1] + x
        return Vertex(v.side, tuple(c))

    result = verify_automorphism(rel, corrupted, list(adg.edge_iter(rel)))
    if result.ok or result.counterexample is None:
        failures.append("corrupted map was not rejected with a witness")
    else:
        pt, ln = result.counterexample
        if adjacent(corrupted(pt), corrupted(ln), rel):
            failures.append("corrupted-map witness is not a genuine counterexample")
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    report(8, "explicit automorphisms", failures, elapsed, "4 graphs, all maps")


def test_criterion_09_order_bounds():
    start = time.perf_counter()
    failures = []
    if moore_bound(3, 6) != 14:
        failures.append("moore(3, 6) != 14")
    bip = extremal_lower_bounds(3, 6, 4).extremal_bipartite
    if bip != 18:
        failures.append(f"bipartite bound at (3, 6, 4) is {bip}, not 18")
    if bip != cert(Family.WENGER, 3, 1).v:
        failures.append("bipartite bound at (3, 6, 4) does not match the W1(3) order")
    for k in range(3, 10):
        for g in (6, 8):
            for lam in range(1, (k - 1) ** (g // 2) + 1):
                r = extremal_lower_bounds(k, g, lam)
                if not r.extremal_bipartite >= r.extremal_general >= r.moore:
                    failures.append(f"bound ordering fails at ({k}, {g}, {lam})")
    elapsed = time.perf_counter() - start
    report(9, "moore and extremal order bounds", failures, elapsed, "grid k in [3,9]")


def test_criterion_10_representation_equivalence():
    start = time.perf_counter()
    failures = []
    for n, q in ((1, 3), (2, 3), (2, 4), (3, 3)):
        std = cert(Family.WENGER, q, n)
        alt = cert(Family.WENGER_ALT, q, n)
        if std.parameters() != alt.parameters() or (
            std.total_girth_cycles != alt.total_girth_cycles
        ):
            failures.append(f"representations of W{n}({q}) disagree")
    elapsed = time.perf_counter() - start
    report(10, "equation-representation equivalence", failures, elapsed, "4 pairs")


def test_criterion_11_case_sum_identities():
    start = time.perf_counter()
    failures = []
    for q in range(2, 101):
        odd_sum = (
            (q - 1) ** 2
            + (q - 1) ** 2 * (q - 3)
            + (q - 1) ** 2 * (q - 2)
            + (q - 1) ** 2 * (q - 2) * (q - 3)
        )
        if odd_sum != (q - 1) ** 3 * (q - 2):
            failures.append(f"odd-q case sum fails at q={q}")
    for q in range(2, 65):
        even_sum = (
            (q - 1) ** 2 + 2 * (q - 1) ** 2 * (q - 2) + (q - 1) ** 2 * (q - 2) * (q - 4)
        )
        if even_sum != (q - 1) ** 3 * (q - 3) + 2 * (q - 1) ** 2:
            failures.append(f"even-q case sum fails at q={q}")
    elapsed = time.perf_counter() - start
    assert elapsed < 1
    report(11, "closed-form case-sum identities", failures, elapsed, "q <= 100")


def test_criterion_12_worker_count_determinism():
    start = time.perf_counter()
    failures = []
    spec = FamilySpec(Family.WENGER, 5, 2)
    payloads = []
    certs = []
    for workers in (1, 2, 8):
        c = certify(spec, Exhaustive(), workers=workers)
        certs.append(c)
        payload = census.certificate_to_json(c, 0.0, workers)
        payload.pop("elapsed_ms")
        payload.pop("workers")
        import json

        payloads.append(json.dumps(payload, sort_keys=True).encode())
    if not (certs[0] == certs[1] == certs[2]):
        failures.append("certificates differ across worker counts")
    if not (payloads[0] == payloads[1] == payloads[2]):
        failures.append("serialized output differs across worker counts")
    elapsed = time.perf_counter() - start
    report(12, "worker-count determinism", failures, elapsed, "W2(5), workers 1/2/8")


@pytest.mark.slow
def test_criterion_13_lie_m3_experiment():
    start = time.perf_counter()
    failures = []
    spec = FamilySpec(Family.LIE_M3, 5)
    c = certify(spec, census.BaseEdgeOnly(), workers=WORKERS)
    if c.g != 12:
        failures.append(f"girth of the five-coordinate Lie graph at q=5 is {c.g}, not 12")
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(
        13,
        "five-coordinate Lie graph experiment",
        failures,
        elapsed,
        f"girth {c.g}, base-edge 12-cycle count {c.lam} (reported, not asserted)",
    )
