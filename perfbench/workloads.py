"""The benchmark's workloads: the egr commands of one round, and the checks
that each command's output must pass.

Every expected value comes from `oracle`, which shares no code with egr.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import oracle

SAMPLE_COUNT = 64
AUTOMORPHISM_SAMPLE = 512  # edges that `automorphism verify --mode sampled` draws
POOL_WORKERS = 2


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # certify | edges | g6 | automorphism
    family: str
    index: int | None
    q: int
    seed: int | None = None  # seed of a sampled mode
    workers: int | None = None

    @property
    def graph(self) -> oracle.Graph:
        return _graph(self.family, self.index, self.q)

    @property
    def sampled(self) -> bool:
        return "sampled" in self.argv

    def edges(self) -> int:
        """Edges this command certifies, exports or verifies; for a sampled
        mode, the distinct edges among the sampler's draws."""
        graph = self.graph
        if not self.sampled:
            return graph.edge_count
        draws = SAMPLE_COUNT if self.kind == "certify" else AUTOMORPHISM_SAMPLE
        return oracle.sampled_distinct(self.seed, graph.half, self.q, draws)


@lru_cache(maxsize=None)
def _graph(family: str, index: int | None, q: int) -> oracle.Graph:
    return oracle.Graph(family, index, q)


def _certify(spec, family, index, q, mode, workers, seed=None):
    argv = ["certify", "--family", spec, "--mode", mode]
    if mode == "sampled":
        argv += ["--sample-count", str(SAMPLE_COUNT), "--seed", str(seed)]
    argv += ["--workers", str(workers)]
    return Command(tuple(argv), "certify", family, index, q, seed, workers)


def commands(workload: str, seed: int, workers: int | None = None) -> list[Command]:
    """One round of the workload; `workers` overrides the census worker count."""
    if workload == "census":
        pool = workers or POOL_WORKERS
        serial = workers or 1
        return [
            # per-edge counting, in the fork pool
            _certify("wenger:n=2,q=7", "wenger", 2, 7, "exhaustive", pool),
            _certify("lwenger:m=2,q=9", "lwenger", 2, 9, "exhaustive", pool),
            _certify("wenger:n=2,q=9", "wenger", 2, 9, "sampled", pool, seed),
            # adjacency build and girth BFS, one DFS per graph
            _certify("lie:M3,q=5", "lie-m3", None, 5, "base-edge", serial),
            _certify("lwenger:m=3,q=8", "lwenger", 3, 8, "base-edge", serial),
        ]
    if workload == "export-automorphism":
        return [
            Command(("generate", "--family", "wenger:n=2,q=16"), "edges", "wenger", 2, 16),
            Command(("generate", "--family", "lwenger:m=2,q=9"), "edges", "lwenger", 2, 9),
            Command(
                ("generate", "--family", "wenger:n=2,q=11", "--format", "g6"),
                "g6", "wenger", 2, 11,
            ),
            Command(
                ("automorphism", "verify", "--family", "lwenger:m=2,q=9",
                 "--mode", "sampled", "--seed", str(seed)),
                "automorphism", "lwenger", 2, 9, seed,
            ),
            Command(
                ("automorphism", "verify", "--family", "lwenger:m=2,q=5", "--mode", "exhaustive"),
                "automorphism", "lwenger", 2, 5,
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def field_orders(workload: str) -> list[int]:
    return sorted({cmd.q for cmd in commands(workload, 0)})


def comparable(cmd: Command, text: str):
    """The part of an output that must not change between rounds or worker
    counts: certify's timing and worker count are left out."""
    if cmd.kind != "certify":
        return text
    payload = json.loads(text)
    payload.pop("elapsed_ms", None)
    payload.pop("workers", None)
    return payload


@lru_cache(maxsize=None)
def _girth_and_lambda(family: str, index: int | None, q: int) -> tuple[int, int]:
    if family != "lie-m3":
        return oracle.closed_form(family, index, q)
    # no closed form: count on the integer model through the base edge
    girth = 12
    counts = oracle.lie_m3_base_edge_cycles(q, girth)
    if any(counts[length] for length in range(4, girth, 2)):
        raise AssertionError(f"lie-m3 q={q} has a cycle shorter than {girth} through the base edge")
    return girth, counts[girth]


def check(cmd: Command, text: str) -> None:
    """Raise AssertionError unless `text` is the correct output of `cmd`."""
    graph = cmd.graph
    if cmd.kind == "edges":
        oracle.check_edge_list(text, graph)
    elif cmd.kind == "g6":
        n, edges = oracle.decode_graph6(text)
        _expect("graph6 order", n, 2 * graph.half)
        if edges != graph.edges():
            raise AssertionError("graph6 edge set differs from the relations' edge set")
    elif cmd.kind == "certify":
        _check_certificate(cmd, json.loads(text))
    elif cmd.kind == "automorphism":
        payload = json.loads(text)
        m, q = cmd.index, cmd.q
        mode = "sampled" if cmd.sampled else "exhaustive"
        mapped = AUTOMORPHISM_SAMPLE if cmd.sampled else graph.edge_count
        _expect("family", payload["family"], f"lwenger:m={m},q={q}")
        _expect("mode", payload["mode"], mode)
        _expect("ok", payload["ok"], True)
        _expect("counterexample", payload["counterexample"], None)
        _expect("maps_checked", payload["maps_checked"], (m + 2) * q)
        _expect("edges_mapped_to_base", payload["edges_mapped_to_base"], mapped)
    else:
        raise ValueError(f"unknown command kind {cmd.kind!r}")


def _check_certificate(cmd: Command, payload: dict) -> None:
    graph = cmd.graph
    field = graph.field
    g, lam = _girth_and_lambda(cmd.family, cmd.index, cmd.q)
    v, k = 2 * graph.half, cmd.q
    if cmd.sampled:
        mode = f"sampled:seed={cmd.seed},count={SAMPLE_COUNT}"
    elif "exhaustive" in cmd.argv:
        mode = "exhaustive"
    else:
        mode = "base-edge-only"
    _expect("family", payload["family"], cmd.family)
    _expect("q", payload["q"], cmd.q)
    _expect("index", payload["index"], cmd.index)
    _expect("field", payload["field"], {"p": field.p, "e": field.e, "modulus": list(field.modulus)})
    _expect("v", payload["v"], v)
    _expect("k", payload["k"], k)
    _expect("g", payload["g"], g)
    _expect("lambda", payload["lambda"], lam)
    _expect("mode", payload["mode"], mode)
    # handshake: each girth cycle has g edges, each edge lies on lambda of them
    _expect("handshake remainder", v * k * lam % (2 * g), 0)
    _expect("total_girth_cycles", payload["total_girth_cycles"], v * k * lam // (2 * g))
    _expect("workers", payload["workers"], cmd.workers)


def _expect(what: str, got, want) -> None:
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, expected {want!r}")
