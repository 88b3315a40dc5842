"""Reference computations that egr's outputs are checked against.

Nothing here imports egr.  Finite fields, the families' defining
relations, vertex ids, the graph6 format, the closed forms, the edge
sampler and a cycle count are written out from their definitions, so a
fault in egr cannot hide in a helper shared with its checker.
"""

from __future__ import annotations

import re
from itertools import product
from math import isqrt

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
MASK64 = (1 << 64) - 1


def prime_power(q: int) -> tuple[int, int]:
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, r = 0, q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _poly_rem(a: list[int], m: tuple[int, ...], p: int) -> list[int]:
    """a mod m over Z/pZ; m is monic, coefficients constant term first."""
    a = list(a)
    for top in range(len(a) - 1, len(m) - 2, -1):
        c = a[top]
        if c:
            shift = top - (len(m) - 1)
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - c * mj) % p
    return a[: len(m) - 1]


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """No monic factor of degree 1 .. deg(f)/2, found by trial division."""
    e = len(f) - 1
    for deg in range(1, e // 2 + 1):
        for tail in product(range(p), repeat=deg):
            if not any(_poly_rem(list(f), tail + (1,), p)):
                return False
    return True


def smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e that is smallest comparing
    coefficients from the constant term up."""
    for tail in product(range(p), repeat=e):
        if _is_irreducible(tail + (1,), p):
            return tail + (1,)
    raise ValueError(f"no irreducible of degree {e} over Z/{p}Z")


class GF:
    """GF(p**e) as index tables.

    Element i has the base-p digits of i as its coefficients, low digit
    first, on the basis 1, a, a**2, ... modulo `modulus`.
    """

    def __init__(self, q: int):
        p, e = prime_power(q)
        self.p, self.e, self.q = p, e, q
        self.modulus = smallest_irreducible(p, e)
        digits = [[(i // p**k) % p for k in range(e)] for i in range(q)]

        def index(coeffs) -> int:
            return sum(c * p**k for k, c in enumerate(coeffs))

        self.add = [[index((a + b) % p for a, b in zip(x, y)) for y in digits] for x in digits]
        self.neg = [index((-a) % p for a in x) for x in digits]
        self.mul = []
        for x in digits:
            row = []
            for y in digits:
                prod = [0] * (2 * e - 1)
                for i, a in enumerate(x):
                    for j, b in enumerate(y):
                        prod[i + j] = (prod[i + j] + a * b) % p
                row.append(index(_poly_rem(prod, self.modulus, p)))
            self.mul.append(row)

    def sub(self, a: int, b: int) -> int:
        return self.add[a][self.neg[b]]

    def power(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul[out][a]
        return out


# -- families ------------------------------------------------------------------

def dimension(family: str, index: int | None) -> int:
    return 5 if family == "lie-m3" else index + 1


def relation_rhs(family: str, field: GF, d: int):
    """rhs(j, pt, ln): right side of the relation fixing coordinate j >= 1
    (0-based), from the first j coordinates of the point and the line."""
    mul, add, sub = field.mul, field.add, field.sub
    if family == "wenger":
        return lambda j, pt, ln: mul[pt[0]][ln[j - 1]]
    if family == "lwenger":
        frob = [[field.power(x, field.p**k) for x in range(field.q)] for k in range(d - 1)]
        return lambda j, pt, ln: mul[frob[j - 1][pt[0]]][ln[0]]
    if family == "lie-m3":
        two = add[1][1]

        def rhs(j, pt, ln):
            if j < 4:
                return mul[pt[0]][ln[j - 1]]
            s = sub(mul[pt[1]][ln[2]], mul[two][mul[pt[2]][ln[1]]])
            return add[s][mul[pt[3]][ln[0]]]

        return rhs
    raise ValueError(f"no reference relations for {family!r}")


class Graph:
    """A family instance: ids, adjacency test and neighbour solving."""

    def __init__(self, family: str, index: int | None, q: int):
        self.q = q
        self.field = GF(q)
        self.d = dimension(family, index)
        self.half = q**self.d
        self.rhs = relation_rhs(family, self.field, self.d)

    def coords(self, vid: int) -> tuple[list[int], bool]:
        """(coordinates, is_line) of a vertex id; first coordinate least significant."""
        is_line = vid >= self.half
        n = vid - self.half if is_line else vid
        return [(n // self.q**k) % self.q for k in range(self.d)], is_line

    def vid(self, coords, is_line: bool) -> int:
        return sum(c * self.q**k for k, c in enumerate(coords)) + (self.half if is_line else 0)

    def adjacent(self, pt, ln) -> bool:
        add = self.field.add
        return all(add[pt[j]][ln[j]] == self.rhs(j, pt, ln) for j in range(1, self.d))

    def line_of(self, pt, x: int) -> list[int]:
        """The neighbour of point pt whose first coordinate is x."""
        ln = [x]
        for j in range(1, self.d):
            ln.append(self.field.sub(self.rhs(j, pt, ln), pt[j]))
        return ln

    def edges(self) -> set[tuple[int, int]]:
        out = set()
        for pid in range(self.half):
            pt, _ = self.coords(pid)
            for x in range(self.q):
                out.add((pid, self.vid(self.line_of(pt, x), True)))
        return out

    @property
    def edge_count(self) -> int:
        return self.q ** (self.d + 1)


def check_edge_list(text: str, graph: Graph) -> None:
    """Every exported 'P<id> L<id>' line is an edge under the relations,
    the lines are sorted, none repeats, and every vertex has degree q."""
    lines = text.split("\n")
    if lines[-1] != "":
        raise AssertionError("edge list does not end with a newline")
    pairs = []
    for line in lines[:-1]:
        p_part, l_part = line.split(" ")
        if p_part[0] != "P" or l_part[0] != "L":
            raise AssertionError(f"malformed edge line {line!r}")
        pairs.append((int(p_part[1:]), int(l_part[1:])))
    if pairs != sorted(pairs):
        raise AssertionError("edge list is not sorted")
    if len(set(pairs)) != len(pairs):
        raise AssertionError("edge list repeats an edge")
    if len(pairs) != graph.edge_count:
        raise AssertionError(f"{len(pairs)} edges, expected {graph.edge_count}")
    degree = [0] * (2 * graph.half)
    for pid, lid in pairs:
        pt, pt_is_line = graph.coords(pid)
        ln, ln_is_line = graph.coords(lid)
        if pt_is_line or not ln_is_line or not graph.adjacent(pt, ln):
            raise AssertionError(f"P{pid} L{lid} is not an edge")
        degree[pid] += 1
        degree[lid] += 1
    if any(k != graph.q for k in degree):
        raise AssertionError("a vertex has degree other than q")


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edges) of a graph6 string; edges as (smaller, larger) pairs."""
    data = text.rstrip("\n").encode("ascii")
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif data[1] != 126:
        n, pos = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63), 4
    else:
        n = 0
        for byte in data[2:8]:
            n = (n << 6) | (byte - 63)
        pos = 8
    nbits = n * (n - 1) // 2
    body = data[pos:]
    if len(body) != -(-nbits // 6):
        raise AssertionError(f"graph6 body has {len(body)} bytes for n = {n}")
    if re.search(rb"[^?-~]", body):
        raise AssertionError("byte outside the graph6 range")
    edges = set()
    for match in re.finditer(rb"[^?]", body):  # '?' is an empty 6-bit group
        k, group = match.start(), match.group()[0] - 63
        for b in range(6):
            if group >> (5 - b) & 1:
                bit = 6 * k + b
                if bit >= nbits:
                    raise AssertionError("graph6 padding bit is set")
                j = (1 + isqrt(1 + 8 * bit)) // 2
                edges.add((bit - j * (j - 1) // 2, j))
    return n, edges


# -- closed forms and counts -----------------------------------------------------

def closed_form(family: str, index: int, q: int) -> tuple[int, int]:
    """(girth, lambda) from the settled closed forms."""
    p, _ = prime_power(q)
    if family == "wenger" and index == 2:
        return 8, (q - 1) ** 2 * (q * q - 4 * q + 5)
    if family == "lwenger" and p != 2 and index >= 2:
        return 6, (q - 1) ** 2 * (p - 2)
    if family == "lwenger" and p == 2 and index == 3:
        return 8, (q - 1) ** 3 + (q - 1) ** 2 * (q - 2)
    raise ValueError(f"no closed form here for {family} {index} {q}")


def lie_m3_base_edge_cycles(q: int, max_length: int) -> dict[int, int]:
    """Cycles of each even length <= max_length through the all-zero edge
    of lie-m3 over the prime field Z/qZ, counted on plain integers mod q.

    A cycle of length L through (u, w) is a simple path of L - 2 edges from
    u to a neighbour of w that avoids w; one depth-first search counts
    every length at once.
    """
    half = q**5
    weights = [q**k for k in range(5)]
    adj: list[list[int]] = [[] for _ in range(2 * half)]
    for pid in range(half):
        p = [(pid // q**k) % q for k in range(5)]
        for x in range(q):
            l1 = x
            l2 = (p[0] * l1 - p[1]) % q
            l3 = (p[0] * l2 - p[2]) % q
            l4 = (p[0] * l3 - p[3]) % q
            l5 = (p[1] * l3 - 2 * p[2] * l2 + p[3] * l1 - p[4]) % q
            lid = half + sum(c * w for c, w in zip((l1, l2, l3, l4, l5), weights))
            adj[pid].append(lid)
            adj[lid].append(pid)
    u, w = 0, half
    if w not in adj[u]:
        raise AssertionError("the all-zero point and line are not adjacent")
    target = bytearray(2 * half)
    for y in adj[w]:
        target[y] = 1
    on_path = bytearray(2 * half)
    on_path[u] = on_path[w] = 1
    found = [0] * (max_length + 1)
    depth_limit = max_length - 2

    def walk(x: int, depth: int) -> None:
        for y in adj[x]:
            if on_path[y]:
                continue
            if target[y]:
                found[depth + 3] += 1
            if depth + 1 < depth_limit:
                on_path[y] = 1
                walk(y, depth + 1)
                on_path[y] = 0

    walk(u, 0)
    return {length: found[length] for length in range(4, max_length + 1, 2)}


def sampled_distinct(seed: int, n_points: int, q: int, count: int) -> int:
    """Distinct edges among `count` draws of egr's seeded edge sampler: a
    64-bit LCG whose top 31 bits pick a point, then one of its q edges."""
    state = seed & MASK64
    drawn = set()
    for _ in range(count):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & MASK64
        pid = (state >> 33) % n_points
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & MASK64
        drawn.add((pid, (state >> 33) % q))
    return len(drawn)
