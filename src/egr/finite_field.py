"""Exact arithmetic in GF(p**e), on element indices over log/Zech tables.

An element is its index i in [0, q): the base-p digits of i, least
significant first, are its coefficients on the polynomial basis modulo a
fixed monic irreducible polynomial.  The modulus is the lexicographically
smallest monic irreducible of degree e over Z/pZ, comparing coefficients
from the constant term up, so a field -- and every element index, vertex
id and export built on it -- is byte-reproducible across runs and
platforms.  Index 0 is zero, index 1 is one.

Arithmetic is table lookups on indices.  On first use a field builds, in
O(q) space (no q-by-q table):

  exp    exp[k] is the index of g**k for a primitive element g; the table
         is stored twice over, so a sum of two logs needs no reduction;
  log    the inverse of exp on the nonzero indices;
  zech   zech[n] = log(1 + g**n), or -1 where 1 + g**n = 0 (Zech's
         logarithm, Huber 1990), also stored twice over; with log(-1) it
         gives addition, subtraction and negation;
  elems  one interned FieldElement per index, so no operation allocates.

Polynomial arithmetic over Z/pZ appears only where the field is pinned
down: the modulus search, and the primitive element and exp table built
from it.  `Field(...)`, `modulus` and `to_json()` build no table.
"""

from __future__ import annotations

from itertools import product

Q_LIMIT = 1 << 20


def is_prime(n: int) -> bool:
    """Trial-division primality check; adequate below Q_LIMIT."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e and p prime, or raise ValueError."""
    if q < 2 or q > Q_LIMIT:
        raise ValueError(f"q must be in [2, {Q_LIMIT}], got {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e, r = 0, q
    while r % p == 0:
        r //= p
        e += 1
    if r != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# dense polynomials over Z/pZ: lists of residues, constant term first,
# trailing zeros trimmed ([] is the zero polynomial)

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _trim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    a = _trim(a[:])
    inv_lead = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(m)
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        _trim(a)
    return a


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = [(c * inv_lead) % p for c in a]
    return a


def _ppow_mod(base: list[int], k: int, m: list[int], p: int) -> list[int]:
    out, b = [1], _pmod(base, m, p)
    while k:
        if k & 1:
            out = _pmod(_pmul(out, b, p), m, p)
        b = _pmod(_pmul(b, b, p), m, p)
        k >>= 1
    return out


def _is_irreducible(coeffs: tuple[int, ...], p: int, e: int) -> bool:
    # a root means a linear factor, and below degree 4 only a root can; in
    # general: no common factor with x**(p**i) - x for any i <= e/2.  The
    # cheap root scan comes first, since most candidates fail it.
    f = list(coeffs)
    if e == 1:
        return True
    for r in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if e <= 3:
        return True
    x = [0, 1]
    r = x
    for _ in range(e // 2):
        r = _ppow_mod(r, p, f, p)
        if len(_pgcd(f, _psub(r, x, p), p)) != 1:
            return False
    return True


def _smallest_irreducible(p: int, e: int) -> tuple[int, ...]:
    if e == 1:
        return (0, 1)
    for tail in product(range(p), repeat=e):
        cand = tail + (1,)
        if _is_irreducible(cand, p, e):
            return cand
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def _digits(i: int, p: int) -> list[int]:
    out = []
    while i:
        out.append(i % p)
        i //= p
    return out


def _from_digits(coeffs: list[int], p: int) -> int:
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


class _Tables:
    """The log, exp and Zech tables of one field; see the module docstring."""

    __slots__ = ("exp", "log", "zech", "minus_one", "elems")

    def __init__(self, field: "Field"):
        p, n = field.p, field.q - 1
        m = list(field.modulus)
        # the least index whose order is q - 1: g**(n/r) != 1 for each prime r | n
        cofactors = [n // r for r in _prime_factors(n)]
        for i in range(1, field.q):
            g = _digits(i, p)
            if all(_ppow_mod(g, c, m, p) != [1] for c in cofactors):
                break
        exp, power = [0] * n, [1]
        for k in range(n):
            exp[k] = _from_digits(power, p)
            power = _pmod(_pmul(power, g, p), m, p)
        log = [-1] * field.q
        for k, i in enumerate(exp):
            log[i] = k
        # 1 + g**k adds one to the constant digit of g**k's index
        zech = [0] * n
        for k, i in enumerate(exp):
            low = i % p
            j = i - low + (low + 1) % p
            zech[k] = log[j] if j else -1
        self.exp = exp + exp
        self.log = log
        self.zech = zech + zech
        self.minus_one = log[p - 1]
        self.elems = [FieldElement(field, i) for i in range(field.q)]


# ---------------------------------------------------------------------------

class Field:
    """The finite field GF(p**e) with a fixed, deterministic modulus.

    The arithmetic tables are built on first use; `_tables` stays unset
    until an element is asked for.
    """

    __slots__ = ("p", "e", "q", "modulus", "_tables")

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1:
            raise ValueError(f"e must be >= 1, got {e}")
        q = p**e
        if q > Q_LIMIT:
            raise ValueError(f"field order {q} exceeds supported limit {Q_LIMIT}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _smallest_irreducible(p, e)

    @classmethod
    def of_order(cls, q: int) -> "Field":
        return cls(*factor_prime_power(q))

    @property
    def tables(self) -> _Tables:
        """The arithmetic tables, built on the first call."""
        try:
            return self._tables
        except AttributeError:
            self._tables = _Tables(self)
            return self._tables

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"

    def zero(self) -> "FieldElement":
        return self.tables.elems[0]

    def one(self) -> "FieldElement":
        return self.tables.elems[1]

    def element(self, value) -> "FieldElement":
        """Build an element from an int (reduced mod p) or a coefficient vector."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return self.tables.elems[value.index]
        if isinstance(value, int):
            return self.tables.elems[value % self.p]
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return self.tables.elems[_from_digits(coeffs, self.p)]

    def from_index(self, i: int) -> "FieldElement":
        """Element whose coefficients are the base-p digits of i, low digit first."""
        if not 0 <= i < self.q:
            raise ValueError(f"index {i} out of range [0, {self.q})")
        return self.tables.elems[i]

    def elements(self):
        """All q elements in canonical index order."""
        return iter(self.tables.elems)

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


class FieldElement:
    """Immutable element of a Field; arithmetic via the usual operators.

    Elements come from their Field (`from_index`, `elements`, ...), which
    hands out one interned instance per index; every operation returns one
    of those instances.
    """

    __slots__ = ("field", "index")

    def __init__(self, field: Field, index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients on the polynomial basis, constant term first."""
        p = self.field.p
        return tuple((self.index // p**k) % p for k in range(self.field.e))

    def is_zero(self) -> bool:
        return not self.index

    def __bool__(self):
        return bool(self.index)

    def _tables_with(self, other) -> _Tables:
        """The tables to combine self with other, after checking other."""
        f = self.field
        if other.__class__ is not FieldElement:
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field is not f and other.field != f:
            raise ValueError("operands belong to different fields")
        return f._tables

    def __add__(self, other):
        t = self._tables_with(other)
        a, b = self.index, other.index
        if not b:
            return self
        if not a:
            return t.elems[b]
        la = t.log[a]
        z = t.zech[t.log[b] - la]
        return t.elems[t.exp[la + z]] if z >= 0 else t.elems[0]

    def __sub__(self, other):
        t = self._tables_with(other)
        a, b = self.index, other.index
        if not b:
            return self
        lb = t.log[b] + t.minus_one
        if not a:
            return t.elems[t.exp[lb]]
        la = t.log[a]
        z = t.zech[lb - la]
        return t.elems[t.exp[la + z]] if z >= 0 else t.elems[0]

    def __neg__(self):
        if not self.index:
            return self
        t = self.field._tables
        return t.elems[t.exp[t.log[self.index] + t.minus_one]]

    def __mul__(self, other):
        t = self._tables_with(other)
        a, b = self.index, other.index
        if not a or not b:
            return t.elems[0]
        return t.elems[t.exp[t.log[a] + t.log[b]]]

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent; use inverse()")
        t = self.field._tables
        if not self.index:
            return t.elems[0 if k else 1]
        return t.elems[t.exp[t.log[self.index] * k % (self.field.q - 1)]]

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse: g**(q - 1 - log x)."""
        if not self.index:
            raise ZeroDivisionError("inversion of zero field element")
        t = self.field._tables
        return t.elems[t.exp[self.field.q - 1 - t.log[self.index]]]

    def frobenius(self, i: int = 1) -> "FieldElement":
        """The image under x -> x**(p**i); i = 0 is the identity."""
        if i < 0:
            raise ValueError("frobenius power must be non-negative")
        if not self.index:
            return self
        f = self.field
        t = f._tables
        return t.elems[t.exp[t.log[self.index] * f.p ** (i % f.e) % (f.q - 1)]]

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FieldElement)
            and self.index == other.index
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.index, self.field.p, self.field.e))

    def __repr__(self):
        if self.field.e == 1:
            return f"{self.index}"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                lead = "" if c == 1 else str(c)
                terms.append(f"{lead}a" if k == 1 else f"{lead}a^{k}")
        return "+".join(terms) if terms else "0"
