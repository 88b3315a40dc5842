"""Exact arithmetic in GF(p**e) on a polynomial basis.

Elements are length-e vectors of residues mod p (constant term first),
reduced modulo a fixed monic irreducible polynomial.  The modulus is the
lexicographically smallest monic irreducible of degree e over Z/pZ,
comparing coefficients from the constant term up, so a field -- and every
element index, vertex id and export built on it -- is byte-reproducible
across runs and platforms.

The element at index i carries the base-p digits of i as coefficients,
least significant digit first; index 0 is zero, index 1 is one.
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
    # degree <= 3: reducible iff there is a root; in general: no common factor
    # with x**(p**i) - x for any i <= e/2
    f = list(coeffs)
    if e == 1:
        return True
    if e <= 3:
        for r in range(p):
            acc = 0
            for c in reversed(f):
                acc = (acc * r + c) % p
            if acc == 0:
                return False
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


# ---------------------------------------------------------------------------

class Field:
    """The finite field GF(p**e) with a fixed, deterministic modulus."""

    __slots__ = ("p", "e", "q", "modulus")

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
        return FieldElement(self, (0,) * self.e)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.e - 1))

    def element(self, value) -> "FieldElement":
        """Build an element from an int (reduced mod p) or a coefficient vector."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.e - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def from_index(self, i: int) -> "FieldElement":
        """Element whose coefficients are the base-p digits of i, low digit first."""
        if not 0 <= i < self.q:
            raise ValueError(f"index {i} out of range [0, {self.q})")
        coeffs = []
        for _ in range(self.e):
            coeffs.append(i % self.p)
            i //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self):
        """All q elements in canonical index order."""
        for i in range(self.q):
            yield self.from_index(i)

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}


class FieldElement:
    """Immutable element of a Field; arithmetic via the usual operators."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    @property
    def index(self) -> int:
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.field.p + c
        return n

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _check(self, other) -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.field is not self.field and other.field != self.field:
            raise ValueError("operands belong to different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        other = self._check(other)
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        p = f.p
        if f.e == 1:
            return FieldElement(f, ((self.coeffs[0] * other.coeffs[0]) % p,))
        e = f.e
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        mod = f.modulus
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                base = i - e
                for j in range(e):
                    prod[base + j] = (prod[base + j] - c * mod[j]) % p
        return FieldElement(f, tuple(prod[:e]))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent; use inverse()")
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, x**(q - 2) by Fermat's little theorem."""
        if self.is_zero():
            raise ZeroDivisionError("inversion of zero field element")
        return self ** (self.field.q - 2)

    def frobenius(self, i: int = 1) -> "FieldElement":
        """The image under x -> x**(p**i); i = 0 is the identity."""
        if i < 0:
            raise ValueError("frobenius power must be non-negative")
        out = self
        for _ in range(i % self.field.e):
            out = out ** self.field.p
        return out

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.coeffs == other.coeffs
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.coeffs, self.field.p, self.field.e))

    def __repr__(self):
        if self.field.e == 1:
            return f"{self.coeffs[0]}"
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
