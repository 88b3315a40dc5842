import pytest
from hypothesis import given
from hypothesis import strategies as st

from egr.finite_field import Field, factor_prime_power, is_prime

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


# ---------------------------------------------------------------------------
# independent modulus oracle: scan monic polynomials in lexicographic order
# (constant term compared first) and test irreducibility by exhaustive
# root/factor checks over the at-most-p**3 candidates involved here

def _eval_poly(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _oracle_smallest_irreducible(p, e):
    from itertools import product

    assert e in (2, 3)
    for tail in product(range(p), repeat=e):
        cand = tail + (1,)
        if all(_eval_poly(cand, x, p) for x in range(p)):
            return cand
    raise AssertionError


def test_modulus_matches_oracle_scan():
    for p, e in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]:
        assert Field(p, e).modulus == _oracle_smallest_irreducible(p, e)


def test_modulus_examples():
    assert Field(3, 1).modulus == (0, 1)
    assert Field(2, 2).modulus == (1, 1, 1)
    assert Field(3, 2).modulus == (1, 0, 1)


def test_modulus_degree_four_is_irreducible():
    # no roots and no quadratic factors: check against every monic quadratic
    f = Field(2, 4)
    assert len(f.modulus) == 5 and f.modulus[-1] == 1
    assert all(_eval_poly(f.modulus, x, 2) for x in range(2))
    from itertools import product

    for tail in product(range(2), repeat=2):
        quad = tail + (1,)
        rem = _poly_rem(list(f.modulus), list(quad), 2)
        assert rem != []


def _poly_rem(a, b, p):
    while len(a) >= len(b):
        if a[-1]:
            c = a[-1]
            shift = len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - c * bj) % p
        while a and a[-1] == 0:
            a.pop()
    return a


# ---------------------------------------------------------------------------
# schoolbook oracle: an element is the coefficient list of its index's
# base-p digits, and products are reduced modulo Field.modulus by long
# division; nothing here touches the field's log, exp or Zech tables

def _model_digits(i, p, e):
    return [i // p**k % p for k in range(e)]


def _model_index(coeffs, p):
    return sum(c * p**k for k, c in enumerate(coeffs))


def _model_mul(a, b, modulus, p):
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(2 * e - 2, e - 1, -1):
        c = prod[top]
        for j, mj in enumerate(modulus):
            prod[top - e + j] = (prod[top - e + j] - c * mj) % p
    return prod[:e]


def _model_pow(a, k, modulus, p):
    out = [1] + [0] * (len(a) - 1)
    for _ in range(k):
        out = _model_mul(out, a, modulus, p)
    return out


def test_arithmetic_matches_schoolbook_oracle():
    for q in SMALL_PRIME_POWERS:
        f = Field.of_order(q)
        p, e, modulus = f.p, f.e, f.modulus
        elems = list(f.elements())
        digits = [_model_digits(i, p, e) for i in range(q)]
        for i, x in enumerate(elems):
            a = digits[i]
            assert x.index == i and list(x.coeffs) == a
            assert -x is elems[_model_index([-c % p for c in a], p)]
            for k in range(e + 1):
                assert x.frobenius(k) is elems[_model_index(_model_pow(a, p**k, modulus, p), p)]
            if i:
                product = _model_mul(a, digits[x.inverse().index], modulus, p)
                assert product == [1] + [0] * (e - 1)
            for j, y in enumerate(elems):
                b = digits[j]
                assert x * y is elems[_model_index(_model_mul(a, b, modulus, p), p)]
                assert x + y is elems[_model_index([(s + t) % p for s, t in zip(a, b)], p)]
                assert x - y is elems[_model_index([(s - t) % p for s, t in zip(a, b)], p)]


def test_tables_are_built_on_first_use():
    big = Field(2, 20)
    assert big.to_json()["modulus"][-1] == 1
    assert not hasattr(big, "_tables")
    f = Field(3, 2)
    assert not hasattr(f, "_tables")
    assert f.one() is f.from_index(1)
    assert len(f.tables.elems) == 9


# ---------------------------------------------------------------------------

def test_construction_errors():
    with pytest.raises(ValueError):
        Field(4, 1)
    with pytest.raises(ValueError):
        Field(1, 1)
    with pytest.raises(ValueError):
        Field(2, 0)
    with pytest.raises(ValueError):
        Field(2, 21)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(6)
    with pytest.raises(ValueError):
        factor_prime_power(1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(30) if is_prime(n)} == primes


def test_arithmetic_examples():
    f3 = Field(3)
    two = f3.from_index(2)
    assert two * two == f3.one()
    f4 = Field(2, 2)
    a = f4.from_index(2)
    assert a * a == f4.from_index(3)  # a**2 = a + 1
    for q in (3, 4, 9):
        f = Field.of_order(q)
        for x in f.elements():
            assert x + f.zero() == x


def test_inverse_examples():
    f5 = Field(5)
    assert f5.from_index(2).inverse() == f5.from_index(3)
    for q in (3, 4, 5, 9):
        f = Field.of_order(q)
        assert f.one().inverse() == f.one()
    f4 = Field(2, 2)
    a = f4.from_index(2)
    assert a.inverse() == f4.from_index(3)
    with pytest.raises(ZeroDivisionError):
        f4.zero().inverse()
    for q in (64, 125, 243, 256):
        f = Field.of_order(q)
        for x in list(f.elements())[1:]:
            assert x * x.inverse() == f.one()
            assert x.inverse().inverse() == x


def test_pow_examples():
    f3 = Field(3)
    assert f3.from_index(2) ** 2 == f3.one()
    f9 = Field(3, 2)
    for g in f9.elements():
        if not g.is_zero():
            assert g**8 == f9.one()
    assert f9.zero() ** 0 == f9.one()
    with pytest.raises(ValueError):
        f9.one() ** (-1)


def test_fermat_and_frobenius_identity():
    for q in SMALL_PRIME_POWERS:
        f = Field.of_order(q)
        for x in f.elements():
            assert x**q == x
            assert x.frobenius(f.e) == x


def test_frobenius_examples():
    f9 = Field(3, 2)
    for x in f9.elements():
        assert x.frobenius(2) == x
    f5 = Field(5)
    for x in f5.elements():
        assert x.frobenius(1) == x
    f4 = Field(2, 2)
    a = f4.from_index(2)
    assert a.frobenius(1) == f4.from_index(3)


def test_frobenius_additive_exhaustive():
    for q in SMALL_PRIME_POWERS:
        f = Field.of_order(q)
        elems = list(f.elements())
        for x in elems:
            for y in elems:
                assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)


def test_frobenius_composition():
    f = Field(3, 3)
    for x in f.elements():
        for i in range(4):
            for j in range(4):
                assert x.frobenius(i).frobenius(j) == x.frobenius(i + j)


def test_field_axioms_exhaustive():
    for q in SMALL_PRIME_POWERS:
        f = Field.of_order(q)
        elems = list(f.elements())
        zero, one = f.zero(), f.one()
        for x in elems:
            assert x + (-x) == zero
            assert x - x == zero
            if not x.is_zero():
                assert x * x.inverse() == one
        for x in elems:
            for y in elems:
                assert x + y == y + x
                assert x * y == y * x
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x + y) + z == x + (y + z)
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z


def test_char2_subtraction_is_addition():
    f8 = Field(2, 3)
    for x in f8.elements():
        for y in f8.elements():
            assert x - y == x + y


def test_enumeration_order_and_roundtrip():
    f3 = Field(3)
    assert [x.index for x in f3.elements()] == [0, 1, 2]
    f4 = Field(2, 2)
    seq = list(f4.elements())
    assert seq[0] == f4.zero()
    assert seq[1] == f4.one()
    assert [x.coeffs for x in seq] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert len(list(Field(3, 2).elements())) == 9
    for q in (5, 8, 9):
        f = Field.of_order(q)
        elems = list(f.elements())
        assert len(set(elems)) == q
        assert all(f.from_index(x.index) == x for x in elems)


def test_enumeration_stable_across_instances():
    a = [x.coeffs for x in Field(3, 3).elements()]
    b = [x.coeffs for x in Field(3, 3).elements()]
    assert a == b


def test_mixed_field_operands_rejected():
    x = Field(3).from_index(1)
    y = Field(5).from_index(1)
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y
    # same order, different construction paths, must interoperate
    z = Field(3, 1).from_index(2)
    assert x + z == Field(3).from_index(0)


def test_element_coercion():
    f9 = Field(3, 2)
    assert f9.element(5) == f9.from_index(2)  # 5 mod 3 in the constant term
    assert f9.element((1, 2)) == f9.from_index(7)
    with pytest.raises(ValueError):
        f9.element((1, 2, 0))
    with pytest.raises(ValueError):
        f9.from_index(9)


def test_to_json():
    assert Field(2, 2).to_json() == {"p": 2, "e": 2, "modulus": [1, 1, 1]}


@given(st.integers(0, 26), st.integers(0, 26))
def test_frobenius_additive_gf27(i, j):
    f = Field(3, 3)
    x, y = f.from_index(i), f.from_index(j)
    assert (x + y).frobenius(1) == x.frobenius(1) + y.frobenius(1)


@given(st.integers(0, 24))
def test_index_roundtrip_gf25(i):
    f = Field(5, 2)
    assert f.from_index(i).index == i
