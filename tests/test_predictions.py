import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egr.families import Family, FamilySpec
from egr.finite_field import factor_prime_power
from egr.predictions import (
    extremal_lower_bounds,
    moore_bound,
    order_bounds,
    predict,
    predict_linearized,
    predict_wenger,
    sandwich,
    turan_asymptotic,
    turan_bound,
    turan_lower_bound,
)

def _odd_prime_powers(limit):
    out = []
    for q in range(3, limit + 1, 2):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# family closed forms

@pytest.mark.parametrize(
    "n,q,expected",
    [
        (1, 3, (6, 4)),
        (2, 5, (8, 160)),
        (3, 3, (8, 8)),
        (2, 4, (8, 45)),
        (1, 2, (8, 1)),
        (2, 2, (8, 1)),
        (4, 2, (8, 1)),
        (1, 9, (6, 448)),
        (4, 3, (8, 8)),
    ],
)
def test_predict_wenger(n, q, expected):
    assert predict_wenger(n, q) == expected


@pytest.mark.parametrize(
    "m,q,expected",
    [
        (2, 3, (6, 4)),
        (1, 4, (6, 18)),
        (2, 2, (8, 1)),
        (2, 9, (6, 64)),
        (1, 3, (6, 4)),
        (1, 2, (8, 1)),
        (3, 2, (8, 1)),
        (1, 5, (6, 48)),
        (2, 8, (8, 1813)),
        (3, 8, (8, 637)),
        (2, 27, (6, 676)),
        (3, 4, (8, 45)),
        (4, 8, (8, 637)),
    ],
)
def test_predict_linearized(m, q, expected):
    assert predict_linearized(m, q) == expected


def test_linearized_m2_char2_agrees_with_wenger():
    # L_2(2^e) is the point/line swap of W_2(2^e), with the same coordinates
    for q in (2, 4, 8, 16):
        assert predict_linearized(2, q) == predict_wenger(2, q)


def test_predict_validation():
    with pytest.raises(ValueError):
        predict_wenger(0, 3)
    with pytest.raises(ValueError):
        predict_wenger(1, 6)
    with pytest.raises(ValueError):
        predict_linearized(1, 12)


def test_predict_dispatch():
    assert predict(FamilySpec(Family.LIE_M1, 5)) == predict_wenger(1, 5)
    assert predict(FamilySpec(Family.LIE_M2, 5)) == predict_wenger(2, 5)
    assert predict(FamilySpec(Family.WENGER_ALT, 4, 2)) == predict_wenger(2, 4)
    assert predict(FamilySpec(Family.LINEARIZED, 9, 2)) == (6, 64)
    with pytest.raises(ValueError):
        predict(FamilySpec(Family.LIE_M3, 5))


# ---------------------------------------------------------------------------
# bounds

def test_moore_bound_examples():
    assert moore_bound(3, 6) == 14
    assert moore_bound(3, 5) == 10
    assert moore_bound(5, 8) == 170
    assert moore_bound(3, 8) == 30
    with pytest.raises(ValueError):
        moore_bound(1, 6)


def test_extremal_bounds_examples():
    report = extremal_lower_bounds(3, 6, 4)
    assert report.moore == 14
    assert report.extremal_bipartite == 18
    assert report.extremal_general == 17
    assert extremal_lower_bounds(3, 8, 8).extremal_bipartite == 36


def test_extremal_bounds_at_maximum_lambda():
    for k, g in [(3, 6), (4, 8), (7, 6)]:
        cap = (k - 1) ** (g // 2)
        report = extremal_lower_bounds(k, g, cap)
        assert report.extremal_bipartite == report.moore
        assert report.extremal_general == report.moore


def test_extremal_bounds_odd_girth():
    report = extremal_lower_bounds(3, 5, 2)
    assert report.moore == 10
    assert report.extremal_general == 10 + (4 - 2)
    assert report.extremal_bipartite is None


def test_extremal_bounds_range_errors():
    with pytest.raises(ValueError):
        extremal_lower_bounds(3, 6, 0)
    with pytest.raises(ValueError):
        extremal_lower_bounds(3, 6, 9)
    with pytest.raises(ValueError):
        extremal_lower_bounds(3, 5, 5)


def test_bound_ordering_grid():
    for k in range(3, 10):
        for g in (6, 8):
            cap = (k - 1) ** (g // 2)
            for lam in range(1, cap + 1):
                report = extremal_lower_bounds(k, g, lam)
                assert report.extremal_bipartite >= report.extremal_general >= report.moore


def test_sandwich_examples():
    assert sandwich(3, 6) == (18, 18)
    # independent arithmetic: M(5,6) = 2*(1+4+16) = 42, correction 2*ceil(16/5) = 8
    assert sandwich(5, 6) == (42 + 8, 50) == (50, 50)
    assert sandwich(3, 8) == (36, 54)


def test_sandwich_lower_never_exceeds_upper():
    for q in _odd_prime_powers(100):
        for g in (6, 8):
            lower, upper = sandwich(q, g)
            assert lower <= upper
            # at girth 6 the two ends agree exactly
            if g == 6:
                assert lower == upper == 2 * q * q


def test_order_bounds_add_the_sandwich_only_at_its_lambda():
    assert order_bounds(5, 6, 48).sandwich == sandwich(5, 6) == (50, 50)
    assert order_bounds(3, 8, 8).sandwich == sandwich(3, 8)
    for q, g, lam in [(5, 8, 160), (5, 6, 47), (4, 6, 18), (3, 10, 4)]:
        assert order_bounds(q, g, lam) == extremal_lower_bounds(q, g, lam)
        assert order_bounds(q, g, lam).sandwich is None


def test_sandwich_validation():
    with pytest.raises(ValueError):
        sandwich(3, 10)
    with pytest.raises(ValueError):
        sandwich(4, 6)


# ---------------------------------------------------------------------------
# cycle-count lower bounds

def test_turan_examples():
    assert turan_lower_bound(3, 3) == 18
    assert turan_lower_bound(4, 3) == 81
    assert turan_lower_bound(3, 5) == 1000
    # the census total of W_2(5): 250 * 5 * 160 / (2 * 8)
    assert turan_lower_bound(4, 5) == 12500
    with pytest.raises(ValueError):
        turan_lower_bound(5, 3)
    with pytest.raises(ValueError):
        turan_lower_bound(3, 4)


@pytest.mark.parametrize(
    "family, q, index, bound",
    [
        (Family.WENGER, 3, 1, 18),
        (Family.WENGER_ALT, 3, 2, 81),
        (Family.LIE_M1, 5, None, 1000),
        (Family.LIE_M2, 5, None, 12500),
        (Family.WENGER, 4, 1, None),
        (Family.LIE_M2, 9, None, turan_lower_bound(4, 9)),
        (Family.WENGER, 3, 3, None),
        (Family.LINEARIZED, 3, 1, None),
        (Family.LIE_M3, 5, None, None),
    ],
)
def test_turan_bound_names_its_extremal_instances(family, q, index, bound):
    assert turan_bound(FamilySpec(family, q, index)) == bound


def test_turan_integrality_all_odd_prime_powers():
    for q in _odd_prime_powers(100):
        assert q**3 * (q - 1) ** 2 * (q - 2) % 6 == 0
        assert q**4 * (q - 1) ** 2 * (q * q - 4 * q + 5) % 8 == 0
        turan_lower_bound(3, q)
        turan_lower_bound(4, q)


def test_turan_asymptotic():
    a3 = turan_asymptotic(3, 100)
    assert a3.label == "1/48"
    assert a3.exponent == Fraction(3)
    assert a3.value == pytest.approx(100**3 / 48)
    a4 = turan_asymptotic(4, 64)
    assert a4.label == "2^(-17/3)"
    assert a4.exponent == Fraction(8, 3)
    assert a4.value == pytest.approx(2 ** (-17 / 3) * 64 ** (8 / 3))
    with pytest.raises(ValueError):
        turan_asymptotic(2, 10)


# ---------------------------------------------------------------------------
# the four-case sums behind the closed forms, as pure integer identities

def test_case_sum_identity_odd():
    for q in range(2, 101):
        lhs = (
            (q - 1) ** 2
            + (q - 1) ** 2 * (q - 3)
            + (q - 1) ** 2 * (q - 2)
            + (q - 1) ** 2 * (q - 2) * (q - 3)
        )
        assert lhs == (q - 1) ** 3 * (q - 2)


def test_case_sum_identity_even():
    for q in range(2, 65):
        lhs = (q - 1) ** 2 + 2 * (q - 1) ** 2 * (q - 2) + (q - 1) ** 2 * (q - 2) * (q - 4)
        assert lhs == (q - 1) ** 3 * (q - 3) + 2 * (q - 1) ** 2


def test_wenger_q2_consistent_with_general_forms():
    # the q = 2 special case agrees with the n >= 2 closed forms
    assert (2 - 1) ** 3 * (2 - 3) + 2 * (2 - 1) ** 2 == 1
    assert (2 - 1) ** 3 == 1


@given(st.integers(0, 10**9), st.integers(1, 10**6))
def test_ceil_div_matches_math_ceil(a, b):
    from egr.predictions import _ceil_div

    assert _ceil_div(a, b) == math.ceil(a / b) == math.ceil(Fraction(a, b))
