"""Closed forms the census is checked against.

Girth and per-edge girth-cycle counts for the Wenger-type and linearized
families, the Moore bound, lower bounds on the order of extremal
edge-girth-regular graphs, and exact Turan-type lower bounds on the number
of 6- and 8-cycles in graphs with no shorter cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .families import Family, FamilySpec
from .finite_field import factor_prime_power


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def predict_wenger(n: int, q: int) -> tuple[int, int]:
    """(girth, lambda) for the n-index Wenger graph over F_q.

    q = 2 is uniformly the degenerate 2-regular case: girth 8, lambda 1.
    Otherwise girth is 6 for n = 1 and 8 for n >= 2, with

      n = 1:   lambda = (q-1)**2 * (q-2)
      n = 2:   lambda = (q-1)**2 * (q**2 - 4*q + 5), for odd and even q
      n >= 3:  lambda = (q-1)**3

    For n = 2 and odd q the paper's abstract states (q-1)**3 * (q-2).  The
    two agree at q = 3 only; exhaustive censuses and an independent integer
    count of W_2(q) measure the form above at every q (160 at q = 5, where
    the abstract's form gives 192).  See the README's section on closed
    forms that differ from the paper.
    """
    if n < 1:
        raise ValueError(f"index n must be >= 1, got {n}")
    factor_prime_power(q)
    if q == 2:
        return 8, 1
    if n == 1:
        return 6, (q - 1) ** 2 * (q - 2)
    if n == 2:
        return 8, (q - 1) ** 2 * (q * q - 4 * q + 5)
    return 8, (q - 1) ** 3


def predict_linearized(m: int, q: int) -> tuple[int, int]:
    """(girth, lambda) for the m-index linearized Wenger graph over F_{p**e}.

      p odd:                girth 6, lambda = (q-1)**2*(q-2) for m = 1,
                                     (q-1)**2*(p-2) for m >= 2
      p = 2, e >= 2, m = 1: girth 6, lambda = (q-1)**2*(q-2)
      p = 2, m = 2:         as predict_wenger(2, q)
      p = 2, otherwise:     girth 8, lambda = (q-1)**3 + (q-1)**2*(q-2)

    In characteristic 2 the Frobenius twist of L_2(q) is squaring, so L_2(q)
    is the point/line swap of the wenger-alt W_2(q), with the same
    coordinates, and carries its lambda (1813 at q = 8).  The paper's form
    (q-1)**3 + (q-1)**2*(q-2) gives 637 there; it is kept for m >= 3, where
    the census measures it (45 at L_3(4), 637 at L_3(8) and L_4(8)).
    """
    if m < 1:
        raise ValueError(f"index m must be >= 1, got {m}")
    p, e = factor_prime_power(q)
    if p != 2:
        if m == 1:
            return 6, (q - 1) ** 2 * (q - 2)
        return 6, (q - 1) ** 2 * (p - 2)
    if e >= 2 and m == 1:
        return 6, (q - 1) ** 2 * (q - 2)
    if m == 2:
        return predict_wenger(2, q)
    return 8, (q - 1) ** 3 + (q - 1) ** 2 * (q - 2)


def predict(spec: FamilySpec) -> tuple[int, int]:
    """(girth, lambda) for any family with a known closed form."""
    fam = spec.family
    if fam in (Family.WENGER, Family.WENGER_ALT):
        return predict_wenger(spec.index, spec.q)
    if fam is Family.LINEARIZED:
        return predict_linearized(spec.index, spec.q)
    if fam is Family.LIE_M1:
        return predict_wenger(1, spec.q)
    if fam is Family.LIE_M2:
        return predict_wenger(2, spec.q)
    raise ValueError("no closed form is known for the lie-m3 cycle count")


def moore_bound(k: int, g: int) -> int:
    """Minimum order of a k-regular graph of girth g."""
    if k < 2 or g < 3:
        raise ValueError("moore bound needs k >= 2 and g >= 3")
    if g % 2:
        return 1 + k * sum((k - 1) ** i for i in range((g - 1) // 2))
    return 2 * sum((k - 1) ** i for i in range(g // 2))


@dataclass(frozen=True)
class BoundsReport:
    moore: int
    extremal_general: int
    extremal_bipartite: int | None
    sandwich: tuple[int, int] | None = None


def extremal_lower_bounds(k: int, g: int, lam: int) -> BoundsReport:
    """Order lower bounds for an edge-girth-regular (k, g, lambda) graph.

    The general bound adds (k-1)**((g-1)/2) - lambda for odd g and
    ceil(2*((k-1)**(g/2) - lambda)/k) for even g to the Moore bound; the
    bipartite refinement (even g only) adds 2*ceil(((k-1)**(g/2) - lambda)/k).
    """
    m = moore_bound(k, g)
    if g % 2:
        cap = (k - 1) ** ((g - 1) // 2)
        if not 1 <= lam <= cap:
            raise ValueError(f"lambda must lie in [1, {cap}] for k={k}, g={g}")
        return BoundsReport(
            moore=m, extremal_general=m + (cap - lam), extremal_bipartite=None
        )
    cap = (k - 1) ** (g // 2)
    if not 1 <= lam <= cap:
        raise ValueError(f"lambda must lie in [1, {cap}] for k={k}, g={g}")
    return BoundsReport(
        moore=m,
        extremal_general=m + _ceil_div(2 * (cap - lam), k),
        extremal_bipartite=m + 2 * _ceil_div(cap - lam, k),
    )


def order_bounds(q: int, g: int, lam: int) -> BoundsReport:
    """extremal_lower_bounds(q, g, lam) for a prime power q, with the
    sandwich where it holds: odd q, g in (6, 8) and lam = sandwich_lambda(q, g)."""
    report = extremal_lower_bounds(q, g, lam)
    if q % 2 and g in (6, 8) and lam == sandwich_lambda(q, g):
        report = replace(report, sandwich=sandwich(q, g))
    return report


def sandwich(q: int, g: int) -> tuple[int, int]:
    """Order range for an extremal egr(v, q, g, (q-1)**((g-2)/2)*(q-2)) graph.

    Lower end is the bipartite bound at that lambda; upper end is the order
    2*q**((g-2)/2) of the matching Wenger graph.  That graph attains the
    upper end for g = 6 at every odd q, since W_1(q) has this lambda.  For
    g = 8 it does so only at q = 3: W_2(q) has lambda (q-1)**2*(q**2-4q+5),
    which equals (q-1)**3*(q-2) at q = 3 and is smaller for every q >= 5.
    """
    if g not in (6, 8):
        raise ValueError(f"g must be 6 or 8, got {g}")
    p, _ = factor_prime_power(q)
    if p == 2:
        raise ValueError(f"q must be an odd prime power, got {q}")
    lower = extremal_lower_bounds(q, g, sandwich_lambda(q, g)).extremal_bipartite
    return lower, 2 * q ** ((g - 2) // 2)


def sandwich_lambda(q: int, g: int) -> int:
    """The lambda that sandwich(q, g) is computed at: (q-1)**((g-2)/2)*(q-2)."""
    return (q - 1) ** ((g - 2) // 2) * (q - 2)


def turan_lower_bound(ell: int, q: int) -> int:
    """Exact lower bound on the count of 2*ell-cycles avoiding shorter ones.

    This is the girth-cycle total q**ell * lambda / (2*ell) of W_{ell-2}(q),
    on 2*q**(ell-1) vertices, with lambda from predict_wenger: 6-cycles of
    W_1(q) for ell = 3, 8-cycles of W_2(q) for ell = 4.  The quotient is
    exact for odd prime powers q.
    """
    if ell not in (3, 4):
        raise ValueError(f"ell must be 3 or 4, got {ell}")
    p, _ = factor_prime_power(q)
    if p == 2:
        raise ValueError(f"q must be an odd prime power, got {q}")
    num, den = q**ell * predict_wenger(ell - 2, q)[1], 2 * ell
    if num % den:
        raise AssertionError(f"{num} is not divisible by {den}")  # pragma: no cover
    return num // den


def turan_bound(spec: FamilySpec) -> int | None:
    """turan_lower_bound(n + 2, q) for the instances whose girth-cycle total
    it is: W_n(q) in either representation and lie-M<n>, for n in (1, 2)
    and odd q only; None for the rest."""
    n = {Family.LIE_M1: 1, Family.LIE_M2: 2}.get(spec.family)
    if spec.family in (Family.WENGER, Family.WENGER_ALT):
        n = spec.index
    return turan_lower_bound(n + 2, spec.q) if n in (1, 2) and spec.q % 2 else None


@dataclass(frozen=True)
class TuranAsymptotic:
    label: str
    coefficient: float
    exponent: Fraction
    value: float


def turan_asymptotic(ell: int, n: int) -> TuranAsymptotic:
    """Leading asymptotic form of the 2*ell-cycle count bound at order n.

    The coefficient is reported, never asserted against finite censuses.
    """
    if ell == 3:
        coeff, label, exp = 1 / 48, "1/48", Fraction(3)
    elif ell == 4:
        coeff, label, exp = 2 ** (-17 / 3), "2^(-17/3)", Fraction(8, 3)
    else:
        raise ValueError(f"ell must be 3 or 4, got {ell}")
    return TuranAsymptotic(
        label=label, coefficient=coeff, exponent=exp, value=coeff * float(n) ** float(exp)
    )
