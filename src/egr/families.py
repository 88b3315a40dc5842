"""Relation sets for the named graph families.

Defining equations, with coordinates indexed from 1 and i running 2..d:

  wenger       p_i + l_i = p_1 * l_{i-1}                 d = n + 1
  wenger-alt   p_i + l_i = p_1 * l_1**(i-1)              d = n + 1
  lwenger      p_i + l_i = p_1**(p**(i-2)) * l_1         d = m + 1
  lie-m1       the single wenger relation                d = 2
  lie-m2       the first two wenger relations            d = 3
  lie-m3       three wenger relations plus
               p_5 + l_5 = p_2*l_3 - 2*p_3*l_2 + p_4*l_1 d = 5

The -2 in the last lie-m3 relation is reduced in F_q, so it vanishes in
characteristic 2 and equals 1 in characteristic 3.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

from .adg import RelationSet
from .finite_field import Field, factor_prime_power


class Family(Enum):
    WENGER = "wenger"
    WENGER_ALT = "wenger-alt"
    LINEARIZED = "lwenger"
    LIE_M1 = "lie-m1"
    LIE_M2 = "lie-m2"
    LIE_M3 = "lie-m3"


_LIE_DIMENSION = {Family.LIE_M1: 2, Family.LIE_M2: 3, Family.LIE_M3: 5}
_INDEXED = (Family.WENGER, Family.WENGER_ALT, Family.LINEARIZED)


@dataclass(frozen=True)
class FamilySpec:
    """A graph family plus its parameters: q, and n or m where applicable."""

    family: Family
    q: int
    index: int | None = None

    def __post_init__(self):
        factor_prime_power(self.q)
        if self.family in _INDEXED:
            if self.index is None or self.index < 1:
                raise ValueError(f"{self.family.value} needs an index >= 1")
        elif self.index is not None:
            raise ValueError(f"{self.family.value} takes no index")

    @property
    def dimension(self) -> int:
        if self.family in _INDEXED:
            return self.index + 1
        return _LIE_DIMENSION[self.family]

    def label(self) -> str:
        f = self.family
        if f is Family.WENGER or f is Family.WENGER_ALT:
            return f"{f.value}:n={self.index},q={self.q}"
        if f is Family.LINEARIZED:
            return f"lwenger:m={self.index},q={self.q}"
        return f"lie:{f.value[-2:].upper()},q={self.q}"


# spec head -> (family, the key of its index); lie's family comes from its tag
_SPEC_HEADS = {
    "wenger": (Family.WENGER, "n"),
    "wenger-alt": (Family.WENGER_ALT, "n"),
    "lwenger": (Family.LINEARIZED, "m"),
    "lie": (None, None),
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse strings like 'wenger:n=2,q=3', 'lwenger:m=1,q=4', 'lie:M3,q=5'.

    Each key may appear once, only q and the family's own index key are
    accepted, and every value must be an integer."""
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise ValueError(f"family spec needs a ':', got {text!r}")
    head = head.lower()
    if head not in _SPEC_HEADS:
        raise ValueError(f"unknown family {head!r}")
    family, index_key = _SPEC_HEADS[head]
    params: dict[str, int] = {}
    lie_tag = None
    for part in (s.strip() for s in rest.split(",")):
        if not part:
            continue
        key, eq, value = part.partition("=")
        key = key.strip().lower()
        if not eq:
            if head != "lie" or lie_tag is not None:
                raise ValueError(f"unrecognized parameter {part!r} in {text!r}")
            lie_tag = part.lower()
        elif key not in ("q", index_key):
            raise ValueError(f"unknown key {key!r} in family spec {text!r}")
        elif key in params:
            raise ValueError(f"repeated key {key!r} in family spec {text!r}")
        else:
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(
                    f"{key} must be an integer, got {value.strip()!r} in family spec {text!r}"
                ) from None
    for key in ("q", index_key):
        if key is not None and key not in params:
            raise ValueError(f"family spec {text!r} is missing {key}")
    if family is not None:
        return FamilySpec(family, params["q"], params[index_key])
    if lie_tag not in ("m1", "m2", "m3"):
        raise ValueError(f"lie family must be one of M1, M2, M3, got {lie_tag!r}")
    return FamilySpec(Family[f"LIE_{lie_tag.upper()}"], params["q"])


def _wenger_relation(j: int):
    def f(pp, ll):
        return pp[0] * ll[j]

    return f


def _wenger_alt_relation(j: int):
    def f(pp, ll):
        return pp[0] * ll[0] ** (j + 1)

    return f


def _linearized_relation(j: int):
    def f(pp, ll):
        return pp[0].frobenius(j) * ll[0]

    return f


def relations(spec: FamilySpec, field: Field | None = None) -> RelationSet:
    """The RelationSet realizing the family's defining equations."""
    if field is None:
        field = Field.of_order(spec.q)
    elif field.q != spec.q:
        raise ValueError(f"field has order {field.q}, spec says {spec.q}")
    d = spec.dimension
    fam = spec.family
    if fam in (Family.WENGER, Family.LIE_M1, Family.LIE_M2):
        rels = tuple(_wenger_relation(j) for j in range(d - 1))
    elif fam is Family.WENGER_ALT:
        rels = tuple(_wenger_alt_relation(j) for j in range(d - 1))
    elif fam is Family.LINEARIZED:
        rels = tuple(_linearized_relation(j) for j in range(d - 1))
    else:  # LIE_M3
        if field.p in (2, 3):
            warnings.warn(
                "lie-m3 in characteristic 2 or 3: the girth-12 regime does not apply",
                stacklevel=2,
            )

        def f5(pp, ll):
            t = pp[2] * ll[1]
            return pp[1] * ll[2] - t - t + pp[3] * ll[0]

        rels = tuple(_wenger_relation(j) for j in range(3)) + (f5,)
    return RelationSet(field=field, d=d, relations=rels)


def representation_pair(n: int, q: int) -> tuple[RelationSet, RelationSet]:
    """The two equation representations of the same n-index Wenger graph.

    Downstream censuses must agree on (v, k, g, lambda) for both; the graphs
    are isomorphic but not coordinate-for-coordinate identical for n >= 2.
    """
    field = Field.of_order(q)
    return (
        relations(FamilySpec(Family.WENGER, q, n), field),
        relations(FamilySpec(Family.WENGER_ALT, q, n), field),
    )
