"""Algebraically defined bipartite graphs over finite fields: construction,
exact girth-cycle census, edge-girth-regularity certification, and the
closed forms and bounds the measurements are checked against."""

from .adg import (
    RelationSet,
    Side,
    Vertex,
    adjacent,
    build_adjacency,
    edge_count,
    edge_iter,
    edge_list_lines,
    neighbors,
    to_graph6,
    vertex_count,
    vertex_from_id,
    vertex_id,
)
from .automorphisms import (
    SigmaMap,
    VerifyResult,
    apply_sequence,
    apply_sigma,
    edge_to_base,
    verify_automorphism,
    verify_lwenger,
)
from .census import (
    Auto,
    BaseEdgeOnly,
    EgrCertificate,
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
from .families import Family, FamilySpec, parse_family_spec, relations, representation_pair
from .finite_field import Field, FieldElement, factor_prime_power, is_prime
from .predictions import (
    BoundsReport,
    TuranAsymptotic,
    extremal_lower_bounds,
    moore_bound,
    predict,
    predict_linearized,
    predict_wenger,
    sandwich,
    turan_asymptotic,
    turan_lower_bound,
)

__version__ = "0.1.0"
