"""Algebraically defined bipartite graphs over finite fields: construction,
exact girth-cycle census, edge-girth-regularity certification, and the
closed forms and bounds the measurements are checked against.

The package is lazy: `import egr` loads no submodule, and each public name
imports its home submodule on first use, so `egr.Field.of_order(q)` loads
`egr.finite_field` alone."""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "adg": (
        "RelationSet", "Side", "Vertex", "adjacent", "build_adjacency", "edge_count",
        "edge_iter", "edge_list_lines", "neighbors", "to_graph6", "vertex_count",
        "vertex_from_id", "vertex_id",
    ),
    "automorphisms": (
        "SigmaMap", "VerifyResult", "apply_sequence", "apply_sigma", "edge_to_base",
        "verify_automorphism", "verify_lwenger",
    ),
    "census": (
        "Auto", "BaseEdgeOnly", "EgrCertificate", "Exhaustive", "NonUniformCountsError",
        "Sampled", "certify", "certify_relations", "count_cycles_through_edge",
        "count_cycles_total", "girth",
    ),
    "families": ("Family", "FamilySpec", "parse_family_spec", "relations"),
    "finite_field": ("Field", "FieldElement", "factor_prime_power", "is_prime"),
    "predictions": (
        "BoundsReport", "TuranAsymptotic", "extremal_lower_bounds", "moore_bound", "predict",
        "predict_linearized", "predict_wenger", "sandwich", "turan_asymptotic",
        "turan_lower_bound",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "graph6")

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
