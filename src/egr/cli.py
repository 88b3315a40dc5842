"""Command-line front end: construct, export, measure, verify, predict.

Exit codes: 0 success, 1 usage or environment error, 2 expectation mismatch,
3 non-uniform per-edge counts (the graph is not edge-girth-regular).  Every
exit 1 prints one line, `egr: <message>`, on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import adg, census, predictions
from .automorphisms import lwenger_relations, verify_lwenger
from .census import Auto, BaseEdgeOnly, Exhaustive, NonUniformCountsError, Sampled, certify
from .families import Family, FamilySpec, parse_family_spec, relations
from .finite_field import Field

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISMATCH = 2
EXIT_NONUNIFORM = 3


def resolve_workers(flag: int | str | None) -> int:
    """Explicit --workers wins; else EGR_WORKERS; else all available cores.

    Either must be an integer of at least 1; ValueError names the source.
    """
    if flag is not None:
        source, value = "--workers", flag
    else:
        source, value = "EGR_WORKERS", os.environ.get("EGR_WORKERS")
        if not value:
            return census.default_workers()
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{source} must be an integer of at least 1, got {value!r}")
    return workers


def _emit(text: str, output: str | None) -> None:
    """Write text to stdout and to --output; the file opens first, so an
    unwritable path fails before stdout gets anything."""
    if not output or output == "-":
        sys.stdout.write(text)
        return
    with open(output, "w", encoding="ascii", newline="") as fh:
        sys.stdout.write(text)
        fh.write(text)


def _parse_expect(text: str) -> tuple[int, int]:
    try:
        pairs = (part.partition("=") for part in text.split(","))
        fields = {key.strip(): int(value) for key, _, value in pairs}
        return fields["g"], fields["lambda"]
    except (KeyError, ValueError):
        raise ValueError(f"--expect needs g=<int>,lambda=<int>, got {text!r}") from None


def _census_mode(args) -> census.CensusMode:
    if args.mode == "exhaustive":
        return Exhaustive()
    if args.mode == "base-edge":
        return BaseEdgeOnly()
    if args.mode == "sampled":
        return Sampled(seed=args.seed, count=args.sample_count)
    return Auto(seed=args.seed, count=args.sample_count)


def cmd_generate(args) -> int:
    spec = parse_family_spec(args.family)
    rel = relations(spec)
    if args.format == "g6":
        _emit(adg.to_graph6(rel) + "\n", args.output)
    else:
        _emit("\n".join(adg.edge_list_lines(rel)) + "\n", args.output)
    return EXIT_OK


def cmd_certify(args) -> int:
    workers = resolve_workers(args.workers)
    expect = _parse_expect(args.expect) if args.expect else None
    spec = parse_family_spec(args.family)
    mode = _census_mode(args)
    start = time.perf_counter()
    try:
        cert = certify(spec, mode, workers=workers)
    except NonUniformCountsError as err:
        json.dump({"error": "non-uniform", "g": err.g, "detail": str(err)}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return EXIT_NONUNIFORM
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    payload = census.certificate_to_json(cert, elapsed_ms, workers)

    if expect is None and args.expect_predicted:
        expect = predictions.predict(spec)
    if expect is not None:
        payload["expected_g"], payload["expected_lambda"] = expect
        payload["match"] = expect == (cert.g, cert.lam)
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    if expect is not None and not payload["match"]:
        return EXIT_MISMATCH
    return EXIT_OK


def cmd_predict(args) -> int:
    spec = parse_family_spec(args.family)
    g, lam = predictions.predict(spec)
    payload: dict = {
        "family": spec.family.value,
        "q": spec.q,
        "index": spec.index,
        "field": Field.of_order(spec.q).to_json(),
        "girth": g,
        "lambda": lam,
    }
    if args.bounds:
        report = predictions.extremal_lower_bounds(spec.q, g, lam)
        # sandwich holds only at the lambda it is computed for
        if spec.q % 2 and g in (6, 8) and lam == predictions.sandwich_lambda(spec.q, g):
            report = replace(report, sandwich=predictions.sandwich(spec.q, g))
        payload["moore"] = report.moore
        payload["extremal_general"] = report.extremal_general
        payload["extremal_bipartite"] = report.extremal_bipartite
        if report.sandwich is not None:
            payload["sandwich"] = list(report.sandwich)
    if args.turan:
        fam, n = spec.family, spec.index
        wenger_like = fam in (Family.WENGER, Family.WENGER_ALT) and n in (1, 2)
        lie_like = fam in (Family.LIE_M1, Family.LIE_M2)
        if (wenger_like or lie_like) and spec.q % 2:
            ell = 3 if (n == 1 or fam is Family.LIE_M1) else 4
            payload["turan"] = predictions.turan_lower_bound(ell, spec.q)
        else:
            payload["turan"] = None
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def _int_list(flag: str, text: str) -> list[int]:
    """The comma-separated integers of a grid flag; a blank text is an empty
    grid, but a text that names no integer (say ',') is an error."""
    try:
        values = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        values = []
    if text.strip() and not values:
        raise ValueError(f"{flag} needs comma-separated integers, got {text!r}")
    return values


def cmd_table(args) -> int:
    """One row per grid cell, each certified with Auto(): exhaustive within
    census.AUTO_BUDGET, else sampled."""
    family = Family(args.family)
    workers = resolve_workers(args.workers)
    indices = _int_list("--index", args.index)
    qs = _int_list("--q", args.q)
    rows = []
    for index in indices:
        for q in qs:
            spec = FamilySpec(family, q, index)
            g_pred, lam_pred = predictions.predict(spec)
            cert = certify(spec, Auto(), workers=workers)
            rows.append(
                (
                    spec.label(),
                    cert.v,
                    cert.k,
                    cert.g,
                    cert.lam,
                    lam_pred,
                    cert.mode,
                    "yes" if (cert.g, cert.lam) == (g_pred, lam_pred) else "NO",
                )
            )
    header = ("family", "v", "k", "g", "lambda", "predicted", "mode", "match")
    widths = [
        max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))
    ]
    lines = []
    for row in [header, *rows]:
        lines.append("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_automorphism(args) -> int:
    spec = parse_family_spec(args.family)
    if spec.family is not Family.LINEARIZED:
        raise ValueError("explicit automorphisms are implemented for lwenger only")
    result = verify_lwenger(spec.index, spec.q, args.mode, args.seed)
    payload: dict = {
        "family": spec.label(),
        "mode": args.mode,
        "ok": result.ok,
        "counterexample": None,
    }
    if result.ok:
        payload["maps_checked"] = result.maps_checked
        payload["edges_mapped_to_base"] = result.edges_mapped_to_base
    else:
        rel = lwenger_relations(spec.index, spec.q)
        pt, ln = result.counterexample
        if result.sigma is None:
            where: dict = {"edge_to_base": True}
        else:
            where = {"sigma": {"i": result.sigma.i, "x": result.sigma.x.index}}
        where["point"] = adg.vertex_id(pt, rel)
        where["line"] = adg.vertex_id(ln, rel)
        payload["counterexample"] = where
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK if result.ok else EXIT_ERROR


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ValueError, so that it exits 1 with one
    line like any other bad input, not with argparse's usage block and 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="egr",
        description="Construct, measure and certify edge-girth-regular graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="export a graph as an edge list or graph6")
    gen.add_argument("--family", required=True)
    gen.add_argument("--format", choices=("edges", "g6"), default="edges")
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=cmd_generate)

    cert = sub.add_parser("certify", help="measure (v, k, g, lambda) and verify uniformity")
    cert.add_argument("--family", required=True)
    cert.add_argument(
        "--mode", choices=("auto", "exhaustive", "base-edge", "sampled"), default="auto"
    )
    cert.add_argument("--seed", type=int, default=0)
    cert.add_argument("--sample-count", type=int, default=256)
    cert.add_argument("--workers", default=None)
    cert.add_argument("--expect", default=None, help="g=<int>,lambda=<int>")
    cert.add_argument(
        "--expect-predicted",
        action="store_true",
        help="compare against the closed-form prediction",
    )
    cert.add_argument("--output", default=None)
    cert.set_defaults(func=cmd_certify)

    pred = sub.add_parser("predict", help="closed-form girth, lambda and bounds")
    pred.add_argument("--family", required=True)
    pred.add_argument("--bounds", action="store_true")
    pred.add_argument("--turan", action="store_true")
    pred.add_argument("--output", default=None)
    pred.set_defaults(func=cmd_predict)

    table = sub.add_parser("table", help="measured vs predicted over a parameter grid")
    table.add_argument("--family", choices=("wenger", "wenger-alt", "lwenger"), required=True)
    table.add_argument("--index", required=True, help="comma-separated n or m values")
    table.add_argument("--q", required=True, help="comma-separated prime powers")
    table.add_argument("--workers", default=None)
    table.add_argument("--output", default=None)
    table.set_defaults(func=cmd_table)

    auto = sub.add_parser("automorphism", help="verify the explicit lwenger automorphisms")
    auto.add_argument("action", choices=("verify",))
    auto.add_argument("--family", required=True)
    auto.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto")
    auto.add_argument("--seed", type=int, default=0)
    auto.add_argument("--output", default=None)
    auto.set_defaults(func=cmd_automorphism)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"egr: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
