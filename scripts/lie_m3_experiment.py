"""Census experiment for the five-coordinate Lie graph.

No closed form for its per-edge girth-cycle count is known; this measures
the girth and the number of girth cycles through the all-zero base edge and
prints a JSON report.  The default q = 5 takes about 1 s and q = 7 15 to
20 s, most of it the girth BFS, on a 2-vCPU x86-64 host under CPython 3.11.
"""

import argparse
import json
import sys
import time

from egr.census import BaseEdgeOnly, certify
from egr.families import Family, FamilySpec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=5)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    spec = FamilySpec(Family.LIE_M3, args.q)
    start = time.perf_counter()
    cert = certify(spec, BaseEdgeOnly(), workers=args.workers)
    elapsed = time.perf_counter() - start
    q = args.q
    report = {
        "family": spec.label(),
        "field": cert.field.to_json(),
        "v": cert.v,
        "k": cert.k,
        "girth": cert.g,
        "base_edge_girth_cycle_count": cert.lam,
        "total_if_uniform": cert.total_girth_cycles,
        # lambda of the order-matching extremal pattern (q-1)^((g-2)/2) * (q-2),
        # for comparison only
        "extremal_pattern_lambda": (q - 1) ** ((cert.g - 2) // 2) * (q - 2),
        "note": "per-edge uniformity not certified here; count is experimental",
        "elapsed_s": round(elapsed, 2),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
