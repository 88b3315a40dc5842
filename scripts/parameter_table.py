"""Reproduce the measured-vs-predicted parameter tables for both families.

Certifies each instance of the usual desk-scale grid through `egr table`
and prints one row per instance: order, degree, girth, measured lambda,
predicted lambda, census mode and a match flag.  Each cell is counted
exhaustively when its census fits egr's auto budget (every cell of the
default grid does), else on a seeded sample.
"""

import argparse
import sys

from egr.cli import main as egr_main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wenger-n", default="1,2,3")
    parser.add_argument("--wenger-q", default="2,3,4,5")
    parser.add_argument("--lwenger-m", default="1,2")
    parser.add_argument("--lwenger-q", default="2,3,4,8,9")
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    common = [] if args.workers is None else ["--workers", str(args.workers)]
    rc = egr_main(
        ["table", "--family", "wenger", "--index", args.wenger_n, "--q", args.wenger_q]
        + common
    )
    if rc:
        return rc
    print()
    return egr_main(
        ["table", "--family", "lwenger", "--index", args.lwenger_m, "--q", args.lwenger_q]
        + common
    )


if __name__ == "__main__":
    sys.exit(main())
