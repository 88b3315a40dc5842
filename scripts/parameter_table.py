"""Reproduce the measured-vs-predicted parameter tables for both families.

Runs an exhaustive census over the usual desk-scale grid and prints one row
per instance: order, degree, girth, measured lambda, predicted lambda and a
match flag.  Cells above the vertex cutoff fall back to base-edge counting.
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
    parser.add_argument("--cutoff", type=int, default=1500)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)

    common = ["--cutoff", str(args.cutoff)]
    if args.workers is not None:
        common += ["--workers", str(args.workers)]
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
