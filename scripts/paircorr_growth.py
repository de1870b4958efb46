#!/usr/bin/env python3
"""Table of R(N, X) against X for a few alpha values, showing the approach
to the Poisson line R = X as the window grows.

    python3 scripts/paircorr_growth.py --N 20000 --out growth.csv
"""

import argparse
import sys
from fractions import Fraction

from quadpair import (
    eval_with_retry,
    parse_alpha,
    pair_correlation,
    quadratic_sequence,
    weighted_pair_correlation,
)
from quadpair.exactreal import DEFAULT_BITS

ALPHAS = ["sqrt:2", "sqrt:3", "ratio:(1+sqrt:5)/2", "dec:0.33333432934530144"]
WINDOWS = [Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8, 16]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, default=20000)
    ap.add_argument("--bits", type=int, default=DEFAULT_BITS)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    def rows_at(alpha) -> list[tuple]:
        # the whole alpha is redone at more bits on a PrecisionError
        seq = quadratic_sequence(alpha, args.N)
        return [(x, pair_correlation(seq, x).r, weighted_pair_correlation(seq, x).r0) for x in WINDOWS]

    lines = ["alpha,N,X,R,R0,R_minus_X"]
    for label in ALPHAS:
        for x, r, r0 in eval_with_retry(parse_alpha(label), rows_at, args.bits):
            lines.append(
                f"{label},{args.N},{float(x):.17g},{float(r):.17g},"
                f"{float(r0):.17g},{float(r - x):.17g}"
            )
            print(f"{label:>24}  X={float(x):<6g} R={float(r):.5f}  R-X={float(r - x):+.5f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
