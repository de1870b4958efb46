#!/usr/bin/env python3
"""Run the interval-refinement construction, verify the output against the
exclusion families, and report the pair correlation of the result.

The measure precondition only holds for short sweeps at high moduli; pass
--no-strict-budget to explore longer sweeps (they eventually empty out).

    python3 scripts/build_alpha.py --interval 1/3:2/5 --qstart 1000 --qmax 1005
"""

import argparse
import json
import sys
from fractions import Fraction

from quadpair.constructor import construct_alpha, interval
from quadpair.paircorr import pair_correlation, quadratic_sequence


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--interval", default="1/3:2/5")
    ap.add_argument("--qstart", type=int, default=1000)
    ap.add_argument("--qmax", type=int, default=1005)
    ap.add_argument("--eta", default="1/200")
    ap.add_argument("--N", type=int, default=50000, help="pair-correlation scale for the result")
    ap.add_argument("--no-strict-budget", action="store_true")
    ap.add_argument("--out", default=None, help="certificate path")
    args = ap.parse_args()

    lo, _, hi = args.interval.partition(":")
    base = interval(Fraction(lo), Fraction(hi))
    res = construct_alpha(
        base,
        args.qstart,
        args.qmax,
        Fraction(args.eta),
        strict_budget=not args.no_strict_budget,
    )
    print(f"final = {res.final} = {float(res.final):.12f}  (budget_ok={res.budget_ok})")
    # construct_alpha has verified the survivor over the same sweep
    print(f"avoidance violations: {len(res.certificate['violations'])}")

    seq = quadratic_sequence(res.final, args.N)
    for x in (Fraction(1, 2), 1, 2):
        r = pair_correlation(seq, x).r
        print(f"R(N={args.N}, X={float(x)}) = {float(r):.5f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(res.certificate, sort_keys=True, indent=2) + "\n")
        print(f"certificate written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
