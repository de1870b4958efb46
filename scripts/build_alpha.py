#!/usr/bin/env python3
"""Run the interval-refinement construction, verify the output against the
exclusion families, and tabulate R(N, X) of the result next to three
quadratic-irrational controls.

The table is a CSV block on stdout, ``alpha,N,X,R,R0,R_minus_X``, at the
windows X = 1/4, 1/2, 1, 2, 4, 8, 16: one block of rows for the exact final
value (``rat:p/q``), then ``sqrt:2``, ``sqrt:3`` and ``ratio:(1+sqrt:5)/2``.
Its R and R0 are those ``quadpair paircorr`` prints for the same alpha, N
and windows.

The measure precondition only holds for short sweeps at high moduli; pass
--no-strict-budget to explore longer sweeps (they eventually empty out).
Every error ``quadpair`` reports (a failed budget, an emptied sweep, a bad
argument, an unwritable --out) prints ``error: <message>`` and exits 2.

    python3 scripts/build_alpha.py --interval 1/3:2/5 --qstart 1000 --qmax 1005
"""

import argparse
import json
import sys
from fractions import Fraction

from quadpair.cli import REPORTED_ERRORS, fmt_float, report_error
from quadpair.constructor import construct_alpha, interval
from quadpair.exactreal import parse_alpha
from quadpair.paircorr import correlation_rows

CONTROLS = ("sqrt:2", "sqrt:3", "ratio:(1+sqrt:5)/2")
WINDOWS = (Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8, 16)


def run(args) -> int:
    lo, _, hi = args.interval.partition(":")
    res = construct_alpha(
        interval(Fraction(lo), Fraction(hi)),
        args.qstart,
        args.qmax,
        Fraction(args.eta),
        strict_budget=not args.no_strict_budget,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(res.certificate, sort_keys=True, indent=2) + "\n")
        print(f"certificate written to {args.out}")
    final = res.final
    print(f"final = {final} = {float(final):.12f}  (budget_ok={res.budget_ok})")
    # construct_alpha has verified the survivor over the same sweep
    print(f"avoidance violations: {len(res.certificate['violations'])}")
    lines = ["alpha,N,X,R,R0,R_minus_X"]
    for label in (f"rat:{final.numerator}/{final.denominator}", *CONTROLS):
        for res, r0 in correlation_rows(parse_alpha(label), args.N, WINDOWS):
            lines.append(",".join((label, str(args.N), *map(fmt_float, (res.x, res.r, r0, res.r - res.x)))))
    print("\n".join(lines))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--interval", default="1/3:2/5")
    ap.add_argument("--qstart", type=int, default=1000)
    ap.add_argument("--qmax", type=int, default=1005)
    ap.add_argument("--eta", default="1/200")
    ap.add_argument("--N", type=int, default=50000, help="pair-correlation scale of the table")
    ap.add_argument("--no-strict-budget", action="store_true")
    ap.add_argument("--out", default=None, help="certificate path")
    args = ap.parse_args()
    try:
        return run(args)
    except REPORTED_ERRORS as exc:
        return report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
