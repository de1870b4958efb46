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

from quadpair.cli import fmt_float
from quadpair.constructor import construct_alpha, interval
from quadpair.errors import QuadpairError
from quadpair.exactreal import eval_with_retry, parse_alpha
from quadpair.paircorr import pair_correlation, quadratic_sequence, weighted_pair_correlation

CONTROLS = ("sqrt:2", "sqrt:3", "ratio:(1+sqrt:5)/2")
WINDOWS = (Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8, 16)


def table(labels, n: int) -> list[str]:
    """The CSV block: R and R0 at every window, from one sequence per alpha."""

    def rows_at(alpha) -> list[str]:
        # the whole alpha is redone at more bits on a PrecisionError
        seq = quadratic_sequence(alpha, n)
        rows = []
        for x in WINDOWS:
            r = pair_correlation(seq, x).r
            r0 = weighted_pair_correlation(seq, x).r0
            rows.append(",".join((label, str(n), *map(fmt_float, (x, r, r0, r - x)))))
        return rows

    lines = ["alpha,N,X,R,R0,R_minus_X"]
    for label in labels:
        lines += eval_with_retry(parse_alpha(label), rows_at)
    return lines


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
    labels = (f"rat:{final.numerator}/{final.denominator}", *CONTROLS)
    print("\n".join(table(labels, args.N)))
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
    except (QuadpairError, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        # the errors `quadpair` reports, reported the same way
        sys.stderr.write(f"error: {str(exc) or type(exc).__name__}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
