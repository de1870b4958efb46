"""Spot checks of a pass's outputs against the repository's oracles.

They run after the timed region of one pass per run: naive O(N^2) counting,
direct interval subtraction, direct dispersion-profile recomputation and
brute-force exponential sums, plus the exact identities the outputs must
satisfy (lattice count = 1 + 2 R, V = V1 + sum V2, the integral identities).
Each check returns the rows it disproves, so a mismatch counts as a failed
operation.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from quadpair import constructor, exactreal, expsum, modcount, paircorr

from workloads import BITS, ETA, WINDOWS, Plan

NAIVE_N = 400
PROFILE_Q_MAX = 100
BRUTE_Q_MAX = expsum.BRUTE_GUARD


def _naive_counts(plan: Plan) -> list[tuple[int, str]]:
    bad = []
    for label, ops in plan.facts.get("paircorr_ops", []):
        seq = exactreal.eval_with_retry(
            exactreal.parse_alpha(label), lambda a: paircorr.quadratic_sequence(a, NAIVE_N), BITS
        )
        for x in WINDOWS:
            fast = paircorr.pair_correlation(seq, x).pair_count
            slow = paircorr.pair_correlation_naive(seq, x).pair_count
            if fast != slow:
                bad += [(i, f"{label}: window count {fast} != naive {slow} at N={NAIVE_N}, X={x}") for i in ops]
                break
    for idx, all_ok in plan.facts.get("identity_ops", []):
        if not all_ok:
            bad.append((idx, "integral identities failed"))
    return bad


def direct_profile(q: int) -> np.ndarray:
    """q^2-scaled running maximum of |A(M,q,c) - (M/q)^2 A0(q,c)|, one
    count_A per M (criterion A4's recomputation)."""
    a0 = modcount.count_A0(q, None)
    best = np.zeros(q, dtype=np.int64)
    for m in range(1, exactreal.floor_power(q, Fraction(2, 3)) + 1):
        a = modcount.count_A(m, q, None)
        np.maximum(best, np.abs(a * q * q - m * m * a0), out=best)
    return best


def bad_set_by_definition(q: int, scaled: np.ndarray) -> tuple[int, ...]:
    r_max = exactreal.floor_power(q, Fraction(1, 3) + 2 * ETA)
    exponent = Fraction(2, 3) - 2 * ETA
    out = []
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q)
        total = sum(int(scaled[(abar * r) % q]) for r in range(1, r_max + 1))
        if exactreal.cmp_power(Fraction(total, q * q), q, exponent) >= 0:
            out.append(a)
    return tuple(out)


def _refine(plan: Plan) -> list[tuple[int, str]]:
    bad = []
    constructs = plan.facts.get("constructs", [])
    for rec in constructs:
        if "op" not in rec:
            continue
        base = constructor.interval(*rec["base"])
        q0, op = rec["q_start"], rec["op"]

        def survivors(q_hi):
            bads = constructor.enumerate_bad_intervals(q0, q_hi, ETA, within=base) if q_hi >= q0 else []
            return constructor.subtract(base, bads)

        if "emptied_at" in rec:
            q_e = rec["emptied_at"]
            if q_e is None or not q0 <= q_e <= rec["q_max"]:
                bad.append((op, f"unreadable emptied modulus {q_e}"))
            elif not survivors(q_e).is_empty or survivors(q_e - 1).is_empty:
                bad.append((op, f"direct subtraction does not empty {rec['base']} first at q={q_e}"))
        else:
            left = survivors(rec["q_max"])
            if left.is_empty or left.smallest_endpoint != rec["final"] or rec["violations"]:
                bad.append((op, f"survivor {rec['final']} disagrees with direct subtraction"))
    q_lo = min((rec["q_start"] for rec in constructs), default=PROFILE_Q_MAX + 1)
    for q in range(max(q_lo, 2), PROFILE_Q_MAX + 1):
        if modcount.bad_set(q, ETA) != bad_set_by_definition(q, direct_profile(q)):
            bad += [
                (rec["op"], f"bad set at q={q} disagrees with the direct profile")
                for rec in constructs
                if "op" in rec and rec["q_start"] <= q <= rec["q_max"]
            ]
    return bad


def _kernels(plan: Plan) -> list[tuple[int, str]]:
    bad = []
    for idx, q, sum_delta_sq, card in plan.facts.get("dispersion", []):
        if q > PROFILE_Q_MAX:
            continue
        best = direct_profile(q)
        total = sum(int(v) ** 2 for v in best)
        if Fraction(total, q ** 4) != sum_delta_sq or len(bad_set_by_definition(q, best)) != card:
            bad.append((idx, f"dispersion row at q={q} disagrees with the direct profile"))
    for idx, b, q, re_, im_ in plan.facts.get("expsum", []):
        if q > BRUTE_Q_MAX:
            continue
        ref = expsum.quad_sum_brute(b, q)
        if abs(ref.re - re_) > 1e-6 * q * q or abs(ref.im - im_) > 1e-6 * q * q:
            bad.append((idx, f"quad_sum({b}, {q}) disagrees with brute force"))
    for idx, r, count in plan.facts.get("lattice", []):
        if count != 1 + 2 * r:
            bad.append((idx, f"lattice count {count} != 1 + 2 * {r}"))
    for idx, v, v1, v2 in plan.facts.get("vcounts", []):
        if v != v1 + v2:
            bad.append((idx, f"V={v} != V1 + V2 = {v1} + {v2}"))
    return bad


CHECKS = {
    "growth": _naive_counts,
    "near-rational": _naive_counts,
    "refine": _refine,
    "kernels": _kernels,
}


def check(plan: Plan) -> list[tuple[int, str]]:
    """(row index, reason) for every row an oracle disproves."""
    return CHECKS[plan.name](plan)
