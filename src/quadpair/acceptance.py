"""Acceptance suite: one callable per criterion, exercising the documented
contracts at desk scale with fixed seeds.  Every callable returns a
CriterionResult; the CLI renders them as a pass/fail table and pytest asserts
them individually.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyRefinementError, QuadpairError
from .exactreal import eval_with_retry, factorize, is_prime, parse_alpha, sqrt_fixed
from . import latcount, modcount, paircorr
from .constructor import construct_alpha, enumerate_bad_intervals, interval, subtract, verify_avoidance

ETA = Fraction(1, 200)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    details: str
    elapsed: float


def _finish(name, t0, ok, details) -> CriterionResult:
    return CriterionResult(name, bool(ok), details, time.time() - t0)


def _random_sequence(rng, n, den=1 << 30):
    return paircorr.SequenceModOne([rng.randrange(den) for _ in range(n)], den)


def criterion_a1(level="desk") -> CriterionResult:
    """Sorted-window vs naive counting (on the sorted search and on the
    residue histogram), and the difference/sum route vs the direct one,
    exact equality throughout."""
    t0 = time.time()
    rng = random.Random(101)
    n_seqs = 200 if level == "desk" else 30
    n_alphas = 50 if level == "desk" else 8
    checked = 0
    for _ in range(n_seqs):
        seq = _random_sequence(rng, rng.randrange(2, 1001))
        for x in (0, Fraction(1, 2), 1, 3):
            a = paircorr.pair_correlation(seq, x)
            b = paircorr.pair_correlation_naive(seq, x)
            if a.pair_count != b.pair_count:
                return _finish("A1", t0, False, f"window/naive mismatch at N={seq.n}, X={x}")
            checked += 1
    for i in range(n_alphas):
        if i % 5 == 4:
            alpha = sqrt_fixed(rng.choice([2, 3, 5, 7, 10]), 192)
        else:
            alpha = Fraction(rng.randrange(1, 1 << 30), 1 << 30)
        n = rng.randrange(2, 2001 if level == "desk" else 301)
        x = rng.choice([Fraction(3, 10), 1, 3])
        uv = paircorr.pair_correlation_uv(alpha, n, x)
        direct = paircorr.pair_correlation(paircorr.quadratic_sequence(alpha, n), x)
        if uv.pair_count != direct.pair_count:
            return _finish("A1", t0, False, f"uv/direct mismatch at N={n}, X={x}")
        checked += 1
    # a/q with q <= N: the residue histogram counts every window up to X = 3,
    # and at X = N/2 (t = q // 2, which reaches the d = q/2 tie) those with
    # q^2 / 2 below about 64 N; q prime, q even (a odd, so it stays even),
    # and a sharing a factor with q (kept over q, not reduced)
    fam = random.Random(107)
    for i in range(30 if level == "desk" else 6):
        n = fam.randrange(10, 601)
        if i % 3 == 0:
            q = fam.randrange(2, n + 1)
            while not is_prime(q):
                q -= 1
            a = fam.randrange(1, q)
        elif i % 3 == 1:
            q = 2 * fam.randrange(1, n // 2 + 1)
            a = 2 * fam.randrange(q // 2) + 1
        else:
            g = fam.choice((2, 3, 5))
            m = fam.randrange(2, n // g + 1)
            q, a = g * m, g * fam.randrange(1, m)
        if i % 3 == 2:
            seq = paircorr.SequenceModOne([a * k * k % q for k in range(1, n + 1)], q)
        else:
            seq = paircorr.quadratic_sequence(Fraction(a, q), n)
        for x in (0, Fraction(1, 2), 1, 3, Fraction(n, 2)):
            fast = paircorr.pair_correlation(seq, x)
            slow = paircorr.pair_correlation_naive(seq, x)
            if fast.pair_count != slow.pair_count:
                return _finish("A1", t0, False, f"histogram/naive mismatch at {a}/{q}, N={n}, X={x}")
            checked += 1
    return _finish("A1", t0, True, f"{checked} exact equalities")


def criterion_a2(level="desk") -> CriterionResult:
    """Window-kernel bounds, equally-spaced equality, subadditivity, and the
    three integral identities, all exact.

    Finite-size note: the squared-coverage identity and the lower bounds hold
    for X <= N/2 (see the identity report's applicability flag); X <= N only
    guarantees the plain coverage integral.
    """
    t0 = time.time()
    rng = random.Random(202)
    n_seqs = 200 if level == "desk" else 30
    for _ in range(n_seqs):
        n = rng.randrange(2, 400)
        seq = _random_sequence(rng, n)
        x = Fraction(rng.randrange(1, 2 * n + 1), 4)
        r0 = paircorr.weighted_pair_correlation(seq, x).r0
        if r0 < max(1, x) or r0 < paircorr.equally_spaced_reference(x):
            return _finish("A2", t0, False, f"lower bound violated at N={n}, X={x}")
        y = Fraction(rng.randrange(1, n + 1), 4)
        if 2 * (x + y) <= n:
            lhs = paircorr.weighted_pair_correlation(seq, x + y).r0
            rx = paircorr.weighted_pair_correlation(seq, x).r0
            ry = paircorr.weighted_pair_correlation(seq, y).r0
            if lhs > rx + ry:
                return _finish("A2", t0, False, f"subadditivity violated at N={n}")
    es = paircorr.weighted_pair_correlation(paircorr.equally_spaced(100), Fraction(3, 2)).r0
    if es != Fraction(5, 3) or abs(float(es) - 5 / 3) > 1e-12:
        return _finish("A2", t0, False, f"equally spaced N=100, X=1.5 gave {es}")
    for _ in range(40 if level == "desk" else 8):
        n = rng.randrange(1, 150)
        seq = _random_sequence(rng, n, den=1 << 20)
        x = Fraction(rng.randrange(1, 4 * n + 1), 4)
        if x > n:
            x = Fraction(n)
        rep = paircorr.verify_integral_identities(seq, x)
        if not (rep.int_l_ok and rep.additive_ok):
            return _finish("A2", t0, False, f"integral identity failed at N={n}, X={x}")
        if rep.square_applicable and not rep.square_ok:
            return _finish("A2", t0, False, f"squared-coverage identity failed at N={n}, X={x}")
    return _finish("A2", t0, True, "bounds, equalities and identities exact")


def criterion_a3(level="desk") -> CriterionResult:
    """Exponential-sum closed forms, the product rule, complete congruence
    sums, and the odd-modulus product/difference coincidence."""
    from .expsum import quad_sum, quad_sum_brute, quad_sum_prime

    t0 = time.time()
    rng = random.Random(303)
    primes = (3, 5, 7, 11, 13) if level == "desk" else (3, 5)
    for p in primes:
        cases = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1)]
        cases += [tuple(rng.randrange(p) for _ in range(4)) for _ in range(64)]
        for b in cases:
            if quad_sum_prime(b, p) != quad_sum_brute(b, p).as_integer():
                return _finish("A3", t0, False, f"closed form mismatch at p={p}, b={b}")
    if quad_sum_brute((0, 0, 0, 0), 3).as_integer() != 33:
        return _finish("A3", t0, False, "S(0;3) != 33")
    if quad_sum_brute((1, 0, 0, 0), 3).as_integer() != -3:
        return _finish("A3", t0, False, "S((1,0,0,0);3) != -3")
    if quad_sum_brute((1, 1, 1, 1), 3).as_integer() != 6:
        return _finish("A3", t0, False, "S((1,1,1,1);3) != 6")
    for q in (15, 21, 35):
        for _ in range(16 if level == "desk" else 4):
            b = tuple(rng.randrange(q) for _ in range(4))
            prod = quad_sum(b, q)
            brute = quad_sum_brute(b, q)
            if abs(prod.re - brute.re) > 1e-6 * q ** 2 or abs(prod.im - brute.im) > 1e-6 * q ** 2:
                return _finish("A3", t0, False, f"product rule mismatch at q={q}, b={b}")
    q_top = 500 if level == "desk" else 120
    for q in range(1, q_top + 1):
        if int(modcount.count_A0(q, None).sum()) != q * q:
            return _finish("A3", t0, False, f"complete sum != q^2 at q={q}")
    hyp_top = 200 if level == "desk" else 60
    for q0 in range(3, hyp_top + 1, 2):
        if any(e > 1 for e in factorize(q0).values()):
            continue
        wrong = np.flatnonzero(modcount.hyperbola_counts(q0) != modcount.count_A0(q0, None))
        if wrong.size:
            return _finish("A3", t0, False, f"hyperbola mismatch at q0={q0}, r={wrong[0]}")
    return _finish("A3", t0, True, "closed forms, product rule and coincidences exact")


_A4_MODULI = [
    # primes
    101, 211, 401, 601, 809, 1009, 1213, 1409, 1601, 1801, 2003, 2203, 2411, 2609, 2801, 2999,
    # squarefree composites
    110, 210, 399, 595, 901, 1155, 1365, 1785, 2145, 2415, 2730, 2926,
    # prime powers
    128, 169, 243, 625, 729, 961, 1024, 1681, 2048, 2187, 2401, 2809,
]


def criterion_a4(level="desk") -> CriterionResult:
    """Event-sweep dispersion profile against direct recomputation, and the
    no-growth check of the scaled deviation ratios across the modulus sweep."""
    t0 = time.time()
    for q in range(2, (100 if level == "desk" else 40) + 1):
        prof = modcount.delta_star_profile(q, ETA)
        a0 = modcount.count_A0(q, None)
        best = np.zeros(q, dtype=np.int64)
        for m in range(1, prof.m_max + 1):
            a = modcount.count_A(m, q, None)
            np.maximum(best, np.abs(a * q * q - m * m * a0), out=best)
        if not np.array_equal(best, prof.delta_star_scaled):
            return _finish("A4", t0, False, f"event-sweep profile mismatch at q={q}")
    moduli = _A4_MODULI if level == "desk" else _A4_MODULI[:8]
    rows = []
    for q in moduli:
        rep = modcount.dispersion_report(q, eta=ETA)
        rows.append((q, rep.ratio, rep.card_bad_set))
    lines = [f"q={q} ratio={ratio:.4g} |B(q)|={card}" for q, ratio, card in rows]
    if level == "desk":
        low = max(r for q, r, _ in rows if 100 <= q < 1500)
        high = max(r for q, r, _ in rows if 1500 <= q <= 3000)
        if high > 2 * low:
            return _finish(
                "A4", t0, False, f"ratio grew: max[1500,3000]={high:.4g} > 2*max[100,1500]={2*low:.4g}"
            )
        summary = f"max ratio [100,1500)={low:.4g}, [1500,3000]={high:.4g}; " + "; ".join(lines)
    else:
        summary = "; ".join(lines)
    return _finish("A4", t0, True, summary)


def criterion_a5(level="desk") -> CriterionResult:
    """Box counts on modular hyperbolas against the unit-density prediction."""
    t0 = time.time()
    hand = modcount.hyperbola_ap_count(10, 7, 1)
    if hand.count != 13:
        return _finish("A5", t0, False, f"hand instance gave {hand.count} != 13")
    rng = random.Random(505)
    n = 3000
    samples = 50 if level == "desk" else 10
    ratios = []
    for q in (101, 1009):
        for _ in range(samples):
            c = rng.randrange(1, q)
            while math.gcd(c, q) != 1:
                c = rng.randrange(1, q)
            res = modcount.hyperbola_ap_count(n, q, c)
            if not 0.2 <= res.ratio <= 10:
                return _finish("A5", t0, False, f"ratio {res.ratio:.3g} out of range at q={q}, c={c}")
            ratios.append(res.ratio)
    mean = sum(ratios) / len(ratios)
    if not 0.8 <= mean <= 1.3:
        return _finish("A5", t0, False, f"mean ratio {mean:.4g} outside [0.8, 1.3]")
    return _finish("A5", t0, True, f"mean ratio {mean:.4g} over {len(ratios)} unit residues")


def criterion_a6(level="desk") -> CriterionResult:
    """Lattice suite: point-count identity and window sum, first minimum vs
    brute force, the square-count error envelope, the triple-count partition,
    and the three calibrated box bounds."""
    t0 = time.time()
    rng = random.Random(606)
    n_id = 100 if level == "desk" else 20
    for _ in range(n_id):
        m = rng.randrange(1, 1001)
        beta = Fraction(rng.randrange(0, 1 << 24), 1 << 24)
        delta = Fraction(rng.randrange(1, 499), 1000)
        basis = latcount.pair_lattice(m, beta, delta)
        res = latcount.lattice_square_count(basis)
        if res.count != 1 + 2 * latcount.near_multiple_count(m, beta, delta):
            return _finish("A6", t0, False, f"count identity failed at m={m}")
        # the same count without floor sums: the window widths over x = -m..m,
        # floor(beta*x + delta) - ceil(beta*x - delta) + 1 where positive, by
        # int64 floor division (every operand is below 2^45)
        bx = beta.numerator * delta.denominator * np.arange(-m, m + 1, dtype=np.int64)
        big, shift = beta.denominator * delta.denominator, delta.numerator * beta.denominator
        widths = (bx + shift) // big + (shift - bx) // big + 1
        if res.count != int(widths[widths > 0].sum()):
            return _finish("A6", t0, False, f"square count differs from its windows at m={m}")
        s = math.sqrt(m * float(delta))
        if res.error_term > 32 * (s / basis.lambda1 + 1):
            return _finish("A6", t0, False, f"square-count envelope exceeded at m={m}")
    n_bases = 500 if level == "desk" else 60
    coeffs = np.mgrid[-50:51, -50:51].reshape(2, -1).T.astype(float)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    done = 0
    while done < n_bases:
        u = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        v = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        det = u[0] * v[1] - u[1] * v[0]
        if abs(det) < 1e-2:
            continue
        if math.sqrt((u[0] ** 2 + u[1] ** 2) * (v[0] ** 2 + v[1] ** 2)) / abs(det) > 40:
            continue
        red = latcount.gauss_reduce(u, v)
        pts = coeffs @ np.array([u, v])
        best = float(np.min(np.hypot(pts[:, 0], pts[:, 1])))
        if abs(red.lambda1 - best) > 1e-9 * best:
            return _finish("A6", t0, False, f"first minimum mismatch: {red.lambda1} vs {best}")
        done += 1
    max_simp = max_l7 = max_l8 = 0.0
    # simple box bound on its own, over a wide sample of cheap specs
    for _ in range(180 if level == "desk" else 20):
        a_bound = rng.randrange(1, 30)
        b_bound = rng.randrange(1, 60)
        alpha = Fraction(rng.randrange(0, 1 << 20), 1 << 20)
        delta = Fraction(rng.randrange(0, 50), 40)
        spec = latcount.VCountSpec(a_bound, b_bound, delta, alpha)
        v = latcount.v_count(spec)
        simp_bound = 8 * (a_bound * b_bound * float(delta) + min(a_bound, b_bound))
        if v > simp_bound:
            return _finish("A6", t0, False, f"simple box bound exceeded: {v} > {simp_bound}")
        max_simp = max(max_simp, v / simp_bound)
    n_specs = 20 if level == "desk" else 6
    for _ in range(n_specs):
        a_bound = rng.randrange(2, 40)
        b_bound = rng.randrange(a_bound, 120)
        alpha = Fraction(rng.randrange(0, 1 << 20), 1 << 20)
        delta = Fraction(rng.randrange(0, 40), 80)
        p0 = rng.randrange(2, 6)
        p1 = rng.randrange(max(p0, 2), max(a_bound, p0 + 1))
        spec = latcount.VCountSpec(a_bound, b_bound, delta, alpha, p0, p1)
        v = latcount.v_count(spec)
        v1 = latcount.v1_count(spec)
        v2 = latcount.v2_count(spec)
        if v != v1 + sum(v2.values()):
            return _finish("A6", t0, False, f"partition identity failed at {spec}")
        simp_bound = 8 * (a_bound * b_bound * float(delta) + min(a_bound, b_bound))
        if v > simp_bound:
            return _finish("A6", t0, False, f"simple box bound exceeded: {v} > {simp_bound}")
        max_simp = max(max_simp, v / simp_bound)
        if p1 <= a_bound:
            l7 = 32 * (a_bound * b_bound * float(delta) + a_bound * math.log(p0) / math.log(p1))
            if v1 > l7:
                return _finish("A6", t0, False, f"sieved bound exceeded: {v1} > {l7}")
            max_l7 = max(max_l7, v1 / l7)
        v2_total = sum(v2.values())
        l8 = 32 * (a_bound * b_bound * float(delta) * math.log(p1) + b_bound / p0)
        if v2_total > l8:
            return _finish("A6", t0, False, f"classified bound exceeded: {v2_total} > {l8}")
        if l8 > 0:
            max_l8 = max(max_l8, v2_total / l8)
    return _finish(
        "A6",
        t0,
        True,
        f"identities exact; bound-ratio maxima: simple={max_simp:.3f}, sieved={max_l7:.3f}, classified={max_l8:.3f}",
    )


_A7_X = [Fraction(1, 2), 1, 2, 4, 8, 16]


def criterion_a7(level="desk") -> CriterionResult:
    """Desk-scale growth of the pair correlation for quadratic-irrational
    inputs, plus the constructed-value clause at its stated parameters."""
    t0 = time.time()
    n = 100_000 if level == "desk" else 5000

    def rows_at(alpha):
        # the whole label is redone at more bits on a PrecisionError
        seq = paircorr.quadratic_sequence(alpha, n)
        return [(x, float(paircorr.pair_correlation(seq, x).r)) for x in _A7_X]

    lines = []
    for label in ("sqrt:2", "ratio:(1+sqrt:5)/2"):
        for x, r in eval_with_retry(parse_alpha(label), rows_at):
            lines.append(f"{label} X={x}: R={r:.4f}")
            if abs(r - float(x)) > max(0.2, 2 * float(x) ** (7 / 8)):
                return _finish("A7", t0, False, f"|R-X| too large: {label}, X={x}, R={r:.4f}")
    # constructed-value clause, faithfully at the stated parameters: the
    # exclusion families provably cover [1/3, 2/5] once moduli up to 47 are
    # subtracted, so the sweep to 2000 cannot produce a value (see the
    # decisions ledger); the clause is reported as failed, not worked around.
    try:
        res = construct_alpha(
            interval(Fraction(1, 3), Fraction(2, 5)), 10, 2000, ETA, strict_budget=False
        )
    except EmptyRefinementError as exc:
        detail = (
            "growth checks passed ("
            + "; ".join(lines)
            + f"); constructed-value clause unattainable as stated: {exc}"
        )
        return _finish("A7", t0, False, detail)
    seq = paircorr.quadratic_sequence(res.final, n)
    r1 = float(paircorr.pair_correlation(seq, 1).r)
    ok = abs(r1 - 1) <= 0.15
    return _finish("A7", t0, ok, "; ".join(lines) + f"; constructed alpha R(1)={r1:.4f}")


def criterion_a8(level="desk") -> CriterionResult:
    """Exact lower bound from the mirrored-pair family near a rational."""
    t0 = time.time()
    big = paircorr.demo_counterexample(1009, Fraction(3, 10))
    if big.r < Fraction(49, 100):
        return _finish("A8", t0, False, f"R={float(big.r):.4f} < 0.49 at q=1009")
    small = paircorr.demo_counterexample(13, Fraction(3, 10))
    if small.r < Fraction(6, 13):
        return _finish("A8", t0, False, f"R={float(small.r):.4f} < 6/13 at q=13")
    return _finish(
        "A8", t0, True, f"R(1009)={float(big.r):.4f} >= 0.49, R(13)={float(small.r):.4f} >= 6/13"
    )


def criterion_a9(level="desk") -> CriterionResult:
    """Constructor integrity on a budget-satisfying instance: monotone
    survivor sequence, nested refinement sets, certified avoidance, and byte
    determinism across two runs.

    The instance (q_start=1000, q_max=1005 on [1/3, 2/5]) is the spec-faithful
    regime: the measure precondition holds there; see the ledger for why low
    starting moduli cannot satisfy it."""
    t0 = time.time()
    base = interval(Fraction(1, 3), Fraction(2, 5))
    q_start, q_max = 1000, 1005
    res1 = construct_alpha(base, q_start, q_max, ETA, strict_budget=True)
    res2 = construct_alpha(base, q_start, q_max, ETA, strict_budget=True)
    blob1 = json.dumps(res1.certificate, sort_keys=True).encode()
    blob2 = json.dumps(res2.certificate, sort_keys=True).encode()
    if blob1 != blob2:
        return _finish("A9", t0, False, "certificates differ between runs")
    if not res1.budget_ok:
        return _finish("A9", t0, False, "budget unexpectedly violated")
    seq = res1.r_sequence
    if any(a > b for a, b in zip(seq, seq[1:])):
        return _finish("A9", t0, False, "survivor sequence not monotone")
    if not base.lo <= res1.final <= base.hi:
        return _finish("A9", t0, False, "final value escaped the interval")
    if verify_avoidance(res1.final, q_start, q_max, ETA):
        return _finish("A9", t0, False, "final value violates an exclusion interval")
    survivors = None
    bads = []
    for q in range(q_start, q_max + 1):
        bads.extend(enumerate_bad_intervals(q, q, ETA, within=base))
        step = subtract(base, bads)
        if step.is_empty or step.smallest_endpoint != seq[q - q_start]:
            return _finish("A9", t0, False, f"direct subtraction disagrees at q={q}")
        if survivors is not None:
            for piece in step.intervals:
                if not any(o.lo <= piece.lo and piece.hi <= o.hi for o in survivors.intervals):
                    return _finish("A9", t0, False, f"refinement not nested at q={q}")
        survivors = step
    return _finish("A9", t0, True, f"final = {res1.final} with certified avoidance")


CRITERIA = [
    ("A1", criterion_a1),
    ("A2", criterion_a2),
    ("A3", criterion_a3),
    ("A4", criterion_a4),
    ("A5", criterion_a5),
    ("A6", criterion_a6),
    ("A7", criterion_a7),
    ("A8", criterion_a8),
    ("A9", criterion_a9),
]


def run_suite(level: str = "desk", names=None) -> list[CriterionResult]:
    wanted = set(names) if names else None
    known = [name for name, _ in CRITERIA]
    unknown = sorted(set(wanted or ()) - set(known))
    if unknown:
        raise ValueError(
            f"unknown criterion name(s) {', '.join(unknown)}; valid names are {', '.join(known)}"
        )
    out = []
    for name, fn in CRITERIA:
        if wanted and name not in wanted:
            continue
        try:
            out.append(fn(level))
        except QuadpairError as exc:  # pragma: no cover - defensive
            out.append(CriterionResult(name, False, f"raised {type(exc).__name__}: {exc}", 0.0))
    return out
