"""Seeded inputs and operations of the four benchmark workloads.

A workload is a list of steps.  Each step calls the same public library
functions a CLI subcommand, an acceptance criterion or a script calls, and
records one row per operation, as the matching subcommand would emit it,
with the exact outputs of that row in canonical text form.  Library calls go
through module attributes (``paircorr.pair_correlation``, not a from-import)
so that the traced run sees them.

Inputs depend only on the workload name and the seed.  Every slot of a
workload has the same shape for every seed, so the cost of a pass varies
little from seed to seed; the seed picks the values inside each slot.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Callable

from quadpair import constructor, exactreal, expsum, latcount, modcount, paircorr
from quadpair.errors import EmptyRefinementError

BITS = 192
ETA = Fraction(1, 200)
N_DESK = 100_000
WINDOWS = tuple(Fraction(x) for x in ("1/4", "1/2", "1", "2", "4", "8", "16"))
# identities (the r0 subcommand) stay well inside SWEEP_GUARD: the identity
# sweep enumerates all pairs in pure Python once the denominator exceeds 2^40
N_IDENTITY = 1000
IDENTITY_WINDOWS = (Fraction(1, 2), Fraction(2), Fraction(8))

# A4's moduli: primes, squarefree composites, prime powers
A4_MODULI = (
    101, 211, 401, 601, 809, 1009, 1213, 1409, 1601, 1801, 2003, 2203, 2411, 2609, 2801, 2999,
    110, 210, 399, 595, 901, 1155, 1365, 1785, 2145, 2415, 2730, 2926,
    128, 169, 243, 625, 729, 961, 1024, 1681, 2048, 2187, 2401, 2809,
)
# A7's low-start sweep: the families cover [1/3, 2/5] once q = 47 is
# subtracted, whatever q_max is (the criterion's documented expected red)
A7_BASE = (Fraction(1, 3), Fraction(2, 5))
LOW_Q_MAX = 300
BADSET_ROWS = 48
LATTICE_M = (1000, 10_000, 100_000)
DIVISOR_M = 200_000
HYPERBOLA_N = 3000

_EMPTIED_RE = re.compile(r"modulus (\d+)")


_MASK192 = (1 << 192) - 1
# about calibrate()'s fastest time on the 2-core host the benchmark was
# defined on, so reference seconds read as that host's uncontended seconds
CALIBRATION_REF_S = 0.002
# a row is scaled by the median of the calibrations within this many rows
SCALE_HALF_WINDOW = 4


def calibrate() -> float:
    """Seconds a fixed mix of pure-Python work takes now: a gauge of the
    host's current speed.  The mix (small and 192-bit integers, fractions,
    a sort, a dict) resembles the library's inner loops but runs none of its
    code, so no change to the library can move it.  The garbage collector is
    paused while it runs, so the size of the workload's heap cannot."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = perf_counter()
        acc = 0
        for i in range(10_000):
            acc += i * i
        x = 1
        for i in range(3000):
            x = (x * 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251 + i) & _MASK192
        f = Fraction(0)
        for i in range(1, 150):
            f += Fraction(i, i + 7)
        counts: dict[int, int] = {}
        for k, v in sorted(((i * 7919) % 1009, i) for i in range(1500)):
            counts[k] = counts.get(k, 0) + v
        return perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class OpLog:
    """Rows of one pass: label, measured latency and canonical output.

    A row's latency runs from the end of the previous row (or the start of
    the pass), so time spent between rows is charged to the next row, as a
    caller waiting on the subcommand's output would see it.  Between rows,
    outside every latency, the calibration mix is timed (``speed``), and
    ``observer.exclude(start, end)`` hears of it so a tracer can keep it out
    of span self times.
    """

    def __init__(self):
        self.rows: list[list] = []
        self.speed: list[float] = []
        self.errors: set[int] = set()
        self.observer = None
        self._mark = 0.0
        self._carry = 0.0

    def _calibrate(self) -> None:
        start = perf_counter()
        self.speed.append(calibrate())
        self._mark = perf_counter()
        if self.observer is not None:
            self.observer.exclude(start, self._mark)

    def begin(self) -> None:
        self._calibrate()

    def add(self, label: str, canonical: str) -> int:
        self.rows.append([label, perf_counter() - self._mark + self._carry, canonical])
        self._carry = 0.0
        self._calibrate()
        return len(self.rows) - 1

    def fail(self, label: str, exc: BaseException) -> None:
        self.errors.add(self.add(label, f"error:{type(exc).__name__}:{exc}"))

    def truncate(self, mark: int) -> None:
        """Drop rows from ``mark`` on; their time is charged to the next row,
        so redone work shows."""
        self._carry += sum(row[1] for row in self.rows[mark:])
        del self.rows[mark:]
        del self.speed[mark + 1 :]

    def scale(self, row: int) -> float:
        """Reference seconds per measured second around ``row``: the median
        of nearby calibrations follows the host's slow and fast phases
        (0.3 s and longer) without the noise of a single sample."""
        lo = max(0, row - SCALE_HALF_WINDOW)
        return CALIBRATION_REF_S / statistics.median(self.speed[lo : row + SCALE_HALF_WINDOW + 2])

    def latencies(self) -> list[float]:
        """Row latencies in reference seconds."""
        return [row[1] * self.scale(i) for i, row in enumerate(self.rows)]


@dataclass
class Step:
    label: str
    run: Callable[[OpLog], None]


@dataclass
class Plan:
    """Steps of one workload, its seeded inputs (for the record) and the
    facts the steps leave for the oracle checks."""

    name: str
    seed: int
    inputs: dict
    steps: list[Step] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# seeded draws


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"quadpair-bench/{name}/{seed}")


def _nonsquare(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi)
        if math.isqrt(n) ** 2 != n:
            return n


def _prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if exactreal.is_prime(p):
            return p


def _irrational(rng: random.Random, form: str) -> str:
    if form == "sqrt":
        return f"sqrt:{_nonsquare(rng, 2, 1000)}"
    if form == "ratio":
        return f"ratio:({rng.randrange(-9, 10)}+sqrt:{_nonsquare(rng, 2, 200)})/{rng.randrange(2, 12)}"
    tail = ",".join(str(rng.randrange(1, 10)) for _ in range(rng.randrange(1, 5)))
    return f"cf:{rng.randrange(0, 4)};{tail}"


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _complex_text(val) -> str:
    # brute-force parts carry float rounding; the sums are real integers at
    # these moduli, so six decimals (and no negative zero) are exact enough
    # to compare and stable across floating-point libraries
    re_, im_ = round(val.re, 6) + 0.0, round(val.im, 6) + 0.0
    return f"{re_:.6f}|{im_:.6f}|{val.method}"


# ---------------------------------------------------------------------------
# steps shared by the two pair-correlation workloads


def _paircorr_rows(label: str, n: int, plan: Plan) -> Step:
    """`quadpair paircorr --alpha label --N n --X <WINDOWS>`: R and R0 per
    window, the whole per-alpha computation inside eval_with_retry."""
    spec = exactreal.parse_alpha(label)

    def run(log: OpLog) -> None:
        mark = len(log.rows)

        def compute(alpha):
            # a retry at more bits redoes the whole alpha; its rows restart
            log.truncate(mark)
            seq = paircorr.quadratic_sequence(alpha, n)
            for x in WINDOWS:
                res = paircorr.pair_correlation(seq, x)
                r0 = paircorr.weighted_pair_correlation(seq, x).r0
                log.add("paircorr", f"{label}|{n}|{x}|{res.pair_count}|{r0}|{res.method}")
            return seq

        exactreal.eval_with_retry(spec, compute, BITS)
        plan.facts.setdefault("paircorr_ops", []).append((label, range(mark, len(log.rows))))

    return Step("paircorr", run)


def _identity_rows(label: str, plan: Plan) -> Step:
    """`quadpair r0 --alpha label --N N_IDENTITY --X <IDENTITY_WINDOWS>`."""
    spec = exactreal.parse_alpha(label)

    def run(log: OpLog) -> None:
        seq = exactreal.eval_with_retry(
            spec, lambda a: paircorr.quadratic_sequence(a, N_IDENTITY), BITS
        )
        for x in IDENTITY_WINDOWS:
            rep = paircorr.verify_integral_identities(seq, x)
            flags = "".join(
                "1" if f else "0"
                for f in (rep.int_l_ok, rep.square_ok, rep.square_applicable, rep.additive_ok)
            )
            idx = log.add(
                "r0",
                f"{label}|{N_IDENTITY}|{x}|{rep.r0}|{rep.int_l}|{rep.int_l2}|{rep.r_integral_avg}|{flags}",
            )
            plan.facts.setdefault("identity_ops", []).append((idx, rep.all_ok))

    return Step("r0", run)


# ---------------------------------------------------------------------------
# the workloads


def growth(seed: int) -> Plan:
    """Three certified irrational alphas, one of each mini-language form, at
    A7's desk scale."""
    rng = _rng("growth", seed)
    labels = [_irrational(rng, form) for form in ("sqrt", "ratio", "cf")]
    plan = Plan("growth", seed, {"alphas": labels})
    plan.steps = [_paircorr_rows(label, N_DESK, plan) for label in labels]
    return plan


def near_rational(seed: int) -> Plan:
    """A8's family at N_DESK: a/q and a/q + 1/(4q^3) for one small prime q
    and one prime near N, plus the integral identities at N_IDENTITY."""
    rng = _rng("near-rational", seed)
    labels = []
    for q in (_prime(rng, 11, 1010), _prime(rng, 50_000, N_DESK)):
        a = rng.randrange(1, q)
        labels.append(f"rat:{a}/{q}")
        # a/q + 1/(4 q^3) = (4 a q^2 + 1) / (4 q^3)
        labels.append(f"rat:{4 * a * q * q + 1}/{4 * q ** 3}")
    plan = Plan("near-rational", seed, {"alphas": labels})
    plan.steps = [_paircorr_rows(label, N_DESK, plan) for label in labels]
    plan.steps += [_identity_rows(label, plan) for label in labels]
    return plan


def _construct_step(plan: Plan, base, q_start: int, q_max: int, strict: bool) -> Step:
    """`quadpair construct` (with --no-strict-budget when not strict), then
    `quadpair verify-avoidance` on the survivor."""
    lo, hi = base

    def run(log: OpLog) -> None:
        iv = constructor.interval(lo, hi)
        record = {"base": (lo, hi), "q_start": q_start, "q_max": q_max, "strict": strict}
        plan.facts.setdefault("constructs", []).append(record)
        head = f"{lo}:{hi}|{q_start}|{q_max}|{int(strict)}"
        try:
            res = constructor.construct_alpha(iv, q_start, q_max, ETA, strict_budget=strict)
        except EmptyRefinementError as exc:
            # expected red: a correct outcome when direct subtraction empties
            # the interval at the same modulus (checked by the oracle)
            m = _EMPTIED_RE.search(str(exc))
            record["emptied_at"] = int(m.group(1)) if m else None
            record["op"] = log.add("construct", f"{head}|emptied|{exc}")
            return
        record["final"] = res.final
        record["op"] = log.add("construct", f"{head}|" + json.dumps(res.certificate, sort_keys=True))
        hits = constructor.verify_avoidance(res.final, q_start, q_max, ETA)
        record["violations"] = len(hits)
        log.add("verify-avoidance", json.dumps([[b.q, b.a, b.cls] for b in hits]))

    return Step("construct", run)


def _badset_rows(q_lo: int, q_hi: int) -> Step:
    """`quadpair badset --qlo q_lo --qhi q_hi`."""

    def run(log: OpLog) -> None:
        for q in range(q_lo, q_hi + 1):
            members = modcount.bad_set(q, ETA)
            log.add("badset", f"{q}|{ETA}|{len(members)}|{';'.join(map(str, members))}")

    return Step("badset", run)


def _sub_interval(rng: random.Random, d_lo: int, d_hi: int, span_max: int):
    d = rng.randrange(d_lo, d_hi)
    span = rng.randrange(1, span_max + 1)
    i = rng.randrange(0, d - span + 1)
    return Fraction(i, d), Fraction(i + span, d)


def refine(seed: int) -> Plan:
    """A7's low-start sweep, two seeded low-start sub-interval sweeps over
    the same moduli, two short strict sweeps at high moduli (A9's shape) and
    a contiguous bad-set listing."""
    rng = _rng("refine", seed)
    lows = [(A7_BASE, 10)]
    for _ in range(2):
        lows.append((_sub_interval(rng, 10, 40, 3), rng.randrange(8, 16)))
    # width >= 1/8 keeps the measure budget of six moduli near 1000 (~0.025)
    # below half the interval length, so the strict precondition holds
    highs = [(_sub_interval(rng, 3, 9, 1), rng.randrange(1000, 1200)) for _ in range(2)]
    # a narrow start band: row costs follow phi(q), so the listing's median
    # and tail rows stay comparable from seed to seed
    badset_lo = rng.randrange(500, 510)
    plan = Plan("refine", seed, {
        "low": [[str(b[0]), str(b[1]), q] for b, q in lows],
        "high": [[str(b[0]), str(b[1]), q] for b, q in highs],
        "badset": [badset_lo, badset_lo + BADSET_ROWS - 1],
    })
    for base, q_start in lows:
        plan.steps.append(_construct_step(plan, base, q_start, LOW_Q_MAX, strict=False))
    for base, q_start in highs:
        plan.steps.append(_construct_step(plan, base, q_start, q_start + 5, strict=True))
    plan.steps.append(_badset_rows(badset_lo, badset_lo + BADSET_ROWS - 1))
    return plan


def _dispersion_rows(plan: Plan, moduli) -> Step:
    """`quadpair dispersion --q <moduli>` (running-maximum mode)."""

    def run(log: OpLog) -> None:
        for q in moduli:
            rep = modcount.dispersion_report(q, eta=ETA)
            idx = log.add(
                "dispersion",
                f"{q}|{rep.q1}|{ETA}|{rep.sum_delta_sq}|{_fmt(rep.bound_value)}|"
                f"{_fmt(rep.ratio)}|{rep.card_bad_set}",
            )
            plan.facts.setdefault("dispersion", []).append((idx, q, rep.sum_delta_sq, rep.card_bad_set))

    return Step("dispersion", run)


def _lattice_rows(plan: Plan, beta_label: str, delta: Fraction) -> Step:
    """`quadpair lattice --M <LATTICE_M> --beta beta_label --delta delta`."""
    spec = exactreal.parse_alpha(beta_label)

    def run(log: OpLog) -> None:
        for m in LATTICE_M:
            beta = spec.value(BITS)
            count = latcount.near_multiple_count(m, beta, delta)
            basis = latcount.pair_lattice(m, beta, delta)
            res = latcount.lattice_square_count(basis)
            idx = log.add(
                "lattice",
                f"{m}|{beta_label}|{delta}|{count}|{_fmt(basis.lambda1)}|{res.count}|"
                f"{_fmt(res.main)}|{_fmt(res.error_term)}",
            )
            plan.facts.setdefault("lattice", []).append((idx, count, res.count))

    return Step("lattice", run)


def _vcount_row(plan: Plan, a: int, b: int, delta: Fraction, alpha_label: str, p0: int, p1: int) -> Step:
    """`quadpair vcounts --A a --B b --delta delta --alpha alpha_label --P0 p0 --P1 p1`."""

    def run(log: OpLog) -> None:
        alpha = exactreal.parse_alpha(alpha_label).value(BITS)
        spec = latcount.VCountSpec(a, b, delta, alpha, p0, p1)
        v = latcount.v_count(spec)
        v_star = latcount.v_star_count(spec)
        bins = latcount.v2_count(spec)
        v1 = latcount.v1_count(spec)
        idx = log.add(
            "vcounts",
            f"{a}|{b}|{delta}|{alpha_label}|{p0}|{p1}|{v}|{v_star}|{v1}|{sorted(bins.items())}",
        )
        plan.facts.setdefault("vcounts", []).append((idx, v, v1, sum(bins.values())))

    return Step("vcounts", run)


def _expsum_rows(plan: Plan, cases) -> Step:
    """`quadpair expsum --b <b> --q <q>` per case."""

    def run(log: OpLog) -> None:
        for b, q in cases:
            val = expsum.quad_sum(b, q)
            idx = log.add("expsum", f"{b}|{q}|{_complex_text(val)}")
            plan.facts.setdefault("expsum", []).append((idx, b, q, val.re, val.im))

    return Step("expsum", run)


def _hyperbola_rows(cases) -> Step:
    """`quadpair conjecture2` rows: one unit residue c per row."""

    def run(log: OpLog) -> None:
        for q, c in cases:
            res = modcount.hyperbola_ap_count(HYPERBOLA_N, q, c)
            log.add("conjecture2", f"{HYPERBOLA_N}|{q}|{c}|{res.count}|{res.expected}")

    return Step("conjecture2", run)


def _divisor_rows(cases) -> Step:
    """`quadpair divisor-ap --M DIVISOR_M --q q --s s` per case."""

    def run(log: OpLog) -> None:
        for q, s in cases:
            total = modcount.divisor_sum_ap(DIVISOR_M, q, s)
            log.add("divisor-ap", f"{DIVISOR_M}|{q}|{s}|{total}")

    return Step("divisor-ap", run)


_SMALL_COMPOSITES = (12, 15, 18, 20, 21, 24, 25, 26, 27, 28, 30, 32, 33, 34, 35, 36)


def _unit(rng: random.Random, q: int) -> int:
    while True:
        c = rng.randrange(1, q)
        if math.gcd(c, q) == 1:
            return c


def kernels(seed: int) -> Plan:
    """Dispersion on A4's moduli plus seeded primes past the outer/Kronecker
    switch and moduli <= 100, then lattice, V-count, exponential-sum,
    hyperbola and divisor rows."""
    rng = _rng("kernels", seed)
    moduli = list(A4_MODULI)
    # four primes just past the outer/Kronecker switch, in a narrow band: the
    # slowest rows of a pass are then mostly alike, so the p95 row is steady
    band = [p for p in range(4001, 4100) if exactreal.is_prime(p)]
    moduli += sorted(rng.sample(band, 4) + rng.sample(range(60, 101), 2))
    beta = f"sqrt:{_nonsquare(rng, 2, 200)}"
    delta = Fraction(rng.randrange(1, 20), 100)
    vspecs = []
    for _ in range(2):
        a = rng.randrange(20, 31)
        p0 = rng.randrange(2, 6)
        vspecs.append(
            (a, rng.randrange(80, 101), Fraction(rng.randrange(1, 11), 100),
             f"sqrt:{_nonsquare(rng, 2, 200)}", p0, rng.randrange(p0 + 5, a + 1))
        )
    cases = [(tuple(rng.randrange(q) for _ in range(4)), q) for q in rng.sample(_SMALL_COMPOSITES, 4)]
    for _ in range(2):
        q = (1 << rng.randrange(1, 6)) * _prime(rng, 3, 60) * _prime(rng, 61, 200)
        cases.append((tuple(rng.randrange(q) for _ in range(4)), q))
    hyper = [(q, _unit(rng, q)) for q in (101, 1009) * 5]
    divisor = [(q, rng.randrange(q)) for q in (rng.randrange(3, 1000) for _ in range(4))]
    plan = Plan("kernels", seed, {"extra_moduli": moduli[len(A4_MODULI):], "lattice": [beta, str(delta)]})
    plan.steps = [
        _dispersion_rows(plan, moduli),
        _lattice_rows(plan, beta, delta),
        *(_vcount_row(plan, *spec) for spec in vspecs),
        _expsum_rows(plan, cases),
        _hyperbola_rows(hyper),
        _divisor_rows(divisor),
    ]
    return plan


WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "growth": growth,
    "near-rational": near_rational,
    "refine": refine,
    "kernels": kernels,
}


def build(name: str, seed: int) -> Plan:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return WORKLOADS[name](seed)


def run_plan(plan: Plan, log: OpLog) -> None:
    """Run every step; an unexpected exception becomes one failed row and the
    pass goes on, so one defect does not hide the rest of the workload."""
    log.begin()
    for step in plan.steps:
        try:
            step.run(log)
        except Exception as exc:  # benchmark boundary: count it, keep measuring
            log.fail(step.label, exc)
