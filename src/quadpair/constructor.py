"""Refinement of an interval against families of excluded neighbourhoods of
rationals, and the resulting constructive sequence of rational survivors.

Three families of open intervals around rationals a/q are excluded: a wide
family shrinking like q^(-2-eta) around every rational, and two radius-q^-2
families restricted to moduli with a large even/squarefull part and to
residues in the per-modulus bad set.  Subtracting them from a starting
interval and tracking the smallest surviving endpoint yields a non-decreasing
rational sequence, together with an avoidance certificate over the sweep.

All interval arithmetic is exact.  Survivors, measures and the certificate
are Fractions; the sweep keeps its union of open intervals on integer keys
floor(x * 2^shift), with the shift wide enough to order and equate every
endpoint exactly, and each end's exact value beside its key.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import BudgetError, CostGuardError, EmptyRefinementError, PrecisionError
from .exactreal import cmp_power, floor_power, q1_part, scaled
from .modcount import _checked_eta, bad_set

Q_GUARD = 3000


# ---------------------------------------------------------------------------
# interval primitives


@dataclass(frozen=True)
class RationalInterval:
    """The closed interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @property
    def measure(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi


def interval(lo, hi) -> RationalInterval:
    return RationalInterval(Fraction(lo), Fraction(hi))


@dataclass
class IntervalSet:
    """Sorted, pairwise-disjoint closed intervals (single points allowed)."""

    intervals: list[RationalInterval] = field(default_factory=list)

    @property
    def measure(self) -> Fraction:
        return sum((iv.measure for iv in self.intervals), Fraction(0))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def smallest_endpoint(self) -> Fraction:
        if not self.intervals:
            raise EmptyRefinementError("no intervals remain")
        return self.intervals[0].lo

    def contains(self, x) -> bool:
        x = Fraction(x)
        i = bisect_right([iv.lo for iv in self.intervals], x) - 1
        return i >= 0 and self.intervals[i].contains(x)


@dataclass(frozen=True)
class BadInterval:
    """Open exclusion interval of the given radius around center = a/q."""

    q: int
    a: int
    cls: int
    radius: Fraction

    def __post_init__(self):
        if self.cls not in (1, 2, 3):
            raise ValueError("class must be 1, 2 or 3")

    @property
    def center(self) -> Fraction:
        return Fraction(self.a, self.q)

    @property
    def lo(self) -> Fraction:
        return self.center - self.radius

    @property
    def hi(self) -> Fraction:
        return self.center + self.radius

    def contains_open(self, x) -> bool:
        x = Fraction(x)
        return self.lo < x < self.hi


def subtract(base: RationalInterval, bads) -> IntervalSet:
    """base minus a union of open intervals, as closed survivor pieces."""
    # piece starts and ends both stay sorted, so the pieces an open interval
    # meets (start < its hi and end > its lo) form one contiguous run
    starts = [base.lo]
    ends = [base.hi]
    for blo, bhi in sorted((bad.lo, bad.hi) for bad in bads):
        i = bisect_right(ends, blo)
        j = bisect_left(starts, bhi)
        new_starts, new_ends = [], []
        for a, b in zip(starts[i:j], ends[i:j]):
            if blo >= a:
                new_starts.append(a)
                new_ends.append(min(blo, b))
            if bhi <= b:
                new_starts.append(max(bhi, a))
                new_ends.append(b)
        starts[i:j] = new_starts
        ends[i:j] = new_ends
    return IntervalSet([RationalInterval(a, b) for a, b in zip(starts, ends)])


# ---------------------------------------------------------------------------
# the three exclusion families


@lru_cache(maxsize=None)
def _wide_radius_den(q: int, eta: Fraction) -> int:
    return floor_power(q, 2 + eta)


def _check_sweep(q_lo: int, q_hi: int, eta) -> Fraction:
    """eta as a Fraction, once the modulus range and eta are checked."""
    if not 2 <= q_lo <= q_hi <= Q_GUARD:
        raise CostGuardError(f"modulus sweep must stay within [2, {Q_GUARD}]")
    return _checked_eta(eta)


@lru_cache(maxsize=None)
def _full_families(q: int, eta: Fraction):
    """The families around every a/q, 0 <= a <= q, as in ``_families``: the
    wide one, and the narrow one when q1(q) >= q^(2 eta)."""
    radii = [(1, Fraction(1, _wide_radius_den(q, eta)))]
    if cmp_power(Fraction(q1_part(q)), q, 2 * eta) >= 0:
        radii.append((2, Fraction(1, q * q)))
    every = range(q + 1)
    return tuple((cls, radius, every, radius * (2 * (q + 1))) for cls, radius in radii)


def _families(q: int, eta: Fraction):
    """The exclusion families at modulus q, as (class, radius, centres,
    measure): the open intervals of that radius around a/q for each a in the
    sorted ``centres``, and their summed length."""
    yield from _full_families(q, eta)
    centres = bad_set(q, eta)
    yield 3, Fraction(1, q * q), centres, Fraction(2 * len(centres), q * q)


def _bad_intervals(q_lo: int, q_hi: int, eta: Fraction, lo: Fraction, hi: Fraction):
    """The exclusion intervals for q in [q_lo, q_hi] that meet [lo, hi],
    i.e. lo - radius < a/q < hi + radius, ordered by (q, class, a), for a
    checked eta."""
    for q in range(q_lo, q_hi + 1):
        for cls, radius, centres, _ in _families(q, eta):
            i = bisect_right(centres, math.floor((lo - radius) * q))
            j = bisect_left(centres, math.ceil((hi + radius) * q))
            for a in centres[i:j]:
                yield BadInterval(q, a, cls, radius)


def enumerate_bad_intervals(
    q_lo: int, q_hi: int, eta, within: Optional[RationalInterval] = None
) -> list[BadInterval]:
    """All exclusion intervals for q in [q_lo, q_hi], ordered by (q, class, a).

    ``within`` keeps only intervals meeting the given range (default
    [0, 1]); the full family per modulus is 0 <= a <= q for classes 1 and 2
    and the bad set for class 3.
    """
    eta = _check_sweep(q_lo, q_hi, eta)
    lo, hi = (Fraction(0), Fraction(1)) if within is None else (within.lo, within.hi)
    return list(_bad_intervals(q_lo, q_hi, eta, lo, hi))


# ---------------------------------------------------------------------------
# measure budget


@dataclass
class TailBudget:
    class1_sum: Fraction
    class2_sum: Fraction
    class3_sum: Fraction

    @property
    def total(self) -> Fraction:
        return self.class1_sum + self.class2_sum + self.class3_sum


def tail_budget(q_start: int, q_hi: int, eta) -> TailBudget:
    """Exact measure of each exclusion family summed over q_start..q_hi,
    counting every centre a/q in [0, 1] for the two full families."""
    eta = _check_sweep(q_start, q_hi, eta)
    columns: tuple[list[Fraction], ...] = ([], [], [])
    for q in range(q_start, q_hi + 1):
        for cls, _, _, measure in _families(q, eta):
            columns[cls - 1].append(measure)
    # a column's first term starts its sum: no Fraction(0) to add
    return TailBudget(*(sum(col[1:], col[0]) if col else Fraction(0) for col in columns))


# ---------------------------------------------------------------------------
# the construction sweep


class _OpenUnion:
    """Disjoint union of open intervals, kept on the integer keys
    floor(x * 2^shift) of their endpoints; merging only on strict overlap,
    so shared endpoints of adjacent intervals stay uncovered.

    The keys order and equate endpoints exactly while every endpoint, and
    every point asked about, has a denominator below 2^b with
    shift >= 2b + 1: two distinct such rationals differ by more than 2^(-2b).
    Each end keeps its exact (numerator, denominator) beside its key.
    """

    def __init__(self, shift: int):
        self.shift = shift
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.exact_ends: list[tuple[int, int]] = []

    def insert(self, bad: BadInterval):
        # the ends of bad are a/q -+ n/d = (a d -+ n q) / (q d)
        n, d = bad.radius.numerator, bad.radius.denominator
        mid, den, half = bad.a * d, bad.q * d, n * bad.q
        lo = ((mid - half) << self.shift) // den
        hi = ((mid + half) << self.shift) // den
        if lo >= hi:
            return
        end = (mid + half, den)
        i = bisect_right(self.ends, lo)
        j = bisect_left(self.starts, hi)
        if j == i + 1 and self.starts[i] <= lo and hi <= self.ends[i]:
            return  # inside one piece, as a non-reduced a/q often is
        if i < j:
            lo = min(lo, self.starts[i])
            if self.ends[j - 1] > hi:
                hi, end = self.ends[j - 1], self.exact_ends[j - 1]
        self.starts[i:j] = [lo]
        self.ends[i:j] = [hi]
        self.exact_ends[i:j] = [end]

    def first_uncovered(self, x: Fraction) -> Fraction:
        k = (x.numerator << self.shift) // x.denominator
        i = bisect_right(self.starts, k) - 1
        if i >= 0 and self.starts[i] < k < self.ends[i]:
            return Fraction(*self.exact_ends[i])
        return x


def _exact_str(fr: Fraction) -> str:
    # str(fr) without sys.get_int_max_str_digits()'s limit, which Decimal lacks
    num, den = str(Decimal(fr.numerator)), str(Decimal(fr.denominator))
    return num if den == "1" else f"{num}/{den}"


@dataclass
class ConstructionResult:
    r_sequence: list[Fraction]
    final: Fraction
    budget_ok: bool
    certificate: dict


def construct_alpha(
    base: RationalInterval,
    q_start: int,
    q_max: int,
    eta,
    strict_budget: bool = True,
) -> ConstructionResult:
    """Sweep the exclusion families over q = q_start..q_max inside ``base``
    and emit the smallest surviving endpoint after each modulus.

    The refinement sets are nested, so the sequence is non-decreasing and its
    last value avoids every enumerated interval.  The measure budget (total
    enumerated measure below half the base length) guarantees survival a
    priori and is enforced by default; note that it can only hold for short
    sweeps at high moduli, since the wide family alone carries measure about
    4/eta spread over all moduli, and every even modulus is in the
    even/squarefull family at desk scale.  ``strict_budget=False`` drops the
    precondition and instead verifies survival constructively at every step
    (long low sweeps genuinely empty out: neighbouring exclusion intervals
    overlap across every gap once the modulus range is deep enough).  The
    class measures are summed as the sweep reaches each modulus, and strict
    mode stops at the first modulus whose running total breaks the budget,
    so no sweep classifies a modulus past the one where it ends.
    """
    if not (0 <= base.lo < base.hi <= 1):
        raise ValueError("base interval must lie in [0, 1] with positive length")
    eta = _check_sweep(q_start, q_max, eta)
    half = base.measure / 2
    sums = [Fraction(0)] * 3
    # every endpoint a/q -+ 1/d of the sweep has denominator dividing
    # q d <= q_max D(q_max), where D(q) = floor(q^(2+eta)) >= q^2 (eta > 0)
    # is the widest radius denominator at q
    width = max(q_max * _wide_radius_den(q_max, eta), base.lo.denominator).bit_length()
    union = _OpenUnion(2 * width + 1)
    r_sequence: list[Fraction] = []
    for q in range(q_start, q_max + 1):
        step = tail_budget(q, q, eta)
        sums = [s + t for s, t in zip(sums, (step.class1_sum, step.class2_sum, step.class3_sum))]
        if strict_budget and not sum(sums) < half:
            raise BudgetError(
                f"enumerated measure {float(sum(sums)):.4g} through q={q} is not "
                f"below half the interval length {float(half):.4g}"
            )
        for bad in enumerate_bad_intervals(q, q, eta, within=base):
            union.insert(bad)
        r = union.first_uncovered(base.lo)
        if r > base.hi:
            raise EmptyRefinementError(f"refinement emptied at modulus {q}")
        if r_sequence and r < r_sequence[-1]:
            raise AssertionError("survivor sequence decreased")  # pragma: no cover
        r_sequence.append(r)
    final = r_sequence[-1]
    budget = TailBudget(*sums)
    budget_ok = bool(budget.total < half)
    violations = verify_avoidance(final, q_start, q_max, eta)
    certificate = {
        "interval": [str(base.lo), str(base.hi)],
        "q_start": q_start,
        "q_max": q_max,
        "eta": str(eta),
        # the dispersion-bound constant that modcount.dispersion_report uses
        "lemma2_constant": "1",
        "budget_ok": budget_ok,
        "class_measures": {
            "class1": _exact_str(budget.class1_sum),
            "class2": _exact_str(budget.class2_sum),
            "class3": _exact_str(budget.class3_sum),
            "total": _exact_str(budget.total),
        },
        "r_sequence": [str(r) for r in r_sequence],
        "final": str(final),
        "violations": [
            {"q": b.q, "a": b.a, "class": b.cls} for b in violations
        ],
    }
    return ConstructionResult(r_sequence, final, budget_ok, certificate)


def verify_avoidance(x, q_start: int, q_max: int, eta) -> list[BadInterval]:
    """Exact membership scan of x mod 1 against every exclusion interval in
    range; an empty result certifies avoidance over the sweep.  alpha n^2
    mod 1 depends only on alpha mod 1, so the enclosure of x is shifted by
    the integer part of its lower end, and one that straddles an integer
    raises PrecisionError."""
    eta = _check_sweep(q_start, q_max, eta)
    num, den, err = scaled(x)
    whole = (num - err) // den
    if (num + err) // den != whole:
        raise PrecisionError(f"enclosure of x straddles the integer {whole + 1}")
    num -= whole * den
    x_lo, x_hi = Fraction(num - err, den), Fraction(num + err, den)
    violated = list(_bad_intervals(q_start, q_max, eta, x_lo, x_hi))
    for bad in violated:
        # the enclosure meets this interval; a violation needs all of it inside
        if not bad.lo < x_lo <= x_hi < bad.hi:
            raise PrecisionError(
                f"enclosure of x straddles the boundary of the class-{bad.cls} "
                f"interval at {bad.a}/{bad.q}"
            )
    return violated
