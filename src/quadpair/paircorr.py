"""Pair-correlation statistics for sequences mod 1.

Sequences are stored as integer numerators over one common denominator, so
window counts, triangular-kernel sums and the integral identities all come
out as exact rationals.  Three independent algorithms compute the pair
correlation of a quadratic sequence: a sorted circular window in O(N log N),
a naive O(N^2) oracle, and a difference/sum substitution that never builds
the sequence at all.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CostGuardError, PrecisionError
from .exactreal import is_prime, residue_of

NAIVE_GUARD = 5000
SWEEP_GUARD = 4000


@dataclass
class SequenceModOne:
    """N fractional parts, all over one common denominator.

    ``nums[k] / den`` is the k-th point; ``err`` is a certified radius such
    that the intended point differs from the stored one by at most ``err``
    (mod 1).  Exactly constructed sequences have ``err == 0``.
    """

    nums: list[int]
    den: int
    provenance: str = "explicit"
    err: Fraction = Fraction(0)
    _sorted: Optional[list[int]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.nums:
            raise ValueError("sequence must have length >= 1")
        if self.den < 1:
            raise ValueError("denominator must be positive")
        if any(not 0 <= v < self.den for v in self.nums):
            raise ValueError("numerators must lie in [0, den)")

    @property
    def n(self) -> int:
        return len(self.nums)

    @property
    def points(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.nums]

    def sorted_nums(self) -> list[int]:
        if self._sorted is None:
            self._sorted = sorted(self.nums)
        return self._sorted


def sequence_from_points(points, provenance: str = "explicit") -> SequenceModOne:
    """Build a sequence from rationals/floats, reduced mod 1."""
    fracs = [Fraction(p) for p in points]
    fracs = [p - math.floor(p) for p in fracs]
    den = 1
    for p in fracs:
        den = den * p.denominator // math.gcd(den, p.denominator)
    nums = [int(p * den) for p in fracs]
    return SequenceModOne(nums, den, provenance)


def equally_spaced(n: int) -> SequenceModOne:
    if n < 1:
        raise ValueError("need n >= 1")
    return SequenceModOne([k % n for k in range(1, n + 1)], n, "equally-spaced")


def quadratic_sequence(alpha, n: int) -> SequenceModOne:
    """Points alpha * k^2 mod 1 for k = 1..n, certified well below 1/(2 n^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    a, den, err_ulp = residue_of(alpha)
    nums = [(a * k * k) % den for k in range(1, n + 1)]
    err = Fraction(err_ulp * n * n, den)
    # certification guard: 20 bits of slack below the pair threshold scale
    if err * (2 * n * n) * (1 << 20) > 1:
        raise PrecisionError(
            f"{alpha.frac_bits} bits cannot certify alpha*k^2 up to k={n}"
        )
    return SequenceModOne(nums, den, "quadratic", err)


@dataclass
class PairCorrResult:
    n: int
    x: Fraction
    r: Optional[Fraction]
    r0: Optional[Fraction] = None
    method: str = "sorted-window"
    pair_count: Optional[int] = None

    def __post_init__(self):
        if self.r is not None and self.r < 0:
            raise ValueError("pair correlation cannot be negative")
        if self.r0 is not None and self.n >= 1 and self.r0 < 1:
            raise ValueError("weighted pair correlation is at least 1")


# ---------------------------------------------------------------------------
# exact circular window counting


def _forward_stats(s: list[int], prefix: list[int], t: int) -> tuple[int, int]:
    # pairs i<j with s[j]-s[i] <= t, plus the sum of those differences
    n = len(s)
    count = total = 0
    j = 0
    for i in range(n):
        if j < i:
            j = i
        si = s[i]
        lim = si + t
        while j + 1 < n and s[j + 1] <= lim:
            j += 1
        c = j - i
        if c > 0:
            count += c
            total += (prefix[j + 1] - prefix[i + 1]) - c * si
    return count, total


def _wrap_stats(s: list[int], prefix: list[int], den: int, t: int) -> tuple[int, int]:
    # pairs i<j with den - (s[j]-s[i]) <= t, plus the sum of those distances
    n = len(s)
    w = den - t
    count = total = 0
    k = 0
    for j in range(n):
        lim = s[j] - w
        while k < n and s[k] <= lim:
            k += 1
        if k > 0:
            count += k
            total += k * (den - s[j]) + prefix[k]
    return count, total


def _pair_stats(s: list[int], den: int, t: int) -> tuple[int, int]:
    """(count, scaled distance sum) over unordered pairs at circular distance
    <= t/den; distances are min(f, den-f) for sorted gaps f."""
    n = len(s)
    if n < 2 or t < 0:
        return 0, 0
    prefix = [0]
    acc = 0
    for v in s:
        acc += v
        prefix.append(acc)
    half = den // 2
    if t >= half:
        c_near, s_near = _forward_stats(s, prefix, half)
        total_pairs = n * (n - 1) // 2
        total_f = sum(v * (2 * k - n + 1) for k, v in enumerate(s))
        far = total_pairs - c_near
        return total_pairs, 2 * s_near + far * den - total_f
    c1, s1 = _forward_stats(s, prefix, t)
    c2, s2 = _wrap_stats(s, prefix, den, t)
    return c1 + c2, s1 + s2


def _scaled_threshold(tau: Fraction, den: int) -> int:
    # d/den <= tau  <=>  d <= floor(tau*den) for integer d
    return (tau.numerator * den) // tau.denominator


def pair_correlation(seq: SequenceModOne, x) -> PairCorrResult:
    """Fraction of point pairs within x/N on the circle, threshold inclusive.

    With error radius err > 0 the count is taken at lo = max(tau - 2 err, 0)
    and hi = tau + 2 err, tau = x/N: it is monotone in the threshold, so equal
    counts certify the count at tau, and unequal ones raise PrecisionError.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("window parameter must be non-negative")
    n = seq.n
    tau = x / n
    s = seq.sorted_nums()
    hi = _scaled_threshold(tau + 2 * seq.err, seq.den)
    count, _ = _pair_stats(s, seq.den, hi)
    if seq.err:
        lo = _scaled_threshold(max(tau - 2 * seq.err, Fraction(0)), seq.den)
        if lo != hi and _pair_stats(s, seq.den, lo)[0] != count:
            raise PrecisionError(
                f"a pair distance lies within {float(2 * seq.err):.3g} of the threshold"
            )
    return PairCorrResult(n, x, Fraction(count, n), method="sorted-window", pair_count=count)


def _naive_distance_stats(seq: SequenceModOne, t: int) -> tuple[int, int]:
    """Count and scaled sum of pair distances <= t by brute enumeration."""
    n = seq.n
    den = seq.den
    t = min(t, den)
    if den <= 1 << 40:
        a = np.array(seq.nums, dtype=np.int64)
        diff = np.abs(a[:, None] - a[None, :])
        np.minimum(diff, den - diff, out=diff)
        mask = np.triu(diff <= t, k=1)
        return int(np.count_nonzero(mask)), int(diff[mask].sum())
    count = dist_sum = 0
    nums = seq.nums
    for i in range(n):
        vi = nums[i]
        for j in range(i + 1, n):
            d = abs(nums[j] - vi)
            d = min(d, den - d)
            if d <= t:
                count += 1
                dist_sum += d
    return count, dist_sum


def pair_correlation_naive(seq: SequenceModOne, x) -> PairCorrResult:
    """O(N^2) oracle for pair_correlation, bit-identical by construction."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("window parameter must be non-negative")
    n = seq.n
    if n > NAIVE_GUARD:
        raise CostGuardError(f"naive counting is capped at N={NAIVE_GUARD}")
    tau = x / n
    count, _ = _naive_distance_stats(seq, _scaled_threshold(tau, seq.den))
    return PairCorrResult(n, x, Fraction(count, n), method="naive", pair_count=count)


def pair_correlation_uv(alpha, n: int, x) -> PairCorrResult:
    """Pair correlation of alpha*k^2 via the substitution u = n-m, v = n+m.

    Counts v = u+2, u+4, ..., 2n-u with the fractional part of alpha*u*v
    within x/n of an integer, stepping the scaled product incrementally so no
    sequence is ever materialised.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("window parameter must be non-negative")
    if n < 1:
        raise ValueError("need n >= 1")
    a, den, base_err = residue_of(alpha)
    tau = x / n
    t = _scaled_threshold(tau, den)
    count = 0
    if 2 * t >= den:
        # threshold covers the whole circle
        count = n * (n - 1) // 2
        return PairCorrResult(n, x, Fraction(count, n), method="uv-decomposition", pair_count=count)
    w_lo = den - t
    for u in range(1, n):
        step = (2 * u * a) % den
        w = (u * (u + 2) * a) % den
        if base_err:
            eu = base_err * u * (2 * n - u)
            g1a, g1b = t - eu, t + eu
            g2a, g2b = w_lo - eu, w_lo + eu
            for _ in range(n - u):
                if w <= t or w >= w_lo:
                    count += 1
                if g1a <= w <= g1b or g2a <= w <= g2b:
                    raise PrecisionError(
                        f"|alpha*{u}*v| lands within the error radius of the threshold"
                    )
                w += step
                if w >= den:
                    w -= den
        else:
            for _ in range(n - u):
                if w <= t or w >= w_lo:
                    count += 1
                w += step
                if w >= den:
                    w -= den
    return PairCorrResult(n, x, Fraction(count, n), method="uv-decomposition", pair_count=count)


def demo_counterexample(q: int, x, seed: int = 0) -> PairCorrResult:
    """Pair correlation of a value engineered next to a/q: the pairs summing
    to q land within 1/(4N) of an integer multiple, forcing R >= ~1/2."""
    if not is_prime(q):
        raise ValueError("modulus must be prime")
    x = Fraction(x)
    if not Fraction(1, 4) < x < Fraction(1, 2):
        raise ValueError("window must lie in (1/4, 1/2)")
    rng = random.Random(seed)
    a = rng.randrange(1, q)
    alpha = Fraction(a, q) + Fraction(1, 4 * q ** 3)
    return pair_correlation(quadratic_sequence(alpha, q), x)


def weighted_pair_correlation(seq: SequenceModOne, x) -> PairCorrResult:
    """Triangular-kernel pair sum over all ordered pairs, diagonal included.

    Exact rational arithmetic throughout; the diagonal contributes 1, so the
    result is always >= 1.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("weighted correlation needs x > 0")
    n = seq.n
    tau = x / n
    t = _scaled_threshold(tau, seq.den)
    count, dist_sum = _pair_stats(seq.sorted_nums(), seq.den, t)
    r0 = 1 + Fraction(2, n) * (count - Fraction(dist_sum, seq.den) / tau)
    return PairCorrResult(n, x, None, r0=r0, method="weighted")


def equally_spaced_reference(x) -> Fraction:
    """Weighted-correlation value achieved by equally spaced points."""
    x = Fraction(x)
    if x <= 0:
        raise ValueError("reference value needs x > 0")
    xi = x - math.floor(x)
    return x + (xi - xi * xi) / x


@dataclass
class IdentityReport:
    int_l: Fraction
    int_l2: Fraction
    r0: Fraction
    r_integral_avg: Fraction
    x: Fraction
    int_l_ok: bool
    square_ok: bool
    square_applicable: bool
    additive_ok: bool

    @property
    def all_ok(self) -> bool:
        if not (self.int_l_ok and self.additive_ok):
            return False
        return self.square_ok or not self.square_applicable


def verify_integral_identities(seq: SequenceModOne, x) -> IdentityReport:
    """Exact event-sweep check of the window-count integral identities.

    Computes the arc-coverage function integrals by sweeping the 2N arc
    endpoints, the weighted correlation by the window kernel, and the
    integral of the raw correlation from the full pair-distance list; all
    three routes are independent.

    Validity ranges at finite N: the coverage integral equals x for
    0 < x <= N (an arc must not wrap past itself); the squared-coverage
    identity additionally needs x <= N/2, because two arcs wider than a
    half-circle intersect at both ends (N=2, x=2 is a counterexample).  The
    kernel/integral identity holds for every x in (0, N].  ``square_ok`` is
    still reported outside its range but excluded from ``all_ok``.
    """
    x = Fraction(x)
    n = seq.n
    if not 0 < x <= n:
        raise ValueError("identities require 0 < x <= N")
    if n > SWEEP_GUARD:
        raise CostGuardError(f"identity sweep is capped at N={SWEEP_GUARD}")

    h = x / (2 * n)
    baseline = 0
    events: dict[Fraction, int] = {}

    def add(pos: Fraction, delta: int):
        events[pos] = events.get(pos, 0) + delta

    for p in seq.points:
        if 2 * h == 1:
            baseline += 1
            continue
        s = p - h
        e = p + h
        s -= math.floor(s)
        e -= math.floor(e)
        if s < e:
            add(s, 1)
            add(e, -1)
        else:
            add(s, 1)
            add(Fraction(1), -1)
            add(Fraction(0), 1)
            add(e, -1)

    int_l = Fraction(0)
    int_l2 = Fraction(0)
    cur = baseline
    prev = Fraction(0)
    for pos in sorted(events):
        seg = pos - prev
        if seg > 0:
            int_l += cur * seg
            int_l2 += cur * cur * seg
        cur += events[pos]
        prev = pos
    seg = 1 - prev
    if seg > 0:
        int_l += cur * seg
        int_l2 += cur * cur * seg

    r0 = weighted_pair_correlation(seq, x).r0

    # integral of R(N, t) dt over [0, x]: R is a step function jumping at the
    # scaled pair distances, so the integral is a sum over the distance
    # multiset, enumerated here by the naive double loop
    t_int = _scaled_threshold(x / n, seq.den)
    count, dist_sum = _naive_distance_stats(seq, t_int)
    int_r = (count * x - n * Fraction(dist_sum, seq.den)) / n
    r_avg = 1 + 2 * int_r / x

    return IdentityReport(
        int_l=int_l,
        int_l2=int_l2,
        r0=r0,
        r_integral_avg=r_avg,
        x=x,
        int_l_ok=(int_l == x),
        square_ok=(int_l2 == x * r0),
        square_applicable=(2 * x <= n),
        additive_ok=(r_avg == r0),
    )
