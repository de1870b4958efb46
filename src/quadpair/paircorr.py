"""Pair-correlation statistics for sequences mod 1.

Sequences are stored as integer numerators over one common denominator, so
window counts, triangular-kernel sums and the integral identities all come
out as exact rationals.  Three independent algorithms compute the pair
correlation of a quadratic sequence: a sorted circular window in O(N log N),
a naive O(N^2) oracle, and a difference/sum substitution that never builds
the sequence at all.

The sorted window finds every window end with numpy ``searchsorted`` on
int64 keys, the top 62 bits of each sorted numerator (the numerators
themselves for den <= 2^62).  A key bracket that cannot decide an end is
resolved by bisecting the exact numerators, so the index ranges, and the
count and distance sum built from them, are exact.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CostGuardError, PrecisionError
from .exactreal import is_prime, near_integer_count, scaled, scaled_floor

NAIVE_GUARD = 5000
SWEEP_GUARD = 4000
_PAIR_BLOCK = 1 << 16  # pair distances per block of rows in the brute force
_DOT_BLOCK = 4096  # numerators per slice of the exact distance-sum dot product
_KEY_BITS = 62  # int64 keys keep this many top bits of each numerator


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
    _keys: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

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

    def sorted_nums(self) -> list[int]:
        if self._sorted is None:
            self._sorted = sorted(self.nums)
        return self._sorted

    @property
    def key_shift(self) -> int:
        """Low bits dropped from a numerator to make its int64 key; 0 (keys
        equal to the numerators) for den <= 2^62."""
        return max(0, (self.den - 1).bit_length() - _KEY_BITS)

    def sorted_keys(self) -> np.ndarray:
        """int64 keys v >> key_shift of the sorted numerators, same order."""
        if self._keys is None:
            shift = self.key_shift
            s = self.sorted_nums()
            self._keys = np.fromiter(s if not shift else (v >> shift for v in s), np.int64, len(s))
        return self._keys


def sequence_from_points(points) -> SequenceModOne:
    """Build a sequence from rationals/floats, reduced mod 1."""
    fracs = [Fraction(p) for p in points]
    fracs = [p - math.floor(p) for p in fracs]
    den = 1
    for p in fracs:
        den = den * p.denominator // math.gcd(den, p.denominator)
    nums = [int(p * den) for p in fracs]
    return SequenceModOne(nums, den)


def equally_spaced(n: int) -> SequenceModOne:
    if n < 1:
        raise ValueError("need n >= 1")
    return SequenceModOne([k % n for k in range(1, n + 1)], n, "equally-spaced")


def quadratic_sequence(alpha, n: int) -> SequenceModOne:
    """Points alpha * k^2 mod 1 for k = 1..n, certified well below 1/(2 n^2)."""
    if n < 1:
        raise ValueError("need n >= 1")
    num, den, err_ulp = scaled(alpha)
    a = num % den
    nums = [(a * k * k) % den for k in range(1, n + 1)]
    err = Fraction(err_ulp * n * n, den)
    # certification guard: 20 bits of slack below the pair threshold scale
    if err * (2 * n * n) * (1 << 20) > 1:
        raise PrecisionError(
            f"{den.bit_length() - 1} bits cannot certify alpha*k^2 up to k={n}"
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


def _upto_counts(seq: SequenceModOne, offset: int) -> np.ndarray:
    """#{j : s_j <= s_i + offset} for every i, exactly, over the sorted
    numerators s.

    With key shift h, s_i + offset has key key_i + (offset >> h) or one
    more, so every key up to key_i + (offset >> h) - 1 is certainly in and
    every key past key_i + (offset >> h) + 1 certainly out.  The count of
    keys up to the upper bound is exact unless a key it takes in sits in
    the two-key band; those indices are bisected on the exact integers.
    """
    keys = seq.sorted_keys()
    bound = keys + (offset >> seq.key_shift)
    if not seq.key_shift:
        return np.searchsorted(keys, bound, "right")
    counts = np.searchsorted(keys, bound + 1, "right")
    # keys[-1] where counts is 0 is masked out
    band = np.flatnonzero((keys[counts - 1] >= bound) & (counts > 0))
    if band.size:
        s = seq.sorted_nums()
        los = np.searchsorted(keys, bound[band] - 1, "right").tolist()
        for i, lo in zip(band.tolist(), los):
            counts[i] = bisect.bisect_right(s, s[i] + offset, lo, int(counts[i]))
    return counts


def _pair_stats(seq: SequenceModOne, t: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Pairs at circular distance <= t/den as index ranges over the sorted
    numerators s: (count, F, K), where i < j < F[i] are the pairs with gap
    s_j - s_i <= min(t, den // 2) and k < K[j] those whose gap past half the
    circle wraps to a distance den - (s_j - s_k) <= t."""
    n = seq.n
    if t < 0:
        return 0, np.arange(1, n + 1), np.zeros(n, dtype=np.int64)
    half = seq.den // 2
    forward = _upto_counts(seq, min(t, half))
    wrap = _upto_counts(seq, min(t, seq.den - half - 1) - seq.den)
    count = int(forward.sum()) - n * (n + 1) // 2 + int(wrap.sum())
    return count, forward, wrap


def _distance_sum(seq: SequenceModOne, forward: np.ndarray, wrap: np.ndarray) -> int:
    """Scaled sum of the pair distances that ``_pair_stats`` counted.

    Each forward pair adds s_j - s_i and each wrapped pair den - s_j + s_k,
    so the sum is den * sum(K) + sum_k s_k * w_k with the integer weight
    w_k = #{i < k : F[i] > k} - (F[k] - k - 1) - K[k] + #{j : K[j] > k},
    taken one slice of k at a time.
    """
    n = seq.n
    s = seq.sorted_nums()
    total = seq.den * int(wrap.sum())
    for a in range(0, n, _DOT_BLOCK):
        b = min(a + _DOT_BLOCK, n)
        k = np.arange(a, b)
        # k - #{F <= k}, plus k + 1 - F[k], minus K[k], plus n - #{K <= k}
        weight = 2 * k + (n + 1)
        weight -= forward[a:b]
        weight -= wrap[a:b]
        weight -= np.searchsorted(forward, k, "right")
        weight -= np.searchsorted(wrap, k, "right")
        total += sum(map(operator.mul, s[a:b], weight.tolist()))
    return total


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
    hi = scaled_floor(tau + 2 * seq.err, seq.den)
    count = _pair_stats(seq, hi)[0]
    if seq.err:
        lo = scaled_floor(max(tau - 2 * seq.err, Fraction(0)), seq.den)
        if lo != hi and _pair_stats(seq, lo)[0] != count:
            raise PrecisionError(
                f"a pair distance lies within {float(2 * seq.err):.3g} of the threshold"
            )
    return PairCorrResult(n, x, Fraction(count, n), method="sorted-window", pair_count=count)


def _naive_distance_stats(seq: SequenceModOne, t: int) -> tuple[int, int]:
    """Count and scaled sum of pair distances <= t by brute enumeration, a
    block of rows at a time; past 2^40 the rows hold Python ints."""
    n = seq.n
    den = seq.den
    t = min(t, den)
    a = np.array(seq.nums, dtype=np.int64 if den <= 1 << 40 else object)
    count = dist_sum = 0
    start = 0
    while start < n - 1:
        rows = max(1, _PAIR_BLOCK // (n - start - 1))
        # row i against columns start+1.., kept where the column is past i
        d = np.abs(a[start:start + rows, None] - a[None, start + 1:])
        d = np.minimum(d, den - d)
        near = np.triu(d <= t)
        count += int(np.count_nonzero(near))
        dist_sum += int(d[near].sum())
        start += rows
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
    count, _ = _naive_distance_stats(seq, scaled_floor(tau, seq.den))
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
    num, den, err = scaled(alpha)
    a = num % den
    t = scaled_floor(x / n, den)
    if 2 * t >= den:
        # threshold covers the whole circle
        count = n * (n - 1) // 2
    else:
        # row u steps v = u+2, u+4, ..., 2n-u; alpha*u*v is off by at most
        # err*u*v <= err*u*(2n-u)
        count = sum(
            near_integer_count((u * (u + 2) * a) % den, (2 * u * a) % den, n - u, den, t,
                               err * u * (2 * n - u))
            for u in range(1, n)
        )
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
    t = scaled_floor(tau, seq.den)
    count, forward, wrap = _pair_stats(seq, t)
    dist_sum = _distance_sum(seq, forward, wrap)
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

    The sweep runs on integers.  Scaled by den * k with k = 2N * x.denominator,
    the arc about v/den runs from v*k - h to v*k + h (mod den * k), where
    h = x.numerator * den; it adds +1 at its start and -1 at its end.  Arcs
    whose start is not below their end (those wrapping past 0, and the
    whole-circle arcs at x = N) cover the start of the sweep.  Coverage and
    its square times segment length, summed and divided by den * k, give the
    two integrals.

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

    k = 2 * n * x.denominator
    scale = seq.den * k
    h = x.numerator * seq.den
    events = []
    cur = 0
    for v in seq.nums:
        s = (v * k - h) % scale
        e = (v * k + h) % scale
        events += [(s, 1), (e, -1)]
        cur += s >= e
    int_l = int_l2 = prev = 0
    for pos, step in sorted(events) + [(scale, 0)]:
        int_l += cur * (pos - prev)
        int_l2 += cur * cur * (pos - prev)
        cur += step
        prev = pos
    int_l = Fraction(int_l, scale)
    int_l2 = Fraction(int_l2, scale)

    r0 = weighted_pair_correlation(seq, x).r0

    # integral of R(N, t) dt over [0, x]: R is a step function jumping at the
    # scaled pair distances, so the integral is a sum over the distance
    # multiset, enumerated here by brute force
    t_int = scaled_floor(x / n, seq.den)
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
