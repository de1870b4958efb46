"""Pair-correlation statistics for sequences mod 1.

Sequences are stored as integer numerators over one common denominator, so
window counts, triangular-kernel sums and the integral identities all come
out as exact rationals.  Three independent algorithms compute the pair
correlation of a quadratic sequence: a sorted circular window in O(N log N),
a naive O(N^2) oracle, and a difference/sum substitution that never builds
the sequence at all.  The sorted window has a second kernel for exact
sequences with a small denominator, the residue histogram below.

Every sequence holds one numpy array: over den <= 2^62 its int64
numerators, sorted by one ``np.sort`` when a count first asks for its keys,
and past that rows of uint32 limbs, sorted by one ``argsort`` of their int64
keys.  A quadratic sequence is built straight into that array whenever it
can be: over den <= 2^62 as residues a k^2 mod den (``mul_mod_int64``, by
exact float quotients), and over den = 2^bits past that (every
``FixedReal`` alpha) by one numpy limb product.  Other sequences are given
as Python ints, converted once at construction.  Either way the sorted
window and the residue histogram start from the array; the numerators
become Python ints only when something reads them.  The oracles share none
of this: the Python-int numerators, ``sorted()``, the naive count and the
u/v substitution.

The sorted window finds every window end with numpy ``searchsorted`` on
int64 keys, the top 62 bits of each sorted numerator (the numerators
themselves for den <= 2^62).  A certified window needs its count at both
ends of an error band, and one search at the band's upper key bound serves
both: an index whose last taken key is certainly inside the lower end has
the same exact count at both, and only the few others are bisected on the
exact numerators, once at each end, so the index ranges, the count built
from them and the number of pairs inside the band are exact.  Wrapped pairs
need a search only over the tail of indices whose points reach the first
one across the wrap.  The distance sum is an int64 dot product of integer
weights with the 32-bit limbs of the numerators, one bounded slice at a
time, so it is exact too.  The sequence keeps the last window it counted:
R reads its count and only R0 sums its kept index ranges, so R and R0 at
one X count the window once and R alone never pays for the sum.

An exact sequence (err == 0) over a small denominator q is counted from its
residue histogram h[r] = #{k : nums[k] = r} instead, with no sort.  Two
points lie within t/q exactly when their residues differ by some |d| <= t
mod q, so the unordered pairs at distance <= t are (h.h - N)/2 plus
C[d] = sum_r h[r] h[(r + d) mod q] over 1 <= d <= min(t, (q - 1)/2), plus
C[q/2]/2 when q is even and t >= q/2; the distance sum takes the same terms
weighted by d.  Each C[d] is two int64 slice dot products, so the cost is
about q (min(t, (q - 1)/2) + 1), and the histogram serves whenever that is
at most ``HIST_COST`` * N and q <= ``HIST_DEN`` * N, which bounds its memory
to ``HIST_DEN`` counts a point; the sorted window stays its oracle.

The integral identities compare three routes that share no count: the
arc-coverage integrals from one stable sort of the 2N arc ends, held as
points over den beside two shared sub-unit offsets, and one cumulative sum;
R0 from the window kernel above; and the integral of R from a walk over
the sorted points by neighbour offset, which meets each pair within the
window once.  The sweep costs O(N log N) and the walk O(N + pairs); both
read the sorted keys and limbs, sum by exact int64 limb dots, and make a
Python int only for a key gap too close to its bound to settle on keys.
They run up to N = ``SWEEP_GUARD``, the walk up to ``WALK_GUARD`` pairs.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CostGuardError, PrecisionError
from .exactreal import (DEFAULT_BITS, eval_with_retry, is_prime, mul_mod_int64, mul_mod_pow2_limbs,
                         near_integer_count, scaled, scaled_floor)

NAIVE_GUARD = 5000
HIST_COST = 64  # the residue histogram counts exact windows of cost den * (terms + 1) <= HIST_COST * N
HIST_DEN = 8  # ... over den <= HIST_DEN * N, so that it holds at most HIST_DEN int64 counts a point
SWEEP_GUARD = 10 ** 6
WALK_GUARD = 1 << 26  # pairs the identities' walk meets for the integral of R
_PAIR_BLOCK = 1 << 16  # pair distances per block of rows in the brute force
_DOT_BLOCK = 4096  # numerators per slice of the limb matrix and of the distance-sum dot product
_KEY_BITS = 62  # int64 keys keep this many top bits of each numerator
_LOW31 = (1 << 31) - 1
_LOW32 = (1 << 32) - 1
_DOT_RANGE = 1 << 31  # slice length times max |weight|: keeps every 32-bit limb dot below 2^63


class SequenceModOne:
    """N fractional parts, all over one common denominator.

    ``nums[k] / den`` is the k-th point; ``err`` is a certified radius such
    that the intended point differs from the stored one by at most ``err``
    (mod 1).  Exactly constructed sequences have ``err == 0``.

    Every sequence holds one numpy array: over den <= 2^62 its int64
    numerators, in order, and past that its sorted uint32 limb rows, keys
    and sort order.  ``from_array`` takes that array as built; a sequence
    built from a list converts it once, here, and keeps the list as
    ``nums``.  ``sorted_nums()``, and ``nums`` of a ``from_array``
    sequence, are Python ints read off the array the first time something
    asks for them (the naive count, a bisection in ``_upto_counts``); the
    identity checks read the array alone.
    """

    def __init__(self, nums: list[int], den: int, provenance: str = "explicit",
                 err: Fraction = Fraction(0)):
        if not nums:
            raise ValueError("sequence must have length >= 1")
        if den < 1:
            raise ValueError("denominator must be positive")
        if min(nums) < 0 or max(nums) >= den:
            raise ValueError("numerators must lie in [0, den)")
        self._fill(np.array(nums, np.int64) if den <= 1 << _KEY_BITS else _limb_rows(nums, den),
                   den, provenance, err)
        self._nums = nums

    @classmethod
    def from_array(cls, values: np.ndarray, den: int, provenance: str = "explicit",
                   err: Fraction = Fraction(0)) -> "SequenceModOne":
        """The sequence whose k-th numerator, below den, is ``values[k]``: an
        int64 array for den <= 2^62, or row k of little-endian uint32 limbs
        past it (key shift > 0)."""
        seq = cls.__new__(cls)
        seq._fill(values, den, provenance, err)
        return seq

    def _fill(self, values: np.ndarray, den: int, provenance: str, err: Fraction) -> None:
        """Hold ``values`` as ``from_array`` describes them.

        An int64 array is held as it is: ``np.sort`` of it gives the keys,
        ``np.bincount`` the residue histogram and ``tolist()`` the
        numerators, each when first asked for.  Limb rows are sorted here,
        by one ``argsort`` of their int64 keys; if two adjacent sorted keys
        are equal, one ``lexsort`` over all limbs does instead, which leaves
        the sorted keys as they are."""
        self.n, self.den, self.provenance, self.err = len(values), den, provenance, err
        # low bits dropped from a numerator to make its int64 key; 0 (keys
        # equal to the numerators) for den <= 2^62
        self.key_shift = max(0, (den - 1).bit_length() - _KEY_BITS)
        self._nums: Optional[list[int]] = None
        self._values: Optional[np.ndarray] = None  # int64 numerators, for den <= 2^62
        self._order: Optional[np.ndarray] = None  # sort order of the limb rows, past 2^62
        self._sorted: Optional[list[int]] = None
        self._keys: Optional[np.ndarray] = None
        self._limbs: Optional[np.ndarray] = None
        self._hist: Optional[np.ndarray] = None
        # (tau, count, scaled distance sum, or the ranges (F, K) until R0 asks) of the last window
        self._window: Optional[tuple] = None
        if not self.key_shift:
            self._values = values
            return
        keys = _limb_shift(values, self.key_shift)
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            order = np.lexsort(values.T)
        self._order, self._keys, self._limbs = order, keys, values[order]

    @property
    def nums(self) -> list[int]:
        if self._nums is None:
            if self._values is not None:
                self._nums = self._values.tolist()
            else:
                nums = np.empty(self.n, object)
                nums[self._order] = self.sorted_nums()
                self._nums = nums.tolist()
        return self._nums

    def sorted_nums(self) -> list[int]:
        if self._sorted is None:
            if self._values is not None:
                self._sorted = self.sorted_keys().tolist()
            else:
                self._sorted = _limb_ints(self._limbs)
        return self._sorted

    def sorted_keys(self) -> np.ndarray:
        """int64 keys v >> key_shift of the sorted numerators, same order:
        up to 2^62 the sorted numerators themselves, sorted when first asked
        for; past it the keys the limb rows were sorted by."""
        if self._keys is None:
            self._keys = np.sort(self._values)
        return self._keys

    def sorted_limbs(self) -> np.ndarray:
        """The sorted numerators as rows of little-endian uint32 limbs: for
        den <= 2^62 a view of the int64 keys, two limbs a row; past it the
        sorted rows held."""
        if not self.key_shift:
            return _int64_limbs(self.sorted_keys())
        return self._limbs

    def residue_histogram(self) -> np.ndarray:
        """int64 counts h[r] = #{k : nums[k] = r} for r < den, built once."""
        if self._hist is None:
            self._hist = np.bincount(self._values, minlength=self.den)
        return self._hist


def _limb_rows(nums: list[int], den: int) -> np.ndarray:
    """Rows of little-endian uint32 limbs, as many as den - 1 needs, of the
    Python ints ``nums``, a slice at a time through ``int.to_bytes``."""
    size = -(-(den - 1).bit_length() // 32)
    limbs = np.empty((len(nums), size), np.uint32)
    for a in range(0, len(nums), _DOT_BLOCK):
        raw = b"".join([v.to_bytes(4 * size, "little") for v in nums[a:a + _DOT_BLOCK]])
        limbs[a:a + _DOT_BLOCK] = np.frombuffer(raw, "<u4").reshape(-1, size)
    return limbs


def _limb_ints(limbs: np.ndarray) -> list[int]:
    """The Python ints whose little-endian uint32 limbs are the rows of ``limbs``."""
    raw = limbs.tobytes()
    size = 4 * limbs.shape[1]
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _int64_limbs(values: np.ndarray) -> np.ndarray:
    """Non-negative int64 values as rows of two little-endian uint32 limbs."""
    return values.astype("<i8", copy=False).view("<u4").reshape(len(values), 2)


def _limb_dot(weight: np.ndarray, limbs: np.ndarray) -> int:
    """sum_k weight[k] * v_k, exactly, for int64 weights and numbers v_k given
    as rows of uint32 limbs: one int64 dot per limb column over slices short
    enough that no sum of limb * weight can overflow (slice length times
    max |weight| at most ``_DOT_RANGE``)."""
    largest = max(int(weight.max()), -int(weight.min()), 1)
    block = min(_DOT_BLOCK, _DOT_RANGE // largest)
    total = 0
    for a in range(0, len(weight), block):
        parts = (weight[a:a + block] @ limbs[a:a + block]).tolist()
        total += sum(p << 32 * i for i, p in enumerate(parts))
    return total


def _limb_shift(limbs: np.ndarray, shift: int) -> np.ndarray:
    """v >> shift as int64 for each row v of uint32 limbs, given that every
    result is below 2^62: two limbs from shift // 32 up, and the bits the
    next limb adds when shift is not a multiple of 32."""
    q, r = divmod(shift, 32)
    word = limbs[:, q + 1].astype(np.uint64) << np.uint64(32)
    word |= limbs[:, q]
    word >>= np.uint64(r)
    if r and q + 2 < limbs.shape[1]:
        word |= limbs[:, q + 2].astype(np.uint64) << np.uint64(64 - r)
    return word.view(np.int64)


def equally_spaced(n: int) -> SequenceModOne:
    if n < 1:
        raise ValueError("need n >= 1")
    return SequenceModOne([k % n for k in range(1, n + 1)], n, "equally-spaced")


def quadratic_sequence(alpha, n: int) -> SequenceModOne:
    """Points alpha * k^2 mod 1 for k = 1..n, certified well below 1/(2 n^2).

    With alpha = num/den (``scaled``), the numerators a * k^2 mod den, a =
    num mod den, are built one of three ways:

    * den <= 2^62, when min(n^2, den) <= 2^51 and k mod den squares within
      int64: as one int64 array, k^2 mod den times a by ``mul_mod_int64``
      (an exact float quotient and a wrapped uint64 remainder, since every
      k^2 mod den is below 2^51), handed to ``SequenceModOne.from_array``;
    * den = 2^bits past 2^62 (every ``FixedReal``): as uint32 limb rows by
      ``mul_mod_pow2_limbs``, handed to ``SequenceModOne.from_array``, which
      sorts them;
    * any other den: as Python ints, which ``SequenceModOne`` converts to
      its array once.

    The first two make no Python int until ``nums`` or ``sorted_nums()`` is
    read.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    num, den, err_ulp = scaled(alpha)
    a = num % den
    err = Fraction(err_ulp * n * n, den)
    # certification guard: 20 bits of slack below the pair threshold scale
    if err * (2 * n * n) * (1 << 20) > 1:
        raise PrecisionError(
            f"{den.bit_length() - 1} bits cannot certify alpha*k^2 up to k={n}"
        )
    if _int64_build(n, den):
        k = np.arange(1, n + 1, dtype=np.int64)
        k %= den
        k *= k
        k %= den
        return SequenceModOne.from_array(mul_mod_int64(a, k, den), den, "quadratic", err)
    bits = den.bit_length() - 1
    if den == 1 << bits and bits > _KEY_BITS:
        k = np.arange(1, n + 1, dtype=np.int64)
        k *= k
        limbs = mul_mod_pow2_limbs(a, k, bits)
        del k
        return SequenceModOne.from_array(limbs, den, "quadratic", err)
    return SequenceModOne([(a * k * k) % den for k in range(1, n + 1)], den, "quadratic", err)


def _int64_build(n: int, den: int) -> bool:
    """Whether ``quadratic_sequence`` builds a * k^2 mod den for k <= n in
    int64: den <= 2^62, every k mod den squares below 2^63, and every k^2
    mod den is below 2^51 (as ``mul_mod_int64`` needs)."""
    return den <= 1 << _KEY_BITS and min(n, den - 1) ** 2 < 1 << 63 and min(n * n, den) <= 1 << 51


@dataclass
class PairCorrResult:
    n: int
    x: Fraction
    r: Optional[Fraction]
    r0: Optional[Fraction] = None
    # "sorted-window" names the exact window count, whichever kernel (the
    # sorted search or the residue histogram) serves it
    method: str = "sorted-window"
    pair_count: Optional[int] = None

    def __post_init__(self):
        if self.r is not None and self.r < 0:
            raise ValueError("pair correlation cannot be negative")
        if self.r0 is not None and self.n >= 1 and self.r0 < 1:
            raise ValueError("weighted pair correlation is at least 1")


# ---------------------------------------------------------------------------
# exact circular window counting


def _upto_counts(seq: SequenceModOne, lo: int, hi: int) -> tuple[np.ndarray, int]:
    """#{j : s_j <= s_i + hi} for every i, exactly, over the sorted
    numerators s, and the number of pairs (i, j) with s_i + lo < s_j <=
    s_i + hi; lo <= hi, and lo >= 0 or hi < 0.

    With key shift h > 0, s_i + o has key key_i + (o >> h) or one more, so
    every key up to key_i + (lo >> h) - 1 is certainly in at lo and every
    key past key_i + (hi >> h) + 1 certainly out at hi (with h = 0 the keys
    are the numerators, and neither bound needs the extra key).  One search
    counts the keys up to the upper bound.  An index whose last taken key is
    certainly in at lo has the same exact count at both ends; the others
    are bisected on the exact integers at hi and at lo, inside the bracket
    the two bounds leave.  At lo >= 0 every j <= i is in, so an index that
    took no key past its own is exact, and a bisection starts past i.  At
    hi < 0 only the indices from the first one whose key reaches keys[0]
    take any key, so only that tail is searched (at hi >= 0 it is all).
    """
    keys = seq.sorted_keys()
    h = seq.key_shift
    slack = 1 if h else 0
    up = (hi >> h) + slack
    sure = (lo >> h) - slack
    first = int(np.searchsorted(keys, keys[0] - up))
    own = keys[first:]
    full = np.zeros(seq.n, np.intp) if first else None  # the indices before first take no key
    counts = np.searchsorted(keys, own + up, "right")
    band = 0
    if sure < up:  # not h = 0 and lo = hi, where the search is exact
        counts -= 1  # the last key taken: every index from first on takes keys[0]
        gap = keys[counts]
        gap -= own
        ends = np.flatnonzero(gap > sure)
        if lo >= 0:
            ends = ends[counts[ends] > ends]
        counts += 1
        if ends.size:
            s = seq.sorted_nums()
            starts = np.searchsorted(keys, own[ends] + sure, "right")
            if lo >= 0:
                np.maximum(starts, ends + 1, out=starts)
            for e, start in zip(ends.tolist(), starts.tolist()):
                v = s[e + first]
                end = bisect.bisect_right(s, v + hi, start, int(counts[e]))
                counts[e] = end
                if lo != hi:
                    band += end - bisect.bisect_right(s, v + lo, start, end)
    if full is None:
        return counts, band
    full[first:] = counts
    return full, band


def _pair_stats(seq: SequenceModOne, lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray, int]:
    """Pairs at circular distance <= hi/den as index ranges over the sorted
    numerators s, and how many more there are than at lo/den (0 <= lo <= hi):
    (count, F, K, band), where i < j < F[i] are the pairs with gap
    s_j - s_i <= min(hi, den // 2) and k < K[j] those whose gap past half the
    circle wraps to a distance den - (s_j - s_k) <= hi."""
    n = seq.n
    if hi < 0:
        return 0, np.arange(1, n + 1), np.zeros(n, dtype=np.int64), 0
    half = seq.den // 2
    wide = seq.den - half - 1  # the largest distance whose gap wraps
    forward, band = _upto_counts(seq, min(lo, half), min(hi, half))
    wrap, wrap_band = _upto_counts(seq, min(lo, wide) - seq.den, min(hi, wide) - seq.den)
    count = int(forward.sum()) - n * (n + 1) // 2 + int(wrap.sum())
    return count, forward, wrap, band + wrap_band


def _histogram_stats(seq: SequenceModOne, t: int) -> Optional[tuple[int, int]]:
    """Count and scaled sum of the pair distances <= t (t >= 0) from the
    residue histogram, or None when err > 0, den > ``HIST_DEN`` * N or the
    window costs more than ``HIST_COST`` * N there (see the module
    docstring)."""
    q = seq.den
    terms = min(t, (q - 1) // 2)
    if seq.err or q * (terms + 1) > HIST_COST * seq.n or q > HIST_DEN * seq.n:
        return None
    h = seq.residue_histogram()
    count = (int(h @ h) - seq.n) // 2
    dist_sum = 0
    for d in range(1, terms + 1):
        c = int(h[:q - d] @ h[d:]) + int(h[q - d:] @ h[:d])
        count += c
        dist_sum += d * c
    if q % 2 == 0 and 2 * t >= q:
        c = int(h[:q // 2] @ h[q // 2:])  # C[q/2] / 2: residue q/2 is its own mirror
        count += c
        dist_sum += q // 2 * c
    return count, dist_sum


def _distance_sum(seq: SequenceModOne, forward: np.ndarray, wrap: np.ndarray) -> int:
    """Scaled sum of the pair distances that ``_pair_stats`` counted.

    Each forward pair adds s_j - s_i and each wrapped pair den - s_j + s_k,
    so the sum is den * sum(K) + sum_k s_k * w_k with the integer weight
    w_k = #{i < k : F[i] > k} - (F[k] - k - 1) - K[k] + #{j : K[j] > k}.
    F and K are non-decreasing and F[i] > i, so #{i : F[i] <= k} and
    #{j : K[j] <= k} are running sums of their histograms.  The dot product
    is ``_limb_dot`` (|w_k| < n).
    """
    n = seq.n
    total = seq.den * int(wrap.sum())
    # w_k = (n - 1) - F[k] - K[k] - c_k with c_k = #{F <= k} + #{K <= k}
    # - 2(k + 1); -c_k is the running sum of 2 less the two histograms
    weight = np.full(n + 1, 2, dtype=np.int64)
    np.subtract.at(weight, forward, 1)
    np.subtract.at(weight, wrap, 1)
    weight = np.cumsum(weight, out=weight)[:n]
    weight += n - 1
    weight -= forward
    weight -= wrap
    return total + _limb_dot(weight, seq.sorted_limbs())


def _window_count(seq: SequenceModOne, tau: Fraction) -> int:
    """Count of the pair distances <= tau (tau >= 0), kept on the sequence
    with what R0's distance sum needs until it is asked at another tau.

    The residue histogram serves the window when it can, sum included.
    Otherwise, with error radius err > 0, the count is certified over the
    band from lo = max(tau - 2 err, 0) to hi = tau + 2 err: the count is
    monotone in the threshold, so it is the count at tau when no pair
    distance lies in (lo, hi], and PrecisionError is raised when one does.
    One window pass counts the pairs at hi and those in (lo, hi] together.
    An empty band means the pairs at tau are the pairs at hi, and whether a
    pair is forward or wrapped depends only on its gap, so their distances
    are summed from the window ends at hi, which are kept for that.
    """
    if seq._window is None or seq._window[0] != tau:
        seq._window = None  # the last window's ranges go before the next is counted
        stats = _histogram_stats(seq, scaled_floor(tau, seq.den))
        if stats is None:
            lo = scaled_floor(max(tau - 2 * seq.err, Fraction(0)), seq.den)
            hi = scaled_floor(tau + 2 * seq.err, seq.den)
            count, forward, wrap, band = _pair_stats(seq, lo, hi)
            if band:
                raise PrecisionError(f"a pair distance lies within {float(2 * seq.err):.3g} of the threshold")
            stats = count, (forward, wrap)
        seq._window = (tau, *stats)
    return seq._window[1]


def pair_correlation(seq: SequenceModOne, x) -> PairCorrResult:
    """Fraction of point pairs within x/N on the circle, threshold inclusive,
    certified when err > 0 (see ``_window_count``)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("window parameter must be non-negative")
    n = seq.n
    count = _window_count(seq, x / n)
    return PairCorrResult(n, x, Fraction(count, n), pair_count=count)


def _naive_distance_stats(seq: SequenceModOne, t: int) -> tuple[int, int]:
    """Count and scaled sum of pair distances <= t by brute enumeration, a
    block of rows at a time; past 2^62 the rows hold Python ints.  Each
    block's distances are summed as their high and low 31 bits, so an int64
    sum of at most 2^32 distances below 2^61 is exact."""
    n = seq.n
    den = seq.den
    t = min(t, den)
    a = np.array(seq.nums, dtype=object) if seq.key_shift else seq._values
    count = dist_sum = 0
    start = 0
    while start < n - 1:
        rows = min(max(1, _PAIR_BLOCK // (n - start - 1)), n - 1 - start)
        # row i against columns start+1.., kept where the column is past i:
        # only the first `rows` columns hold some that are not
        d = a[start:start + rows, None] - a[None, start + 1:]
        np.abs(d, out=d)
        np.minimum(d, den - d, out=d)
        near = d <= t
        near[:, :rows] &= ~np.tri(rows, k=-1, dtype=bool)
        count += int(np.count_nonzero(near))
        d = d[near]
        dist_sum += (int((d >> 31).sum()) << 31) + int((d & _LOW31).sum())
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
    within x/n of an integer; each row u is an arithmetic progression of
    scaled products, counted by floor sums in O(log den) steps, so no
    sequence is ever materialised and the cost is O(n log den).
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
    result is always >= 1.  Its pairs are certified as pair_correlation's.
    """
    x = Fraction(x)
    if x <= 0:
        raise ValueError("weighted correlation needs x > 0")
    n = seq.n
    tau = x / n
    count = _window_count(seq, tau)
    dist_sum = seq._window[2]
    if isinstance(dist_sum, tuple):  # the kept ranges, summed once and dropped
        dist_sum = _distance_sum(seq, *dist_sum)
        seq._window = tau, count, dist_sum
    r0 = 1 + Fraction(2, n) * (count - Fraction(dist_sum, seq.den) / tau)
    return PairCorrResult(n, x, None, r0=r0, method="weighted")


def correlation_rows(spec, n: int, xs, bits: int = DEFAULT_BITS) -> list[tuple[PairCorrResult, Optional[Fraction]]]:
    """R(N, X) of alpha k^2 mod 1, k <= n, and R0 (None at X = 0) at each X
    of ``xs``, for the alpha of ``spec`` (``parse_alpha``): one sequence and
    one window count per X, all redone at more bits on a PrecisionError."""

    def rows_at(alpha) -> list[tuple[PairCorrResult, Optional[Fraction]]]:
        seq = quadratic_sequence(alpha, n)
        return [(pair_correlation(seq, x), weighted_pair_correlation(seq, x).r0 if x else None) for x in xs]

    return eval_with_retry(spec, rows_at, bits)


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
    """Exact check of the window-count integral identities by three
    independent routes: the arc-coverage integrals by an event sweep, the
    weighted correlation by the window kernel, and the integral of the raw
    correlation by a walk over the pairs.  The sweep costs O(N log N) and
    the walk O(N + pairs); both read the sorted keys and limbs, and neither
    makes a Python int per point.

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

    int_l, int_l2 = _coverage_integrals(seq, x)
    r0 = weighted_pair_correlation(seq, x).r0
    # integral of R(N, t) dt over [0, x]: R is a step function jumping at the
    # scaled pair distances, so the integral is a sum over the distance
    # multiset, enumerated here pair by pair
    count, dist_sum = _walk_distance_stats(seq, scaled_floor(x / n, seq.den))
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


def _coverage_integrals(seq: SequenceModOne, x: Fraction) -> tuple[Fraction, Fraction]:
    """The integrals of L and L^2 over the circle, where L(y) counts the arcs
    of length x/N centred on the points that cover y, by one sort of the 2N
    arc ends.

    Scaled by den * k with k = 2N * x.denominator, the arc about v/den runs
    from v*k - h to v*k + h (mod den * k), h = x.numerator * den.  With
    (A, B) = divmod(h, k), its start lies at w*k + o with w = (v - A - [B > 0])
    mod den and o = -B mod k, and its end at w*k + o with w = (v + A) mod den
    and o = B.  Every start shares one o and every end the other, so the 2N
    ends sort by w, the starts first at equal w when their o is smaller:
    one stable sort of the w, concatenated in that order, puts the ends in
    sweep order (int64 w up to 2^62; past it the int64 keys of their limb
    rows, or one stable ``lexsort`` of the rows when two keys tie, as
    ``SequenceModOne`` sorts its rows).  The arcs that cover the sweep's
    start are those whose start wrapped below 0 or whose end wrapped past
    den, so one cumulative sum of the +1/-1 steps gives L after every end.

    Summing by parts, the integral of f(L) times den * k is
    f(L0) den k - sum_e df_e (w_e k + o_e), where df_e is the change of f(L)
    at end e and L0 the coverage at 0; sum_e df_e w_e is an int64 dot of
    the df with the limbs of the w (``_limb_dot``), never forming k*v.
    """
    n, den = seq.n, seq.den
    k = 2 * n * x.denominator
    a, b = divmod(x.numerator * den, k)
    o_start, o_end = -b % k, b
    values = seq.sorted_limbs() if seq.key_shift else seq.sorted_keys()
    # v - A - [B > 0] wraps below 0 exactly where v + (den - A - [B > 0]) stays below den
    starts, unwrapped = _add_mod(values, den - a - (b > 0), den)
    ends, wrapped = _add_mod(values, a, den)
    cover0 = n - int(np.count_nonzero(unwrapped)) + int(np.count_nonzero(wrapped))
    first = o_start <= o_end  # starts go first among equal w
    w = np.concatenate((starts, ends) if first else (ends, starts))
    step = np.repeat(np.array((1, -1) if first else (-1, 1), np.int64), n)
    if seq.key_shift:
        keys = _limb_shift(w, seq.key_shift)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            order = np.lexsort(w.T)
        limbs = w
    else:
        order = np.argsort(w, kind="stable")
        limbs = _int64_limbs(w)
    sweep = step[order]
    cover = np.cumsum(sweep)
    cover += cover0
    # change of L^2 at each end, where L steps by s to L': L'^2 - L^2 = s (2 L' - s)
    square = np.empty_like(cover)
    square[order] = (2 * cover - sweep) * sweep
    start_square = int(square[:n].sum() if first else square[n:].sum())
    scale = den * k
    int_l = cover0 * scale - k * _limb_dot(step, limbs) - n * (o_start - o_end)
    int_l2 = cover0 * cover0 * scale - k * _limb_dot(square, limbs) - start_square * (o_start - o_end)
    return Fraction(int_l, scale), Fraction(int_l2, scale)


def _add_mod(values: np.ndarray, c: int, den: int) -> tuple[np.ndarray, np.ndarray]:
    """(v + c) mod den for each numerator v of ``values`` (an int64 array for
    den <= 2^62, where v + c < 2 den fits, else rows of uint32 limbs),
    0 <= c < den, and where v + c >= den.  On limb rows that is v >= den - c,
    compared limb by limb from the top; then each row adds c, or
    2^(32 size) - (den - c) to give v + c - den modulo 2^(32 size), with
    the carry taken column by column."""
    if values.ndim == 1:
        out = values + c
        wrapped = out >= den
        out[wrapped] -= den
        return out, wrapped
    n, size = values.shape
    m = den - c
    wrapped = np.zeros(n, bool)
    tie = np.full(n, m < 1 << 32 * size)
    for col in reversed(range(size)):
        limb, part = values[:, col], (m >> 32 * col) & _LOW32
        wrapped |= tie & (limb > part)
        tie &= limb == part
    wrapped |= tie
    below, over = c, (1 << 32 * size) - m
    out = np.empty_like(values)
    carry = np.zeros(n, np.uint64)
    for col in range(size):
        carry += values[:, col]
        carry += np.where(wrapped, (over >> 32 * col) & _LOW32, (below >> 32 * col) & _LOW32).astype(np.uint64)
        out[:, col] = carry & _LOW32
        carry >>= np.uint64(32)
    return out, wrapped


def _walk_distance_stats(seq: SequenceModOne, t: int) -> tuple[int, int]:
    """Count and scaled sum of the pair distances <= t (t >= 0), pair by
    pair.

    Over the sorted numerators s, point i meets its neighbours at offsets
    d = 1, 2, ... in circular order.  Below N, p = i + d is a forward pair,
    within t when s[p] - s[i] <= min(t, den // 2); past N, p = i + d - N is
    a wrapped pair, within t when den - (s[i] - s[p]) <= min(t, den - den //
    2 - 1).  So each pair is met once: from its lower end when its gap is
    at most half the circle, from its upper end otherwise.  The circular
    gap grows with d and the wrapped bound is the smaller one, so i drops
    out at its first miss and keeps the offsets 1..reach[i]; the walk ends
    when every point has dropped out, after count + N gap tests at most.
    The gaps are read off the int64 keys; past 2^62 a key gap within one
    key unit of its bound is settled on the two exact numerators.

    The distances sum to den * (wrapped pairs) + sum_i weight_i s_i, where
    weight_i is the number of points that meet i less reach[i], taken as
    one ``_limb_dot`` with the sorted limbs.
    """
    n, den, shift = seq.n, seq.den, seq.key_shift
    keys = seq.sorted_keys()
    half = den // 2
    bounds = (min(t, half), min(t, den - half - 1) - den)  # forward, and wrapped as s[p] - s[i]
    reach = np.zeros(n, np.int64)
    live = np.arange(n)
    pairs = 0
    for d in range(1, n):
        wrap = int(np.searchsorted(live, n - d))  # live[wrap:] meet a point past N
        part = live + d
        part[wrap:] -= n
        gap = keys[part]
        gap -= keys[live]
        top = np.full(live.size, bounds[1] >> shift)
        top[:wrap] = bounds[0] >> shift
        if not shift:
            keep = gap <= top
        else:
            keep = gap < top
            unsure = np.flatnonzero((gap >= top) & (gap <= top + 1))
            if unsure.size:
                limbs = seq.sorted_limbs()
                pairs_at = zip(unsure.tolist(), _limb_ints(limbs[live[unsure]]), _limb_ints(limbs[part[unsure]]))
                for j, v, u in pairs_at:
                    keep[j] = u - v <= bounds[j >= wrap]
        live = live[keep]
        if not live.size:
            break
        reach[live] = d
        pairs += live.size
        if pairs > WALK_GUARD:
            raise CostGuardError(f"the identity pair walk is capped at {WALK_GUARD} pairs")
    at = np.arange(n)
    wrapped = int(np.maximum(reach - (n - 1 - at), 0).sum())  # offsets d >= N - i wrap
    # i meets i + 1 .. i + reach[i], mod N: a difference array over 2N indices
    met = np.zeros(2 * n, np.int64)
    met[1:n + 1] = 1
    met -= np.bincount(at + 1 + reach, minlength=2 * n)
    met = np.cumsum(met, out=met)
    weight = met[:n]
    weight += met[n:]
    weight -= reach
    return pairs, den * wrapped + _limb_dot(weight, seq.sorted_limbs())
