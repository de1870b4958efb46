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
time, so it is exact too.  One window count at tau = X/N yields both R's
pair count and R0's distance sum, and the sequence keeps the two for the
last tau it was asked at, so R and R0 at one X count the window once.

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
from .exactreal import is_prime, mul_mod_int64, mul_mod_pow2_limbs, near_integer_count, scaled, scaled_floor

NAIVE_GUARD = 5000
HIST_COST = 64  # the residue histogram counts exact windows of cost den * (terms + 1) <= HIST_COST * N
HIST_DEN = 8  # ... over den <= HIST_DEN * N, so that it holds at most HIST_DEN int64 counts a point
SWEEP_GUARD = 4000
_PAIR_BLOCK = 1 << 16  # pair distances per block of rows in the brute force
_DOT_BLOCK = 4096  # numerators per slice of the limb matrix and of the distance-sum dot product
_KEY_BITS = 62  # int64 keys keep this many top bits of each numerator
_LOW31 = (1 << 31) - 1
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
    asks for them (the naive count, the identity sweep, a bisection in
    ``_upto_counts``).
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
        # (tau, (count, scaled distance sum)) of the last window counted
        self._stats: Optional[tuple] = None
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
                raw = self._limbs.tobytes()
                size = 4 * self._limbs.shape[1]
                self._sorted = [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]
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
            return self.sorted_keys().astype("<i8", copy=False).view("<u4").reshape(self.n, 2)
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
    is taken limb by limb over slices short enough that no int64 sum of
    limb * weight can overflow (|w_k| < n).
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
    largest = max(int(weight.max()), -int(weight.min()), 1)
    limbs = seq.sorted_limbs()
    block = min(_DOT_BLOCK, _DOT_RANGE // largest)
    for a in range(0, n, block):
        parts = (weight[a:a + block] @ limbs[a:a + block]).tolist()
        total += sum(p << 32 * i for i, p in enumerate(parts))
    return total


def _window_stats(seq: SequenceModOne, tau: Fraction) -> tuple[int, int]:
    """Count and scaled sum of the pair distances <= tau (tau >= 0), kept
    on the sequence until it is asked at another tau.

    The residue histogram serves the window when it can.  Otherwise, with
    error radius err > 0, the count is certified over the band from
    lo = max(tau - 2 err, 0) to hi = tau + 2 err: the count is monotone in
    the threshold, so it is the count at tau when no pair distance lies in
    (lo, hi], and PrecisionError is raised when one does.  One window pass
    counts the pairs at hi and those in (lo, hi] together.  An empty band
    means the pairs at tau are the pairs at hi, and whether a pair is
    forward or wrapped depends only on its gap, so their distances are
    summed from the window ends at hi.
    """
    if seq._stats is not None and seq._stats[0] == tau:
        return seq._stats[1]
    stats = _histogram_stats(seq, scaled_floor(tau, seq.den))
    if stats is None:
        lo = scaled_floor(max(tau - 2 * seq.err, Fraction(0)), seq.den)
        hi = scaled_floor(tau + 2 * seq.err, seq.den)
        count, forward, wrap, band = _pair_stats(seq, lo, hi)
        if band:
            raise PrecisionError(
                f"a pair distance lies within {float(2 * seq.err):.3g} of the threshold"
            )
        stats = count, _distance_sum(seq, forward, wrap) if tau else 0
    seq._stats = tau, stats
    return stats


def pair_correlation(seq: SequenceModOne, x) -> PairCorrResult:
    """Fraction of point pairs within x/N on the circle, threshold inclusive,
    certified when err > 0 (see ``_window_stats``)."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("window parameter must be non-negative")
    n = seq.n
    count, _ = _window_stats(seq, x / n)
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
    count, dist_sum = _window_stats(seq, tau)
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
