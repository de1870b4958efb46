"""Exact real arithmetic with certified error bounds.

Numbers come in two flavours throughout the package:

* ``fractions.Fraction`` for exactly known rationals;
* ``FixedReal`` for irrationals, held as an integer mantissa with a fixed
  number of fractional bits plus a certified error radius in ulps.

Every comparison done on a ``FixedReal`` either is certified correct or
raises ``PrecisionError``, in which case the caller should rebuild the value
with more bits (``eval_with_retry`` automates the doubling).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import PrecisionError

DEFAULT_BITS = 192
MIN_BITS = 64
MAX_BITS = 1024

_TRIAL_LIMIT = 10 ** 6
_FACTOR_CAP = 10 ** 12
_MUL_BLOCK = 1 << 14  # values of a numpy modular product built at a time


# ---------------------------------------------------------------------------
# integer helpers


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n: the package's one exact k-th root.

    A root below 2**50 starts from the float estimate exp(log(n)/k), a few
    units off at most, and is settled by exact comparisons; a larger one
    runs Newton's iteration down from a power of two above it, with no
    float in the way."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
    if n.bit_length() <= 50 * k:
        r = int(math.exp(math.log(n) / k))
    else:
        r = 1 << -(-n.bit_length() // k)  # r**k >= n
        while True:
            nr = ((k - 1) * r + n // r ** (k - 1)) // k
            if nr >= r:
                break
            r = nr
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def floor_power(base: int, e: Fraction) -> int:
    """floor(base**e) for a non-negative rational exponent, exactly."""
    e = Fraction(e)
    if base < 0 or e < 0:
        raise ValueError("floor_power needs base >= 0 and e >= 0")
    return iroot(base ** e.numerator, e.denominator)


def cmp_power(val: Fraction, base: int, e: Fraction) -> int:
    """Sign of val - base**e, decided exactly (base >= 1, e >= 0)."""
    e = Fraction(e)
    if base < 1 or e < 0:
        raise ValueError("cmp_power needs base >= 1 and e >= 0")
    if val < 0:
        return -1
    lhs = val.numerator ** e.denominator
    rhs = base ** e.numerator * val.denominator ** e.denominator
    return (lhs > rhs) - (lhs < rhs)


def primes_upto(limit: int) -> np.ndarray:
    """The primes p <= limit in ascending order, by the sieve of Eratosthenes."""
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


# factorize's trial divisors; callers with other limits sieve uncached
_trial_primes = lru_cache(maxsize=1)(lambda: primes_upto(_TRIAL_LIMIT))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 10**12 modulus cap."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; cofactors past the table are
    provably prime for n <= 10**12 and are primality-checked anyway."""
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    if n > _FACTOR_CAP:
        raise ValueError(f"modulus {n} exceeds the 10**12 factorisation cap")
    out: dict[int, int] = {}
    rem = n
    for p in _trial_primes():
        p = int(p)
        if p * p > rem:
            break
        while rem % p == 0:
            out[p] = out.get(p, 0) + 1
            rem //= p
    if rem > 1:
        if not is_prime(rem):
            raise ValueError(f"cofactor {rem} of {n} is not prime")
        out[rem] = out.get(rem, 0) + 1
    return out


def q1_part(q: int) -> int:
    """Product of the 2-part of q and every prime power in q with exponent
    above 1; the cofactor q // q1_part(q) is odd and squarefree."""
    out = 1
    for p, e in factorize(q).items():
        if p == 2 or e > 1:
            out *= p ** e
    return out


def euler_phi(q: int) -> int:
    out = q
    for p in factorize(q):
        out -= out // p
    return out


# ---------------------------------------------------------------------------
# fixed-point reals


@dataclass(frozen=True)
class FixedReal:
    """A real x known to satisfy |x - mantissa * 2**-frac_bits| <= err_ulp ulp.

    One ulp is 2**-frac_bits.  Values are immutable; all operations on them
    are pure functions.
    """

    mantissa: int
    frac_bits: int = DEFAULT_BITS
    err_ulp: int = 0

    def __post_init__(self):
        if self.frac_bits < MIN_BITS:
            raise ValueError(f"frac_bits must be >= {MIN_BITS}")
        if self.err_ulp < 0:
            raise ValueError("err_ulp must be non-negative")

    @property
    def lo(self) -> Fraction:
        return Fraction(self.mantissa - self.err_ulp, 1 << self.frac_bits)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.mantissa + self.err_ulp, 1 << self.frac_bits)

    @property
    def mid(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.frac_bits)

    def __float__(self) -> float:
        return self.mantissa / (1 << self.frac_bits)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedReal({float(self):.15g}, bits={self.frac_bits}, err={self.err_ulp})"


def scaled(x) -> tuple[int, int, int]:
    """x as (num, den, err) with |x - num/den| <= err/den; err = 0 exactly
    for a rational.  The one place that tells a FixedReal from a rational."""
    if isinstance(x, FixedReal):
        return x.mantissa, 1 << x.frac_bits, x.err_ulp
    v = Fraction(x)
    return v.numerator, v.denominator, 0


def scaled_floor(fr: Fraction, den: int) -> int:
    """floor(fr * den); for integer d, d/den <= fr iff d <= this."""
    return (fr.numerator * den) // fr.denominator


def floor_sum(n: int, a: int, b: int, m: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)), for any integers a and b
    and m >= 1, in O(log m) big-integer steps: reduce a and b mod m, then
    count the lattice points under the line with the axes swapped
    (Graham-Knuth-Patashnik, Concrete Mathematics, section 3.5)."""
    if n < 0 or m < 1:
        raise ValueError("need n >= 0 and m >= 1")
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


def near_integer_count(w: int, step: int, terms: int, den: int, t: int, err: int) -> int:
    """How many of w, w + step, ... (terms of them, mod den, all in [0, den))
    lie within t of a multiple of den, each term known to within err.

    A term strictly inside (t + err, den - t - err) is certainly outside;
    any other term is counted, unless its true value may lie on either side
    of the threshold: t - err < w <= t + err or den - t - err <= w <
    den - t + err, where PrecisionError is raised.  With err = 0 that set is
    empty and the count is exact.  Each range of residues is counted by two
    floor sums, so the cost is O(log den) whatever the number of terms.
    """

    def above(c: int) -> int:
        # floor((x - c)/den) - floor(x/den) is -1 exactly when x mod den < c
        # (0 <= c <= den), so above(a) - above(b) counts the terms in [a, b)
        return floor_sum(terms, step, w - min(max(c, 0), den), den)

    start, stop = above(t + err + 1), above(den - t - err)
    if err and (above(t - err + 1) != start or above(den - t + err) != stop):
        raise PrecisionError("a term lands within the error radius of the threshold")
    return terms - max(start - stop, 0)


def mul_mod_pow2_limbs(a: int, m: np.ndarray, bits: int) -> np.ndarray:
    """(a * m) mod 2^bits for each m of a non-negative int64 array, as rows
    of ceil(bits / 32) little-endian uint32 limbs.

    a mod 2^bits and every m are cut into 24-bit limbs, so each partial
    product is below 2^48 and a 24-bit column sums at most three of them;
    with the carry from the column below, every column stays below 2^50 in
    uint64, and one carry pass from the bottom finishes the product.  The
    top column is masked to ``bits``, and each 32-bit limb is read off the
    two 24-bit columns it spans.  Rows are built ``_MUL_BLOCK`` at a time,
    so the work arrays stay small however long m is."""
    cols = -(-bits // 24)
    digit = np.uint64((1 << 24) - 1)
    a_limbs = [np.uint64((a >> 24 * i) & ((1 << 24) - 1)) for i in range(cols)]
    m_cols = -(-int(m.max(initial=0)).bit_length() // 24)
    out = np.empty((len(m), -(-bits // 32)), np.uint32)
    for start in range(0, len(m), _MUL_BLOCK):
        block = m[start:start + _MUL_BLOCK].astype(np.uint64)
        parts = [(block >> np.uint64(24 * j)) & digit for j in range(m_cols)]
        column = []
        carry = np.zeros_like(block)
        for i in range(cols):
            for j in range(min(i + 1, m_cols)):
                carry += a_limbs[i - j] * parts[j]
            column.append(carry & digit)
            carry >>= np.uint64(24)
        column[-1] &= np.uint64((1 << bits - 24 * (cols - 1)) - 1)
        column.append(np.zeros_like(block))
        rows = out[start:start + _MUL_BLOCK]
        for w in range(out.shape[1]):
            i, r = divmod(32 * w, 24)
            rows[:, w] = (column[i] >> np.uint64(r)) | (column[i + 1] << np.uint64(24 - r))
    return out


def mul_mod_int64(a: int, m: np.ndarray, den: int) -> np.ndarray:
    """(a * m) mod den in place over a non-negative int64 array m, for
    0 <= a < den <= 2^62 and every m below both den and 2^51.

    The quotient comes from floats: with c = a/den, m < 2^51 exact as a
    float, and p = fl(m * fl(c)), round-to-nearest gives
    |p - m c| <= m c (2^-52 + 2^-106) < 1/2 + 2^-54, so q = floor(p) lies in
    (m c - 3/2 - 2^-54, m c + 1/2 + 2^-54) and r = a m - q den = den (m c - q)
    in (-den, 2 den), inside (-2^63, 2^63) because den <= 2^62.  The uint64
    products wrap mod 2^64, so their difference read as int64 is r itself,
    and adding or subtracting one den lands it in [0, den).  The quotients
    are taken ``_MUL_BLOCK`` values at a time, so the work arrays stay small
    however long m is."""
    c = a / den
    for start in range(0, len(m), _MUL_BLOCK):
        block = m[start:start + _MUL_BLOCK]
        q = block.astype(np.float64)
        q *= c
        np.floor(q, out=q)
        r = block.view(np.uint64)
        r *= np.uint64(a)
        r -= q.astype(np.uint64) * np.uint64(den)
        block[block < 0] += den
        block[block >= den] -= den
    return m


def fixed_from_fraction(fr: Fraction, bits: int = DEFAULT_BITS) -> FixedReal:
    if bits < MIN_BITS:
        raise ValueError(f"bits must be >= {MIN_BITS}")
    t, r = divmod(fr.numerator << bits, fr.denominator)
    if r == 0:
        return FixedReal(t, bits, 0)
    # true value lies strictly between t and t+1 ulp
    return FixedReal(t, bits, 1)


_DECIMAL_RE = re.compile(r"^[+-]?\d+(?:\.\d+)?$")


def fixed_from_decimal(s: str, bits: int = DEFAULT_BITS) -> FixedReal:
    """Parse a plain decimal string (period separator, locale independent)."""
    if not isinstance(s, str) or not _DECIMAL_RE.match(s.strip()):
        raise ValueError(f"malformed decimal: {s!r}")
    s = s.strip()
    if "." in s:
        whole, frac = s.split(".")
        value = Fraction(int(whole + frac), 10 ** len(frac))
    else:
        value = Fraction(int(s))
    return fixed_from_fraction(value, bits)


def sqrt_fixed(n: int, bits: int = DEFAULT_BITS) -> FixedReal:
    """sqrt(n) with |value - sqrt(n)| <= 2**(-bits+1)."""
    if n < 1:
        raise ValueError("sqrt_fixed needs n >= 1")
    if bits < MIN_BITS:
        raise ValueError(f"bits must be >= {MIN_BITS}")
    m = math.isqrt(n << (2 * bits))  # m <= sqrt(n)*2^bits < m+1
    if m * m == n << (2 * bits):
        return FixedReal(m, bits, 0)
    return FixedReal(m, bits, 1)


# ---------------------------------------------------------------------------
# alpha specification mini-language
#
#   dec:<decimal>             plain decimal, period separator
#   sqrt:<n>                  square root of a positive integer
#   ratio:(<u>+sqrt:<n>)/<v>  the fixed quadratic form (u + sqrt(n)) / v
#   rat:<p>/<q>               exact rational
#   cf:<a0>;<a1>,...,<ak>     continued fraction; the last quotient repeats


_RATIO_RE = re.compile(r"^\((-?\d+)\+sqrt:(\d+)\)/(-?\d+)$")


@dataclass(frozen=True)
class AlphaSpec:
    kind: str
    payload: tuple

    def value(self, bits: int = DEFAULT_BITS):
        """Evaluate to a Fraction (rat:) or a FixedReal at the given bits."""
        if self.kind == "rat":
            return Fraction(self.payload[0], self.payload[1])
        if self.kind == "dec":
            return fixed_from_decimal(self.payload[0], bits)
        if self.kind == "sqrt":
            return sqrt_fixed(self.payload[0], bits)
        if self.kind == "ratio":
            u, n, v = self.payload
            work = bits + 32
            s = sqrt_fixed(n, work)
            lo = (u + s.lo) / v
            hi = (u + s.hi) / v
            if v < 0:
                lo, hi = hi, lo
            return _fixed_from_enclosure(lo, hi, bits)
        if self.kind == "cf":
            return _cf_value(self.payload, bits)
        raise ValueError(f"unknown alpha kind {self.kind}")  # pragma: no cover


def _fixed_from_enclosure(lo: Fraction, hi: Fraction, bits: int) -> FixedReal:
    mid = (lo + hi) / 2
    m = math.floor(mid * (1 << bits) + Fraction(1, 2))
    err = -((-(hi - lo).numerator << bits) // (hi - lo).denominator) if hi != lo else 0
    return FixedReal(m, bits, err + 1)


def _cf_value(quotients: tuple[int, ...], bits: int):
    work = bits + 32
    m = quotients[-1]
    s = sqrt_fixed(m * m + 4, work)
    lo = (m + s.lo) / 2
    hi = (m + s.hi) / 2
    for a in reversed(quotients[1:-1]):
        lo, hi = a + 1 / hi, a + 1 / lo
    a0 = quotients[0]
    lo, hi = a0 + 1 / hi, a0 + 1 / lo
    return _fixed_from_enclosure(lo, hi, bits)


def parse_alpha(text: str) -> AlphaSpec:
    """Parse the alpha mini-language; raises ValueError on malformed input."""
    if not isinstance(text, str) or ":" not in text:
        raise ValueError(f"malformed alpha spec: {text!r}")
    kind, _, rest = text.partition(":")
    if kind == "dec":
        if not _DECIMAL_RE.match(rest):
            raise ValueError(f"malformed decimal: {rest!r}")
        return AlphaSpec("dec", (rest,))
    if kind == "sqrt":
        if not rest.isdigit() or int(rest) < 1:
            raise ValueError(f"sqrt: needs a positive integer, got {rest!r}")
        return AlphaSpec("sqrt", (int(rest),))
    if kind == "ratio":
        m = _RATIO_RE.match(rest)
        if not m:
            raise ValueError(f"ratio: must look like (u+sqrt:n)/v, got {rest!r}")
        u, n, v = int(m.group(1)), int(m.group(2)), int(m.group(3))
        if n < 1 or v == 0:
            raise ValueError("ratio: needs n >= 1 and v != 0")
        return AlphaSpec("ratio", (u, n, v))
    if kind == "rat":
        m = re.match(r"^(-?\d+)/(\d+)$", rest)
        if not m:
            raise ValueError(f"rat: must look like p/q, got {rest!r}")
        p, q = int(m.group(1)), int(m.group(2))
        if q == 0:
            raise ValueError("rat: denominator must be nonzero")
        return AlphaSpec("rat", (p, q))
    if kind == "cf":
        m = re.match(r"^(-?\d+);(\d+(?:,\d+)*)$", rest)
        if not m:
            raise ValueError(f"cf: must look like a0;a1,a2,..., got {rest!r}")
        a0 = int(m.group(1))
        tail = tuple(int(t) for t in m.group(2).split(","))
        if any(t < 1 for t in tail):
            raise ValueError("cf: partial quotients after a0 must be positive")
        return AlphaSpec("cf", (a0,) + tail)
    raise ValueError(f"unknown alpha form {kind!r}")


def eval_with_retry(spec: AlphaSpec, compute, bits: int = DEFAULT_BITS):
    """Run compute(alpha) with doubling-and-retry on PrecisionError, up to
    MAX_BITS."""
    while True:
        try:
            return compute(spec.value(bits))
        except PrecisionError:
            if bits >= MAX_BITS:
                raise
            bits = min(2 * bits, MAX_BITS)
