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


# ---------------------------------------------------------------------------
# integer helpers


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n."""
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0 and k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return math.isqrt(n)
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


def ge_power(val: Fraction, base: int, e: Fraction) -> bool:
    return cmp_power(val, base, e) >= 0


@lru_cache(maxsize=1)
def _prime_table() -> np.ndarray:
    sieve = np.ones(_TRIAL_LIMIT + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(_TRIAL_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the 10**12 modulus cap."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
    for p in _prime_table():
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


def interval_of(x) -> tuple[Fraction, Fraction]:
    """Certified enclosure of x as a pair of rationals."""
    if isinstance(x, FixedReal):
        return x.lo, x.hi
    v = Fraction(x)
    return v, v


def residue_of(x) -> tuple[int, int, int]:
    """x mod 1 as an integer residue over a denominator, with the error
    radius counted in units of 1/den: (a, den, err_ulp), err_ulp = 0 for a
    rational."""
    if isinstance(x, FixedReal):
        den = 1 << x.frac_bits
        return x.mantissa % den, den, x.err_ulp
    v = Fraction(x)
    return v.numerator % v.denominator, v.denominator, 0


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


def eval_with_retry(spec: AlphaSpec, compute, bits: int = DEFAULT_BITS, max_bits: int = MAX_BITS):
    """Run compute(alpha) with doubling-and-retry on PrecisionError."""
    while True:
        try:
            return compute(spec.value(bits))
        except PrecisionError:
            if bits >= max_bits:
                raise
            bits = min(2 * bits, max_bits)
