"""Modular counting: difference-of-squares congruence counts, their
dispersion against the equidistribution prediction, bad residue sets,
divisor sums in progressions, and box counts on modular hyperbolas.

All counts are exact.  Deviations are carried as integers scaled by q^2
(for values of the form A - (M/q)^2 A0) so that running maxima and exact
threshold comparisons never touch floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CostGuardError
from .exactreal import euler_phi, factorize, floor_power, q1_part

A0_DIRECT_GUARD = 10 ** 5
A_ARRAY_GUARD = 10 ** 9
PROFILE_GUARD = 10 ** 5
DIVISOR_TABLE_CAP = 8 * 10 ** 8


# ---------------------------------------------------------------------------
# exact circular correlation of residue histograms


def _autocorr_outer(h: np.ndarray, q: int) -> np.ndarray:
    nz = np.nonzero(h)[0]
    vals = h[nz].astype(np.float64)
    cm = (nz[:, None] - nz[None, :]) % q
    w = vals[:, None] * vals[None, :]
    out = np.bincount(cm.ravel(), weights=w.ravel(), minlength=q)
    return np.rint(out).astype(np.int64)


def _autocorr_kron(h: np.ndarray, q: int) -> np.ndarray:
    # Kronecker substitution: pack the histogram in base 2^64 and let big-int
    # multiplication perform the convolution exactly
    h64 = np.ascontiguousarray(h.astype("<u8"))
    big = int.from_bytes(h64.tobytes(), "little")
    rev = int.from_bytes(h64[::-1].tobytes(), "little")
    prod = big * rev
    nco = 2 * q - 1
    raw = prod.to_bytes(8 * nco + 8, "little")
    co = np.frombuffer(raw[: 8 * nco], dtype="<u8").astype(np.int64)
    # coefficient k is lag k - (q - 1): lags 0..q-1, then -(q-1)..-1 folded
    out = co[q - 1 :].copy()
    out[1:] += co[: q - 1]
    return out


def _circular_autocorr(h: np.ndarray, q: int) -> np.ndarray:
    """out[c] = sum_r h[r] * h[(r - c) mod q], exactly."""
    nz = int(np.count_nonzero(h))
    if nz * nz <= 4_000_000:
        return _autocorr_outer(h, q)
    return _autocorr_kron(h, q)


def _square_histogram(n: int, q: int) -> np.ndarray:
    vals = np.arange(1, n + 1, dtype=np.int64)
    sq = (vals * vals) % q
    return np.bincount(sq, minlength=q)


# ---------------------------------------------------------------------------
# A(N, q, c) and A0(q, c)


def count_A(n: int, q: int, c: Optional[int] = None):
    """#{m, n' <= n : m^2 - n'^2 = c mod q}; c=None returns the full array."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    if n * n > A_ARRAY_GUARD:
        raise CostGuardError(f"count_A is capped at n^2 <= {A_ARRAY_GUARD}")
    h = _square_histogram(n, q)
    if c is None:
        return _circular_autocorr(h, q)
    # roll(h, c)[r] = h[(r - c) mod q]
    return int(np.dot(h, np.roll(h, c % q)))


def count_A0(q: int, c: Optional[int] = None):
    """Counts over a full period, m, n in [1, q]; c=None returns the array."""
    if q < 1:
        raise ValueError("need q >= 1")
    if q > A0_DIRECT_GUARD:
        raise CostGuardError(f"direct A0 is capped at q <= {A0_DIRECT_GUARD}")
    return count_A(q, q, c)


def hyperbola_count(q0: int, r: int) -> int:
    """#{u, v <= q0 : uv = r mod q0} for odd squarefree q0.

    Coincides with count_A0(q0, r): for odd modulus the substitution
    (m, n) -> (m+n, m-n) is a bijection on residue pairs.
    """
    fac = factorize(q0)
    if q0 % 2 == 0 or any(e > 1 for e in fac.values()):
        raise ValueError("hyperbola_count needs an odd squarefree modulus")
    r %= q0
    total = 0
    for u in range(1, q0 + 1):
        g = math.gcd(u, q0)
        if r % g == 0:
            total += g
    return total


# ---------------------------------------------------------------------------
# dispersion profile


@dataclass(frozen=True)
class CongruenceProfile:
    """Per-modulus dispersion data.

    ``delta_star_scaled[c]`` is q^2 times the running maximum over
    M <= q^(2/3) of |A(M,q,c) - (M/q)^2 A0(q,c)|.
    """

    q: int
    eta: Fraction
    delta_star_scaled: np.ndarray
    m_max: int


def delta_star_profile(q: int, eta) -> CongruenceProfile:
    """Incremental sweep of A(M,q,.) for M = 1..floor(q^(2/3)).

    Each step M -> M+1 adds the 2M+1 new pairs involving M+1; the per-residue
    maximum of the scaled deviation is updated after every step.
    """
    eta = Fraction(eta)
    if not 0 < eta <= Fraction(1, 100):
        raise ValueError("eta must lie in (0, 1/100]")
    if q < 2:
        raise ValueError("need q >= 2")
    if q > PROFILE_GUARD:
        raise CostGuardError(f"profile sweep is capped at q <= {PROFILE_GUARD}")
    m_max = floor_power(q, Fraction(2, 3))
    a0 = count_A0(q, None)
    vals = np.arange(1, m_max + 1, dtype=np.int64)
    sq = (vals * vals) % q
    a = np.zeros(q, dtype=np.int64)
    best = np.zeros(q, dtype=np.int64)
    qsq = q * q
    for m in range(1, m_max + 1):
        new = sq[m - 1]
        a += np.bincount((new - sq[:m]) % q, minlength=q).astype(np.int64)
        if m > 1:
            a += np.bincount((sq[: m - 1] - new) % q, minlength=q).astype(np.int64)
        np.maximum(best, np.abs(a * qsq - (m * m) * a0), out=best)
    return CongruenceProfile(q, eta, best, m_max)


# Gathered sums are exact in int64: every entry of ``delta_star_scaled`` lies
# in [0, m_max^2 q^2] (A(M,q,c) <= M^2 and A0(q,c) <= q^2), so a sum of r_max
# entries is at most r_max m_max^2 q^2, about 2.7e18 < 2^63 at
# q = PROFILE_GUARD, eta = 1/100.  _gather_width enforces the bound.
_GATHER_CHUNK = 1 << 18  # index-array entries per chunk of units


def _gather_width(q: int, eta: Fraction) -> int:
    """r_max = floor(q^(1/3 + 2 eta)), after checking that a sum of r_max
    profile entries fits in int64."""
    r_max = floor_power(q, Fraction(1, 3) + 2 * eta)
    m_max = floor_power(q, Fraction(2, 3))
    if r_max * (m_max * q) ** 2 >= 1 << 63:
        raise CostGuardError(f"bad-set sums at q={q} could overflow int64")
    return r_max


def _bad_threshold(q: int, eta: Fraction) -> int:
    """Least integer T with T^d >= q^n, where n/d = 8/3 - 2 eta.

    For an integer sum s of scaled deviations, s/q^2 >= q^(2/3 - 2 eta)
    exactly when s >= T.  A float estimate is settled by exact comparisons
    at T - 1 and T.
    """
    e = Fraction(8, 3) - 2 * eta
    target = q ** e.numerator
    t = math.ceil(float(q) ** float(e))
    while (t - 1) ** e.denominator >= target:
        t -= 1
    while t ** e.denominator < target:
        t += 1
    return t


def _bad_set_of_profile(profile: CongruenceProfile) -> tuple[int, ...]:
    # a is bad when sum_{r <= r_max} scaled[a^-1 r mod q] >= T; a -> a^-1 is a
    # bijection on units, so test every unit b = a^-1 and invert the bad ones
    q = profile.q
    r_max = _gather_width(q, profile.eta)
    threshold = _bad_threshold(q, profile.eta)
    scaled = profile.delta_star_scaled
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    r = np.arange(1, r_max + 1, dtype=np.int64)
    rows = max(1, _GATHER_CHUNK // r_max)
    bad_inverses = []
    for start in range(0, len(units), rows):
        chunk = units[start : start + rows]
        totals = scaled[(chunk[:, None] * r) % q].sum(axis=1)
        bad_inverses.extend(int(b) for b in chunk[totals >= threshold])
    return tuple(sorted(pow(b, -1, q) for b in bad_inverses))


@lru_cache(maxsize=None)
def _bad_set_cached(q: int, eta: Fraction) -> tuple[int, ...]:
    return _bad_set_of_profile(delta_star_profile(q, eta))


def bad_set(q: int, eta) -> tuple[int, ...]:
    """Residues a (coprime to q) whose dispersion sum over small multiples of
    the inverse is anomalously large.  Results are cached per (q, eta)."""
    return _bad_set_cached(q, Fraction(eta))


@dataclass
class DispersionReport:
    q: int
    q1: int
    eta: Fraction
    n: Optional[int]
    sum_delta_sq: Fraction
    bound_value: float
    ratio: float
    card_bad_set: Optional[int] = None


def dispersion_report(q: int, n: Optional[int] = None, eta=Fraction(1, 200)) -> DispersionReport:
    """Exact scaled deviation sums against the dispersion benchmark.

    With n=None the running-maximum deviations are used (benchmark exponent
    3/2 + 4 eta); with an explicit n <= q^(2/3) the single-box deviations are
    used (exponent 4/3 + 4 eta).  The implied constant is taken as 1 and the
    ratio is reported, not asserted.
    """
    eta = Fraction(eta)
    q1 = q1_part(q)
    if n is None:
        profile = delta_star_profile(q, eta)
        total = sum(int(v) ** 2 for v in profile.delta_star_scaled)
        sum_delta = Fraction(total, q ** 4)
        bound = float(q) ** float(Fraction(3, 2) + 4 * eta) * q1 ** 3
        card = len(_bad_set_of_profile(profile))
    else:
        if not 1 <= n <= floor_power(q, Fraction(2, 3)):
            raise ValueError("n must satisfy 1 <= n <= q^(2/3)")
        a = count_A(n, q, None)
        a0 = count_A0(q, None)
        scaled = a * (q * q) - (n * n) * a0
        total = sum(int(v) ** 2 for v in scaled)
        sum_delta = Fraction(total, q ** 4)
        bound = float(q) ** float(Fraction(4, 3) + 4 * eta) * q1 ** 3
        card = None
    return DispersionReport(
        q=q,
        q1=q1,
        eta=eta,
        n=n,
        sum_delta_sq=sum_delta,
        bound_value=bound,
        ratio=float(sum_delta) / bound,
        card_bad_set=card,
    )


# ---------------------------------------------------------------------------
# divisor sums and hyperbola boxes


_dtable: np.ndarray = np.zeros(1, dtype=np.int32)


def _divisor_table(limit: int) -> np.ndarray:
    global _dtable
    if limit >= DIVISOR_TABLE_CAP:
        raise CostGuardError(f"divisor table capped at {DIVISOR_TABLE_CAP} entries")
    if len(_dtable) <= limit:
        table = np.zeros(limit + 1, dtype=np.int32)
        for i in range(1, limit + 1):
            table[i::i] += 1
        _dtable = table
    return _dtable


def divisor_sum_ap(m: int, q: int, s: int) -> int:
    """Sum of the divisor function over k <= m with k = s mod q."""
    if m < 1 or q < 1:
        raise ValueError("need m >= 1 and q >= 1")
    if m > 10 ** 8:
        raise CostGuardError("divisor_sum_ap is capped at m <= 10^8")
    table = _divisor_table(m)
    s %= q
    first = s if s >= 1 else q
    if first > m:
        return 0
    return int(table[first : m + 1 : q].sum(dtype=np.int64))


@dataclass
class HyperbolaBoxCount:
    count: int
    expected: Fraction
    ratio: float


def hyperbola_ap_count(n: int, q: int, c: int) -> HyperbolaBoxCount:
    """#{u, v <= n : uv = c mod q} for a unit residue c, via per-residue
    modular inverses, O(n + q)."""
    if math.gcd(c, q) != 1:
        raise ValueError("hyperbola_ap_count needs gcd(c, q) = 1")
    inv = np.zeros(q, dtype=np.int64)
    for u in range(1, q):
        if math.gcd(u, q) == 1:
            inv[u] = pow(u, -1, q)
    u_mod = np.arange(1, n + 1, dtype=np.int64) % q
    unit = inv[u_mod] > 0
    w = (c * inv[u_mod]) % q
    w[w == 0] = q
    counts = (n - w) // q + 1
    counts[counts < 0] = 0
    total = int(counts[unit].sum())
    expected = Fraction(euler_phi(q) * n * n, q * q)
    return HyperbolaBoxCount(total, expected, total / float(expected))
