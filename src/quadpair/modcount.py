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

A_ARRAY_GUARD = 10 ** 9
PROFILE_GUARD = 10 ** 5


# ---------------------------------------------------------------------------
# exact circular correlation of residue histograms


_AUTOCORR_BLOCK = 4_000_000  # outer-product entries per block of rows


def _circular_autocorr(h: np.ndarray, q: int) -> np.ndarray:
    """out[c] = sum_r h[r] * h[(r - c) mod q], exactly."""
    # float64 sums are exact: for a square histogram of n values every
    # partial sum is an integer <= n^2 <= A_ARRAY_GUARD < 2^53
    nz = np.nonzero(h)[0]
    vals = h[nz].astype(np.float64)
    out = np.zeros(q, dtype=np.float64)
    rows = max(1, _AUTOCORR_BLOCK // len(nz))
    for start in range(0, len(nz), rows):
        cm = (nz[start : start + rows, None] - nz[None, :]) % q
        w = vals[start : start + rows, None] * vals[None, :]
        out += np.bincount(cm.ravel(), weights=w.ravel(), minlength=q)
    return np.rint(out).astype(np.int64)


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
    out = _circular_autocorr(_square_histogram(n, q), q)
    return out if c is None else int(out[c % q])


def count_A0(q: int, c: Optional[int] = None):
    """Counts over a full period, m, n in [1, q], by autocorrelation; c=None
    returns the array.  The oracle for the closed form ``_a0``."""
    return count_A(q, q, c)


def hyperbola_counts(q: int) -> np.ndarray:
    """H[c] = #{u, v mod q : uv = c mod q}.

    The u with gcd(u, q) = g number phi(q/g), and each has g solutions v
    when g | c and none otherwise.
    """
    divisors = [1]
    for p, e in factorize(q).items():
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    out = np.zeros(q, dtype=np.int64)
    for g in divisors:
        out[::g] += g * euler_phi(q // g)
    return out


def _a0(q: int) -> np.ndarray:
    """A0(q, .) in closed form, from q = 2^e o with o odd and CRT.

    Modulo o, (m, n) -> (m + n, m - n) is a bijection and m^2 - n^2 = uv, so
    A0(o, c) = H(o, c).  Modulo 2^e it is 2-to-1 onto pairs (u, v) of equal
    parity: A0(2, .) = (2, 2), and for e >= 2 A0(2^e, c) is 2 H(2^e, c) for
    odd c, 8 H(2^(e-2), c/4) for 4 | c, and 0 for c = 2 mod 4.
    """
    two = q & -q
    odd = q // two
    if two <= 2:
        a2 = np.full(two, two, dtype=np.int64)
    else:
        a2 = 2 * hyperbola_counts(two)
        a2[::2] = 0
        a2[::4] = 8 * hyperbola_counts(two // 4)
    c = np.arange(q)
    return a2[c % two] * hyperbola_counts(odd)[c % odd]


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


def _checked_eta(eta) -> Fraction:
    eta = Fraction(eta)
    if not 0 < eta <= Fraction(1, 100):
        raise ValueError("eta must lie in (0, 1/100]")
    return eta


_EVENT_BLOCK = 1 << 13  # pair entries per block of steps


def delta_star_profile(q: int, eta) -> CongruenceProfile:
    """Running maximum of |A(M,q,c) q^2 - M^2 A0(q,c)| over M = 1..floor(q^(2/3)),
    evaluated only where A(., q, c) steps.

    While A(., q, c) is constant the scaled deviation falls as M grows, so
    its absolute value peaks at the ends of each constant run: at M - 1 and
    M for every step M that adds a pair to c (an event), and at M = m_max.
    The unordered pairs n <= m come in ascending m, in blocks of whole steps
    of at most ``_EVENT_BLOCK`` pairs.  Since A(M, c) = A(M, -c), each pair
    is keyed by r = min(d, q - d), d = m^2 - n^2 mod q, and counts twice
    where r = -r off the diagonal; a stable sort by r keeps each residue's
    events in step order, and A(., r) carries from block to block.  Counts
    and maxima are mirrored to q - r for the final evaluation at m_max.
    """
    eta = _checked_eta(eta)
    if q < 2:
        raise ValueError("need q >= 2")
    if q > PROFILE_GUARD:
        raise CostGuardError(f"profile sweep is capped at q <= {PROFILE_GUARD}")
    m_max = floor_power(q, Fraction(2, 3))
    a0 = _a0(q)
    vals = np.arange(m_max + 1, dtype=np.int32)
    sq = (vals * vals) % q  # m_max^2 < 2^31
    half = q // 2
    a = np.zeros(half + 1, dtype=np.int64)
    best = np.zeros(half + 1, dtype=np.int64)
    qsq = q * q
    lo = 1
    while lo <= m_max:
        hi, size = lo, lo
        while hi < m_max and size + hi + 1 <= _EVENT_BLOCK:
            hi += 1
            size += hi
        steps = np.arange(lo, hi + 1, dtype=np.int32)
        m = np.repeat(steps, steps)
        n = np.arange(1, size + 1, dtype=np.int32) - np.repeat(np.cumsum(steps) - steps, steps)
        # |sq[m] - sq[n]| is d or q - d, d = m^2 - n^2 mod q; r <= q/2 < 2^16
        d = np.abs(sq[m] - sq[n])
        r = np.minimum(d, q - d).astype(np.uint16)
        order = np.argsort(r, kind="stable")
        r, m = r[order], m[order]
        # one group per event (r, M), in step order within each residue
        last = np.flatnonzero(np.append((r[1:] != r[:-1]) | (m[1:] != m[:-1]), True))
        gr, gm = r[last], m[last]
        added = np.diff(last, prepend=-1)
        # r = 0 and r = q/2 count twice, except the diagonal pair (M, M); it
        # gives every step an r = 0 group, so those are the first hi - lo + 1
        added[: hi - lo + 1] = 2 * added[: hi - lo + 1] - 1
        if 2 * half == q:
            added[np.searchsorted(gr, half) :] *= 2
        head = np.flatnonzero(np.concatenate(([True], gr[1:] != gr[:-1])))
        rh = gr[head]
        after = np.cumsum(added)
        after -= np.repeat(after[head] - added[head] - a[rh], np.diff(head, append=len(gr)))
        g0 = a0[gr]
        dev = np.maximum(
            np.abs((after - added) * qsq - (gm - 1) ** 2 * g0),
            np.abs(after * qsq - gm * gm * g0),
        )
        best[rh] = np.maximum(best[rh], np.maximum.reduceat(dev, head))
        a[rh] = after[np.append(head[1:], len(gr)) - 1]
        lo = hi + 1
    a = np.concatenate([a, a[q - half - 1 : 0 : -1]])
    best = np.concatenate([best, best[q - half - 1 : 0 : -1]])
    np.maximum(best, np.abs(a * qsq - (m_max * m_max) * a0), out=best)
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
    eta = _checked_eta(eta)
    q1 = q1_part(q)
    if n is None:
        profile = delta_star_profile(q, eta)
        scaled = profile.delta_star_scaled
        exponent = Fraction(3, 2)
        card = len(_bad_set_of_profile(profile))
    else:
        if not 1 <= n <= floor_power(q, Fraction(2, 3)):
            raise ValueError("n must satisfy 1 <= n <= q^(2/3)")
        scaled = count_A(n, q, None) * (q * q) - (n * n) * _a0(q)
        exponent = Fraction(4, 3)
        card = None
    sum_delta = Fraction(sum(v * v for v in scaled.tolist()), q ** 4)
    bound = float(q) ** float(exponent + 4 * eta) * q1 ** 3
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


def _cofactor_count(a: int, bound: int, q: int, s: int) -> int:
    """#{1 <= b <= bound : a*b = s mod q} for 0 <= s < q and bound >= 0."""
    g = math.gcd(a, q)
    if s % g:
        return 0
    # b runs over one class mod q/g; its least positive member is first
    step = q // g
    first = s // g * pow(a // g, -1, step) % step or step
    return (bound - first) // step + 1


def divisor_sum_ap(m: int, q: int, s: int) -> int:
    """Sum of the divisor function over k <= m with k = s mod q, i.e. the
    pairs (a, b) with ab <= m and ab = s mod q, by Dirichlet's hyperbola
    method: the pairs with a <= r = isqrt(m), doubled for b <= r, less those
    with both a, b <= r.  O(sqrt(m)) steps, no table; capped at m <= 10^12."""
    if m < 1 or q < 1:
        raise ValueError("need m >= 1 and q >= 1")
    if m > 10 ** 12:
        raise CostGuardError("divisor_sum_ap is capped at m <= 10^12")
    s %= q
    r = math.isqrt(m)
    return sum(
        2 * _cofactor_count(a, m // a, q, s) - _cofactor_count(a, r, q, s)
        for a in range(1, r + 1)
    )


@dataclass
class HyperbolaBoxCount:
    count: int
    expected: Fraction
    ratio: float


def hyperbola_ap_count(n: int, q: int, c: int) -> HyperbolaBoxCount:
    """#{u, v <= n : uv = c mod q} for a unit residue c, via per-residue
    modular inverses, O(n + q)."""
    if n < 1 or q < 1:
        raise ValueError("need n >= 1 and q >= 1")
    if math.gcd(c, q) != 1:
        raise ValueError("hyperbola_ap_count needs gcd(c, q) = 1")
    inv = np.array([pow(u, -1, q) if math.gcd(u, q) == 1 else 0 for u in range(q)], dtype=np.int64)
    u_mod = np.arange(1, n + 1, dtype=np.int64) % q
    unit = np.gcd(u_mod, q) == 1
    w = (c * inv[u_mod]) % q
    w[w == 0] = q
    counts = (n - w) // q + 1
    total = int(counts[unit].sum())
    expected = Fraction(euler_phi(q) * n * n, q * q)
    return HyperbolaBoxCount(total, expected, total / float(expected))
