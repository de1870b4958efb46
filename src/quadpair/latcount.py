"""Planar lattice counting: near-multiple counts, the rescaled lattice whose
square section encodes them (both counted exactly by floor sums, in
O(log den) steps), Lagrange-Gauss reduction with a first minimum certified
for the float basis it is given, and coprime-triple box counts (V, V1 and V2
once per distinct product ab, weighted by its cell count; V* once per cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CostGuardError, PrecisionError
from .exactreal import floor_sum, near_integer_count, primes_upto, scaled, scaled_floor

V_ENUM_GUARD = 10 ** 7
ILL_CONDITION_SQ = 1e24


def near_multiple_count(m: int, beta, delta) -> int:
    """#{x in 1..m : beta*x is within delta of an integer}, inclusive."""
    if m < 1:
        raise ValueError("need m >= 1")
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if 2 * delta >= 1:
        return m
    num, den, err = scaled(beta)
    a = num % den
    return near_integer_count(a, a, m, den, scaled_floor(delta, den), err * m)


# ---------------------------------------------------------------------------
# lattice bases


@dataclass(frozen=True)
class PairLatticeParams:
    m: int
    beta: object
    delta: Fraction


@dataclass(frozen=True)
class LatticeBasis2:
    u: tuple[float, float]
    v: tuple[float, float]
    det: float
    lambda1: float
    exact: Optional[PairLatticeParams] = None


def _norm_sq(w) -> float:
    return w[0] * w[0] + w[1] * w[1]


def _reduce_float(u, v):
    u = (float(u[0]), float(u[1]))
    v = (float(v[0]), float(v[1]))
    for _ in range(10_000):
        if _norm_sq(u) > _norm_sq(v):
            u, v = v, u
        nu = _norm_sq(u)
        r = round((u[0] * v[0] + u[1] * v[1]) / nu)
        if r == 0:
            return u, v
        v = (v[0] - r * u[0], v[1] - r * u[1])
    raise ArithmeticError("lattice reduction did not converge")


def gauss_reduce(u, v) -> LatticeBasis2:
    """Lagrange-Gauss reduction of the float basis (u, v); the first vector of
    the result realises the first minimum of that float lattice, certified by
    checking every combination with coefficients in [-2, 2].  Bases
    conditioned worse than ILL_CONDITION_SQ are refused with ArithmeticError:
    their float reduction loses the digits that decide the minimum."""
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0 or not math.isfinite(det):
        raise ValueError("degenerate basis")
    if _norm_sq(u) * _norm_sq(v) / (det * det) > ILL_CONDITION_SQ:
        raise ArithmeticError(
            f"ill-conditioned basis (condition squared above {ILL_CONDITION_SQ:g}): "
            "its first minimum is not certified"
        )
    ru, rv = _reduce_float(u, v)
    lam = math.sqrt(_norm_sq(ru))
    for a in range(-2, 3):
        for b in range(-2, 3):
            if a == 0 and b == 0:
                continue
            w = (a * ru[0] + b * rv[0], a * ru[1] + b * rv[1])
            if math.sqrt(_norm_sq(w)) < lam * (1 - 1e-9):
                raise ArithmeticError("reduction certificate failed")
    return LatticeBasis2(ru, rv, det, lam)


def pair_lattice(m: int, beta, delta) -> LatticeBasis2:
    """The determinant-one basis whose integer span meets the square
    [-sqrt(m*delta), sqrt(m*delta)]^2 exactly at the near-multiple pairs,
    with the first minimum of its float rounding (beta*sv is rounded to a
    float before the reduction)."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if m < 1:
        raise ValueError("need m >= 1")
    num, den, _ = scaled(beta)
    bf = num / den
    df = float(delta)
    su = math.sqrt(df / m)
    sv = math.sqrt(m / df)
    u, v = (su, bf * sv), (0.0, -sv)
    lam = gauss_reduce(u, v).lambda1
    return LatticeBasis2(u, v, -su * sv, lam, PairLatticeParams(m, beta, delta))


# ---------------------------------------------------------------------------
# points in squares


@dataclass
class SquareCountResult:
    count: int
    main: float
    error_term: float


def _z_window(alpha: tuple[int, int, int], k: int, delta: Fraction) -> tuple[int, int]:
    """Certified integer window [ceil(alpha*k - delta), floor(alpha*k + delta)]
    for alpha given as scaled(alpha)."""
    num, den, err = alpha
    dn, dd = delta.numerator, delta.denominator
    big = den * dd
    shift = dn * den
    p = (num - err) * k * dd
    lo, hi = -((shift - p) // big), (p + shift) // big
    if err:
        # the window at the other end of the enclosure must be the same
        p = (num + err) * k * dd
        if -((shift - p) // big) != lo or (p + shift) // big != hi:
            raise PrecisionError("z-window endpoints straddle an integer")
    return lo, hi


def lattice_square_count(basis: LatticeBasis2) -> SquareCountResult:
    """Points of a pair lattice in [-s, s]^2 with s = sqrt(m*delta), counted
    exactly: membership reduces to |x| <= m together with the integer window
    [ceil(beta*x - delta), floor(beta*x + delta)].  The window at -x is the
    mirror image of the one at x, and each window end summed over x = 1..m
    is one floor sum, so the cost is O(log den) whatever m is.  On an
    irrational beta the sums are taken at both ends of its enclosure; no
    window end falls as beta grows (x >= 1), so equal sums certify every
    window."""
    p = basis.exact
    if p is None:
        raise ValueError("squares are counted only for pair lattices")
    num, den, err = scaled(p.beta)
    dn, dd = p.delta.numerator, p.delta.denominator
    big, shift = den * dd, dn * den

    def window_sums(numer: int) -> tuple[int, int]:
        # at x = i + 1: floor((a*x + shift)/big) and -floor((shift - a*x)/big)
        a = numer * dd
        return floor_sum(p.m, a, a + shift, big), -floor_sum(p.m, -a, shift - a, big)

    his, los = window_sums(num - err)
    if err and window_sums(num + err) != (his, los):
        raise PrecisionError("z-window endpoints straddle an integer")
    count = 2 * (dn // dd) + 1 + 2 * (his - los + p.m)
    main = 4.0 * p.m * float(p.delta)
    return SquareCountResult(count, main, abs(count - main))


# ---------------------------------------------------------------------------
# coprime-triple box counts


@dataclass(frozen=True)
class VCountSpec:
    a_bound: int
    b_bound: int
    delta: Fraction
    alpha: object
    p0: Optional[int] = None
    p1: Optional[int] = None

    def __post_init__(self):
        if self.a_bound < 1 or self.b_bound < 1:
            raise ValueError("box bounds must be >= 1")
        if Fraction(self.delta) < 0:
            raise ValueError("delta must be non-negative")
        if (self.p0 is None) != (self.p1 is None):
            raise ValueError("p0 and p1 must be given together")
        if self.p0 is not None and not 1 <= self.p0 <= self.p1:
            raise ValueError("need 1 <= p0 <= p1")
        if self.a_bound * self.b_bound > V_ENUM_GUARD:
            raise CostGuardError("box enumeration too large")


def _window_primes(spec: VCountSpec) -> np.ndarray:
    """w with w[n], for n <= A*B, the smallest prime of n in (p0, p1], or 0
    when n has none."""
    if spec.p0 is None:
        raise ValueError("V1 and V2 need the prime window (p0, p1]")
    limit = spec.a_bound * spec.b_bound
    primes = primes_upto(min(spec.p1, limit))
    # int32 throughout: at V_ENUM_GUARD these arrays are the peak memory
    primes = primes[np.searchsorted(primes, spec.p0, side="right") :].astype(np.int32)
    w = np.zeros(limit + 1, dtype=np.int32)
    # descending, so the smallest prime of each n is written last
    for p in primes[::-1]:
        w[p::p] = p
    return w


def _coprime_hits(alpha: tuple[int, int, int], n: int, delta: Fraction, side: int) -> int:
    """#{z : |alpha*n - z| <= delta, gcd(side, z) = 1}, over the certified
    z-window; alpha is given as scaled(alpha)."""
    zlo, zhi = _z_window(alpha, n, delta)
    return sum(1 for z in range(zlo, zhi + 1) if math.gcd(side, z) == 1)


def _product_hits(spec: VCountSpec, w: Optional[np.ndarray] = None, classified=False):
    """(n, r(n) * #{z : |alpha*n - z| <= delta, gcd(n, z) = 1}) for each distinct
    product n with r(n) = #{(a, b) in the box : ab = n} > 0, sqrt(A*B) entries at
    a time; given the prime-window table w, only the n with (w[n] != 0) == classified."""
    delta, alpha = Fraction(spec.delta), scaled(spec.alpha)
    limit = spec.a_bound * spec.b_bound
    # int16: r(n) is at most the divisor count of n, 448 below V_ENUM_GUARD
    r = np.zeros(limit + 1, dtype=np.int16)
    for a in range(1, spec.a_bound + 1):
        r[a : a * spec.b_bound + 1 : a] += 1
    step = math.isqrt(limit) + 1
    for lo in range(0, limit + 1, step):
        piece = r[lo : lo + step]
        if w is not None:
            piece = piece * ((w[lo : lo + step] != 0) == classified)
        idx = np.flatnonzero(piece)
        for n, cells in zip((idx + lo).tolist(), piece[idx].tolist()):
            yield n, cells * _coprime_hits(alpha, n, delta, n)


def v_count(spec: VCountSpec) -> int:
    """Triples (a, b, z) in the box with ab coprime to z and alpha*ab within
    delta of z."""
    return sum(hits for _, hits in _product_hits(spec))


def v_star_count(spec: VCountSpec) -> int:
    """Like v_count but with the coprimality on (x, y) = (second factor, z)."""
    delta = Fraction(spec.delta)
    alpha = scaled(spec.alpha)
    return sum(
        _coprime_hits(alpha, u * x, delta, x)
        for u in range(1, spec.a_bound + 1)
        for x in range(1, spec.b_bound + 1)
    )


def v1_count(spec: VCountSpec) -> int:
    """v_count restricted to products ab free of primes in (p0, p1]."""
    return sum(hits for _, hits in _product_hits(spec, _window_primes(spec)))


def v2_count(spec: VCountSpec) -> dict[int, int]:
    """Complementary counts, classified by the smallest prime of ab in
    (p0, p1], binned into dyadic ranges keyed by the power of two below it."""
    w = _window_primes(spec)
    bins: dict[int, int] = {}
    for n, hits in _product_hits(spec, w, classified=True):
        if hits:
            key = 1 << (int(w[n]) - 1).bit_length() - 1
            bins[key] = bins.get(key, 0) + hits
    return bins
