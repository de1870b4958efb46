"""Planar lattice counting: near-multiple counts, the rescaled lattice whose
square section encodes them (counted exactly), Lagrange-Gauss reduction with
a certified first minimum, and coprime-triple box counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CostGuardError, PrecisionError
from .exactreal import FixedReal, residue_of

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
    a, den, base_err = residue_of(beta)
    t = (delta.numerator * den) // delta.denominator
    w_hi = den - t
    count = 0
    w = 0
    if base_err:
        e = base_err * m
        for _ in range(m):
            w += a
            if w >= den:
                w -= den
            if w <= t or w >= w_hi:
                count += 1
            if t - e <= w <= t + e or w_hi - e <= w <= w_hi + e:
                raise PrecisionError("near-multiple threshold inside the error radius")
    else:
        for _ in range(m):
            w += a
            if w >= den:
                w -= den
            if w <= t or w >= w_hi:
                count += 1
    return count


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


def _reduce_exact_scaled(u, v):
    # integer Gauss reduction on a scaled copy; used for very skew bases
    scale = 2.0 ** 53 / max(abs(u[0]), abs(u[1]), abs(v[0]), abs(v[1]), 1e-300)
    iu = [round(u[0] * scale), round(u[1] * scale)]
    iv = [round(v[0] * scale), round(v[1] * scale)]
    for _ in range(100_000):
        if iu[0] * iu[0] + iu[1] * iu[1] > iv[0] * iv[0] + iv[1] * iv[1]:
            iu, iv = iv, iu
        nu = iu[0] * iu[0] + iu[1] * iu[1]
        if nu == 0:
            raise ArithmeticError("degenerate basis in exact reduction")
        dot = iu[0] * iv[0] + iu[1] * iv[1]
        r = (2 * dot + nu) // (2 * nu) if dot >= 0 else -((-2 * dot + nu) // (2 * nu))
        if r == 0:
            break
        iv = [iv[0] - r * iu[0], iv[1] - r * iu[1]]
    return (iu[0] / scale, iu[1] / scale), (iv[0] / scale, iv[1] / scale)


def gauss_reduce(u, v, exact=None) -> LatticeBasis2:
    """Lagrange-Gauss reduction; the first vector of the result realises the
    first minimum.  Certified by checking every combination with coefficients
    in [-2, 2]; very skew inputs fall back to exact integer arithmetic."""
    det = u[0] * v[1] - u[1] * v[0]
    if det == 0 or not math.isfinite(det):
        raise ValueError("degenerate basis")
    if _norm_sq(u) * _norm_sq(v) / (det * det) > ILL_CONDITION_SQ:
        ru, rv = _reduce_exact_scaled(u, v)
    else:
        ru, rv = _reduce_float(u, v)
    lam = math.sqrt(_norm_sq(ru))
    for a in range(-2, 3):
        for b in range(-2, 3):
            if a == 0 and b == 0:
                continue
            w = (a * ru[0] + b * rv[0], a * ru[1] + b * rv[1])
            if math.sqrt(_norm_sq(w)) < lam * (1 - 1e-9):
                raise ArithmeticError("reduction certificate failed")
    return LatticeBasis2(ru, rv, det, lam, exact)


def make_basis(u, v, exact=None) -> LatticeBasis2:
    """Basis as given, with the first minimum computed via reduction."""
    reduced = gauss_reduce(u, v, exact)
    det = u[0] * v[1] - u[1] * v[0]
    return LatticeBasis2(
        (float(u[0]), float(u[1])),
        (float(v[0]), float(v[1])),
        det,
        reduced.lambda1,
        exact,
    )


def pair_lattice(m: int, beta, delta) -> LatticeBasis2:
    """The determinant-one basis whose integer span meets the square
    [-sqrt(m*delta), sqrt(m*delta)]^2 exactly at the near-multiple pairs."""
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if m < 1:
        raise ValueError("need m >= 1")
    bf = float(beta) if isinstance(beta, FixedReal) else float(Fraction(beta))
    df = float(delta)
    su = math.sqrt(df / m)
    sv = math.sqrt(m / df)
    return make_basis((su, bf * sv), (0.0, -sv), PairLatticeParams(m, beta, delta))


# ---------------------------------------------------------------------------
# points in squares


@dataclass
class SquareCountResult:
    count: int
    main: float
    error_term: float
    s: float
    lambda1: float


def _floor_div(num: int, den: int) -> int:
    return num // den


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def _z_window(alpha, k: int, delta: Fraction) -> tuple[int, int]:
    """Certified integer window [ceil(alpha*k - delta), floor(alpha*k + delta)]."""
    dn, dd = delta.numerator, delta.denominator
    if isinstance(alpha, FixedReal):
        den = 1 << alpha.frac_bits
        lo_n = alpha.mantissa - alpha.err_ulp
        hi_n = alpha.mantissa + alpha.err_ulp
        if k < 0:
            lo_n, hi_n = hi_n, lo_n
        big = den * dd
        hi1 = _floor_div(lo_n * k * dd + dn * den, big)
        hi2 = _floor_div(hi_n * k * dd + dn * den, big)
        lo1 = _ceil_div(lo_n * k * dd - dn * den, big)
        lo2 = _ceil_div(hi_n * k * dd - dn * den, big)
        if hi1 != hi2 or lo1 != lo2:
            raise PrecisionError("z-window endpoints straddle an integer")
        return lo1, hi1
    fr = Fraction(alpha)
    big = fr.denominator * dd
    hi = _floor_div(fr.numerator * k * dd + dn * fr.denominator, big)
    lo = _ceil_div(fr.numerator * k * dd - dn * fr.denominator, big)
    return lo, hi


def _square_count_exact(params: PairLatticeParams) -> int:
    count = 0
    for x in range(-params.m, params.m + 1):
        lo, hi = _z_window(params.beta, x, params.delta)
        if hi >= lo:
            count += hi - lo + 1
    return count


def lattice_square_count(basis: LatticeBasis2) -> SquareCountResult:
    """Points of a pair lattice in [-s, s]^2 with s = sqrt(m*delta), counted
    exactly: membership reduces to |x| <= m together with an integer window
    around beta*x, decided in exact arithmetic."""
    if basis.exact is None:
        raise ValueError("squares are counted only for pair lattices")
    p = basis.exact
    count = _square_count_exact(p)
    s_val = math.sqrt(p.m * float(p.delta))
    main = 4.0 * p.m * float(p.delta)
    return SquareCountResult(count, main, abs(count - main), s_val, basis.lambda1)


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


@lru_cache(maxsize=8)
def _spf_table(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, limit + 1):
        if spf[p] == 0:
            spf[p::p][spf[p::p] == 0] = p
    return spf


def _smallest_prime_in_range(n: int, spf: np.ndarray, p0: int, p1: int) -> Optional[int]:
    while n > 1:
        p = int(spf[n])
        if p > p1:
            return None
        if p > p0:
            return p
        while n % p == 0:
            n //= p
    return None


def v_count(spec: VCountSpec) -> int:
    """Triples (a, b, z) in the box with ab coprime to z and alpha*ab within
    delta of z."""
    delta = Fraction(spec.delta)
    total = 0
    for a in range(1, spec.a_bound + 1):
        for b in range(1, spec.b_bound + 1):
            ab = a * b
            zlo, zhi = _z_window(spec.alpha, ab, delta)
            for z in range(zlo, zhi + 1):
                if math.gcd(ab, z) == 1:
                    total += 1
    return total


def v_star_count(spec: VCountSpec) -> int:
    """Like v_count but with the coprimality on (x, y) = (second factor, z)."""
    delta = Fraction(spec.delta)
    total = 0
    for u in range(1, spec.a_bound + 1):
        for x in range(1, spec.b_bound + 1):
            zlo, zhi = _z_window(spec.alpha, u * x, delta)
            for y in range(zlo, zhi + 1):
                if math.gcd(x, y) == 1:
                    total += 1
    return total


def v1_count(spec: VCountSpec) -> int:
    """v_count restricted to products ab free of primes in (p0, p1]."""
    if spec.p0 is None:
        raise ValueError("v1_count needs the prime window")
    delta = Fraction(spec.delta)
    spf = _spf_table(spec.a_bound * spec.b_bound)
    total = 0
    for a in range(1, spec.a_bound + 1):
        for b in range(1, spec.b_bound + 1):
            ab = a * b
            if _smallest_prime_in_range(ab, spf, spec.p0, spec.p1) is not None:
                continue
            zlo, zhi = _z_window(spec.alpha, ab, delta)
            for z in range(zlo, zhi + 1):
                if math.gcd(ab, z) == 1:
                    total += 1
    return total


def v2_count(spec: VCountSpec) -> dict[int, int]:
    """Complementary counts, classified by the smallest prime of ab in
    (p0, p1], binned into dyadic ranges keyed by the power of two below it."""
    if spec.p0 is None:
        raise ValueError("v2_count needs the prime window")
    delta = Fraction(spec.delta)
    spf = _spf_table(spec.a_bound * spec.b_bound)
    bins: dict[int, int] = {}
    for a in range(1, spec.a_bound + 1):
        for b in range(1, spec.b_bound + 1):
            ab = a * b
            p = _smallest_prime_in_range(ab, spf, spec.p0, spec.p1)
            if p is None:
                continue
            zlo, zhi = _z_window(spec.alpha, ab, delta)
            hits = sum(1 for z in range(zlo, zhi + 1) if math.gcd(ab, z) == 1)
            if hits:
                key = 1 << (p - 1).bit_length() - 1
                bins[key] = bins.get(key, 0) + hits
    return bins
