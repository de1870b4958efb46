"""Planar lattice counting: near-multiple counts, the rescaled lattice whose
square section encodes them (both counted exactly by floor sums, in
O(log den) steps), Lagrange-Gauss reduction with a first minimum certified
for the float basis it is given, and coprime-triple box counts (V, V1 and V2
over the distinct products ab, weighted by their cell counts; V* over the
cells), whose z-windows are read in blocks off float64 estimates with a
stated error bound, and off the exact big-integer window only where an end
is ambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import CostGuardError, PrecisionError
from .exactreal import floor_sum, near_integer_count, primes_upto, scaled, scaled_floor

V_ENUM_GUARD = 10 ** 7
# products per vector pass of V, V1 and V2: bounds their temporaries
_BLOCK = 1 << 15
# cells per vector pass of V*: its 64 KB float64 and int64 temporaries stay
# below glibc's default 128 KB mmap threshold, so they come from the heap
# whatever earlier frees did to that threshold
_CELL_BLOCK = 1 << 13
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

    @cached_property
    def _box_products(self) -> np.ndarray:
        """r with r[n] = #{(a, b) in the box : ab = n} for n <= A*B."""
        # int16: r(n) is at most the divisor count of n, 448 below V_ENUM_GUARD;
        # r is symmetric in the two bounds, so one strided add per smaller factor
        r = np.zeros(self.a_bound * self.b_bound + 1, dtype=np.int16)
        small, big = sorted((self.a_bound, self.b_bound))
        for a in range(1, small + 1):
            r[a : a * big + 1 : a] += 1
        return r

    @cached_property
    def _window_primes(self) -> np.ndarray:
        """w with w[n], for n <= A*B, the smallest prime of n in (p0, p1], or
        0 when n has none."""
        if self.p0 is None:
            raise ValueError("V1 and V2 need the prime window (p0, p1]")
        limit = self.a_bound * self.b_bound
        primes = primes_upto(min(self.p1, limit))
        # int32 throughout: at V_ENUM_GUARD these arrays are the peak memory
        primes = primes[np.searchsorted(primes, self.p0, side="right") :].astype(np.int32)
        w = np.zeros(limit + 1, dtype=np.int32)
        # descending, so the smallest prime of each n is written last
        for p in primes[::-1]:
            w[p::p] = p
        return w


def _coprime_counts(alpha: tuple[int, int, int], delta: Fraction, n: np.ndarray, side: np.ndarray) -> np.ndarray:
    """c[i] = #{z : |alpha*n[i] - z| <= delta, gcd(side[i], z) = 1} for int64
    arrays n >= 1 and side >= 1; alpha is given as scaled(alpha) = (num, den, err).

    The window ends alpha*n -+ delta are estimated as e = fl(fl(a*n) -+ d),
    with a = fl(num/den) and d = fl(delta) correctly rounded.  Four roundings
    of relative size u = 2^-53 put e within 3u|a|n + 2u*delta (to first order)
    of num/den*n -+ delta, and every alpha of the enclosure moves that by at
    most err*n/den.  So where e lies farther than
    bound = 2^-50 (|a|n + d + 1) + (err/den)n from every integer, ceil and
    floor of the end are the same at both ends of the enclosure, and are
    those of e.  Every other n, exact ties included, gets the exact
    _z_window, which raises PrecisionError where the enclosure straddles;
    so does every n of the array when |alpha|*max(n) or delta reaches 2^49,
    or err >= den.
    A window is held as its first z mod side and its length, since
    gcd(side, z) depends on z mod side alone."""
    num, den, err = alpha
    zlo = np.zeros(n.shape, dtype=np.int64)
    width = np.zeros(n.shape, dtype=np.int64)
    exact = np.ones(n.shape, dtype=bool)
    if abs(num) * int(n.max(initial=1)) < den << 49 and delta < 1 << 49 and err < den:
        a, d = num / den, float(delta)
        nf = n.astype(np.float64)
        x = a * nf
        bound = (np.abs(x) + (d + 1)) * 2.0 ** -50 + nf * (err / den)
        lo, hi = x - d, x + d
        exact = (np.abs(lo - np.rint(lo)) <= bound) | (np.abs(hi - np.rint(hi)) <= bound)
        zlo = np.ceil(lo).astype(np.int64)
        width = np.floor(hi).astype(np.int64) - zlo + 1
    windows: dict[int, tuple[int, int]] = {}  # the cells of V* repeat products
    for i in np.flatnonzero(exact).tolist():
        k = int(n[i])
        if k not in windows:
            windows[k] = _z_window(alpha, k, delta)
        first, last = windows[k]
        zlo[i], width[i] = first % int(side[i]), last - first + 1
    c = np.zeros(n.shape, dtype=np.int64)
    live = np.flatnonzero(width > 0)
    width, side = width[live], side[live]
    start = zlo[live] % side
    passes = int(width.max(initial=0))
    if passes < 1 << 30:
        # side <= V_ENUM_GUARD: z mod side + k fits int32, whose Euclid steps are faster
        side, start = side.astype(np.int32), start.astype(np.int32)
    # one vector pass per offset into the window (delta >= 1/2 holds several
    # z), each into the same buffers, so no pass allocates
    hits = np.zeros(live.size, dtype=np.int64)
    z, g = np.empty_like(start), np.empty_like(start)
    inside, coprime = np.empty(live.size, dtype=bool), np.empty(live.size, dtype=bool)
    for k in range(passes):
        np.add(start, k, out=z)
        np.gcd(side, z, out=g)
        np.equal(g, 1, out=coprime)
        np.greater(width, k, out=inside)
        coprime &= inside
        hits += coprime
    c[live] = hits
    return c


def _product_blocks(spec: VCountSpec, classified: Optional[bool] = None):
    """(n, r(n) * #{z : |alpha*n - z| <= delta, gcd(n, z) = 1}) as int64 arrays
    over the distinct products n with r(n) > 0, _BLOCK values of n at a time;
    given ``classified``, only the n with (spec._window_primes[n] != 0) == classified."""
    delta, alpha = Fraction(spec.delta), scaled(spec.alpha)
    r = spec._box_products
    for lo in range(0, len(r), _BLOCK):
        piece = r[lo : lo + _BLOCK]
        if classified is not None:
            piece = piece * ((spec._window_primes[lo : lo + _BLOCK] != 0) == classified)
        idx = np.flatnonzero(piece)
        n = idx + lo
        yield n, piece[idx] * _coprime_counts(alpha, delta, n, n)


def v_count(spec: VCountSpec) -> int:
    """Triples (a, b, z) in the box with ab coprime to z and alpha*ab within
    delta of z."""
    return sum(int(hits.sum()) for _, hits in _product_blocks(spec))


def v_star_count(spec: VCountSpec) -> int:
    """Like v_count but with the coprimality on (x, y) = (second factor, z):
    a sum over the cells n = u*x, _CELL_BLOCK cells at a time."""
    delta, alpha = Fraction(spec.delta), scaled(spec.alpha)
    cells = spec.a_bound * spec.b_bound
    total = 0
    for lo in range(0, cells, _CELL_BLOCK):
        x, u = np.divmod(np.arange(lo, min(lo + _CELL_BLOCK, cells), dtype=np.int64), spec.a_bound)
        x += 1
        total += int(_coprime_counts(alpha, delta, (u + 1) * x, x).sum())
    return total


def v1_count(spec: VCountSpec) -> int:
    """v_count restricted to products ab free of primes in (p0, p1]."""
    return sum(int(hits.sum()) for _, hits in _product_blocks(spec, classified=False))


def v2_count(spec: VCountSpec) -> dict[int, int]:
    """Complementary counts, classified by the smallest prime p of ab in
    (p0, p1], binned into dyadic ranges keyed by the power of two below it,
    2^floor(log2(p - 1))."""
    # frexp's exponent of m >= 1 is floor(log2 m) + 1; w is int32, so p < 2^31
    bins = np.zeros(32, dtype=np.int64)
    for n, hits in _product_blocks(spec, classified=True):
        np.add.at(bins, np.frexp(spec._window_primes[n] - 1)[1] - 1, hits)
    return {1 << k: int(total) for k, total in enumerate(bins.tolist()) if total}
