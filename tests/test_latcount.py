import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quadpair import latcount
from quadpair.errors import CostGuardError, PrecisionError
from quadpair.exactreal import FixedReal, factorize, scaled, sqrt_fixed
from quadpair.latcount import (
    ILL_CONDITION_SQ,
    V_ENUM_GUARD,
    VCountSpec,
    _product_blocks,
    _z_window,
    gauss_reduce,
    lattice_square_count,
    near_multiple_count,
    pair_lattice,
    v1_count,
    v2_count,
    v_count,
    v_star_count,
)


def test_near_multiple_hand_counts():
    assert near_multiple_count(10, Fraction(1, 2), Fraction(1, 5)) == 5
    assert near_multiple_count(10, Fraction(1, 3), Fraction(1, 10)) == 3
    assert near_multiple_count(25, 0, Fraction(1, 100)) == 25


def test_near_multiple_brute():
    rng = random.Random(2)
    for _ in range(40):
        m = rng.randrange(1, 60)
        beta = Fraction(rng.randrange(0, 1 << 20), 1 << 20)
        delta = Fraction(rng.randrange(0, 500), 1000)
        brute = 0
        for x in range(1, m + 1):
            f = beta * x
            f -= math.floor(f)
            if min(f, 1 - f) <= delta:
                brute += 1
        assert near_multiple_count(m, beta, delta) == brute



@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4), Fraction(7, 2)])
def test_near_multiple_counts_every_x_from_half_a_unit(delta):
    # no point lies farther than 1/2 from an integer
    for beta in (Fraction(1, 3), Fraction(5, 7), sqrt_fixed(2, 64)):
        num, den, _ = scaled(beta)
        direct = sum(1 for x in range(1, 41) if min(num * x % den, -num * x % den) <= delta * den)
        assert near_multiple_count(40, beta, delta) == direct == 40


@pytest.mark.parametrize(
    "mantissa, err_ulp, raises",
    [
        ((1 << 62) + 1, 1, True),  # beta itself sits 1 ulp above t = 2^62
        ((1 << 62) + 2, 1, False),
        ((1 << 62) + 1, 0, False),
        ((3 << 62) - 1, 1, True),  # 1 ulp below the wrapped threshold
        ((3 << 62) - 2, 1, False),
        ((1 << 62) - 1, 1, False),  # exactly t - err: counted for certain
        ((3 << 62) + 1, 1, False),  # exactly den - t + err: counted for certain
    ],
)
def test_near_multiple_raises_inside_its_guard_band(mantissa, err_ulp, raises):
    beta = FixedReal(mantissa, 64, err_ulp)
    if raises:
        with pytest.raises(PrecisionError):
            near_multiple_count(1, beta, Fraction(1, 4))
    else:
        expected = mantissa < 1 << 62 or mantissa > 3 << 62
        assert near_multiple_count(1, beta, Fraction(1, 4)) == expected

def test_pair_lattice_formula():
    basis = pair_lattice(4, 0, Fraction(1, 4))
    assert basis.u == pytest.approx((0.25, 0.0))
    assert basis.v == pytest.approx((0.0, -4.0))
    assert basis.det == pytest.approx(-1.0)


def test_pair_lattice_unit_determinant():
    rng = random.Random(8)
    for _ in range(30):
        m = rng.randrange(1, 500)
        beta = rng.random()
        delta = Fraction(rng.randrange(1, 999), 1000)
        basis = pair_lattice(m, Fraction(beta).limit_denominator(10 ** 6), delta)
        assert abs(abs(basis.det) - 1) < 1e-12


def test_pair_lattice_rejects_bad_delta():
    with pytest.raises(ValueError):
        pair_lattice(4, 0.5, Fraction(3, 2))
    with pytest.raises(ValueError):
        pair_lattice(4, 0.5, 0)


def test_gauss_reduce_identity():
    red = gauss_reduce((1.0, 0.0), (0.0, 1.0))
    assert red.lambda1 == pytest.approx(1.0)


def test_gauss_reduce_hand_example():
    red = gauss_reduce((3.0, 0.0), (4.0, 1.0))
    assert red.lambda1 == pytest.approx(math.sqrt(2))


def test_gauss_reduce_skew_example():
    red = gauss_reduce((1.0, 0.0), (0.5, 1e-3))
    # brute force over a generous coefficient box
    best = min(
        math.hypot(a * 1.0 + b * 0.5, b * 1e-3)
        for a in range(-10, 11)
        for b in range(-10, 11)
        if (a, b) != (0, 0)
    )
    assert red.lambda1 == pytest.approx(best, rel=1e-9)


def test_gauss_reduce_brute_force_sample():
    rng = random.Random(12)
    for _ in range(120):
        u = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        v = (rng.uniform(-5, 5), rng.uniform(-5, 5))
        det = u[0] * v[1] - u[1] * v[0]
        if abs(det) < 1e-2:
            continue
        skew = math.sqrt((u[0] ** 2 + u[1] ** 2) * (v[0] ** 2 + v[1] ** 2)) / abs(det)
        if skew > 40:
            continue
        red = gauss_reduce(u, v)
        best = min(
            math.hypot(a * u[0] + b * v[0], a * u[1] + b * v[1])
            for a in range(-50, 51)
            for b in range(-50, 51)
            if (a, b) != (0, 0)
        )
        assert red.lambda1 == pytest.approx(best, rel=1e-9)


def test_hermite_bound():
    rng = random.Random(14)
    for _ in range(60):
        u = (rng.uniform(-9, 9), rng.uniform(-9, 9))
        v = (rng.uniform(-9, 9), rng.uniform(-9, 9))
        det = u[0] * v[1] - u[1] * v[0]
        if abs(det) < 1e-3:
            continue
        red = gauss_reduce(u, v)
        assert red.lambda1 ** 2 <= (4 / 3) ** 0.5 * abs(det) * (1 + 1e-9)


def test_gauss_reduce_rejects_degenerate():
    with pytest.raises(ValueError):
        gauss_reduce((1.0, 2.0), (2.0, 4.0))


def test_gauss_reduce_refuses_ill_conditioned_bases():
    # (1, 0), (1, s) has |u|^2 |v|^2 / det^2 = (1 + s^2) / s^2
    assert (1 + 1e-22) / 1e-22 < ILL_CONDITION_SQ < (1 + 1e-26) / 1e-26
    assert gauss_reduce((1.0, 0.0), (1.0, 1e-11)).lambda1 == pytest.approx(1e-11, rel=1e-9)
    with pytest.raises(ArithmeticError, match="ill-conditioned basis"):
        gauss_reduce((1.0, 0.0), (1.0, 1e-13))


@pytest.mark.parametrize(
    "n, delta, expected",
    [
        (2, Fraction(1, 100), ("0.85045492342191198", "0.95779746427224288", "0.88686878916790579")),
        (3, Fraction(7, 100), ("0.77402581244543411", "0.76046343508145542", "0.78838646554700131")),
        (131, Fraction(19, 100), ("0.71515477562723784", "0.663306598100464", "0.95548167846868215")),
        (199, Fraction(1, 100), ("0.64495411732769148", "0.98984406732873775", "0.76077938704728354")),
    ],
)
def test_pair_lattice_lambda1_bytes_are_pinned(n, delta, expected):
    # the 17-digit lambda1 of the float pair lattice at M = 10^3, 10^4, 10^5,
    # which the benchmark's lattice rows digest; a change to the reduction
    # that moves a byte must show here first
    beta = sqrt_fixed(n, 192)
    got = tuple(f"{pair_lattice(m, beta, delta).lambda1:.17g}" for m in (1000, 10_000, 100_000))
    assert got == expected


def _square_count_by_windows(m: int, beta, delta: Fraction) -> int:
    # the per-x loop: one certified z-window for each x in -m..m
    alpha = scaled(beta)
    count = 0
    for x in range(-m, m + 1):
        lo, hi = _z_window(alpha, x, delta)
        if hi >= lo:
            count += hi - lo + 1
    return count


def _value_or_none(count, *args):
    try:
        return count(*args)
    except PrecisionError:
        return None


def test_square_count_matches_near_multiple_identity():
    rng = random.Random(16)
    for _ in range(40):
        m = rng.randrange(1, 400)
        beta = Fraction(rng.randrange(0, 1 << 24), 1 << 24)
        delta = Fraction(rng.randrange(1, 499), 1000)
        basis = pair_lattice(m, beta, delta)
        res = lattice_square_count(basis)
        assert res.count == 1 + 2 * near_multiple_count(m, beta, delta)


def test_square_count_identity_fixedreal_beta():
    alpha = sqrt_fixed(2, 192)
    basis = pair_lattice(100, alpha, Fraction(3, 10))
    res = lattice_square_count(basis)
    assert res.count == 1 + 2 * near_multiple_count(100, alpha, Fraction(3, 10))


@pytest.mark.parametrize("kind", ["rational", "wide-delta", "fixed64"])
def test_square_count_matches_the_per_x_windows(kind):
    # rational beta of either sign; delta in [1/2, 1), where a window can
    # hold two integers; 64-bit FixedReals whose error radius is wide enough
    # that many windows straddle, which must raise exactly where a window does
    rng = random.Random(kind)
    raised = 0
    for _ in range(150):
        m = rng.randrange(1, 120)
        if kind == "fixed64":
            beta = FixedReal(rng.randrange(-(3 << 64), 3 << 64), 64, rng.randrange(1 << rng.randrange(1, 58)))
        else:
            beta = Fraction(rng.randrange(-(1 << 30), 1 << 30), rng.randrange(1, 1 << rng.randrange(1, 31)))
        lo, hi = (500, 1000) if kind == "wide-delta" else (1, 1000)
        delta = Fraction(rng.randrange(lo, hi), 1000)
        basis = pair_lattice(m, beta, delta)
        want = _value_or_none(_square_count_by_windows, m, beta, delta)
        got = _value_or_none(lambda b: lattice_square_count(b).count, basis)
        assert got == want
        raised += want is None
    assert (raised > 0) == (kind == "fixed64")


def test_square_count_reaches_a_billion():
    alpha, delta = sqrt_fixed(2, 192), Fraction(3, 10)
    start = time.perf_counter()
    res = lattice_square_count(pair_lattice(10 ** 9, alpha, delta))
    assert time.perf_counter() - start < 5  # the per-x loop would take hours
    assert res.count == 1 + 2 * near_multiple_count(10 ** 9, alpha, delta)


def test_square_count_requires_exact_params_without_s():
    basis = gauss_reduce((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        lattice_square_count(basis)


def test_square_count_error_bound_lat0():
    rng = random.Random(18)
    for _ in range(30):
        m = rng.randrange(1, 300)
        beta = Fraction(rng.randrange(0, 1 << 24), 1 << 24)
        delta = Fraction(rng.randrange(1, 499), 1000)
        basis = pair_lattice(m, beta, delta)
        res = lattice_square_count(basis)
        s = math.sqrt(m * float(delta))
        assert res.error_term <= 32 * (s / basis.lambda1 + 1)


# ---------------------------------------------------------------------------
# box triple counts


def test_v_count_tie_example():
    spec = VCountSpec(1, 2, Fraction(1, 2), Fraction(1, 2))
    assert v_count(spec) == 3


def test_v_count_zero_window_irrational():
    spec = VCountSpec(5, 5, Fraction(0), sqrt_fixed(2, 192))
    assert v_count(spec) == 0


def test_v_count_brute():
    rng = random.Random(20)
    for _ in range(15):
        a_bound = rng.randrange(1, 12)
        b_bound = rng.randrange(1, 12)
        alpha = Fraction(rng.randrange(0, 64), 64)
        delta = Fraction(rng.randrange(0, 30), 10)
        spec = VCountSpec(a_bound, b_bound, delta, alpha)
        brute = 0
        zmax = int(alpha * a_bound * b_bound + delta) + 2
        for a in range(1, a_bound + 1):
            for b in range(1, b_bound + 1):
                for z in range(-zmax, zmax + 1):
                    if abs(alpha * a * b - z) <= delta and math.gcd(a * b, z) == 1:
                        brute += 1
        assert v_count(spec) == brute


def test_v_star_differs_by_coprimality_side():
    spec = VCountSpec(3, 4, Fraction(1, 3), Fraction(2, 7))
    brute = 0
    for u in range(1, 4):
        for x in range(1, 5):
            for z in range(-10, 11):
                if abs(Fraction(2, 7) * u * x - z) <= Fraction(1, 3) and math.gcd(x, z) == 1:
                    brute += 1
    assert v_star_count(spec) == brute


def test_v_partition_identity():
    rng = random.Random(22)
    for i in range(12):
        a_bound = rng.randrange(2, 14)
        b_bound = rng.randrange(2, 14)
        p0 = rng.randrange(1, 6)
        p1 = rng.randrange(p0, 20)
        dyadic = Fraction(rng.randrange(0, 256), 256)
        delta = Fraction(rng.randrange(0, 20), 8)
        for alpha in (dyadic, sqrt_fixed((2, 3, 5, 7, 11, 13)[i % 6], 192)):
            spec = VCountSpec(a_bound, b_bound, delta, alpha, p0, p1)
            bins = v2_count(spec)
            assert v_count(spec) == v1_count(spec) + sum(bins.values())


def _cell_v1_v2(spec):
    """V1 and V2 by their per-cell definitions: every (a, b) of the box, z
    enumerated, and the window prime of ab taken from factorize.  A cell
    straddles when some z is within delta of alpha*ab for some but not every
    alpha in its enclosure; V1 and V2 are each returned as their value, or as
    PrecisionError if one of their cells straddles."""
    if isinstance(spec.alpha, FixedReal):
        lo, hi = spec.alpha.lo, spec.alpha.hi
    else:
        lo = hi = Fraction(spec.alpha)
    delta = Fraction(spec.delta)
    v1, v2, straddled = 0, {}, [False, False]
    for a in range(1, spec.a_bound + 1):
        for b in range(1, spec.b_bound + 1):
            n = a * b
            p = min((p for p in factorize(n) if spec.p0 < p <= spec.p1), default=0)
            zs = range(math.floor(lo * n - delta), math.ceil(hi * n + delta) + 1)
            some = [z for z in zs if lo * n - delta <= z <= hi * n + delta]
            every = [z for z in some if abs(lo * n - z) <= delta and abs(hi * n - z) <= delta]
            if some != every:
                straddled[p != 0] = True
                continue
            hits = sum(1 for z in every if math.gcd(n, z) == 1)
            if p == 0:
                v1 += hits
            elif hits:
                key = 1 << (p - 1).bit_length() - 1
                v2[key] = v2.get(key, 0) + hits
    return (PrecisionError if straddled[0] else v1), (PrecisionError if straddled[1] else v2)


def test_v1_v2_match_their_cell_definitions():
    rng = random.Random(23)
    outcomes = set()
    for i in range(80):
        a_bound = rng.randrange(1, 12)
        b_bound = rng.randrange(1, 16)
        p0 = rng.randrange(1, 6)
        p1 = rng.randrange(p0, 30)
        d = rng.randrange(1, 7)
        delta = Fraction(rng.randrange(0, 2 * d), d)
        if i % 2:
            alpha = Fraction(rng.randrange(0, 256), 256)
        else:
            # 64 bits near c/d, so that alpha*ab +- delta can sit on an integer
            c = rng.randrange(0, d + 1)
            mantissa = max(0, (c << 64) // d + rng.randrange(-2, 3))
            alpha = FixedReal(mantissa, 64, rng.randrange(0, 3))
        spec = VCountSpec(a_bound, b_bound, delta, alpha, p0, p1)
        wants = _cell_v1_v2(spec)
        for count, want in zip((v1_count, v2_count), wants):
            if want is PrecisionError:
                with pytest.raises(PrecisionError):
                    count(spec)
            else:
                assert count(spec) == want
        outcomes.add(tuple(want is PrecisionError for want in wants))
    # straddles were met in V1 alone, in V2 alone and in neither
    assert {(True, False), (False, True), (False, False)} <= outcomes


@pytest.mark.parametrize("a_bound, b_bound", [(1, 1), (1, 13), (13, 1), (12, 17), (17, 12), (30, 100)])
def test_product_weights_count_the_box_cells(monkeypatch, a_bound, b_bound):
    # with every window counting one hit, each product yields its weight
    # r(n) = #{(a, b) in the box : ab = n}; small blocks split the products
    monkeypatch.setattr(latcount, "_coprime_counts", lambda alpha, delta, n, side: np.ones_like(n))
    monkeypatch.setattr(latcount, "_BLOCK", 7)
    spec = VCountSpec(a_bound, b_bound, Fraction(1, 2), Fraction(1, 3), 2, 7)
    r = np.bincount(np.outer(np.arange(1, a_bound + 1), np.arange(1, b_bound + 1)).ravel())

    def weights(*args):
        blocks = list(_product_blocks(spec, *args))
        n, hits = (np.concatenate(parts) for parts in zip(*blocks))
        return dict(zip(n.tolist(), hits.tolist()))

    assert weights() == {n: int(c) for n, c in enumerate(r) if c}
    w = spec._window_primes
    for classified in (False, True):
        assert weights(classified) == {
            n: int(c) for n, c in enumerate(r) if c and (w[n] != 0) == classified
        }


def _coprime_hits(alpha, n: int, delta: Fraction, side: int) -> int:
    """#{z : |alpha*n - z| <= delta, gcd(side, z) = 1} over one certified
    z-window; alpha is given as scaled(alpha)."""
    zlo, zhi = _z_window(alpha, n, delta)
    return sum(1 for z in range(zlo, zhi + 1) if math.gcd(side, z) == 1)


def _per_cell_counts(spec):
    """V, V*, V1 and V2 by the per-cell loop: one exact z-window for every
    (a, b) of the box.  Each count is its value, or PrecisionError when the
    window of one of its own cells straddles."""
    alpha, delta = scaled(spec.alpha), Fraction(spec.delta)
    w = spec._window_primes
    v = v_star = v1 = 0
    v2: dict[int, int] = {}
    raised = set()
    for a in range(1, spec.a_bound + 1):
        for b in range(1, spec.b_bound + 1):
            n = a * b
            try:
                hits = _coprime_hits(alpha, n, delta, n)
                star = _coprime_hits(alpha, n, delta, b)
            except PrecisionError:
                raised |= {"V", "V*", "V2" if w[n] else "V1"}
                continue
            v += hits
            v_star += star
            if not w[n]:
                v1 += hits
            elif hits:
                key = 1 << (int(w[n]) - 1).bit_length() - 1
                v2[key] = v2.get(key, 0) + hits
    counts = {"V": v, "V*": v_star, "V1": v1, "V2": v2}
    return {name: PrecisionError if name in raised else value for name, value in counts.items()}


def _vcount_spec(kind: str, rng: random.Random) -> VCountSpec:
    a_bound, b_bound = rng.randrange(1, 13), rng.randrange(1, 41)
    p0 = rng.randrange(1, 6)
    p1 = rng.randrange(p0, 40)
    d = rng.randrange(1, 9)
    delta = {
        "delta-zero": Fraction(0),
        "small-delta": Fraction(rng.randrange(1, 500), 1000),
        "half-delta": Fraction(1, 2),
        "wide-delta": Fraction(rng.randrange(d, 25 * d), d),
    }.get(kind, Fraction(rng.randrange(0, 3 * d), d))
    if kind in ("sqrt192", "negative"):
        alpha = sqrt_fixed(rng.choice((2, 3, 5, 7, 22, 164)), 192)
        if kind == "negative":
            alpha = FixedReal(-alpha.mantissa, alpha.frac_bits, alpha.err_ulp)
    elif kind == "ties":
        # alpha*n -+ delta is an integer whenever c*n = -+e (mod d)
        alpha = Fraction(rng.randrange(-3 * d, 3 * d), d)
    elif kind == "straddle":
        # 64 bits near c/d with a nonzero error radius: windows can straddle
        c = rng.randrange(0, d + 1)
        alpha = FixedReal((c << 64) // d + rng.randrange(-2, 3), 64, rng.randrange(1, 3))
    else:
        alpha = Fraction(rng.randrange(-(1 << 20), 1 << 20), rng.randrange(1, 1 << 20))
    return VCountSpec(a_bound, b_bound, delta, alpha, p0, p1)


@pytest.mark.parametrize(
    "kind",
    ["delta-zero", "small-delta", "half-delta", "wide-delta", "negative", "ties", "straddle", "sqrt192"],
)
def test_vcounts_match_the_per_cell_loop(monkeypatch, kind):
    # the block size splits products and cells mid-row; the spy counts the
    # exact windows, which only ties and straddles may need
    exact_calls = []

    def spy(alpha, k, delta):
        exact_calls.append(k)
        return _z_window(alpha, k, delta)

    monkeypatch.setattr(latcount, "_z_window", spy)
    rng = random.Random(kind)
    raised = 0
    for i in range(25):
        spec = _vcount_spec(kind, rng)
        monkeypatch.setattr(latcount, "_BLOCK", (1 << 16, 7)[i % 2])
        monkeypatch.setattr(latcount, "_CELL_BLOCK", (1 << 16, 7)[i % 2])
        wants = _per_cell_counts(spec)
        for name, count in (("V", v_count), ("V*", v_star_count), ("V1", v1_count), ("V2", v2_count)):
            if wants[name] is PrecisionError:
                with pytest.raises(PrecisionError):
                    count(spec)
            else:
                assert count(spec) == wants[name], (name, spec)
        raised += PrecisionError in wants.values()
    assert (raised > 0) == (kind == "straddle")
    if kind in ("ties", "straddle"):
        assert exact_calls
    elif kind in ("sqrt192", "negative"):
        assert not exact_calls


def test_vcount_memory_is_bounded():
    # a 10^6-cell box: the r and prime-window tables (6 MB) and one block of
    # temporaries, not a window table over every product or cell
    spec = VCountSpec(1000, 1000, Fraction(1, 100), sqrt_fixed(2, 192), 2, 100)
    tracemalloc.start()
    try:
        for count in (v_count, v_star_count, v1_count, v2_count):
            count(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_v_enum_guard_refuses_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a table was allocated")

    monkeypatch.setattr(np, "zeros", no_table)
    VCountSpec(V_ENUM_GUARD, 1, Fraction(1, 2), Fraction(1, 3), 2, 3)
    for a_bound, b_bound in ((V_ENUM_GUARD + 1, 1), (1, V_ENUM_GUARD + 1)):
        with pytest.raises(CostGuardError, match="box enumeration too large"):
            VCountSpec(a_bound, b_bound, Fraction(1, 2), Fraction(1, 3), 2, 3)


@pytest.mark.parametrize(
    "a_bound, b_bound, p0, p1",
    [(12, 17, 3, 3), (12, 17, 1, 7), (12, 17, 2, 200), (9, 11, 5, 10 ** 9), (1, 1, 1, 5)],
)
def test_window_primes_matches_factorize(a_bound, b_bound, p0, p1):
    w = VCountSpec(a_bound, b_bound, Fraction(1, 2), Fraction(1, 3), p0, p1)._window_primes
    assert len(w) == a_bound * b_bound + 1
    for n in range(1, a_bound * b_bound + 1):
        assert w[n] == min((p for p in factorize(n) if p0 < p <= p1), default=0)


@pytest.mark.parametrize("count", [v1_count, v2_count])
def test_v1_v2_need_the_prime_window(count):
    with pytest.raises(ValueError):
        count(VCountSpec(3, 4, Fraction(1, 3), Fraction(2, 7)))


def test_v2_bins_are_dyadic():
    spec = VCountSpec(10, 10, Fraction(1), Fraction(1, 3), 2, 50)
    for key in v2_count(spec):
        assert key & (key - 1) == 0


def test_vspec_validation():
    with pytest.raises(ValueError):
        VCountSpec(0, 5, Fraction(1), Fraction(1, 2))
    with pytest.raises(ValueError):
        VCountSpec(5, 5, Fraction(1), Fraction(1, 2), 3, None)
    with pytest.raises(ValueError):
        VCountSpec(5, 5, Fraction(1), Fraction(1, 2), 5, 3)
