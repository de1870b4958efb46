import math
import random
from fractions import Fraction

import pytest

from quadpair.errors import PrecisionError
from quadpair.exactreal import FixedReal, sqrt_fixed
from quadpair.latcount import (
    VCountSpec,
    gauss_reduce,
    lattice_square_count,
    make_basis,
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



@pytest.mark.parametrize(
    "mantissa, err_ulp, raises",
    [
        ((1 << 62) + 1, 1, True),  # beta itself sits 1 ulp above t = 2^62
        ((1 << 62) + 2, 1, False),
        ((1 << 62) + 1, 0, False),
        ((3 << 62) - 1, 1, True),  # 1 ulp below the wrapped threshold
        ((3 << 62) - 2, 1, False),
    ],
)
def test_near_multiple_raises_inside_its_guard_band(mantissa, err_ulp, raises):
    beta = FixedReal(mantissa, 64, err_ulp)
    if raises:
        with pytest.raises(PrecisionError):
            near_multiple_count(1, beta, Fraction(1, 4))
    else:
        assert near_multiple_count(1, beta, Fraction(1, 4)) == 0

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


def test_square_count_requires_exact_params_without_s():
    basis = make_basis((1.0, 0.0), (0.0, 1.0))
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
    for _ in range(12):
        a_bound = rng.randrange(2, 14)
        b_bound = rng.randrange(2, 14)
        p0 = rng.randrange(1, 6)
        p1 = rng.randrange(p0, 20)
        alpha = Fraction(rng.randrange(0, 256), 256)
        delta = Fraction(rng.randrange(0, 20), 8)
        spec = VCountSpec(a_bound, b_bound, delta, alpha, p0, p1)
        bins = v2_count(spec)
        assert v_count(spec) == v1_count(spec) + sum(bins.values())


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
