import math
import random

import numpy as np
import pytest

from quadpair.errors import CostGuardError
from quadpair.expsum import (
    ComplexValue,
    quad_sum,
    quad_sum_brute,
    quad_sum_prime,
)


def test_brute_three_cases_p3():
    assert quad_sum_brute((0, 0, 0, 0), 3).as_integer() == 33
    assert quad_sum_brute((1, 0, 0, 0), 3).as_integer() == -3
    assert quad_sum_brute((1, 1, 1, 1), 3).as_integer() == 6


def test_closed_form_values():
    assert quad_sum_prime((0, 0, 0, 0), 5) == 145
    assert quad_sum_prime((1, 2, 1, 2), 5) == 20
    assert quad_sum_prime((1, 0, 0, 0), 7) == -7


def test_closed_form_rejects_non_odd_prime():
    with pytest.raises(ValueError):
        quad_sum_prime((1, 0, 0, 0), 2)
    with pytest.raises(ValueError):
        quad_sum_prime((1, 0, 0, 0), 9)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_form_matches_brute(p):
    rng = random.Random(p)
    for _ in range(12):
        b = tuple(rng.randrange(p) for _ in range(4))
        assert quad_sum_prime(b, p) == quad_sum_brute(b, p).as_integer()


def test_product_rule_q15():
    assert quad_sum((0, 0, 0, 0), 15).as_integer() == 33 * 145
    rng = random.Random(15)
    for _ in range(8):
        b = tuple(rng.randrange(15) for _ in range(4))
        expect = quad_sum_brute(b, 15)
        got = quad_sum(b, 15)
        assert got.re == pytest.approx(expect.re, abs=1e-6)
        assert got.im == pytest.approx(expect.im, abs=1e-6)


@pytest.mark.parametrize("q", [21, 35, 36, 12])
def test_product_rule_matches_brute(q):
    rng = random.Random(q)
    for _ in range(6):
        b = tuple(rng.randrange(q) for _ in range(4))
        expect = quad_sum_brute(b, q)
        got = quad_sum(b, q)
        assert got.re == pytest.approx(expect.re, abs=1e-6 * q ** 2)
        assert got.im == pytest.approx(expect.im, abs=1e-6 * q ** 2)


def test_quad_sum_trivial_modulus():
    v = quad_sum((3, 1, 4, 1), 1)
    assert (v.re, v.im, v.err) == (1.0, 0.0, 0.0)


def test_quad_sum_trivial_bound_and_positivity():
    rng = random.Random(1)
    for q in (2, 3, 4, 6, 10, 15, 21):
        v0 = quad_sum((0, 0, 0, 0), q)
        assert v0.im == 0 and v0.re > 0
        for _ in range(4):
            b = tuple(rng.randrange(q) for _ in range(4))
            v = quad_sum(b, q)
            assert math.hypot(v.re, v.im) <= q ** 4 + 1e-6


def test_brute_guard():
    with pytest.raises(CostGuardError):
        quad_sum_brute((0, 0, 0, 0), 37)
    with pytest.raises(CostGuardError):
        quad_sum((1, 2, 3, 4), 64)  # 2^6 exceeds the per-factor guard


def test_parseval_small_moduli():
    # sum over all b of |S(b;q)|^2 equals q^4 times the quadric size
    for q in (2, 3, 4, 5, 6):
        x = np.arange(q)
        sq = (x * x) % q
        e = np.exp(2j * np.pi * np.outer(np.arange(q), np.arange(q)) / q)
        # u[(b1,b2), s] = sum over x1,x2 with x1^2+x2^2 = s of e(b1x1+b2x2)
        u = np.zeros((q * q, q), dtype=complex)
        for x1 in range(q):
            for x2 in range(q):
                s = (sq[x1] + sq[x2]) % q
                u[:, s] += np.kron(e[:, x1], e[:, x2])
        s_all = u @ u.T  # S for every (b1,b2) x (b3,b4)
        lhs = float(np.sum(np.abs(s_all) ** 2))
        quadric = sum(
            1
            for a in range(q)
            for b in range(q)
            for c in range(q)
            for d in range(q)
            if (sq[a] + sq[b] - sq[c] - sq[d]) % q == 0
        )
        assert lhs == pytest.approx(q ** 4 * quadric, rel=1e-9)
        # cross-check a few entries against the library
        rng = random.Random(q)
        for _ in range(5):
            b = tuple(rng.randrange(q) for _ in range(4))
            ref = s_all[b[0] * q + b[1], b[2] * q + b[3]]
            got = quad_sum_brute(b, q)
            assert got.re == pytest.approx(ref.real, abs=1e-8)
            assert got.im == pytest.approx(ref.imag, abs=1e-8)


def test_complex_value_integer_guard():
    with pytest.raises(ValueError):
        ComplexValue(1.5, 0.0, 0.0).as_integer()
    with pytest.raises(ValueError):
        ComplexValue(1.0, 0.5, 0.0).as_integer()
