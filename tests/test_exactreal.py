import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quadpair.errors import PrecisionError
from quadpair.exactreal import (
    cmp_power,
    eval_with_retry,
    factorize,
    fixed_from_decimal,
    floor_power,
    iroot,
    parse_alpha,
    q1_part,
    sqrt_fixed,
)


def test_fixed_from_decimal_exact_dyadic():
    x = fixed_from_decimal("0.5", 64)
    assert x.mantissa == 2 ** 63
    assert x.err_ulp == 0


def test_fixed_from_decimal_brackets_value():
    x = fixed_from_decimal("3.14159265358", 192)
    target = Fraction(314159265358, 10 ** 11)
    assert abs(x.mid - target) <= Fraction(1, 2 ** 192)
    assert x.err_ulp <= 1


@pytest.mark.parametrize("bad", ["1/3-style garbage", "", "1.2.3", "abc", "1,5"])
def test_fixed_from_decimal_rejects_garbage(bad):
    with pytest.raises(ValueError):
        fixed_from_decimal(bad, 64)


def test_fixed_from_decimal_rejects_small_bits():
    with pytest.raises(ValueError):
        fixed_from_decimal("0.5", 32)


def test_sqrt_fixed_perfect_square():
    x = sqrt_fixed(4, 128)
    assert x.mid == 2
    assert x.err_ulp == 0


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10])
def test_sqrt_fixed_against_isqrt_oracle(n):
    bits = 192
    x = sqrt_fixed(n, bits)
    # oracle: integer square root of n * 2^(2*bits)
    m = math.isqrt(n << (2 * bits))
    assert x.mantissa == m
    # value bracketed within 2 ulp
    assert (x.mantissa - 2) ** 2 <= n << (2 * bits) <= (x.mantissa + 2) ** 2


def test_sqrt_fixed_rejects_zero():
    with pytest.raises(ValueError):
        sqrt_fixed(0, 128)


@given(st.integers(min_value=0, max_value=10 ** 30), st.integers(min_value=1, max_value=12))
def test_iroot_defining_property(n, k):
    r = iroot(n, k)
    assert r ** k <= n
    assert (r + 1) ** k > n


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_floor_power_matches_float_estimate(q):
    e = Fraction(2, 3)
    r = floor_power(q, e)
    assert r ** 3 <= q ** 2 < (r + 1) ** 3


def test_cmp_power_exact_boundary():
    assert cmp_power(Fraction(4), 2, Fraction(2)) == 0
    assert cmp_power(Fraction(399, 100), 2, Fraction(2)) < 0
    assert cmp_power(Fraction(401, 100), 2, Fraction(2)) > 0


@pytest.mark.parametrize("q,expected", [(15, 1), (12, 4), (18, 18), (1, 1), (8, 8), (45, 9)])
def test_q1_part_examples(q, expected):
    assert q1_part(q) == expected


@given(st.integers(min_value=1, max_value=10 ** 5))
def test_q1_part_cofactor_odd_squarefree(q):
    q1 = q1_part(q)
    q0 = q // q1
    assert q1 * q0 == q
    assert q0 % 2 == 1
    assert all(e == 1 for e in factorize(q0).values()) or q0 == 1


def test_parse_alpha_forms():
    assert parse_alpha("rat:3/7").value() == Fraction(3, 7)
    sq = parse_alpha("sqrt:2").value(128)
    assert float(sq) == pytest.approx(math.sqrt(2))
    phi = parse_alpha("ratio:(1+sqrt:5)/2").value(128)
    assert float(phi) == pytest.approx((1 + math.sqrt(5)) / 2)
    dec = parse_alpha("dec:0.25").value(64)
    assert dec.mid == Fraction(1, 4)
    gold = parse_alpha("cf:1;1").value(128)
    assert float(gold) == pytest.approx((1 + math.sqrt(5)) / 2)
    root2 = parse_alpha("cf:1;2").value(128)
    assert float(root2) == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize(
    "bad", ["rat:1/0", "sqrt:0", "sqrt:-3", "dec:x", "ratio:1+sqrt:5/2", "cf:1", "zzz:1", "1.5"]
)
def test_parse_alpha_rejects(bad):
    with pytest.raises(ValueError):
        parse_alpha(bad)


def test_cf_spec_prefix_then_repeat():
    # [0; 1, 2, 2, 2, ...] = 1/(1 + (sqrt(2)-1)) = sqrt(2)/ (expected value sqrt(2)/2 + ... )
    x = parse_alpha("cf:0;1,2").value(128)
    # tail t = 1+sqrt(2); y1 = 1 + 1/t; x = 0 + 1/y1
    t = 1 + math.sqrt(2)
    y1 = 1 + 1 / t
    assert float(x) == pytest.approx(1 / y1)


def test_eval_with_retry_escalates():
    calls = []

    def compute(alpha):
        calls.append(alpha.frac_bits)
        if alpha.frac_bits < 512:
            raise PrecisionError("need more")
        return alpha.frac_bits

    assert eval_with_retry(parse_alpha("sqrt:2"), compute, bits=128) == 512
    assert calls == [128, 256, 512]
