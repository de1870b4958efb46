import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpair import exactreal
from quadpair.errors import PrecisionError
from quadpair.exactreal import (
    cmp_power,
    eval_with_retry,
    factorize,
    fixed_from_decimal,
    floor_power,
    floor_sum,
    iroot,
    is_prime,
    mul_mod_int64,
    mul_mod_pow2_limbs,
    near_integer_count,
    parse_alpha,
    primes_upto,
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


@given(st.integers(min_value=0, max_value=1 << 4000), st.integers(min_value=1, max_value=400))
def test_iroot_defining_property_large(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


@pytest.mark.parametrize(
    "root, k",
    [
        (root, k)
        for root in (2, 3, 1000, (1 << 50) - 1, 1 << 50, (1 << 50) + 1, 3 ** 40)
        for k in (3, 5, 7, 12, 41, 100, 400)
    ]
    # roots whose float overflows
    + [(10 ** 400, 3), (7 ** 500, 2), (3 ** 1000 + 1, 5), (2 ** 1100 - 1, 4)],
)
def test_iroot_at_perfect_powers(root, k):
    # roots on both sides of 2^50, where the float estimate stops being used
    n = root ** k
    assert iroot(n - 1, k) == root - 1
    assert iroot(n, k) == root
    assert iroot(n + 1, k) == root


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


def test_primes_upto_matches_is_prime():
    primes = [p for p in range(2001) if is_prime(p)]
    for limit in range(2001):
        assert primes_upto(limit).tolist() == [p for p in primes if p <= limit]


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


def _certainty(lo: int, hi: int, den: int, t: int):
    # the true value is somewhere in [lo, hi] and counts when its distance to
    # den*Z is at most tau, for some tau in [t, t + 1): True when every value
    # in the interval counts, False when none does, None when it depends.
    # The distance is linear between multiples of den/2, so the ends and the
    # first two multiples inside (one of each parity) suffice.
    first = -(-2 * lo // den)
    inner = (Fraction(k * den, 2) for k in (first, first + 1) if k * den <= 2 * hi)
    dists = [min(v % den, den - v % den) for v in (Fraction(lo), Fraction(hi), *inner)]
    if max(dists) <= t:
        return True
    if min(dists) >= t + 1:
        return False
    return None


def test_near_integer_count_matches_enumeration():
    # dens below 40 with err up to 3, then dens up to 2^192 with err up to den/50
    rng = random.Random(17)
    raised = [0, 0]
    for case in range(5000):
        big = case >= 3000
        den = rng.randrange(1, 1 << rng.choice((63, 64, 192))) if big else rng.randrange(1, 40)
        t = rng.randrange(0, (den + 1) // 2)  # 2t < den, as both callers ensure
        err = rng.choice((0, 1, rng.randrange(den // 50 + 1))) if big else rng.choice((0, 0, 1, 2, 3))
        w, step, terms = rng.randrange(den), rng.randrange(den), rng.randrange(0, 12)
        terms_mod = ((w + k * step) % den for k in range(terms))
        verdicts = [_certainty(v - err, v + err, den, t) for v in terms_mod]
        if None in verdicts:
            raised[big] += 1
            with pytest.raises(PrecisionError):
                near_integer_count(w, step, terms, den, t, err)
        else:
            assert near_integer_count(w, step, terms, den, t, err) == verdicts.count(True)
    assert all(raised)


@pytest.mark.parametrize("seed", [1, 7, 1 << 16])
def test_exact_near_integer_count_matches_a_direct_count(seed):
    # err = 0 at dens on both sides of int64 and at 2^192; t at and past den // 2
    rng = random.Random(seed)
    for den in (1, 2, 97, 1 << 31, (1 << 62) + 3, (1 << 63) - 1, 1 << 63, 1 << 192):
        for _ in range(20):
            w, step, terms = rng.randrange(den), rng.randrange(den), rng.randrange(0, 40)
            for t in (0, rng.randrange(den), den // 2, den):
                terms_mod = [(w + k * step) % den for k in range(terms)]
                want = sum(min(v, den - v) <= t for v in terms_mod)
                assert near_integer_count(w, step, terms, den, t, 0) == want
    assert near_integer_count(0, 0, 5, 1 << 192, 0, 0) == 5


def _signed(rng: random.Random) -> int:
    size = rng.choice((0, 1, 1 << 200, rng.randrange(1 << rng.randrange(1, 201))))
    return rng.choice((1, -1)) * size


@pytest.mark.parametrize("m", [1, 2, 97, (1 << 62) + 3, 1 << 192])
def test_floor_sum_matches_the_direct_sum(m):
    rng = random.Random(m)
    for n in range(61):
        for _ in range(8):
            a, b = _signed(rng), _signed(rng)
            assert floor_sum(n, a, b, m) == sum((a * i + b) // m for i in range(n))
    with pytest.raises(ValueError):
        floor_sum(-1, 1, 0, m)
    with pytest.raises(ValueError):
        floor_sum(3, 1, 0, 1 - m)


@given(
    st.integers(0, 10 ** 12),
    st.integers(0, 10 ** 12),
    st.integers(-(1 << 200), 1 << 200),
    st.integers(-(1 << 200), 1 << 200),
    st.integers(1, 1 << 192),
)
def test_floor_sum_splits_at_any_index(n, k, a, b, m):
    # the first n + k terms are the first n and then k more starting at a*n + b
    assert floor_sum(n + k, a, b, m) == floor_sum(n, a, b, m) + floor_sum(k, a, a * n + b, m)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_limb_product_matches_python_ints(data):
    # widths with a partly used top 24-bit column or 32-bit limb, a past
    # 2^bits, m up to 63 bits (three 24-bit limbs), zeros and the extremes
    bits = data.draw(st.sampled_from([1, 23, 24, 31, 32, 48, 63, 64, 65, 100, 192, 1024]))
    a = data.draw(st.integers(0, (1 << bits + 30) - 1) | st.sampled_from([0, 1, (1 << bits) - 1]))
    ms = data.draw(st.lists(st.integers(0, (1 << 63) - 1) | st.integers(0, 1 << 24), max_size=40))
    out = mul_mod_pow2_limbs(a, np.array(ms + [0, (1 << 63) - 1], np.int64), bits)
    assert out.dtype == np.uint32 and out.shape == (len(ms) + 2, -(-bits // 32))
    got = [int.from_bytes(row.tobytes(), "little") for row in out]
    assert got == [a * m % (1 << bits) for m in ms + [0, (1 << 63) - 1]]


def test_limb_product_is_built_in_blocks(monkeypatch):
    # one-row and ragged last blocks, m of three 24-bit limbs
    monkeypatch.setattr(exactreal, "_MUL_BLOCK", 7)
    m = np.arange(50, dtype=np.int64) ** 9 * 1009
    a = (1 << 191) + 12345
    got = [int.from_bytes(row.tobytes(), "little") for row in mul_mod_pow2_limbs(a, m, 192)]
    assert got == [a * int(v) % (1 << 192) for v in m]


# dens where every a * m stays below 2^62 (1, 2, 97, 92551 and 2^31 - 1),
# 2^31, a den past 2^31.5 (where a * m can pass 2^63), dens on both sides
# of 2^51 (where m reaches its 2^51 bound) and the largest, 2^62
_INT64_DENS = [1, 2, 97, 92551, (1 << 31) - 1, 1 << 31, (1 << 32) - 5, (1 << 51) - 1, 1 << 51,
               (1 << 51) + 1, 3171051812640604, (1 << 62) - 1, 1 << 62]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_INT64_DENS) | st.integers(1, 1 << 62), st.data())
def test_int64_product_matches_python_ints(den, data):
    # a at 0, 1 and den - 1 (where a/den rounds to 1.0 past 2^53) or any;
    # m at its bound, below it and anywhere, with the bound min(den, 2^51)
    top = min(den, 1 << 51)
    a = data.draw(st.sampled_from([0, 1, den - 1]) | st.integers(0, den - 1))
    near_top = st.integers(max(top - 4, 0), top - 1)
    ms = [0, top - 1, top // 2] + data.draw(st.lists(st.integers(0, top - 1) | near_top, max_size=60))
    m = np.array(ms, np.int64)
    out = mul_mod_int64(a, m, den)
    assert out is m and out.dtype == np.int64
    assert out.tolist() == [a * v % den for v in ms]


def test_int64_product_at_every_top_residue():
    # every m in the last 2^16 below 2^51, at the three dens past 2^51,
    # against a near den (a/den rounds up to 1.0) and a = den // 2 + 1
    ms = list(range((1 << 51) - (1 << 16), 1 << 51))
    for den in ((1 << 51) + 1, (1 << 62) - 1, 1 << 62):
        for a in (den - 1, den // 2 + 1):
            assert mul_mod_int64(a, np.array(ms, np.int64), den).tolist() == [a * v % den for v in ms]


def test_int64_product_next_to_multiples_of_den():
    # m = +-d / a mod den for small d, kept below the bound, puts a * m just
    # past or just short of a multiple of den, where the float quotient
    # floor(m * (a / den)) is one over or one short and the remainder needs
    # den added or subtracted; a just past den/4 and den/2, where both occur
    # (a den below 400 leaves no a in the 1% just past den/4)
    rng = random.Random(62)
    over = short = 0
    for den in (den for den in _INT64_DENS if den >= 400):
        top = min(den, 1 << 51)
        for _ in range(3):
            for lo in (den // 4, den // 2):
                a = next(a for a in iter(lambda: rng.randrange(lo, lo + lo // 100), None) if math.gcd(a, den) == 1)
                inv = pow(a, -1, den)
                ms = [m for d in range(1, 1 << 12) for m in (d * inv % den, -d * inv % den) if m < top]
                assert mul_mod_int64(a, np.array(ms, np.int64), den).tolist() == [a * v % den for v in ms]
                off = [math.floor(m * (a / den)) - a * m // den for m in ms]
                over += off.count(1)
                short += off.count(-1)
    assert over and short


def test_int64_product_is_built_in_blocks(monkeypatch):
    # one-value and ragged last blocks, with products next to multiples of
    # den in every block
    monkeypatch.setattr(exactreal, "_MUL_BLOCK", 7)
    den, a = 3171051812640604, 1326550907391669
    inv = pow(a, -1, den)
    ms = [m for d in range(1, 200) for m in (d * inv % den, -d * inv % den) if m < 1 << 51][:50]
    for size in (1, 7, 50):
        assert mul_mod_int64(a, np.array(ms[:size], np.int64), den).tolist() == [a * v % den for v in ms[:size]]
