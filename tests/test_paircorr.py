import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpair import paircorr
from quadpair.errors import CostGuardError, PrecisionError
from quadpair.exactreal import FixedReal, sqrt_fixed
from quadpair.paircorr import (
    PairCorrResult,
    SequenceModOne,
    equally_spaced,
    equally_spaced_reference,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_uv,
    quadratic_sequence,
    sequence_from_points,
    verify_integral_identities,
    weighted_pair_correlation,
)


def _rand_seq(rng, n, den=1 << 30):
    return SequenceModOne([rng.randrange(den) for _ in range(n)], den)


# ---------------------------------------------------------------------------
# sequence construction


def test_quadratic_sequence_exact_half():
    seq = quadratic_sequence(Fraction(1, 2), 4)
    assert seq.points == [Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)]


def test_quadratic_sequence_exact_third():
    seq = quadratic_sequence(Fraction(1, 3), 3)
    assert seq.points == [Fraction(1, 3), Fraction(1, 3), Fraction(0)]


def test_quadratic_sequence_matches_higher_precision():
    lo = quadratic_sequence(sqrt_fixed(2, 192), 2000)
    hi = quadratic_sequence(sqrt_fixed(2, 512), 2000)
    for a, b in zip(lo.points, hi.points):
        assert float(a) == float(b)


def test_sequence_from_points_reduces_mod_one():
    seq = sequence_from_points([0.25, 0.5, 0.75, 1.0])
    assert seq.points == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(0)]


# ---------------------------------------------------------------------------
# pair correlation, three ways


def test_pair_correlation_coincident_pair():
    seq = sequence_from_points([Fraction(1, 2), Fraction(1, 2)])
    assert pair_correlation(seq, 1).r == Fraction(1, 2)


def test_pair_correlation_hand_example():
    seq = sequence_from_points([Fraction(1, 10), Fraction(2, 10), Fraction(5, 10)])
    assert pair_correlation(seq, Fraction(6, 10)).r == Fraction(1, 3)


def test_pair_correlation_zero_window_distinct_points():
    seq = sequence_from_points([Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)])
    assert pair_correlation(seq, 0).r == 0


def test_pair_correlation_rejects_negative_window():
    seq = equally_spaced(5)
    with pytest.raises(ValueError):
        pair_correlation(seq, -1)


def test_naive_equally_spaced_ring():
    # each point has two neighbours at exactly 1/10: ten unordered pairs
    assert pair_correlation_naive(equally_spaced(10), 1).r == 1


def test_naive_zero_window_coincident():
    seq = sequence_from_points([Fraction(1, 2), Fraction(1, 2)])
    assert pair_correlation_naive(seq, 0).r == Fraction(1, 2)


def test_naive_guard():
    with pytest.raises(CostGuardError):
        pair_correlation_naive(equally_spaced(5001), 1)


def test_sorted_vs_naive_seeded_sample():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(2, 200)
        seq = _rand_seq(rng, n)
        for x in (0, Fraction(1, 2), 1, 3, Fraction(n, 2), n):
            a = pair_correlation(seq, x)
            b = pair_correlation_naive(seq, x)
            assert a.pair_count == b.pair_count


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=999), min_size=2, max_size=40),
    st.fractions(min_value=0, max_value=30),
)
def test_sorted_vs_naive_property(nums, x):
    seq = SequenceModOne([v % 1000 for v in nums], 1000)
    assert pair_correlation(seq, x).pair_count == pair_correlation_naive(seq, x).pair_count


def test_uv_hand_example_half():
    res = pair_correlation_uv(Fraction(1, 2), 4, Fraction(2, 5))
    assert res.r == Fraction(2, 4)


def test_uv_matches_direct_sqrt2():
    alpha = sqrt_fixed(2, 192)
    direct = pair_correlation(quadratic_sequence(alpha, 500), 1)
    uv = pair_correlation_uv(alpha, 500, 1)
    assert uv.pair_count == direct.pair_count


def test_uv_zero_window_irrational():
    assert pair_correlation_uv(sqrt_fixed(2, 192), 50, 0).r == 0


def test_uv_matches_direct_rational_sample():
    rng = random.Random(21)
    for _ in range(10):
        alpha = Fraction(rng.randrange(1, 1 << 30), 1 << 30)
        n = rng.randrange(2, 150)
        x = rng.choice([Fraction(3, 10), 1, 3])
        direct = pair_correlation(quadratic_sequence(alpha, n), x)
        uv = pair_correlation_uv(alpha, n, x)
        assert uv.pair_count == direct.pair_count


def test_ordered_pair_identity():
    # N*(2R+1) counts ordered pairs, diagonal included, when points are distinct
    rng = random.Random(3)
    seq = _rand_seq(rng, 60)
    x = Fraction(5, 2)
    r = pair_correlation(seq, x).r
    t = (x / seq.n).numerator * seq.den // (x / seq.n).denominator
    ordered = 0
    for a in seq.nums:
        for b in seq.nums:
            d = abs(a - b)
            if min(d, seq.den - d) <= t:
                ordered += 1
    assert seq.n * (2 * r + 1) == ordered


# ---------------------------------------------------------------------------
# weighted pair correlation


def test_weighted_equally_spaced_integer_window():
    assert weighted_pair_correlation(equally_spaced(4), 1).r0 == 1


def test_weighted_equally_spaced_fractional_window():
    r0 = weighted_pair_correlation(equally_spaced(4), Fraction(3, 2)).r0
    assert r0 == Fraction(5, 3)
    assert r0 == equally_spaced_reference(Fraction(3, 2))


def test_weighted_single_point():
    seq = sequence_from_points([Fraction(1, 3)])
    assert weighted_pair_correlation(seq, 5).r0 == 1


def test_weighted_rejects_nonpositive_window():
    with pytest.raises(ValueError):
        weighted_pair_correlation(equally_spaced(3), 0)


def test_weighted_lower_bounds_random():
    # the finite-N window bounds hold for x up to half the sequence length
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 120)
        seq = _rand_seq(rng, n)
        x = Fraction(rng.randrange(1, 2 * n + 1), 4)
        r0 = weighted_pair_correlation(seq, x).r0
        assert r0 >= max(1, x)
        assert r0 >= equally_spaced_reference(x)


def test_weighted_lower_bound_fails_past_half_window():
    # beyond n/2 the bound genuinely breaks at finite n: keep a witness
    seq = SequenceModOne([0, 1], 2)
    assert weighted_pair_correlation(seq, 2).r0 == Fraction(3, 2) < 2


def test_weighted_equality_only_for_equally_spaced():
    for n in (5, 17, 100):
        for x in (Fraction(3, 2), Fraction(7, 3), 1):
            if x > n:
                continue
            r0 = weighted_pair_correlation(equally_spaced(n), x).r0
            assert r0 == equally_spaced_reference(x)


def test_weighted_subadditivity():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randrange(2, 80)
        seq = _rand_seq(rng, n)
        x = Fraction(rng.randrange(1, n * 2), 4)
        y = Fraction(rng.randrange(1, n * 2), 4)
        if 2 * (x + y) > n:
            continue
        rxy = weighted_pair_correlation(seq, x + y).r0
        rx = weighted_pair_correlation(seq, x).r0
        ry = weighted_pair_correlation(seq, y).r0
        assert rxy <= rx + ry


def test_sandwich_bounds():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randrange(2, 80)
        seq = _rand_seq(rng, n)
        x = Fraction(rng.randrange(1, n), 3)
        if 2 * x > n:
            continue
        r = pair_correlation(seq, x).r
        r0x = weighted_pair_correlation(seq, x).r0
        r02x = weighted_pair_correlation(seq, 2 * x).r0
        assert (r0x - 1) / 2 <= r <= r02x - 1


def test_monotone_in_window():
    rng = random.Random(19)
    seq = _rand_seq(rng, 60)
    values = [pair_correlation(seq, Fraction(k, 4)).r for k in range(0, 40)]
    assert all(a <= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# integral identities


def test_identities_single_point():
    seq = sequence_from_points([Fraction(1, 3)])
    rep = verify_integral_identities(seq, Fraction(1, 2))
    assert rep.int_l == Fraction(1, 2)
    assert rep.int_l2 == Fraction(1, 2)
    assert rep.r0 == 1
    assert rep.all_ok


def test_identities_equally_spaced():
    rep = verify_integral_identities(equally_spaced(4), Fraction(3, 2))
    assert rep.int_l2 == Fraction(5, 2)
    assert rep.all_ok


def test_identities_full_window():
    seq = sequence_from_points([Fraction(1, 9), Fraction(5, 9), Fraction(7, 9)])
    rep = verify_integral_identities(seq, 3)
    assert rep.int_l == 3
    assert rep.all_ok


def test_identities_random_sequences():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(1, 50)
        seq = _rand_seq(rng, n, den=1 << 20)
        x = Fraction(rng.randrange(1, 4 * n + 1), 4)
        if x > n:
            x = Fraction(n)
        assert verify_integral_identities(seq, x).all_ok


def test_identities_reject_oversized_window():
    with pytest.raises(ValueError):
        verify_integral_identities(equally_spaced(3), 4)


def test_reference_values():
    assert equally_spaced_reference(Fraction(3, 2)) == Fraction(5, 3)
    assert equally_spaced_reference(2) == 2
    assert equally_spaced_reference(Fraction(1, 2)) == 1
    with pytest.raises(ValueError):
        equally_spaced_reference(0)


def test_result_validation():
    with pytest.raises(ValueError):
        PairCorrResult(3, Fraction(1), Fraction(-1, 3))
    with pytest.raises(ValueError):
        PairCorrResult(3, Fraction(1), None, r0=Fraction(1, 2))


# ---------------------------------------------------------------------------
# certified windows: real sequences with a non-zero error radius


def _band(seq, x):
    # scaled thresholds widened by twice the error radius, as documented
    tau = Fraction(x) / seq.n
    lo = max(tau - 2 * seq.err, Fraction(0))
    hi = tau + 2 * seq.err
    return lo.numerator * seq.den // lo.denominator, hi.numerator * seq.den // hi.denominator


def _exact_copy(seq):
    return SequenceModOne(list(seq.nums), seq.den)


@pytest.mark.parametrize(
    "d, raises",
    [(993, False), (994, False), (995, True), (1000, True), (1006, True), (1007, False)],
)
def test_certified_pair_at_the_band_edges(d, raises):
    # tau = 1/10 scales to 1000 and 2 err to 6: the band is (994, 1006]; a
    # distance at 994 is counted whatever the true points are, one at 1006
    # may or may not be
    seq = SequenceModOne([0, d], 10_000, err=Fraction(3, 10_000))
    x = Fraction(1, 5)
    assert _band(seq, x) == (994, 1006)
    if raises:
        with pytest.raises(PrecisionError):
            pair_correlation(seq, x)
    else:
        assert pair_correlation(seq, x).pair_count == pair_correlation(_exact_copy(seq), x).pair_count


@pytest.mark.parametrize("d, raises", [(0, False), (1, True), (6, True), (7, False)])
def test_certified_zero_window_clips_the_lower_threshold(d, raises):
    seq = SequenceModOne([5, 5 + d], 10_000, err=Fraction(3, 10_000))
    assert _band(seq, 0) == (0, 6)
    if raises:
        with pytest.raises(PrecisionError):
            pair_correlation(seq, 0)
    else:
        assert pair_correlation(seq, 0).pair_count == (1 if d == 0 else 0)


def test_certified_window_raises_exactly_when_a_distance_is_in_the_band():
    rng = random.Random(29)
    raised = kept = 0
    for _ in range(200):
        n = rng.randrange(2, 30)
        den = 1 << 12
        seq = SequenceModOne([rng.randrange(den) for _ in range(n)], den,
                             err=Fraction(rng.randrange(1, 8), den))
        x = Fraction(rng.randrange(0, 4 * n), 4)
        lo, hi = _band(seq, x)
        dists = [min(abs(a - b), den - abs(a - b)) for i, a in enumerate(seq.nums) for b in seq.nums[i + 1:]]
        if any(lo < d <= hi for d in dists):
            raised += 1
            with pytest.raises(PrecisionError):
                pair_correlation(seq, x)
        else:
            kept += 1
            got = pair_correlation(seq, x).pair_count
            assert got == pair_correlation(_exact_copy(seq), x).pair_count
            assert got == pair_correlation_naive(_exact_copy(seq), x).pair_count
    assert raised and kept


def test_certified_quadratic_sequence_matches_its_exact_copy():
    seq = quadratic_sequence(sqrt_fixed(2, 192), 3000)
    assert seq.err > 0
    for x in (Fraction(1, 4), 1, 16):
        lo, hi = _band(seq, x)
        assert lo < hi
        assert pair_correlation(seq, x).pair_count == pair_correlation(_exact_copy(seq), x).pair_count


@pytest.mark.parametrize("offset, err_ulp, raises", [(1, 1, True), (2, 1, False), (1, 0, False)])
def test_uv_raises_inside_its_guard_band(offset, err_ulp, raises):
    # n = 2 has the single pair u = 1, v = 3: the scaled point 3a lands
    # 3 * offset above t = 3 * 2^60, and the guard is 3 err_ulp wide
    alpha = FixedReal((1 << 60) + offset, 64, err_ulp)
    x = Fraction(3, 8)
    if raises:
        with pytest.raises(PrecisionError):
            pair_correlation_uv(alpha, 2, x)
    else:
        assert pair_correlation_uv(alpha, 2, x).pair_count == 0


def test_certified_window_counts_twice_exact_window_once(monkeypatch):
    calls = []
    original = paircorr._pair_stats

    def counting(s, den, t):
        calls.append(t)
        return original(s, den, t)

    monkeypatch.setattr(paircorr, "_pair_stats", counting)
    seq = quadratic_sequence(sqrt_fixed(2, 192), 500)
    assert _band(seq, 1)[0] < _band(seq, 1)[1]
    certified = pair_correlation(seq, 1).pair_count
    assert len(calls) == 2
    calls.clear()
    assert pair_correlation(_exact_copy(seq), 1).pair_count == certified
    assert len(calls) == 1
