import bisect
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadpair import modcount, paircorr
from quadpair.errors import CostGuardError, PrecisionError
from quadpair.exactreal import FixedReal, parse_alpha, scaled, scaled_floor, sqrt_fixed
from quadpair.paircorr import (
    IdentityReport,
    PairCorrResult,
    SequenceModOne,
    equally_spaced,
    equally_spaced_reference,
    pair_correlation,
    pair_correlation_naive,
    pair_correlation_uv,
    quadratic_sequence,
    verify_integral_identities,
    weighted_pair_correlation,
)


def _rand_seq(rng, n, den=1 << 30):
    return SequenceModOne([rng.randrange(den) for _ in range(n)], den)


# ---------------------------------------------------------------------------
# sequence construction


def test_quadratic_sequence_refuses_what_its_bits_cannot_certify():
    # 64 bits leave sqrt(2) k^2 about n^2 2^-64 wide, far past 2^-20 / (2 n^2)
    with pytest.raises(PrecisionError, match="64 bits cannot certify alpha\\*k\\^2 up to k=100000"):
        quadratic_sequence(sqrt_fixed(2, 64), 10 ** 5)
    assert quadratic_sequence(sqrt_fixed(2, 128), 10 ** 5).err > 0


def test_quadratic_sequence_exact_half():
    seq = quadratic_sequence(Fraction(1, 2), 4)
    assert (seq.nums, seq.den) == ([1, 0, 1, 0], 2)


def test_quadratic_sequence_exact_third():
    seq = quadratic_sequence(Fraction(1, 3), 3)
    assert (seq.nums, seq.den) == ([1, 1, 0], 3)


def test_quadratic_sequence_matches_higher_precision():
    lo = quadratic_sequence(sqrt_fixed(2, 192), 2000)
    hi = quadratic_sequence(sqrt_fixed(2, 512), 2000)
    for a, b in zip(lo.nums, hi.nums):
        assert a / lo.den == b / hi.den


# ---------------------------------------------------------------------------
# pair correlation, three ways


def test_pair_correlation_coincident_pair():
    seq = SequenceModOne([1, 1], 2)
    assert pair_correlation(seq, 1).r == Fraction(1, 2)


def test_pair_correlation_hand_example():
    seq = SequenceModOne([1, 2, 5], 10)
    assert pair_correlation(seq, Fraction(6, 10)).r == Fraction(1, 3)


def test_pair_correlation_zero_window_distinct_points():
    seq = SequenceModOne([1, 2, 4], 7)
    assert pair_correlation(seq, 0).r == 0


def test_pair_correlation_rejects_negative_window():
    seq = equally_spaced(5)
    with pytest.raises(ValueError):
        pair_correlation(seq, -1)


def test_naive_equally_spaced_ring():
    # each point has two neighbours at exactly 1/10: ten unordered pairs
    assert pair_correlation_naive(equally_spaced(10), 1).r == 1


def test_naive_zero_window_coincident():
    seq = SequenceModOne([1, 1], 2)
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
    # pair_correlation takes the residue histogram on some of these, so the
    # sorted window is also called directly
    seq = SequenceModOne([v % 1000 for v in nums], 1000)
    want = pair_correlation_naive(seq, x).pair_count
    assert pair_correlation(seq, x).pair_count == want
    t = (x / seq.n).numerator * seq.den // (x / seq.n).denominator
    assert paircorr._pair_stats(seq, t, t)[0] == want


def _stats_at(seq, t):
    count, forward, wrap, _ = paircorr._pair_stats(seq, t, t)
    return count, paircorr._distance_sum(seq, forward, wrap)


def test_pair_stats_matches_naive_at_every_threshold():
    # every t from below 0 to past den, across the half-circle, on even and
    # odd denominators, with coincident points and both counts and sums
    rng = random.Random(13)
    for den in (1, 2, 3, 7, 10, 16, 25, 38, 39):
        for _ in range(6):
            seq = SequenceModOne([rng.randrange(den) for _ in range(rng.randrange(1, 9))], den)
            for t in range(-1, den + 2):
                assert _stats_at(seq, t) == paircorr._naive_distance_stats(seq, t), (seq.nums, den, t)


# past 2^62 the int64 keys drop low bits: dyadic, non-dyadic and just-past
_KEYED_DENS = (1 << 192, 3 * (1 << 70) + 1, (1 << 62) + 1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_stats_matches_naive_inside_the_key_band(data):
    # points that differ only below the key bits, duplicates, points half a
    # circle apart; thresholds at every gap (exact ties), one either side,
    # and at and past den // 2
    den = data.draw(st.sampled_from(_KEYED_DENS))
    low = 1 << SequenceModOne([0], den).key_shift
    base = data.draw(st.integers(0, den - 1))
    moves = st.sampled_from([0, 1, low - 1, low, low + 1, den // 2, den // 2 + 1, den - 1])
    nums = [(base + data.draw(moves)) % den for _ in range(data.draw(st.integers(1, 8)))]
    seq = SequenceModOne(nums, den)
    assert seq.key_shift > 0
    gaps = {abs(a - b) for a in nums for b in nums}
    ts = {den // 2 - 1, den // 2, den // 2 + 1, den - 1, den, den + 1}
    ts |= {g + e for g in gaps for e in (-1, 0, 1)} | {den - g + e for g in gaps for e in (-1, 0, 1)}
    for t in ts:
        assert _stats_at(seq, t) == paircorr._naive_distance_stats(seq, t), (nums, den, t)


def test_key_band_is_resolved_on_the_exact_integers(monkeypatch):
    # three points under one key and a fourth one key up: every threshold
    # below one key's width needs the exact integers; N = 1, 2, 4
    resolved = []
    monkeypatch.setattr(paircorr.bisect, "bisect_right",
                        lambda *a, _f=paircorr.bisect.bisect_right: resolved.append(a) or _f(*a))
    den = 1 << 192
    shift = SequenceModOne([0], den).key_shift
    p = 12345 << shift
    nums = [p + 5, p, p + 2, p + (1 << shift)]
    counts = {1: (0, 0, 0, 0, 0), 2: (0, 0, 0, 1, 1), 4: (0, 0, 1, 3, 5)}
    for n, want in counts.items():
        seq = SequenceModOne(nums[:n], den)
        for t, count in zip((0, 1, 2, 5, (1 << shift) - 1), want):
            assert _stats_at(seq, t) == paircorr._naive_distance_stats(seq, t)
            assert _stats_at(seq, t)[0] == count
    assert resolved


def _brute_ends(nums, den, t):
    # F[i] = #{j : s_j <= s_i + min(t, den // 2)}, K[i] = #{j : s_j <= s_i +
    # min(t, den - den // 2 - 1) - den}, straight from their definitions
    s = sorted(nums)
    fwd, wide = min(t, den // 2), min(t, den - den // 2 - 1)
    return ([sum(v <= u + fwd for v in s) for u in s],
            [sum(v <= u + wide - den for v in s) for u in s])


def test_wrapped_counts_are_searched_only_over_the_tail():
    # points near both ends of the circle, so wrapped pairs exist; K is zero
    # below the first index whose point reaches s_0 across the wrap, and the
    # indices past it are the only ones searched
    rng = random.Random(31)
    for den in (1000, 1001, 1 << 62, *_KEYED_DENS):
        for t in (den // 50, den // 2 - 1, den // 2, den // 2 + 1):
            for n in (1, 2, 3, 50):
                near = min(t, den // 2)
                nums = [rng.randrange(near) if rng.random() < 0.5 else den - 1 - rng.randrange(near)
                        for _ in range(n)]
                seq = SequenceModOne(nums, den)
                count, forward, wrap, band = paircorr._pair_stats(seq, t, t)
                assert band == 0
                where = (den, t, nums)
                assert (forward.tolist(), wrap.tolist()) == _brute_ends(nums, den, t), where
                assert _stats_at(seq, t) == paircorr._naive_distance_stats(seq, t), where


# limb widths: one limb short, two full limbs (the int64 keys' view), the
# first den with a limb matrix, three limbs, four limbs with a partly used top
# limb, six limbs
_LIMB_DENS = (1 << 32, 1 << 62, (1 << 62) + 1, 1 << 64, (1 << 96) + 1, 1 << 192)


@pytest.mark.parametrize("block", [1, 7])
def test_window_stats_match_naive_across_limb_widths(monkeypatch, block):
    # ragged last slices of the limb matrix and of the dot product; points at
    # 0 and den - 1 (every limb full) and duplicates; thresholds at 0, a
    # random gap, both sides of den // 2 and past den
    monkeypatch.setattr(paircorr, "_DOT_BLOCK", block)
    rng = random.Random(block)
    for den in _LIMB_DENS:
        for n in (1, 3, 10, 50):
            nums = [rng.randrange(den) for _ in range(n)]
            nums[0], nums[-1] = den - 1, 0
            nums += nums[: n // 3]
            seq = SequenceModOne(nums, den)
            assert seq.sorted_keys().tolist() == [v >> seq.key_shift for v in sorted(nums)]
            gap = abs(nums[1 % len(nums)] - nums[2 % len(nums)])
            for t in (0, gap, den // 2 - 1, den // 2, den // 2 + 1, den - gap, den):
                assert _stats_at(seq, t) == paircorr._naive_distance_stats(seq, t), (den, n, t)


def test_distance_sum_stays_exact_at_the_largest_weights():
    # every pair forward, so the sorted weights are 2k - n + 1, up to n - 1;
    # with n past 2^19 + 2^13 and the upper half's low limbs 2^32 - 1, the top
    # 4096-long slice of limb * weight would pass 2^63 (the lower half's low
    # limbs are 0, so no negative slice can wrap it back), so slices must
    # shorten with the weights
    n = (1 << 19) + (1 << 14)
    nums = [(k << 32) | (0xFFFFFFFF if 2 * k >= n else 0) for k in range(n)]
    seq = SequenceModOne(nums, 1 << 62)
    want = sum(v * (2 * k - n + 1) for k, v in enumerate(nums))
    assert _stats_at(seq, seq.den) == (n * (n - 1) // 2, want)


@pytest.mark.parametrize("block", [1, 7, paircorr._PAIR_BLOCK])
def test_blocked_naive_matches_double_loop(monkeypatch, block):
    # one-row and ragged last blocks, on both sides of the 2^62 int64 limit
    monkeypatch.setattr(paircorr, "_PAIR_BLOCK", block)
    rng = random.Random(block)
    for den in (1 << 40, (1 << 40) + 1, 1 << 62, (1 << 62) + 1, 1 << 192):
        for n in (1, 2, 3, 50):
            nums = [rng.randrange(den) for _ in range(n)]
            nums[-1] = nums[0]
            seq = SequenceModOne(nums, den)
            dists = [min(abs(a - b), den - abs(a - b)) for i, a in enumerate(nums) for b in nums[i + 1:]]
            for t in (0, rng.randrange(den), den // 2, den, den + 1):
                near = [d for d in dists if d <= t]
                assert paircorr._naive_distance_stats(seq, t) == (len(near), sum(near))


def test_zero_window_bisects_almost_no_index(monkeypatch):
    # at X = 0 the certified threshold is far below one key's width; every
    # j <= i is in the window, so an index whose own key is the last one it
    # took needs no bisection
    calls = []
    monkeypatch.setattr(paircorr.bisect, "bisect_right",
                        lambda *a, _f=paircorr.bisect.bisect_right: calls.append(a) or _f(*a))
    n = 20_000
    seq = quadratic_sequence(sqrt_fixed(2, 192), n)
    assert seq.err > 0
    count = pair_correlation(seq, 0).pair_count
    assert count == pair_correlation(_exact_copy(seq), 0).pair_count
    assert len(calls) < n // 100


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
    seq = SequenceModOne([1], 3)
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
    seq = SequenceModOne([1], 3)
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
    seq = SequenceModOne([1, 5, 7], 9)
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


def test_identities_coverage_integrals_match_arc_overlaps():
    # int L is the total arc length and int L^2 the sum over ordered pairs of
    # arc overlaps, also for N/2 < x <= N where no identity pins int L^2;
    # points at 0, duplicates and arcs wrapping past 0 included
    rng = random.Random(31)
    for _ in range(40):
        den = rng.choice([1, 2, 5, 12, 97])
        nums = [0, 0] + [rng.randrange(den) for _ in range(rng.randrange(1, 12))]
        seq = SequenceModOne(nums, den)
        n = seq.n
        dists = [Fraction(min(abs(a - b), den - abs(a - b)), den) for a in nums for b in nums]
        for x in (Fraction(rng.randrange(1, 4 * n + 1), 4), Fraction(n, 2) + Fraction(1, 3), Fraction(n)):
            w = x / n
            rep = verify_integral_identities(seq, x)
            assert rep.int_l == n * w
            assert rep.int_l2 == sum(max(0, w - d) + max(0, w - (1 - d)) for d in dists)


def test_identities_reject_oversized_window(monkeypatch):
    with pytest.raises(ValueError):
        verify_integral_identities(equally_spaced(3), 4)
    # one point repeated SWEEP_GUARD + 1 times, held as an array: the guard
    # is on N, whatever the points
    many = SequenceModOne.from_array(np.zeros(paircorr.SWEEP_GUARD + 1, np.int64), 1)
    with pytest.raises(CostGuardError):
        verify_integral_identities(many, 1)
    # the walk for the integral of R counts the pairs it meets
    monkeypatch.setattr(paircorr, "WALK_GUARD", 40)
    seq = equally_spaced(10)
    assert verify_integral_identities(seq, 4).all_ok  # 40 pairs, 10 of them wrapped
    with pytest.raises(CostGuardError):
        verify_integral_identities(seq, 5)  # all 45


def _sweep_oracle(seq, x):
    # int L and int L^2 by a Python sweep over the 2N arc ends: scaled by
    # den * k with k = 2N * x.denominator, the arc about v/den runs from
    # v*k - h to v*k + h (mod den * k), h = x.numerator * den, adding +1 at
    # its start and -1 at its end; arcs whose start is not below their end
    # (wrapping past 0, or the whole circle at x = N) cover the start
    k = 2 * seq.n * x.denominator
    scale = seq.den * k
    h = x.numerator * seq.den
    events = []
    cur = 0
    for v in seq.nums:
        s = (v * k - h) % scale
        e = (v * k + h) % scale
        events += [(s, 1), (e, -1)]
        cur += s >= e
    int_l = int_l2 = prev = 0
    for pos, step in sorted(events) + [(scale, 0)]:
        int_l += cur * (pos - prev)
        int_l2 += cur * cur * (pos - prev)
        cur += step
        prev = pos
    return Fraction(int_l, scale), Fraction(int_l2, scale)


def _identity_oracle(seq, x):
    # every field from the Python sweep and the brute-force pair distances
    x = Fraction(x)
    n = seq.n
    int_l, int_l2 = _sweep_oracle(seq, x)
    tau = x / n
    count, dist_sum = paircorr._naive_distance_stats(seq, scaled_floor(tau, seq.den))
    r0 = 1 + Fraction(2, n) * (count - Fraction(dist_sum, seq.den) / tau)
    r_avg = 1 + 2 * (count * x - n * Fraction(dist_sum, seq.den)) / n / x
    return IdentityReport(int_l, int_l2, r0, r_avg, x, int_l == x, int_l2 == x * r0, 2 * x <= n, r_avg == r0)


def _oracle_windows(rng, n):
    # X with denominators up to 7, N/2 < X < N, N/2 and N
    xs = {Fraction(rng.randrange(1, 7 * n + 1), rng.randrange(1, 8)) for _ in range(4)}
    xs |= {Fraction(n, 2), Fraction(n), Fraction(3 * n, 4) + Fraction(1, 7)}
    return sorted(x for x in xs if 0 < x <= n)


@pytest.mark.parametrize("den", [1, 2, 7, 1 << 20, 1 << 62, 3 ** 40])
def test_identities_match_the_oracles(den):
    # list-built sequences on both sides of 2^62 (3^40 is past it and not a
    # power of two): random points, points at 0 and den - 1, duplicates
    rng = random.Random(den)
    for n in (1, 2, 3, 5, 12, 30):
        nums = [rng.randrange(den) for _ in range(n)]
        nums[0] = 0
        nums[-1] = den - 1
        nums += nums[: n // 2]
        seq = SequenceModOne(nums, den)
        for x in _oracle_windows(rng, seq.n):
            assert verify_integral_identities(seq, x) == _identity_oracle(seq, x), (den, nums, x)


@pytest.mark.parametrize("alpha", [Fraction(38717, 92551), Fraction(3, 7), sqrt_fixed(2, 192), sqrt_fixed(3, 256)])
def test_identities_match_the_oracles_on_array_built_sequences(alpha):
    # int64 and 2^bits limb builds: the routes read the array alone and
    # leave the Python-int numerators unmade
    rng = random.Random(str(alpha))
    for n in (1, 7, 300):
        seq = quadratic_sequence(alpha, n)
        reports = {x: verify_integral_identities(seq, x) for x in _oracle_windows(rng, n)}
        assert seq._nums is None
        for x, rep in reports.items():
            assert rep == _identity_oracle(seq, x), (alpha, n, x)


def test_identity_routes_match_the_oracles_inside_the_key_band():
    # points that differ only below the key bits, duplicates and points half
    # a circle apart, as in the pair-stats test above: the walk at every gap
    # and one either side, the sweep at windows whose threshold lands there,
    # where a start and an end share a key and _ranks reads their exact ints
    settled = []

    def spy(rows, _f=paircorr._limb_ints):
        if sys._getframe(1).f_code.co_name == "_ranks" and len(rows):
            settled.append(len(rows))
        return _f(rows)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def check(data):
        den = data.draw(st.sampled_from(_KEYED_DENS + (3 ** 40,)))
        low = 1 << SequenceModOne([0], den).key_shift
        base = data.draw(st.integers(0, den - 1))
        moves = st.sampled_from([0, 1, low - 1, low, low + 1, 2 * low, den // 2, den // 2 + 1, den - 1])
        nums = [(base + data.draw(moves)) % den for _ in range(data.draw(st.integers(1, 8)))]
        seq = SequenceModOne(nums, den)
        n = seq.n
        gaps = {abs(a - b) for a in nums for b in nums}
        ts = {g + e for g in gaps for e in (-1, 0, 1)} | {den - g + e for g in gaps for e in (-1, 0, 1)}
        ts |= {den // 2 - 1, den // 2, den // 2 + 1, den}
        for t in sorted(v for v in ts if v >= 0):
            assert paircorr._walk_distance_stats(seq, t) == paircorr._naive_distance_stats(seq, t), (nums, den, t)
            x = Fraction(t * n, den) + Fraction(data.draw(st.integers(0, 6)), 7 * den)
            if 0 < x <= n:
                with mock.patch.object(paircorr, "_limb_ints", spy):
                    got = paircorr._coverage_integrals(seq, x)
                assert got == _sweep_oracle(seq, x), (nums, den, x)

    check()
    assert settled


_WRAP_DENS = (1 << 64, 3 ** 40, 1 << 192)


@pytest.mark.parametrize("den", _WRAP_DENS)
def test_add_mod_settles_the_wrap_bound_on_the_exact_ints(den):
    # points under the key of m = den - c, on both sides of m, with m itself
    # a point or not, and m at the first, last or a middle value of its key:
    # the cut is #{v < m} and the rotation is the sorted (v + c) mod den
    unit = 1 << SequenceModOne([0], den).key_shift
    rng = random.Random(den)
    for m in (den, 1, den - 1, unit, 2 * unit - 1, *(rng.randrange(1, den) for _ in range(12))):
        base = m // unit * unit
        near = {m - 1, m + 1, base, base + 1, base + unit - 1, base - 1, base + unit, 0, den - 1}
        for nums in ([v for v in near if 0 <= v < den and v != m], [v for v in near | {m} if 0 <= v < den]):
            c = den - m
            cut, rotated = paircorr._add_mod(SequenceModOne(nums, den), c)
            assert cut == sum(v < m for v in nums), (den, m, nums)
            assert paircorr._limb_ints(rotated) == sorted((v + c) % den for v in nums), (den, m, nums)


@pytest.mark.parametrize("den", [1, 2])
def test_add_mod_of_zero_keeps_every_point(den):
    nums = [0] * 3 + [den - 1] * 2
    cut, rotated = paircorr._add_mod(SequenceModOne(nums, den), 0)
    assert cut == len(nums)
    assert rotated.tolist() == sorted(nums)


@pytest.mark.parametrize("den", _WRAP_DENS)
def test_ranks_settle_key_ties_on_the_exact_ints(den):
    # starts and ends under three shared keys that differ below the key
    # bits, duplicates included: ranks on both sides match bisect on the ints
    shift = SequenceModOne([0], den).key_shift
    rng = random.Random(den)
    for _ in range(30):
        pool = [(rng.randrange(den >> shift) << shift) + d for _ in range(3) for d in (0, 1, 2, (1 << shift) - 1)]
        ends = sorted(rng.choices(pool, k=rng.randrange(1, 10)))
        starts = rng.choices(pool, k=rng.randrange(1, 10))
        for side, find in (("left", bisect.bisect_left), ("right", bisect.bisect_right)):
            ranks = paircorr._ranks(paircorr._limb_rows(ends, den), paircorr._limb_rows(starts, den), shift, side)
            assert ranks.tolist() == [find(ends, v) for v in starts], (den, ends, starts, side)


@pytest.mark.parametrize("den", [7, 1 << 62, 3 ** 40, 1 << 192])
def test_coverage_sweep_with_arc_ends_at_zero(den):
    # (A, B) = divmod(h, k) as in the sweep: a point at A + [B > 0] starts its
    # arc exactly at w = 0, one at den - A ends it there, and their
    # neighbours just miss
    for x in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(5, 7), Fraction(6)):
        k = 2 * 6 * x.denominator
        a, b = divmod(x.numerator * den, k)
        starts = [a + (b > 0), a + (b > 0) - 1, a + (b > 0) + 1, 0, den // 3, den // 3]
        ends = [den - a, den - a - 1, den - a + 1, den - 1, den // 3, den // 2]
        for nums in (starts, ends, starts[:3] + ends[:3]):
            seq = SequenceModOne([v % den for v in nums], den)
            assert paircorr._coverage_integrals(seq, x) == _sweep_oracle(seq, x), (den, x, nums)


def test_walk_settles_the_key_band_on_the_exact_integers(monkeypatch):
    # three points under one key and a fourth one key up: a gap within one
    # key unit of the threshold is read off the exact numerators of its pair
    settled = []
    monkeypatch.setattr(paircorr, "_limb_ints", lambda rows, _f=paircorr._limb_ints: settled.append(len(rows)) or _f(rows))
    den = 1 << 192
    shift = SequenceModOne([0], den).key_shift
    p = 12345 << shift
    seq = SequenceModOne([p + 5, p, p + 2, p + (1 << shift)], den)
    for t, count in zip((0, 1, 2, 5, (1 << shift) - 1, 1 << shift), (0, 0, 1, 3, 5, 6)):
        assert paircorr._walk_distance_stats(seq, t) == paircorr._naive_distance_stats(seq, t)
        assert paircorr._walk_distance_stats(seq, t)[0] == count
    assert settled


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_certified_window_on_keyed_dens_matches_its_exact_copy(data):
    # err from one ulp to several key widths; distances at lo, lo + 1, hi and
    # hi + 1, their wrapped mirrors, and a key width either side, from a base
    # point on either side of a key edge; the band is (lo, hi]
    den = data.draw(st.sampled_from(_KEYED_DENS))
    width = 1 << SequenceModOne([0], den).key_shift
    e = data.draw(st.sampled_from([1, 2, width // 3, width - 1, width, width + 1, 3 * width + 5]))
    tau = data.draw(st.sampled_from([0, 1, 2 * e, width - 1, 5 * width,
                                     den // 4, den // 2 - 1, den // 2]))
    tau += data.draw(st.integers(0, 2 * width))
    lo, hi = max(tau - 2 * e, 0), tau + 2 * e
    edge = data.draw(st.integers(1, den // width - 1)) * width
    base = edge + data.draw(st.sampled_from([-1, 0, 1]))
    dists = [d + k for d in (lo, hi) for k in (0, 1)]
    dists += [d + k * width for d in dists[:] for k in (-1, 1)]
    dists += [den - d for d in dists]
    moves = st.sampled_from([0, *dists])
    nums = [(base + data.draw(moves)) % den for _ in range(data.draw(st.integers(2, 7)))]
    seq = SequenceModOne(nums, den, err=Fraction(e, den))
    x = Fraction(tau * seq.n, den)
    assert _band(seq, x) == (lo, hi)
    exact = _exact_copy(seq)
    at_lo, at_hi = (paircorr._naive_distance_stats(exact, t)[0] for t in (lo, hi))
    assert paircorr._pair_stats(seq, lo, hi)[::3] == (at_hi, at_hi - at_lo)
    if at_lo != at_hi:
        with pytest.raises(PrecisionError):
            pair_correlation(seq, x)
    else:
        assert pair_correlation(seq, x).pair_count == pair_correlation_naive(exact, x).pair_count


def test_certified_window_runs_one_full_length_search(monkeypatch):
    # the forward ends take the only length-N search; the wrapped ends search
    # a tail of about X indices, the band a handful
    n = 20_000
    seq = quadratic_sequence(sqrt_fixed(2, 192), n)
    assert seq.err > 0
    seq.sorted_keys()
    sizes = []
    search = np.searchsorted

    def spy(keys, values, *args, **kwargs):
        sizes.append(np.size(values))
        return search(keys, values, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", spy)
    certified = pair_correlation(seq, 2).pair_count
    assert sizes.count(n) == 1
    assert sum(sizes) < n + n // 100
    monkeypatch.undo()
    assert certified == pair_correlation(_exact_copy(seq), 2).pair_count


_WRAP = 14 << 60  # 3 * (15 * 2^60) = 13 * 2^60 = den - t (mod 2^64)


@pytest.mark.parametrize(
    "offset, err_ulp, raises",
    [(1, 1, True), (2, 1, False), (1, 0, False), (-1, 1, False), (_WRAP + 1, 1, False)],
)
def test_uv_raises_inside_its_guard_band(offset, err_ulp, raises):
    # n = 2 has the single pair u = 1, v = 3: the scaled point 3a lands
    # 3 * offset above t = 3 * 2^60, and the guard is 3 err_ulp wide; the
    # last two land exactly at t - 3 and den - t + 3, counted for certain
    alpha = FixedReal((1 << 60) + offset, 64, err_ulp)
    x = Fraction(3, 8)
    if raises:
        with pytest.raises(PrecisionError):
            pair_correlation_uv(alpha, 2, x)
    else:
        assert pair_correlation_uv(alpha, 2, x).pair_count == (offset in (-1, _WRAP + 1))


def _spy_pair_stats(monkeypatch):
    calls = []
    original = paircorr._pair_stats
    monkeypatch.setattr(paircorr, "_pair_stats",
                        lambda seq, lo, hi: calls.append((lo, hi)) or original(seq, lo, hi))
    return calls


def test_certified_window_counts_once_exact_window_once(monkeypatch):
    # one window pass counts both ends of the certified band, and the
    # weighted correlation at the same X reads the statistic that count
    # kept, on a certified window and on an exact one
    calls = _spy_pair_stats(monkeypatch)
    seq = quadratic_sequence(sqrt_fixed(2, 192), 500)
    lo, hi = _band(seq, 1)
    assert lo < hi
    certified = pair_correlation(seq, 1).pair_count
    assert calls == [(lo, hi)]
    weighted_pair_correlation(seq, 1)
    assert calls == [(lo, hi)]
    calls.clear()
    exact = _exact_copy(seq)
    assert pair_correlation(exact, 1).pair_count == certified
    weighted_pair_correlation(exact, 1)
    assert calls == [_band(exact, 1)]


def test_weighted_after_pair_correlation_matches_a_fresh_copy():
    # R and R0 at X, at another X', at X again and R at X = 0, on each form
    # a sequence holds: the residue histogram (den 997), int64 sorted
    # numerators (den 2^16, past the histogram's memory rule) and certified
    # limb rows; each value against a fresh exact copy asked only for it
    forms = [(Fraction(5, 997), True), (Fraction(5, 1 << 16), False), (sqrt_fixed(2, 192), False)]
    for alpha, served in forms:
        seq = quadratic_sequence(alpha, 700)
        assert (seq.key_shift > 0) == (seq.err > 0) == isinstance(alpha, FixedReal)
        for x in (2, Fraction(1, 3), 2, 0):
            assert _served(seq, scaled_floor(Fraction(x, seq.n), seq.den)) == served
            assert pair_correlation(seq, x) == pair_correlation(_exact_copy(seq), x)
            if x:
                assert weighted_pair_correlation(seq, x) == weighted_pair_correlation(_exact_copy(seq), x)


def test_distance_sum_runs_only_under_the_weighted_correlation(monkeypatch):
    # R reads the window count alone; R0 sums the distances of the window it
    # kept, once, or of the window it counts and certifies itself
    calls = []
    original = paircorr._distance_sum
    monkeypatch.setattr(paircorr, "_distance_sum",
                        lambda seq, forward, wrap: calls.append(seq) or original(seq, forward, wrap))
    certified = quadratic_sequence(sqrt_fixed(2, 192), 500)
    for seq in (certified, _exact_copy(certified)):
        assert not _served(seq, scaled_floor(Fraction(16, seq.n), seq.den))
        for x in (0, Fraction(1, 2), 1, 16, 1):
            pair_correlation(seq, x)
        assert calls == []
        weighted_pair_correlation(seq, 1)
        weighted_pair_correlation(seq, 1)
        assert calls == [seq]
        weighted_pair_correlation(seq, 2)
        assert calls == [seq, seq]
        calls.clear()


def test_correlation_rows_read_r0_past_zero_from_one_sequence(monkeypatch):
    built = []
    original = paircorr.quadratic_sequence
    monkeypatch.setattr(paircorr, "quadratic_sequence", lambda alpha, n: built.append(n) or original(alpha, n))
    xs = [Fraction(0), Fraction(1, 2), 2]
    rows = paircorr.correlation_rows(parse_alpha("sqrt:2"), 300, xs)
    assert built == [300]
    seq = original(sqrt_fixed(2, 192), 300)
    assert [r0 for _, r0 in rows] == [None] + [weighted_pair_correlation(seq, x).r0 for x in xs[1:]]
    assert [res for res, _ in rows] == [pair_correlation(seq, x) for x in xs]


@pytest.mark.parametrize("d, raises", [(994, False), (995, True), (1006, True), (1007, False)])
def test_weighted_call_alone_certifies_its_window(d, raises):
    # no count at X comes first: the weighted correlation certifies the band
    # (994, 1006] itself, as pair_correlation does
    seq = SequenceModOne([0, d], 10_000, err=Fraction(3, 10_000))
    x = Fraction(1, 5)
    if raises:
        with pytest.raises(PrecisionError):
            weighted_pair_correlation(seq, x)
    else:
        assert weighted_pair_correlation(seq, x).r0 == weighted_pair_correlation(_exact_copy(seq), x).r0


# ---------------------------------------------------------------------------
# the residue histogram: exact sequences over a small denominator


def _sorted_search(fn, seq, x):
    # fn on a fresh exact copy, with the residue histogram serving nothing
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paircorr, "HIST_COST", 0)
        return fn(_exact_copy(seq), x)


def _served(seq, t):
    return (seq.den * (min(t, (seq.den - 1) // 2) + 1) <= paircorr.HIST_COST * seq.n
            and seq.den <= paircorr.HIST_DEN * seq.n)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_histogram_matches_the_sorted_window_and_naive(data):
    # quadratic numerators over a reduced a/q, over q with gcd(a, q) > 1 and
    # arbitrary ones; thresholds at 0, around den/2 (the d = den/2 tie on
    # even dens) and past den, on both sides of the cost rule
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 12, 97, 128, 809]) | st.integers(1, 1000))
    n = data.draw(st.integers(1, 200))
    kind = data.draw(st.sampled_from(["reduced", "shared", "arbitrary"]))
    if kind == "arbitrary":
        seq = SequenceModOne(data.draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n)), den)
    else:
        a = data.draw(st.integers(0, den - 1)) * data.draw(st.sampled_from([1, 2, 3, 6])) % den
        seq = (quadratic_sequence(Fraction(a, den), n) if kind == "reduced"
               else SequenceModOne([a * k * k % den for k in range(1, n + 1)], den))
    q = seq.den
    ts = {0, 1, q // 2 - 1, q // 2, q // 2 + 1, q - 1, q, q + 1, data.draw(st.integers(0, 2 * q))}
    for t in sorted(t for t in ts if t >= 0):
        want = _stats_at(seq, t)
        assert want == paircorr._naive_distance_stats(seq, t)
        got = paircorr._histogram_stats(seq, t)
        assert (got is not None) == _served(seq, t)
        assert got in (None, want), (seq.nums, q, t)
        x = Fraction(t * n, q)
        assert pair_correlation(seq, x).pair_count == want[0]
        if x:
            assert weighted_pair_correlation(seq, x).r0 == _sorted_search(weighted_pair_correlation, seq, x).r0


@pytest.mark.parametrize(
    "nums, den, x",
    [
        ([0] * 5, 1, 0),  # den 1: every pair at distance 0
        ([0] * 5, 1, 3),
        ([0, 1, 1, 0, 1], 2, 0),  # den 2: the only nonzero distance is den/2
        ([0, 1, 1, 0, 1], 2, 2),
        ([3], 7, 0),  # N = 1
        ([3], 7, 1),
        ([0, 5, 5, 2, 7, 9], 10, 5),  # even den, t = den/2 and past it
        ([0, 5, 5, 2, 7, 9], 10, 9),
        ([0, 4, 4, 8, 8, 0], 12, Fraction(6, 5)),  # gcd(a, q) > 1: every residue a multiple of 4
    ],
)
def test_histogram_edge_cases_match_the_sorted_search(monkeypatch, nums, den, x):
    seq = SequenceModOne(nums, den)
    calls = _spy_pair_stats(monkeypatch)
    got = pair_correlation(seq, x)
    r0 = weighted_pair_correlation(seq, x).r0 if x else None
    assert calls == []
    assert got.method == "sorted-window"
    assert got.pair_count == pair_correlation_naive(seq, x).pair_count
    assert got.pair_count == _sorted_search(pair_correlation, seq, x).pair_count
    if x:
        assert r0 == _sorted_search(weighted_pair_correlation, seq, x).r0


@pytest.mark.parametrize("q", [98, 128])
def test_histogram_reads_the_half_turn_mirror_once(monkeypatch, q):
    # at even q and t >= q/2 the kernel runs to lag q/2, whose pairs it
    # counts twice; quadratic residues are sparse enough for the outer
    # products (44 of 98 at 3/98), random ones take np.correlate
    lags = []
    monkeypatch.setattr(paircorr, "circular_autocorr",
                        lambda h, k: lags.append(k) or modcount.circular_autocorr(h, k))
    correlated = []
    original = np.correlate
    monkeypatch.setattr(np, "correlate", lambda *a: correlated.append(1) or original(*a))
    n = 2 * q
    rng = random.Random(q)
    paths = set()
    for seq in (quadratic_sequence(Fraction(3, q), n), SequenceModOne([rng.randrange(q) for _ in range(n)], q)):
        for t in (q // 2, q // 2 + 1, q - 1, q):
            lags.clear()
            correlated.clear()
            assert paircorr._histogram_stats(seq, t) == paircorr._naive_distance_stats(seq, t), (seq.nums, t)
            assert lags == [q // 2]
            paths.add(bool(correlated))
    assert paths == {True, False}


@pytest.mark.parametrize("n, served", [(8, True), (7, False)])
def test_histogram_cost_rule_boundary(monkeypatch, n, served):
    # den HIST_COST / 2 at t = den/2 - 1 costs den * den/2 = 8 HIST_COST:
    # served from N = 8, and den <= HIST_DEN * N on both sides
    den = paircorr.HIST_COST // 2
    t = den // 2 - 1
    assert den <= paircorr.HIST_DEN * 7
    rng = random.Random(n)
    seq = SequenceModOne([rng.randrange(den) for _ in range(n)], den)
    x = Fraction(t * n, den)
    calls = _spy_pair_stats(monkeypatch)
    count = pair_correlation(seq, x).pair_count
    r0 = weighted_pair_correlation(seq, x).r0
    assert calls == ([] if served else [(t, t)])  # the weighted call reads the kept count
    assert count == pair_correlation_naive(seq, x).pair_count
    assert r0 == _sorted_search(weighted_pair_correlation, seq, x).r0


@pytest.mark.parametrize("n, served", [(16, True), (15, False)])
def test_histogram_memory_rule_boundary(monkeypatch, n, served):
    # den 16 HIST_DEN at t = 0 costs den <= 64 N, but holds den counts:
    # served from N = 16
    den = 16 * paircorr.HIST_DEN
    rng = random.Random(n)
    seq = SequenceModOne([rng.randrange(den) for _ in range(n)], den)
    x = Fraction(n, 2 * den)  # t = 0
    assert den <= paircorr.HIST_COST * n
    calls = _spy_pair_stats(monkeypatch)
    count = pair_correlation(seq, x).pair_count
    r0 = weighted_pair_correlation(seq, x).r0
    assert calls == ([] if served else [(0, 0)])
    assert (seq._hist is not None) == served
    assert count == pair_correlation_naive(seq, x).pair_count
    assert r0 == _sorted_search(weighted_pair_correlation, seq, x).r0


def test_histogram_serves_only_exact_sequences():
    seq = SequenceModOne([0, 1, 1], 2, err=Fraction(1, 1000))
    assert paircorr._histogram_stats(seq, 0) is None
    assert paircorr._histogram_stats(_exact_copy(seq), 0) == (1, 0)


def test_histogram_route_counts_each_window_once(monkeypatch):
    # R and R0 at one X are one histogram pass; another X is one more
    seq = quadratic_sequence(Fraction(5, 997), 700)
    want = {x: (_sorted_search(pair_correlation, seq, x), _sorted_search(weighted_pair_correlation, seq, x))
            for x in (2, 3)}
    calls = []
    original = paircorr._histogram_stats
    monkeypatch.setattr(paircorr, "_histogram_stats",
                        lambda seq, t: calls.append(t) or original(seq, t))
    for x in (2, 2, 3):
        assert (pair_correlation(seq, x), weighted_pair_correlation(seq, x)) == want[x]
    assert calls == [2, 4]


# ---------------------------------------------------------------------------
# oracles that share no code with SequenceModOne: the Python-int numerators,
# sorted(), int.to_bytes, the naive count and the u/v substitution


def _bytes_limbs(s, den):
    # int.to_bytes rows of the Python ints s: two limbs a row up to 2^62 (the
    # int64 keys' view), as many as den - 1 needs past it
    size = max(2, -(-(den - 1).bit_length() // 32))
    return np.frombuffer(b"".join(v.to_bytes(4 * size, "little") for v in s), "<u4").reshape(len(s), size)


def _sorted_list_stats(s, den):
    # t -> count of the pairs at circular distance <= t (t >= 0) and, with
    # sums, their scaled distance sum, by exact search and prefix sums over an
    # object array of the Python-sorted ints s: i < j with gap g = s_j - s_i
    # is in at distance g when g <= min(t, den // 2), and at distance den - g
    # when g > den // 2 and g >= den - t
    n = len(s)
    v = np.array(s, dtype=object)
    prefix = np.concatenate(([0], np.cumsum(v)))
    i = np.arange(n)

    def stats(t, sums=True):
        f = np.maximum(np.searchsorted(v, v + min(t, den // 2), "right"), i + 1)
        w = np.maximum(np.searchsorted(v, v + max(den // 2 + 1, den - t)), f)
        count = int((f - i - 1).sum() + (n - w).sum())
        if not sums:
            return count, None
        total = prefix[f] - prefix[i + 1] - (f - i - 1) * v + (n - w) * (den + v) - (prefix[n] - prefix[w])
        return count, int(total.sum())
    return stats


def _check_windows(seq, s, windows, alpha=None):
    # each window certified or raising, as the sorted ints s say at both ends
    # of the error band (both t at err = 0), R0 from the same pairs, and the
    # count against the u/v substitution wherever that certifies too
    stats = _sorted_list_stats(s, seq.den)
    for x in windows:
        lo, hi = _band(seq, x)
        at_lo, at_hi = stats(lo, sums=False), stats(hi)
        if at_lo[0] != at_hi[0]:
            with pytest.raises(PrecisionError):
                pair_correlation(seq, x)
            continue
        count, dist_sum = at_hi
        assert pair_correlation(seq, x).pair_count == count, x
        if x:
            tau = Fraction(x) / seq.n
            want = 1 + Fraction(2, seq.n) * (count - Fraction(dist_sum, seq.den) / tau)
            assert weighted_pair_correlation(seq, x).r0 == want, x
        if alpha is not None:
            try:
                uv = pair_correlation_uv(alpha, seq.n, x).pair_count
            except PrecisionError:
                continue
            assert uv == count, x


@pytest.mark.parametrize(
    "den",
    [(1 << 31) - 1, 1 << 31, 1 << 51, (1 << 51) + 1, (1 << 62) - 1, 1 << 62, (1 << 62) + 1],
)
def test_quadratic_numerators_are_exact_at_the_int64_build_limit(den):
    # the int64 build serves den < 2^31 by direct products and den up to
    # 2^62 by float quotients, past 2^51 while n^2 <= 2^51 (n = 10^5 here;
    # the other side of that rule is test_int64_build_rule_edges); the list
    # build serves 2^62 + 1
    n = 10 ** 5
    rng = random.Random(den)
    seeded = next(a for a in iter(lambda: rng.randrange(2, den - 1), None) if math.gcd(a, den) == 1)
    for a in (1, den - 1, seeded):
        seq = quadratic_sequence(Fraction(a, den), n)
        assert seq.den == den
        assert (seq._nums is None) == (den <= 1 << 62)  # no Python list until nums is read
        want = [(a * k * k) % den for k in range(1, n + 1)]
        s = sorted(want)
        assert seq.sorted_keys().tolist() == [v >> seq.key_shift for v in s]
        assert np.array_equal(seq.sorted_limbs(), _bytes_limbs(s, den))
        assert seq.nums == want
        assert type(seq.nums[-1]) is int
        assert seq.sorted_nums() == s


def test_int64_build_rule_edges():
    # past 2^51 the int64 build needs n^2 <= 2^51; up to it any n whose
    # k mod den squares below 2^63; past 2^62 never
    edge = math.isqrt(1 << 51)
    for den in ((1 << 51) + 1, (1 << 62) - 1, 1 << 62):
        assert paircorr._int64_build(edge, den) and not paircorr._int64_build(edge + 1, den)
    last = math.isqrt((1 << 63) - 1)
    for den in (1 << 40, 1 << 51):
        assert paircorr._int64_build(last, den) and not paircorr._int64_build(last + 1, den)
    assert paircorr._int64_build(10 ** 12, (1 << 31) + 1)  # k mod den squares below 2^62
    assert not paircorr._int64_build(1, (1 << 62) + 1)
    assert not paircorr._int64_build(1, 1 << 63)


def test_quadratic_sequence_histogram_is_a_bincount_of_its_array():
    # on both sides of den = N the histogram is built only when a window
    # takes it, from the held int64 array: no sort and no Python list
    n = 1000
    for den in (n, n + 1):
        seq = quadratic_sequence(Fraction(3, den), n)
        assert seq._hist is None
        pair_correlation(seq, 1)
        weighted_pair_correlation(seq, 1)
        assert seq._nums is None and seq._keys is None
        want = Counter(seq.nums)
        assert seq._hist.tolist() == [want[r] for r in range(den)]


def test_int64_sequence_sorts_once_and_reads_ints_off_the_sort():
    # a den past the histogram's rules: one np.sort serves the keys, the
    # limbs view and sorted_nums(), and nums is the held array, unsorted
    alpha = Fraction(494291281865, 4008405881372)
    seq = quadratic_sequence(alpha, 3000)
    want = [494291281865 * k * k % seq.den for k in range(1, 3001)]
    s = sorted(want)
    assert seq._values is not None and seq._keys is None
    _check_windows(seq, s, (1,), alpha)
    assert seq._nums is None and seq._sorted is None
    assert np.shares_memory(seq.sorted_limbs(), seq.sorted_keys())
    assert seq.sorted_keys().tolist() == s
    assert np.array_equal(seq.sorted_limbs(), _bytes_limbs(s, seq.den))
    assert seq.sorted_nums() == s
    assert seq.nums == want
    assert pair_correlation_naive(seq, 16).pair_count == pair_correlation_uv(alpha, 3000, 16).pair_count


# ---------------------------------------------------------------------------
# sequences over den = 2^bits: the limb product against the Python-int list


_WINDOWS = tuple(Fraction(x) for x in ("1/4", "1/2", "1", "2", "4", "8", "16"))  # the benchmark's


def _check_limb_build(seq, alpha, windows=_WINDOWS):
    # seq = quadratic_sequence(alpha, n): its keys and limbs before any Python
    # int exists, against sorted() of the Python-int numerators and their
    # int.to_bytes rows; then the windows (the u/v substitution up to n =
    # 1000, where it is quick); then the ints read off the limbs
    n = seq.n
    num, den, err_ulp = scaled(alpha)
    want = [(num % den) * k * k % den for k in range(1, n + 1)]
    s = sorted(want)
    assert seq._order is not None and seq._nums is None and seq._sorted is None
    assert (seq.den, seq.err) == (den, Fraction(err_ulp * n * n, den))
    assert seq.sorted_keys().tolist() == [v >> seq.key_shift for v in s]
    assert np.array_equal(seq.sorted_limbs(), _bytes_limbs(s, den))
    _check_windows(seq, s, windows, alpha if n <= 1000 else None)
    assert seq.sorted_nums() == s
    assert seq.nums == want
    assert type(seq.nums[-1]) is int


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_limb_build_matches_the_list_build(data):
    # random mantissas, mantissas whose products repeat (equal keys), and
    # every err_ulp from 0 to the largest the precision guard lets through
    bits = data.draw(st.sampled_from([64, 65, 100, 192, 384, 1024]))
    n = data.draw(st.integers(1, 5000))
    repeats = st.integers(0, 15).map(lambda r: (2 * r + 1) << bits - 4)
    mantissa = data.draw(st.integers(0, (1 << bits) - 1) | repeats)
    widest = (1 << bits) // (n ** 4 << 21)
    err_ulp = data.draw(st.integers(0, widest) | st.sampled_from([0, widest]))
    alpha = FixedReal(mantissa, bits, err_ulp)
    _check_limb_build(quadratic_sequence(alpha, n), alpha, (0, *_WINDOWS))


def test_limb_build_matches_the_list_build_at_desk_scale():
    alpha = sqrt_fixed(2, 192)
    _check_limb_build(quadratic_sequence(alpha, 10 ** 5), alpha)


# a * 3 = -1 (mod 2^64): a * 2^2 = a * 1^2 - 1, one key apart from a at most;
# a = 1 (mod 4), so both share the key a >> 2, larger one first
_TIED = FixedReal(0x5555555555555555, 64, 0)


def test_equal_keys_are_ordered_on_every_limb(monkeypatch):
    # one lexsort a build, counted around quadratic_sequence alone
    lexsorts = []
    for n in (2, 3, 100):
        with monkeypatch.context() as mp:
            mp.setattr(np, "lexsort", lambda keys, _f=np.lexsort: lexsorts.append(keys) or _f(keys))
            seq = quadratic_sequence(_TIED, n)
        _check_limb_build(seq, _TIED, (0, 1))
        s = seq.sorted_nums()
        assert s.index(_TIED.mantissa - 1) + 1 == s.index(_TIED.mantissa)
        for x in (0, 1, 16):
            assert pair_correlation(seq, x).pair_count == pair_correlation_naive(seq, x).pair_count
    assert len(lexsorts) == 3


def test_bisection_reads_the_sorted_ints_off_the_limbs(monkeypatch):
    # at X = 0 the tied pair's first index takes the second one's key, so
    # _upto_counts bisects on the exact ints, which only the limbs hold: it
    # reads the rows of that index and of its bracket, not the sorted list
    read = []
    monkeypatch.setattr(paircorr, "_limb_ints", lambda rows, _f=paircorr._limb_ints: read.append(_f(rows)) or read[-1])
    seq = quadratic_sequence(_TIED, 2)
    assert pair_correlation(seq, 0).pair_count == 0
    assert read == [[_TIED.mantissa - 1, _TIED.mantissa]]  # the index's row, then its bracket's one
    assert seq._sorted is None
    assert pair_correlation(seq, 1).pair_count == 1
    assert seq._sorted is None


def test_limb_sequence_rebuilds_from_its_nums():
    # what the benchmark's err-0 recount does: the positional constructor on
    # nums read off the limbs gives the sorted ints and limb rows of sorted()
    # and int.to_bytes, the counts of the u/v substitution, and the counts of
    # the certified sequence it copies
    alpha = sqrt_fixed(2, 192)
    seq = quadratic_sequence(alpha, 3000)
    copy = SequenceModOne(seq.nums, seq.den, seq.provenance)
    assert copy.provenance == "quadratic" and copy.err == 0
    s = sorted(seq.nums)
    assert copy.sorted_nums() == s
    assert np.array_equal(copy.sorted_limbs(), _bytes_limbs(s, copy.den))
    _check_windows(copy, s, _WINDOWS, alpha)
    for x in _WINDOWS:
        assert pair_correlation(copy, x).pair_count == pair_correlation(seq, x).pair_count


@pytest.mark.parametrize("den", [(1 << 62) + 1, 1 << 64, (1 << 65) + 1, 1 << 192])
def test_list_limbs_are_built_once_at_construction(monkeypatch, den):
    # past 2^62 a list's int.to_bytes rows are built by the constructor and
    # by nothing that counts or reads the sequence after it
    calls = []
    build = paircorr._limb_rows
    monkeypatch.setattr(paircorr, "_limb_rows", lambda nums, d: calls.append(d) or build(nums, d))
    rng = random.Random(den)
    nums = [rng.randrange(den) for _ in range(300)]
    seq = SequenceModOne(nums, den)
    assert calls == [den]
    for x in (0, 1, 16):
        pair_correlation(seq, x)
        if x:
            weighted_pair_correlation(seq, x)
    assert seq.sorted_nums() == sorted(nums)
    assert calls == [den]
    SequenceModOne([1, 2, 3], 1 << 62)  # the int64 form takes no limb rows
    assert calls == [den]
