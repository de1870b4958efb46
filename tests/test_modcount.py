import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from quadpair import modcount
from quadpair.errors import CostGuardError
from quadpair.exactreal import cmp_power, euler_phi, floor_power
from quadpair.modcount import (
    PROFILE_GUARD,
    CongruenceProfile,
    _a0,
    _bad_set_of_profile,
    _bad_threshold,
    _gather_bound,
    _gather_width,
    _sum_of_squares,
    bad_set,
    count_A,
    count_A0,
    delta_star_profile,
    dispersion_report,
    divisor_sum_ap,
    hyperbola_ap_count,
    hyperbola_counts,
)

ETA = Fraction(1, 200)


def _brute_A(n, q, c):
    c %= q
    return sum(
        1
        for m in range(1, n + 1)
        for k in range(1, n + 1)
        if (m * m - k * k) % q == c
    )


# ---------------------------------------------------------------------------
# A and A0


def test_count_A_hand_example():
    arr = count_A(2, 5, None)
    assert list(arr) == [2, 0, 1, 1, 0]


def test_count_A_modulus_one():
    assert count_A(7, 1, 0) == 49


def test_count_A_at_full_period_is_A0():
    for q in (3, 5, 8, 12):
        assert count_A(q, q, 2) == count_A0(q, 2)


def test_count_A_against_brute_force_exhaustive():
    for n in range(1, 16):
        for q in range(1, 16):
            arr = count_A(n, q, None)
            for c in range(q):
                assert int(arr[c]) == _brute_A(n, q, c)


def test_count_A_against_brute_force_sampled():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(1, 61)
        q = rng.randrange(1, 61)
        c = rng.randrange(q)
        assert count_A(n, q, c) == _brute_A(n, q, c)
        arr = count_A(n, q, None)
        assert int(arr[c]) == _brute_A(n, q, c)


def test_count_A0_small_values():
    assert list(count_A0(3, None)) == [5, 2, 2]
    assert list(count_A0(5, None)) == [9, 4, 4, 4, 4]


def test_count_A0_total_is_q_squared():
    for q in range(1, 120):
        assert int(count_A0(q, None).sum()) == q * q


def test_count_A0_multiplicative():
    rng = random.Random(9)
    for _ in range(25):
        q1 = rng.randrange(2, 50)
        q2 = rng.randrange(2, 50)
        if math.gcd(q1, q2) != 1:
            continue
        c = rng.randrange(q1 * q2)
        assert count_A0(q1, c % q1) * count_A0(q2, c % q2) == count_A0(q1 * q2, c)


def test_hyperbola_count_matches_A0():
    assert list(hyperbola_counts(3)) == [5, 2, 2]
    assert hyperbola_counts(5)[1] == 4
    assert np.array_equal(hyperbola_counts(15), count_A0(15, None))


def test_hyperbola_counts_against_brute_force():
    for q in range(1, 41):
        uv = np.arange(q)[:, None] * np.arange(q)[None, :] % q
        assert np.array_equal(hyperbola_counts(q), np.bincount(uv.ravel(), minlength=q)), q


def test_a0_matches_autocorrelation():
    for q in list(range(1, 400)) + [2 ** e for e in range(9, 15)] + [2999, 3072, 4001]:
        assert np.array_equal(_a0(q), count_A0(q, None)), q


def test_count_a_refuses_past_its_array_guard():
    n = math.isqrt(modcount.A_ARRAY_GUARD) + 1
    with pytest.raises(CostGuardError):
        count_A(n, 5, 0)


def test_a0_sums_to_q_squared_past_the_autocorrelation_cap():
    # count_A0 refuses these moduli (q^2 > A_ARRAY_GUARD)
    for q in (32768, 65536, 98304, 99991):
        assert int(_a0(q).sum()) == q * q, q


def test_unit_shift_invariance():
    for q0 in (15, 21, 33):
        base = {r: count_A0(q0, r) for r in range(q0)}
        for k in range(1, q0):
            if math.gcd(k, q0) != 1:
                continue
            for r in range(q0):
                assert base[(k * r) % q0] == base[r]


# ---------------------------------------------------------------------------
# dispersion


def test_delta_star_hand_values_q5():
    prof = delta_star_profile(5, ETA)
    assert prof.m_max == 2
    expected = [Fraction(16, 25), Fraction(16, 25), Fraction(9, 25), Fraction(9, 25), Fraction(16, 25)]
    assert [Fraction(int(v), 25) for v in prof.delta_star_scaled] == expected


def test_delta_star_incremental_vs_direct():
    for q in (4, 9, 20, 60, 100):
        prof = delta_star_profile(q, ETA)
        a0 = count_A0(q, None)
        best = np.zeros(q, dtype=np.int64)
        m_max = math.floor(q ** (2 / 3) + 1e-9)
        for m in range(1, m_max + 1):
            a = np.array([_brute_A(m, q, c) for c in range(q)], dtype=np.int64)
            np.maximum(best, np.abs(a * q * q - m * m * a0), out=best)
        assert np.array_equal(prof.delta_star_scaled, best)


@lru_cache(maxsize=None)
def _profile_by_steps(q):
    # the m_max-step loop: A(M, q, .) after every step M, eight length-q passes each
    m_max = floor_power(q, Fraction(2, 3))
    a0 = _a0(q)
    vals = np.arange(1, m_max + 1, dtype=np.int64)
    sq = (vals * vals) % q
    a = np.zeros(q, dtype=np.int64)
    best = np.zeros(q, dtype=np.int64)
    qsq = q * q
    for m in range(1, m_max + 1):
        new = sq[m - 1]
        a += np.bincount((new - sq[:m]) % q, minlength=q).astype(np.int64)
        if m > 1:
            a += np.bincount((sq[: m - 1] - new) % q, minlength=q).astype(np.int64)
        np.maximum(best, np.abs(a * qsq - (m * m) * a0), out=best)
    return best


@pytest.mark.parametrize("block", [1, 7, modcount._EVENT_BLOCK])
def test_event_sweep_matches_the_step_loop(monkeypatch, block):
    # blocks of 1 and 7 pairs hold one step each past M = 3, so every count
    # is carried across a block edge; 2^16 and 2^16 + 1 are the moduli where
    # keys d = m^2 - n^2 mod q would outgrow uint16 (r = min(d, q - d) does
    # not), and 99991 is the largest prime below PROFILE_GUARD
    monkeypatch.setattr(modcount, "_EVENT_BLOCK", block)
    for q in list(range(2, 401)) + [2048, 2187, 2401, 1 << 16, (1 << 16) + 1, 99991]:
        prof = delta_star_profile(q, ETA)
        assert prof.delta_star_scaled.dtype == np.int64
        assert np.array_equal(prof.delta_star_scaled, _profile_by_steps(q)), q


def test_event_sweep_memory_is_bounded():
    tracemalloc.start()
    try:
        delta_star_profile(99991, ETA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_delta_star_lower_bound_m1():
    for q in (7, 12, 30):
        prof = delta_star_profile(q, ETA)
        a0 = count_A0(q, None)
        for c in range(q):
            floor_term = abs((1 if c == 0 else 0) - Fraction(int(a0[c]), q * q))
            assert Fraction(int(prof.delta_star_scaled[c]), q * q) >= floor_term


def test_bad_set_q5_empty():
    assert bad_set(5, ETA) == ()


def test_bad_set_q2_matches_oracle():
    prof = delta_star_profile(2, ETA)
    # only a = 1 is a unit; threshold is 2^(2/3 - 1/100)
    r_max = math.floor(2 ** (1 / 3 + 2 / 200))
    total = sum(Fraction(int(prof.delta_star_scaled[(1 * r) % 2]), 4) for r in range(1, r_max + 1))
    expected = (1,) if float(total) >= 2 ** (2 / 3 - 2 / 200) else ()
    assert bad_set(2, ETA) == expected


def test_bad_set_bounded_by_units():
    for q in (12, 30, 47):
        assert len(bad_set(q, ETA)) <= euler_phi(q)


def _bad_set_oracle(profile):
    # the definition, one residue at a time: a is bad when
    # sum_{r <= q^(1/3 + 2 eta)} delta*(a^-1 r) >= q^(2/3 - 2 eta); float logs
    # decide a total clear of the threshold, cmp_power one within 1e-9 of it
    q, eta = profile.q, profile.eta
    e = Fraction(2, 3) - 2 * eta
    r_max = floor_power(q, Fraction(1, 3) + 2 * eta)
    log_threshold = (2 + float(e)) * math.log(q)
    out = []
    for a in range(1, q):
        if math.gcd(a, q) != 1:
            continue
        abar = pow(a, -1, q)
        total = sum(int(profile.delta_star_scaled[(abar * r) % q]) for r in range(1, r_max + 1))
        if total == 0:
            continue
        gap = math.log(total) - log_threshold
        if gap > 1e-9 or (gap >= -1e-9 and cmp_power(Fraction(total, q * q), q, e) >= 0):
            out.append(a)
    return tuple(out)


_ETAS = (Fraction(1, 100), Fraction(1, 200), Fraction(1, 1000), Fraction(3, 700))


def test_bad_set_matches_per_residue_oracle():
    for q in list(range(2, 400)) + [997, 1009, 2003, 2999, 4001]:
        prof = delta_star_profile(q, ETA)
        assert bad_set(q, ETA) == _bad_set_oracle(prof), q
    for eta in _ETAS:
        for q in (2, 3, 64, 101, 210, 997):
            assert bad_set(q, eta) == _bad_set_oracle(delta_star_profile(q, eta)), (q, eta)


@pytest.mark.parametrize("chunk", [16, modcount._GATHER_CHUNK])
def test_bad_set_matches_oracle_on_synthetic_profiles(monkeypatch, chunk):
    # real profiles give empty bad sets at these moduli, so the gather and
    # the threshold are also checked on profiles placed around the threshold;
    # a small chunk splits the units over many gathers
    monkeypatch.setattr(modcount, "_GATHER_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for eta in _ETAS:
        for q in (2, 7, 30, 97, 210, 360):
            r_max = _gather_width(q, eta)
            t = _bad_threshold(q, eta)
            base = t // r_max
            for spread in (1, 3, base // 2 + 1):
                scaled = base + rng.integers(-spread, spread + 1, size=q, dtype=np.int64)
                prof = CongruenceProfile(q, eta, scaled, 0)
                got = _bad_set_of_profile(prof)
                assert got == _bad_set_oracle(prof), (q, eta, spread)
            # exact ties: a gathered sum of exactly T is bad, T - 1 is not
            for total, bad in ((t, True), (t - 1, False)):
                scaled = np.zeros(q, dtype=np.int64)
                scaled[1] = total
                prof = CongruenceProfile(q, eta, scaled, 0)
                got = _bad_set_of_profile(prof)
                assert got == _bad_set_oracle(prof)
                assert (1 in got) == bad


def _unit_sums(scaled, q, r_max):
    # every unit b's gathered sum, sum_{r <= r_max} scaled[b r mod q]
    units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
    return scaled[(units[:, None] * np.arange(1, r_max + 1)) % q].sum(axis=1)


_BOUND_MODULI = (12, 30, 210, 360, 1155, 2048, 2187, 2730)


@pytest.mark.parametrize("q", _BOUND_MODULI)
def test_gather_bound_covers_every_unit(q):
    rng = np.random.default_rng(q)
    real = delta_star_profile(q, ETA).delta_star_scaled
    top = int(real.max())
    for eta in _ETAS:
        r_max = _gather_width(q, eta)
        profiles = [real, rng.integers(0, top + 1, size=q), rng.integers(0, 3, size=q)]
        # large entries on the residues sharing a factor with q, as real ones have
        profiles.append(np.where(np.gcd(np.arange(q), q) > 1, top, rng.integers(0, 10, size=q)))
        for scaled in profiles:
            scaled = np.asarray(scaled, dtype=np.int64)
            assert _gather_bound(scaled, q, r_max) >= int(_unit_sums(scaled, q, r_max).max()), eta


@pytest.mark.parametrize("q", _BOUND_MODULI)
def test_gather_bound_is_reached_by_the_unit_that_holds_it(q):
    # one unit's residues b r carry the profile; every residue outside the gcd
    # classes of r <= r_max (0 among them) carries more, and the bound must
    # leave those out
    rng = np.random.default_rng(q + 1)
    for eta in _ETAS:
        r_max = _gather_width(q, eta)
        classes = {math.gcd(r, q) for r in range(1, r_max + 1)}
        outside = np.array([math.gcd(c, q) not in classes for c in range(q)])
        for b in (1, q - 1, int(rng.choice(np.flatnonzero(np.gcd(np.arange(q), q) == 1)))):
            scaled = np.where(outside, 10 ** 9, 0)
            scaled[b * np.arange(1, r_max + 1) % q] = rng.integers(1, 10 ** 6, size=r_max)
            sums = _unit_sums(scaled, q, r_max)
            assert _gather_bound(scaled, q, r_max) == int(sums.max()), (eta, b)


def test_bad_set_gathers_only_where_the_bound_reaches_the_threshold(monkeypatch):
    def no_gather(*args):
        raise AssertionError("gathered")

    modcount._bad_set_cached.cache_clear()
    monkeypatch.setattr(modcount, "_gather_bad_set", no_gather)
    for q in range(2, 601):
        assert bad_set(q, ETA) == _bad_set_oracle(delta_star_profile(q, ETA)), q
    modcount._bad_set_cached.cache_clear()
    # q = 2183 = 37 * 59 is the one modulus in 2..3000 whose bound reaches T
    # at eta = 1/200
    prof = delta_star_profile(2183, ETA)
    with pytest.raises(AssertionError, match="gathered"):
        _bad_set_of_profile(prof)
    monkeypatch.undo()
    assert _gather_bound(prof.delta_star_scaled, 2183, _gather_width(2183, ETA)) >= _bad_threshold(2183, ETA)
    assert _bad_set_of_profile(prof) == _bad_set_oracle(prof) == ()


def test_bad_threshold_is_least_integer_power_bound():
    for eta in _ETAS:
        e = Fraction(8, 3) - 2 * eta
        n, d = e.numerator, e.denominator
        for q in list(range(2, 60)) + [997, 4093, 65536, PROFILE_GUARD]:
            t = _bad_threshold(q, eta)
            assert t ** d >= q ** n > (t - 1) ** d, (q, eta)


def test_gather_sums_fit_int64_up_to_profile_guard():
    # r_max and m_max grow with q and eta, so the largest case is the guard
    q, eta = PROFILE_GUARD, Fraction(1, 100)
    r_max = _gather_width(q, eta)
    m_max = floor_power(q, Fraction(2, 3))
    assert (r_max, m_max) == (58, 2154)
    assert r_max * m_max ** 2 * q ** 2 < 2 ** 63
    with pytest.raises(CostGuardError):
        _gather_width(10 * PROFILE_GUARD, eta)


def test_sum_of_squares_matches_python_ints():
    rng = np.random.default_rng(7)
    q = PROFILE_GUARD
    top = floor_power(q, Fraction(2, 3)) ** 2 * q ** 2  # the largest deviation
    assert top < 1 << 56
    cases = [
        np.full(q, top, dtype=np.int64),
        np.array([top, -top, top - 1, 1 << 38, (1 << 38) - 1, 1 << 19, -1, 0], dtype=np.int64),
        rng.integers(-top, top + 1, size=q),
        # box-mode deviations A(n, q, c) q^2 - n^2 A0(q, c), negative for many c
        count_A(10, 100, None) * 100 ** 2 - 10 ** 2 * _a0(100),
        count_A(30, 2730, None) * 2730 ** 2 - 30 ** 2 * _a0(2730),
        # past 2^57 the Python sum takes over; 2^20 squares of 2^60 would
        # overflow the top digit's dot product
        np.array([1 << 60, -(1 << 61), 3], dtype=np.int64),
        np.full(1 << 20, (1 << 60) - 1, dtype=np.int64),
    ]
    assert (cases[3] < 0).any() and (cases[4] < 0).any()
    for v in cases:
        assert _sum_of_squares(v) == sum(x * x for x in v.tolist())


def test_dispersion_report_q5():
    rep = dispersion_report(5, eta=ETA)
    assert rep.sum_delta_sq == Fraction(930, 625)
    assert rep.q1 == 1
    assert rep.card_bad_set == 0
    assert rep.ratio == pytest.approx(float(Fraction(930, 625)) / 5 ** 1.52)


def test_bad_sets_are_cached_and_dispersion_profiles_once(monkeypatch):
    calls = []
    original = modcount.delta_star_profile

    def counting(q, eta):
        calls.append(q)
        return original(q, eta)

    monkeypatch.setattr(modcount, "delta_star_profile", counting)
    eta = Fraction(1, 300)
    first = bad_set(211, eta)
    assert bad_set(211, eta) is first
    assert calls == [211]
    assert dispersion_report(211, eta=eta).card_bad_set == len(first)
    assert calls == [211, 211]


@pytest.mark.parametrize("eta", [0, Fraction(1, 50)])
def test_bad_set_and_dispersion_reject_the_same_eta(eta):
    with pytest.raises(ValueError, match="eta must lie"):
        bad_set(5, eta)
    with pytest.raises(ValueError, match="eta must lie"):
        dispersion_report(5, eta=eta)
    with pytest.raises(ValueError, match="eta must lie"):
        dispersion_report(5, n=1, eta=eta)


def test_profiles_reach_the_profile_guard():
    # full-period counts past the count_A cap come from the closed form
    assert bad_set(31627, ETA) == ()
    assert dispersion_report(40009, n=20).card_bad_set is None
    with pytest.raises(CostGuardError):
        delta_star_profile(PROFILE_GUARD + 1, ETA)
    # the event sweep sorts the residues min(d, q - d) <= q/2 as uint16
    assert PROFILE_GUARD // 2 < 1 << 16


def test_dispersion_report_power_of_two():
    rep = dispersion_report(64, eta=ETA)
    assert rep.q1 == 64
    assert rep.ratio < 1e-3


def test_dispersion_report_box_mode():
    rep = dispersion_report(100, n=10, eta=ETA)
    a0 = count_A0(100, None)
    total = 0
    for c in range(100):
        d = Fraction(_brute_A(10, 100, c)) - Fraction(100, 10000) * int(a0[c])
        total += d * d
    assert rep.sum_delta_sq == total
    with pytest.raises(ValueError):
        dispersion_report(100, n=50, eta=ETA)


# ---------------------------------------------------------------------------
# divisor sums, tau*, hyperbola boxes


def test_divisor_sum_ap_hand_values():
    assert divisor_sum_ap(20, 4, 1) == 10
    assert divisor_sum_ap(10, 7, 3) == 6


def test_divisor_sum_ap_full_summatory():
    m = 200
    brute = sum(len([d for d in range(1, k + 1) if k % d == 0]) for k in range(1, m + 1))
    assert divisor_sum_ap(m, 1, 0) == brute


def test_divisor_sum_ap_matches_brute_divisor_counts():
    top = 3000
    tau = [0] * (top + 1)
    for d in range(1, top + 1):
        for k in range(d, top + 1, d):
            tau[k] += 1
    rng = random.Random(17)
    ms = {1, top}
    for r in (2, 5, 17, 31, 54):
        ms |= {r * r - 1, r * r, r * r + r}
    while len(ms) < 49:
        ms.add(rng.randrange(2, top))
    for q in range(1, 31):
        # prefix[k] = sum of tau(j) over j <= k with j = k mod q
        prefix = tau[:]
        for k in range(q + 1, top + 1):
            prefix[k] += prefix[k - q]
        for s in range(-1, q + 1):
            for m in ms:
                last = m - (m - s) % q
                assert divisor_sum_ap(m, q, s) == (prefix[last] if last >= 1 else 0)


def test_divisor_sum_ap_past_the_old_table_cap():
    m = 10 ** 10
    r = math.isqrt(m)
    hyperbola = 2 * sum(m // a for a in range(1, r + 1)) - r * r
    assert hyperbola == 231802823220
    assert divisor_sum_ap(m, 1, 0) == hyperbola
    assert sum(divisor_sum_ap(m, 3, s) for s in range(3)) == hyperbola
    with pytest.raises(CostGuardError):
        divisor_sum_ap(10 ** 12 + 1, 7, 3)


def test_divisor_sum_ap_memory_is_bounded():
    tracemalloc.start()
    try:
        divisor_sum_ap(10 ** 7, 7, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_divisor_sum_ap_partition():
    m, q = 150, 7
    assert sum(divisor_sum_ap(m, q, s) for s in range(q)) == divisor_sum_ap(m, 1, 0)


def test_hyperbola_ap_count_hand_example():
    res = hyperbola_ap_count(10, 7, 1)
    assert res.count == 13
    assert res.expected == Fraction(600, 49)
    assert res.ratio == pytest.approx(13 / (600 / 49))
    # at q = 1 every pair is on the hyperbola
    res = hyperbola_ap_count(10, 1, 0)
    assert (res.count, res.expected, res.ratio) == (100, 100, 1.0)


def test_hyperbola_ap_count_brute():
    rng = random.Random(11)
    for _ in range(20):
        q = rng.randrange(1, 60)
        n = rng.randrange(1, 80)
        c = rng.randrange(1, q) if q > 1 else 1
        if math.gcd(c, q) != 1:
            continue
        brute = sum(
            1
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if (u * v) % q == c % q
        )
        assert hyperbola_ap_count(n, q, c).count == brute


def _hyperbola_by_inverse_table(n: int, q: int, c: int) -> int:
    # the per-residue path: a Python list of the inverses of all q residues,
    # then one cofactor count for every u <= n
    inv = np.array([pow(u, -1, q) if math.gcd(u, q) == 1 else 0 for u in range(q)], dtype=np.int64)
    u_mod = np.arange(1, n + 1, dtype=np.int64) % q
    w = (c * inv[u_mod]) % q
    w[w == 0] = q
    return int(((n - w) // q + 1)[np.gcd(u_mod, q) == 1].sum())


@pytest.mark.parametrize("q", [1, 2, 12, 97, 360, 1000, 1009, 2 ** 10 * 3 ** 2, 30030, 65537])
def test_hyperbola_ap_count_matches_the_inverse_table(q):
    # composite and prime q, with n on both sides of q
    rng = random.Random(q)
    for n in (1, q // 3 + 1, q - 1 or 1, q, 3 * q + 7, rng.randrange(1, 5 * q)):
        c = rng.randrange(q)
        while math.gcd(c, q) != 1:
            c = rng.randrange(q)
        assert hyperbola_ap_count(n, q, c).count == _hyperbola_by_inverse_table(n, q, c)


def test_hyperbola_ap_count_past_int64_residues():
    # q past 2^31: uv < q for u, v <= 50, so uv = 12 (mod q) only for uv = 12
    q = 2 ** 31 + 11
    assert hyperbola_ap_count(50, q, 12).count == 6
    # n past 2^31: the unit pairs of 1..n are split among the unit residues c
    n = 2 ** 31 + 5
    units = n - n // 3
    assert sum(hyperbola_ap_count(n, 3, c).count for c in (1, 2)) == units * units


def test_hyperbola_ap_count_rejects_nonunit():
    with pytest.raises(ValueError):
        hyperbola_ap_count(10, 6, 2)
    for n, q in ((0, 7), (10, 0)):
        with pytest.raises(ValueError, match="need n >= 1 and q >= 1"):
            hyperbola_ap_count(n, q, 1)


def test_sum_A0_squared_growth():
    # scaled second moment stays within the calibrated ceiling
    for q in (50, 101, 256, 500, 729, 1024, 1536, 2000):
        a0 = count_A0(q, None)
        total = sum(int(v) ** 2 for v in a0)
        assert total <= 4 * float(q) ** (3 + 1 / 200)
