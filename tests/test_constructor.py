import math
import random
import re
from fractions import Fraction

import pytest

from quadpair import constructor
from quadpair.errors import BudgetError, CostGuardError, EmptyRefinementError, PrecisionError
from quadpair.exactreal import FixedReal, floor_power, parse_alpha, q1_part, sqrt_fixed
from quadpair.modcount import bad_set
from quadpair.constructor import (
    Q_GUARD,
    BadInterval,
    _OpenUnion,
    construct_alpha,
    enumerate_bad_intervals,
    interval,
    subtract,
    tail_budget,
    verify_avoidance,
)

ETA = Fraction(1, 200)


def test_interval_validation():
    with pytest.raises(ValueError):
        interval(Fraction(1, 2), Fraction(1, 3))
    iv = interval(Fraction(1, 3), Fraction(1, 3))
    assert iv.measure == 0 and iv.contains(Fraction(1, 3))


def test_subtract_symmetric_hole():
    out = subtract(
        interval(0, 1),
        [BadInterval(2, 1, 1, Fraction(1, 4))],
    )
    assert [(iv.lo, iv.hi) for iv in out.intervals] == [
        (Fraction(0), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(1)),
    ]


def test_subtract_full_cover():
    out = subtract(
        interval(0, 1),
        [BadInterval(2, 1, 1, Fraction(2, 3))],
    )
    assert out.is_empty


def test_subtract_touching_open_intervals_leave_point():
    bads = [
        BadInterval(4, 1, 1, Fraction(1, 4)),
        BadInterval(4, 3, 1, Fraction(1, 4)),
    ]
    out = subtract(interval(0, 1), bads)
    assert [(iv.lo, iv.hi) for iv in out.intervals] == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(1)),
    ]


def _subtract_by_scan(base, bads):
    # reference: every piece is tested against every open interval
    pieces = [(base.lo, base.hi)]
    for bad in sorted(bads, key=lambda b: (b.lo, b.hi)):
        out = []
        for a, b in pieces:
            if bad.hi <= a or bad.lo >= b:
                out.append((a, b))
                continue
            if bad.lo >= a:
                out.append((a, min(bad.lo, b)))
            if bad.hi <= b:
                out.append((max(bad.hi, a), b))
        pieces = out
    return pieces


def test_subtract_matches_piecewise_scan():
    rng = random.Random(7)
    for _ in range(300):
        den = rng.choice([4, 12, 60])
        lo = Fraction(rng.randrange(0, den), den)
        base = interval(lo, lo + Fraction(rng.randrange(0, den), den))
        # coarse grids make shared endpoints, point pieces and full covers common
        bads = [
            BadInterval(2 * den, rng.randrange(-2, 2 * den + 2), 1, Fraction(rng.randrange(1, 6), 4 * den))
            for _ in range(rng.randrange(0, 25))
        ]
        got = [(iv.lo, iv.hi) for iv in subtract(base, bads).intervals]
        assert got == _subtract_by_scan(base, bads)
    base = interval(Fraction(1, 3), Fraction(2, 5))
    bads = enumerate_bad_intervals(10, 60, ETA, within=base)
    got = [(iv.lo, iv.hi) for iv in subtract(base, bads).intervals]
    assert got == _subtract_by_scan(base, bads)


def test_subtract_measure_lower_bound_and_membership_oracle():
    rng = random.Random(31)
    base = interval(Fraction(1, 3), Fraction(2, 5))
    bads = enumerate_bad_intervals(10, 40, ETA, within=base)
    out = subtract(base, bads)
    assert out.measure >= base.measure - sum(2 * b.radius for b in bads)
    for _ in range(2000):
        x = base.lo + Fraction(rng.randrange(0, 1 << 30), 1 << 30) * base.measure
        expected = base.contains(x) and not any(b.contains_open(x) for b in bads)
        assert out.contains(x) == expected


def test_open_union_keeps_touching_endpoint():
    # every end below has denominator at most 16 < 2^5, so shift 2*5 + 1 keys
    # them exactly; key(x) = x * 2^11
    u = _OpenUnion(11)
    u.insert(BadInterval(4, 1, 1, Fraction(1, 4)))  # (0, 1/2)
    u.insert(BadInterval(4, 3, 1, Fraction(1, 4)))  # (1/2, 1)
    assert u.starts == [0, 1 << 10] and u.ends == [1 << 10, 1 << 11]
    assert u.first_uncovered(Fraction(1, 2)) == Fraction(1, 2)
    assert u.first_uncovered(Fraction(1, 4)) == Fraction(1, 2)


def test_open_union_merges_overlap():
    u = _OpenUnion(11)
    u.insert(BadInterval(4, 1, 1, Fraction(1, 4)))  # (0, 1/2)
    u.insert(BadInterval(2, 1, 1, Fraction(1, 4)))  # (1/4, 3/4)
    assert u.first_uncovered(Fraction(1, 8)) == Fraction(3, 4)
    assert u.starts == [0] and u.ends == [3 << 9]


def test_open_union_leaves_a_piece_that_holds_the_new_interval():
    u = _OpenUnion(11)
    u.insert(BadInterval(4, 1, 1, Fraction(1, 4)))  # (0, 1/2)
    u.insert(BadInterval(4, 3, 1, Fraction(1, 8)))  # (5/8, 7/8)
    before = (list(u.starts), list(u.ends), list(u.exact_ends))
    u.insert(BadInterval(8, 2, 1, Fraction(1, 4)))  # (0, 1/2) again, non-reduced
    u.insert(BadInterval(8, 1, 1, Fraction(1, 16)))  # (1/16, 3/16)
    u.insert(BadInterval(16, 12, 1, Fraction(1, 16)))  # (11/16, 13/16)
    assert (u.starts, u.ends, u.exact_ends) == before
    u.insert(BadInterval(32, 17, 1, Fraction(5, 32)))  # (3/8, 11/16): joins both
    assert u.starts == [0] and u.ends == [7 << 8]
    assert u.first_uncovered(Fraction(1, 4)) == Fraction(7, 8)


def _sweep_by_subtract(base, q_start, q_max):
    # construct_alpha's outcome from per-modulus subtract prefixes: the
    # survivor sequence, or the modulus at which the base empties
    bads, r_sequence = [], []
    for q in range(q_start, q_max + 1):
        bads += enumerate_bad_intervals(q, q, ETA, within=base)
        survivors = subtract(base, bads)
        if survivors.is_empty:
            return f"emptied at {q}"
        r_sequence.append(survivors.smallest_endpoint)
    return r_sequence


def _sweep_by_union(base, q_start, q_max):
    try:
        res = construct_alpha(base, q_start, q_max, ETA, strict_budget=False)
    except EmptyRefinementError as exc:
        return "emptied at " + re.fullmatch(r"refinement emptied at modulus (\d+)", str(exc))[1]
    return res.r_sequence


def test_keyed_union_sweep_matches_subtract_prefixes():
    rng = random.Random(2027)
    cases = [
        # base.lo with a 100-digit denominator: covered, just inside the left
        # end 4/12 - 1/144 (a key that ignored it would equal that end's), and
        # uncovered
        (interval(Fraction(1, 3) + Fraction(1, 3 * 10 ** 99 + 1), Fraction(2, 5)), 10, 30),
        (interval(Fraction(1, 3) - Fraction(1, 144) + Fraction(1, 10 ** 100), Fraction(2, 5)), 12, 12),
        (interval(Fraction(10 ** 99 + 7, 3 * 10 ** 99 + 11), Fraction(1, 2)), 1000, 1003),
        # base.lo on exclusion endpoints: 4/12 -+ 1/144 (class 2) and
        # 4/12 + 1/floor(12^(2+eta)) (class 1, inside the class-2 interval)
        (interval(Fraction(1, 3) + Fraction(1, 144), Fraction(2, 5)), 12, 20),
        (interval(Fraction(1, 3) - Fraction(1, 144), Fraction(2, 5)), 12, 12),
        (interval(Fraction(1, 3) + Fraction(1, floor_power(12, 2 + ETA)), Fraction(2, 5)), 12, 14),
        # q = 2: (-1/4, 1/4), (1/4, 3/4) and (3/4, 5/4) touch exactly
        (interval(Fraction(1, 5), Fraction(1, 2)), 2, 2),
        (interval(0, 1), 2, 3),
    ]
    for _ in range(40):
        den = rng.choice([7, 60, 1009, 2 ** 61 - 1])
        lo = rng.randrange(0, den)
        hi = rng.randrange(lo + 1, min(den, lo + den // 4 + 2) + 1)
        q_start = rng.randrange(2, 90)
        cases.append((interval(Fraction(lo, den), Fraction(hi, den)), q_start,
                       q_start + rng.randrange(0, 12)))
    outcomes = set()
    for base, q_start, q_max in cases:
        expected = _sweep_by_subtract(base, q_start, q_max)
        assert _sweep_by_union(base, q_start, q_max) == expected, (base, q_start, q_max)
        outcomes.add(isinstance(expected, str))
    assert outcomes == {True, False}
    assert _sweep_by_union(*cases[1]) == [Fraction(1, 3) + Fraction(1, 144)]
    assert _sweep_by_union(*cases[6]) == [Fraction(1, 4)]


def test_enumerate_class_structure_q5():
    bads = enumerate_bad_intervals(5, 5, ETA)
    # six wide intervals a=0..5, no class 2 (q1=1 < 5^(1/100)), empty bad set
    assert [b.cls for b in bads] == [1] * 6
    assert [b.a for b in bads] == list(range(6))
    assert bads[0].radius == Fraction(1, 25)  # floor(5^2.005) = 25


def test_enumerate_class2_for_even_squarefull():
    bads = enumerate_bad_intervals(4, 4, ETA)
    assert q1_part(4) == 4
    classes = {b.cls for b in bads}
    assert 2 in classes
    c2 = [b for b in bads if b.cls == 2]
    assert len(c2) == 5 and all(b.radius == Fraction(1, 16) for b in c2)


def test_enumerate_ordering():
    bads = enumerate_bad_intervals(4, 6, ETA)
    keys = [(b.q, b.cls, b.a) for b in bads]
    assert keys == sorted(keys)


def test_construct_small_run_properties():
    base = interval(Fraction(1, 3), Fraction(2, 5))
    res = construct_alpha(base, 10, 40, ETA, strict_budget=False)
    assert all(a <= b for a, b in zip(res.r_sequence, res.r_sequence[1:]))
    assert base.lo <= res.final <= base.hi
    assert verify_avoidance(res.final, 10, 40, ETA) == []
    assert res.certificate["violations"] == []
    assert not res.budget_ok
    # nesting and agreement with the direct subtraction route
    survivors = None
    bads_so_far = []
    for q in range(10, 41):
        bads_so_far.extend(enumerate_bad_intervals(q, q, ETA, within=base))
        step = subtract(base, bads_so_far)
        r_direct = step.smallest_endpoint
        assert r_direct == res.r_sequence[q - 10]
        if survivors is not None:
            for piece in step.intervals:
                assert any(
                    outer.lo <= piece.lo and piece.hi <= outer.hi
                    for outer in survivors.intervals
                )
        survivors = step


def test_construct_budget_satisfiable_high_sweep():
    # short sweeps at high moduli satisfy the measure precondition outright
    base = interval(Fraction(1, 3), Fraction(2, 5))
    res = construct_alpha(base, 1000, 1005, ETA, strict_budget=True)
    assert res.budget_ok
    assert res.final == Fraction(1, 3) + Fraction(1, 1004004)
    assert verify_avoidance(res.final, 1000, 1005, ETA) == []


def test_construct_deterministic():
    base = interval(Fraction(1, 3), Fraction(2, 5))
    r1 = construct_alpha(base, 10, 45, ETA, strict_budget=False)
    r2 = construct_alpha(base, 10, 45, ETA, strict_budget=False)
    assert r1.certificate == r2.certificate
    assert r1.final == r2.final


def test_construct_single_step():
    base = interval(Fraction(1, 3), Fraction(2, 5))
    res = construct_alpha(base, 12, 12, ETA, strict_budget=False)
    assert len(res.r_sequence) == 1
    # q=12 is even/squarefull, so the wider class-2 interval at 4/12 = 1/3
    # wins: radius 1/144 rather than the wide family's 1/floor(12^2.005)
    assert res.final == Fraction(1, 3) + Fraction(1, 144)


def test_construct_budget_strictness():
    base = interval(Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(BudgetError):
        construct_alpha(base, 10, 120, ETA, strict_budget=True)


def test_construct_empties_on_deep_sweep():
    # the families provably cover [1/3, 2/5] once moduli 10..47 are in play
    base = interval(Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(EmptyRefinementError) as exc:
        construct_alpha(base, 10, 200, ETA, strict_budget=False)
    assert "47" in str(exc.value)


def test_construct_non_strict_certificate_measures_match_tail_budget():
    base = interval(Fraction(1, 3), Fraction(2, 5))
    res = construct_alpha(base, 10, 40, ETA, strict_budget=False)
    tb = tail_budget(10, 40, ETA)
    assert res.certificate["class_measures"] == {
        "class1": str(tb.class1_sum),
        "class2": str(tb.class2_sum),
        "class3": str(tb.class3_sum),
        "total": str(tb.total),
    }
    assert res.budget_ok == (tb.total < base.measure / 2)


def test_construct_strict_raises_exactly_when_the_whole_range_breaks_the_budget():
    # the budget is summed modulus by modulus, but measures are non-negative,
    # so a prefix reaches half the base exactly when the whole range does
    outcomes = set()
    for lo, hi in ((Fraction(1, 3), Fraction(2, 5)), (0, 1), (Fraction(1, 2), 1),
                   (Fraction(1, 7), Fraction(1, 7) + Fraction(1, 40))):
        base = interval(lo, hi)
        for q_start, q_max in ((1000, 1005), (1000, 1010), (1000, 1011), (10, 12),
                               (100, 110), (200, 230), (2000, 2003), (2990, 3000)):
            breaks = tail_budget(q_start, q_max, ETA).total >= base.measure / 2
            outcomes.add(breaks)
            if breaks:
                with pytest.raises(BudgetError):
                    construct_alpha(base, q_start, q_max, ETA, strict_budget=True)
            else:
                assert construct_alpha(base, q_start, q_max, ETA, strict_budget=True).budget_ok
    assert outcomes == {True, False}


def test_construct_strict_stops_at_the_modulus_that_breaks_the_budget(monkeypatch):
    # the running total first reaches 1/30 at q=1011, so no modulus past it
    # is classified
    seen = []

    def recording_bad_set(q, eta):
        seen.append(q)
        return bad_set(q, eta)

    monkeypatch.setattr(constructor, "bad_set", recording_bad_set)
    base = interval(Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(BudgetError, match=r"through q=1011 is not below half the interval length"):
        construct_alpha(base, 1000, 3000, ETA, strict_budget=True)
    assert max(seen) == 1011


def test_construct_non_strict_stops_at_the_emptying_modulus(monkeypatch):
    # the measure sums are built as the sweep reaches each modulus, so a
    # sweep that empties at q=47 never classifies a modulus past it
    seen = []

    def recording_bad_set(q, eta):
        seen.append(q)
        return bad_set(q, eta)

    monkeypatch.setattr(constructor, "bad_set", recording_bad_set)
    base = interval(Fraction(1, 3), Fraction(2, 5))
    with pytest.raises(EmptyRefinementError, match="modulus 47"):
        construct_alpha(base, 10, 3000, ETA, strict_budget=False)
    assert max(seen) == 47


def test_construct_checks_the_sweep_range_first():
    base = interval(Fraction(1, 3), Fraction(2, 5))
    for q_start, q_max in ((10, Q_GUARD + 1), (40, 30), (1, 10)):
        with pytest.raises(CostGuardError):
            construct_alpha(base, q_start, q_max, ETA, strict_budget=False)


def test_construct_empty_refinement():
    # a tiny interval centred on a rational gets wiped out immediately
    base = interval(Fraction(1, 2) - Fraction(1, 1000), Fraction(1, 2) + Fraction(1, 1000))
    with pytest.raises(EmptyRefinementError):
        construct_alpha(base, 10, 40, ETA, strict_budget=False)


def test_verify_avoidance_rational_center_violates():
    hits = verify_avoidance(Fraction(7, 20), 10, 60, ETA)
    assert any(b.q == 20 and b.a == 7 and b.cls == 1 for b in hits)


def test_verify_avoidance_fixedreal():
    x = sqrt_fixed(2, 192)  # scanned as sqrt(2) - 1, which has convergents 5/12, 12/29
    hits = verify_avoidance(x, 10, 60, ETA)
    brute = []
    for q in range(10, 61):
        bads = enumerate_bad_intervals(q, q, ETA)
        for b in bads:
            if b.contains_open(x.mid - 1):
                brute.append((b.q, b.a, b.cls))
    assert [(b.q, b.a, b.cls) for b in hits] == brute
    assert (12, 5, 1) in brute and (29, 12, 1) in brute


@pytest.mark.parametrize("label, reduced", [
    ("sqrt:2", "ratio:(-1+sqrt:2)/1"),
    ("ratio:(1+sqrt:5)/2", "cf:0;1"),
    ("rat:-13/20", "rat:7/20"),
])
def test_verify_avoidance_tests_alpha_mod_one(label, reduced):
    hits = verify_avoidance(parse_alpha(label).value(192), 10, 120, ETA)
    assert hits and hits == verify_avoidance(parse_alpha(reduced).value(192), 10, 120, ETA)


def test_verify_avoidance_refuses_an_enclosure_straddling_an_integer():
    one = 1 << 192
    assert verify_avoidance(FixedReal(one, 192, 0), 10, 12, ETA) == verify_avoidance(0, 10, 12, ETA)
    for mantissa in (one - 1, one):
        with pytest.raises(PrecisionError, match="straddles the integer 1"):
            verify_avoidance(FixedReal(mantissa, 192, 1), 10, 12, ETA)


def _families_by_definition(q, eta, bad_residues):
    # the three exclusion families at modulus q, written out from their
    # definitions: radius 1/floor(q^(2+eta)) around every a/q; radius 1/q^2
    # around every a/q when q1(q) >= q^(2 eta), i.e. q1^d >= q^(2n) for
    # eta = n/d; radius 1/q^2 around a/q for a in the bad set
    wide = Fraction(1, floor_power(q, 2 + eta))
    narrow = Fraction(1, q * q)
    out = [(1, a, wide) for a in range(q + 1)]
    if q1_part(q) ** eta.denominator >= q ** (2 * eta.numerator):
        out += [(2, a, narrow) for a in range(q + 1)]
    out += [(3, a, narrow) for a in bad_residues(q, eta)]
    return [BadInterval(q, a, cls, r) for cls, a, r in out]


def _every_other_unit(q, eta):
    # a non-empty stand-in for the bad set: real bad sets are empty at
    # desk-scale moduli, so class 3 would otherwise go unexercised
    return tuple(a for a in range(1, q) if math.gcd(a, q) == 1 and a % 5 in (1, 3))


@pytest.mark.parametrize("bad_residues", [bad_set, _every_other_unit])
def test_enumerate_and_verify_match_the_family_definitions(monkeypatch, bad_residues):
    monkeypatch.setattr(constructor, "bad_set", bad_residues)
    within = interval(Fraction(1, 3), Fraction(2, 5))
    # 1/3 + 1/144 lies exactly on the class-2 boundary at 4/12
    points = [Fraction(0), Fraction(1), Fraction(7, 20), Fraction(1, 3) + Fraction(1, 144)]
    golden = parse_alpha("cf:0;1").value(192)  # (sqrt(5) - 1)/2
    for q in [*range(2, 121), *range(1000, 1006)]:
        family = _families_by_definition(q, ETA, bad_residues)
        assert enumerate_bad_intervals(q, q, ETA) == family
        assert enumerate_bad_intervals(q, q, ETA, within=within) == [
            b for b in family if b.hi > within.lo and b.lo < within.hi
        ]
        for x in points:
            # x = 1 is scanned as 0, its value mod 1
            assert verify_avoidance(x, q, q, ETA) == [b for b in family if b.contains_open(x % 1)]
        inside = [b for b in family if b.contains_open(golden.lo)]
        assert inside == [b for b in family if b.contains_open(golden.hi)]
        assert verify_avoidance(golden, q, q, ETA) == inside


def test_verify_avoidance_refuses_an_enclosure_reaching_an_edge():
    # 3/16 is the left edge of both q=4 intervals around 1/4 (radius 1/16)
    edge = 3 << 188
    assert verify_avoidance(FixedReal(edge, 192, 0), 4, 4, ETA) == []
    for mantissa in (edge, edge + 1):
        with pytest.raises(PrecisionError, match="class-1 interval at 1/4"):
            verify_avoidance(FixedReal(mantissa, 192, 1), 4, 4, ETA)


def test_tail_budget_shapes():
    tb = tail_budget(10, 100, ETA)
    expected_c1 = sum(
        Fraction(2 * (q + 1), floor_power(q, 2 + ETA)) for q in range(10, 101)
    )
    assert tb.class1_sum == expected_c1
    assert tb.total == tb.class1_sum + tb.class2_sum + tb.class3_sum
    single = tail_budget(50, 50, ETA)
    assert single.class1_sum == Fraction(2 * 51, floor_power(50, 2 + ETA))


def test_tail_budget_class3_zero_when_bad_sets_empty():
    tb = tail_budget(5, 8, ETA)
    expected = sum(Fraction(2 * len(bad_set(q, ETA)), q * q) for q in range(5, 9))
    assert tb.class3_sum == expected
