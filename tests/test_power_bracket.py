"""The certified power brackets behind the one exact decision.

``ratio._power_bracket(a, b, m, t)`` bounds (a/b)**m between lo * 2**e and
hi * 2**e at a precision of t bits.  ``ratio._floor_log2(a, b, m)``, which
``ratio._sign`` and ``equal.nearest_degree`` read, takes it at
``ratio._GUARD_BITS`` + bits(m) bits and gives floor(m * log2(a/b)) from it
when lo and hi have one bit length, and forms the exact powers
(``ratio._powers``) only on a near-tie with a power of two or at most
``ratio._EXACT_BITS`` bits, so every patch below is of ``ratio`` alone.  Every answer must
equal the exact powers' one.  A 5-smooth a/b is read instead from log2 3 and
log2 5, each certified by one such bracket of 3**(2**64) or 5**(2**64)
(``ratio._log2_reading``, which also pairs the fifth table), and takes the
bracket and exact path where that reading straddles an integer.
Only the lower end is a chain of products; the upper end is a bound on its
roundings, checked here at its lowest precision and against the two-sided
interval loop that computed both ends.
"""

import math
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritune import ratio
from tritune.equal import MAX_DIVISIONS, EtPitch, compare_pitches, nearest_degree
from tritune.errors import CoverageError, TuningError
from tritune.pythagorean import classify_to_et, generate_fifths, pairing_table
from tritune.ratio import EXPONENT_BOUND, MAX_POWER_BITS, _floor_log2
from tritune.ratio import _power_bracket, integer_nth_root

THOUSAND = settings(max_examples=1000, deadline=None)


def exact_sign(a, b, s, m):
    """sign(a/b - 2**(s/m)) from the full powers a**m and b**m * 2**s."""
    lhs, rhs = a ** m << max(-s, 0), b ** m << max(s, 0)
    return (lhs > rhs) - (lhs < rhs)


def exact_degree(r, n):
    return (_floor_log2(r.numerator ** (2 * n), r.denominator ** (2 * n)) + 1) // 2


@contextmanager
def counted_powers(limit=None):
    """Count the calls of ``ratio._powers`` (the exact branch); with a limit,
    fail any call whose larger power has more than ``limit`` bits."""
    calls = []
    forms = ratio._powers

    def counting(a, b, m):
        bits = m * max(a, b).bit_length()
        assert limit is None or bits <= limit, f"exact powers of {bits} bits formed"
        calls.append(bits)
        return forms(a, b, m)

    with mock.patch.object(ratio, "_powers", counting):
        yield calls


@contextmanager
def bracketed(guard_bits):
    """Bracket every power, at ``guard_bits`` + bits(m) bits."""
    with mock.patch.object(ratio, "_EXACT_BITS", 0):
        with mock.patch.object(ratio, "_GUARD_BITS", guard_bits):
            yield


def in_bracket(lo, hi, e, a, b, m):
    """lo * 2**e <= (a/b)**m <= hi * 2**e, in integers."""
    p, q = a ** m, b ** m
    if e < 0:
        p <<= -e
    else:
        lo, hi = lo << e, hi << e
    return lo * q <= p <= hi * q


def two_sided_bracket(a, b, m, t):
    """Interval square-and-multiply (R. E. Moore, 1966) on both ends, lo
    rounded down and hi up after every product: the reference lower end."""
    k = t - a.bit_length() + b.bit_length()
    num, den = (a << k, b) if k >= 0 else (a, b << -k)
    q_lo, q_hi = num // den, -(-num // den)
    lo, hi, e = q_lo, q_hi, -k
    for bit in bin(m)[3:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi, e = lo * q_lo, hi * q_hi, e - k
        drop = max(lo.bit_length() - t, 0)
        lo, hi, e = lo >> drop, -(-hi >> drop), e + drop
    return lo, hi, e


def just_under_an_integer(m, b):
    """a with a / b = Q + 1 - 1/b, Q the least integer with Q * b >= 2**(t - 1
    + bits(b)) at t = bits(m) + 4: _power_bracket reads q = Q at k = 0, a floor
    that drops nearly a relative 2**(1-t) when b is just under a power of two."""
    t, bits = m.bit_length() + 4, b.bit_length()
    q = -(-(1 << t + bits - 1) // b)
    a = (q + 1) * b - 1
    assert a.bit_length() - bits == t and a % b == b - 1
    return a


#: (a, b, m) whose bracket at t = bits(m) + 4 rounds near its worst
LOWEST_PRECISION_CASES = [
    (just_under_an_integer(m, b), b, m)
    for m in (2, 3, 31, 100, 310, 311)
    for b in (3, 1033481, 2 ** 61 - 1, 10 ** 30 + 1)
] + [
    # found by search: (a/b)**m lies 0.43 * m * 2**(3-t) above lo * 2**e, past
    # an allowance of 3 * lo * m >> t, half the one _power_bracket adds
    (4346821085, 1033481, 310),
]


class TestBracket:
    @given(st.integers(1, 2 ** 300), st.integers(1, 1300), st.sampled_from([1, 2, 5, 64]))
    @settings(deadline=None)
    def test_bracket_of_a_power_holds(self, a, m, guard_bits):
        lo, hi, e = _power_bracket(a, 1, m, guard_bits + m.bit_length())
        assert 1 <= lo <= hi and in_bracket(lo, hi, e, a, 1, m)

    @given(
        st.integers(1, 2 ** 200),
        st.integers(1, 2 ** 200),
        st.integers(1, 1300),
        st.sampled_from([1, 2, 5, 64]),
    )
    @settings(deadline=None)
    def test_bracket_of_a_ratio_holds(self, a, b, m, guard_bits):
        lo, hi, e = _power_bracket(a, b, m, guard_bits + m.bit_length())
        assert 1 <= lo <= hi and in_bracket(lo, hi, e, a, b, m)

    @given(st.integers(1, 2 ** 300), st.integers(1, 2 ** 300), st.integers(1, 1300))
    def test_bracket_is_narrow(self, a, b, m):
        lo, hi, _ = _power_bracket(a, b, m, ratio._GUARD_BITS + m.bit_length())
        assert (hi - lo) << 60 <= lo

    @given(
        st.integers(1, 2 ** 300),
        st.integers(1, 2 ** 300),
        st.integers(1, 1300),
        st.integers(1, 400),
        st.integers(0, 200),
    )
    @settings(deadline=None)
    def test_bracket_at_any_precision_holds_and_narrows_as_it_grows(self, a, b, m, t, more):
        lo, hi, e = _power_bracket(a, b, m, t)
        assert 1 <= lo <= hi and in_bracket(lo, hi, e, a, b, m)
        # past bits(m) + 3 bits the relative width is below m * 2**(3 - t),
        # a bound that halves with every further bit
        t = m.bit_length() + 4 + more
        lo, hi, e = _power_bracket(a, b, m, t)
        assert in_bracket(lo, hi, e, a, b, m) and (hi - lo) << (t - 3) <= m * lo

    @pytest.mark.parametrize("a, m", [(3, 5), (1, 1200), (2 ** 64 + 1, 1)])
    def test_short_powers_are_exact(self, a, m):
        lo, hi, e = _power_bracket(a, 1, m, ratio._GUARD_BITS + m.bit_length())
        assert lo == hi and in_bracket(lo, hi, e, a, 1, m)

    @given(
        st.integers(1, 2 ** 300) | st.integers(1, 2 ** 8),
        st.just(1) | st.integers(1, 2 ** 300) | st.integers(0, 40).map(lambda j: 1 << j),
        st.integers(1, 1300),
        st.integers(0, 200),
    )
    def test_lower_end_is_the_two_sided_loops(self, a, b, m, more):
        t = m.bit_length() + 4 + more
        lo, hi, e = _power_bracket(a, b, m, t)
        ref_lo, ref_hi, ref_e = two_sided_bracket(a, b, m, t)
        assert (lo, e) == (ref_lo, ref_e)
        assert (lo == hi) == (ref_lo == ref_hi)

    @pytest.mark.parametrize("a, b, m", LOWEST_PRECISION_CASES)
    def test_bracket_holds_at_its_lowest_precision(self, a, b, m):
        t = m.bit_length() + 4
        lo, hi, e = _power_bracket(a, b, m, t)
        assert in_bracket(lo, hi, e, a, b, m) and (hi - lo) << (t - 3) <= m * lo


in_band = st.tuples(
    st.integers(1, 2 ** 128), st.integers(1, 2 ** 128), st.integers(1, 1300), st.integers(0, 10 ** 6)
)


class TestKernelsAgainstExactPowers:
    """Few guard bits make wide brackets, so the exact fallback runs often."""

    @THOUSAND
    @given(in_band, st.sampled_from([1, 2, 3, 4, 64]))
    def test_sign(self, draw, guard_bits):
        a, b, m, nudge = draw
        # s // m == floor(log2(a/b)): the one-band case the brackets decide
        s = _floor_log2(a, b) * m + nudge % m
        with bracketed(guard_bits):
            assert ratio._sign(a, b, s, m) == exact_sign(a, b, s, m)

    @THOUSAND
    @given(
        st.integers(1, 2 ** 100),
        st.integers(1, 2 ** 100),
        st.integers(1, 650),
        st.sampled_from([1, 2, 3, 4, 64]),
    )
    def test_nearest_degree(self, a, b, n, guard_bits):
        r = Fraction(a, b)
        with bracketed(guard_bits):
            assert nearest_degree(r, n) == exact_degree(r, n)

    def test_fallback_and_bracket_both_decide_with_few_guard_bits(self):
        decided = 0
        with bracketed(1), counted_powers() as calls:
            for m in range(2, 300):
                for a, b in ((3, 2), (5, 4), (7, 4), (3 ** 20, 2 ** 31)):
                    s = _floor_log2(a, b) * m + m // 2
                    assert ratio._sign(a, b, s, m) == exact_sign(a, b, s, m)
                    decided += 1
        assert 0 < len(calls) < decided


def root_approximation(s, m, bits):
    """floor(2**(s/m) * 2**bits): a/2**bits < 2**(s/m) < (a+1)/2**bits."""
    return integer_nth_root(1 << (s + bits * m), m)


class TestNearTies:
    @pytest.mark.parametrize("bits", [60, 100])
    @pytest.mark.parametrize("m", [53, 306, 665, 1200])
    def test_rational_approximations_of_an_equal_step(self, m, bits):
        with counted_powers() as calls:
            for s in (1, 7, m // 2, m - 1):
                a = root_approximation(s, m, bits)
                for x, want in ((a - 1, -1), (a, -1), (a + 1, 1), (a + 2, 1)):
                    assert ratio._sign(x, 1 << bits, s, m) == want
                    p, k = Fraction(x, 1 << bits), EtPitch(s, m)
                    assert compare_pitches(p, k) == want == -compare_pitches(k, p)
        if bits == 100:  # closer than any bracket: the exact powers decide
            assert calls

    @pytest.mark.parametrize("near", ["half-way", "degree"])
    @pytest.mark.parametrize("bits", [60, 100])
    @pytest.mark.parametrize("n", [53, 306, 600, 1200])
    def test_half_way_points(self, n, bits, near):
        with counted_powers() as calls:
            for d in (0, n // 2, n - 1):
                if near == "half-way":
                    a = root_approximation(2 * d + 1, 2 * n, bits)
                    assert nearest_degree(Fraction(a, 1 << bits), n) == d
                    assert nearest_degree(Fraction(a + 1, 1 << bits), n) == d + 1
                    continue
                # r near 2**(d/n) itself: r**(2n) near the power of two 2**(2d)
                a = root_approximation(2 * d, 2 * n, bits)
                for x in (a - 1, a, a + 1, a + 2):
                    r = Fraction(x, 1 << bits)
                    assert nearest_degree(r, n) == exact_degree(r, n)
        if bits == 100:  # closer than any bracket: the exact powers decide
            assert calls


def five_limit_ratios():
    """2**a * 3**b * 5**c folded into [1, 2), for |b|, |c| <= 2."""
    ratios = set()
    for b in range(-2, 3):
        for c in range(-2, 3):
            r = Fraction(3) ** b * Fraction(5) ** c
            ratios.add(r * Fraction(2) ** -_floor_log2(r.numerator, r.denominator))
    return sorted(ratios)


#: not 5-smooth, or past the tables of 3**i: 3**65 / 2**103 lies in [1, 2)
ROUGH_RATIOS = [Fraction(7, 4), Fraction(11, 8), Fraction(3 ** 65, 2 ** 103)]


class TestLargeDivisions:
    def test_classify_and_pair_form_no_power_past_the_threshold(self):
        # every ratio of the pool is 5-smooth: read from log2 3 and log2 5 past
        # _READING_BITS, with no bracket, and no power past _READING_BITS
        pool = generate_fifths(60, 60).ratios() + five_limit_ratios()
        with counted_powers(ratio._READING_BITS), mock.patch.object(
            ratio, "_power_bracket", side_effect=AssertionError("bracket formed")
        ):
            for n in (12, 31, 53, 311):
                for r in pool:
                    assert classify_to_et(r, n)[0] == exact_degree(r, n)
            assert len(pairing_table(generate_fifths(53, 53), 53)) == 54
            with pytest.raises(CoverageError):
                pairing_table(generate_fifths(31, 31), 31)
        # the rest are bracketed, with no power past the threshold
        with counted_powers(ratio._EXACT_BITS), mock.patch.object(
            ratio, "_power_bracket", wraps=ratio._power_bracket
        ) as brackets:
            for n in (12, 31, 53, 311):
                for r in ROUGH_RATIOS:
                    assert classify_to_et(r, n)[0] == exact_degree(r, n)
        assert brackets.call_count > 0

    def test_the_guard_sees_a_near_tie_past_the_threshold(self):
        a = root_approximation(1, 1200, 100)
        with counted_powers(ratio._EXACT_BITS), pytest.raises(AssertionError):
            ratio._sign(a, 1 << 100, 1, 1200)

    def test_power_bound_is_checked_before_any_bracket(self):
        # one bit past MAX_POWER_BITS, in one octave band as in TestPowerBound
        n, bits = 1024, MAX_POWER_BITS // 1024 + 1
        r = Fraction(2 ** (bits - 1) + 1, 2 ** (bits - 1))
        with mock.patch.object(ratio, "_power_bracket", side_effect=AssertionError):
            with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
                nearest_degree(r, n)
            with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
                compare_pitches(r, EtPitch(1, n))

    def test_degree_at_311_divisions(self):
        # 3**60 / 2**95, a 96-bit ratio: its powers at 2n = 622 have 59 712 bits
        r = generate_fifths(0, 60).ratios()[-2]
        d, _ = classify_to_et(r, 311)
        assert d == exact_degree(r, 311)
        assert math.isclose(d, 311 * math.log2(r), abs_tol=0.5)


class TestFloorLog2Of3:
    def test_every_exponent_a_pairing_asks_for_is_decided(self):
        # j = +/-2nk for n up to MAX_DIVISIONS and k up to EXPONENT_BOUND, each
        # checked against the bit length b of 3**j, one multiplication a step:
        # j * log2 3 lies strictly between b - 1 and b.  Each is read from
        # _LOG2_3 alone past _READING_BITS, with no bracket formed and no power
        # past _READING_BITS
        assert _floor_log2(3, 1, 0) == 0
        power = 1
        with counted_powers(ratio._READING_BITS), mock.patch.object(
            ratio, "_power_bracket", side_effect=AssertionError("bracket formed")
        ):
            for j in range(1, 2 * MAX_DIVISIONS * EXPONENT_BOUND + 1):
                power *= 3
                b = power.bit_length()
                assert (_floor_log2(3, 1, j), _floor_log2(3, 1, -j)) == (b - 1, -b), j
        # c = floor(2**64 * log2 3) against correctly rounded 60-digit logs
        with localcontext() as ctx:
            ctx.prec = 60
            scaled = Decimal(3).ln() / Decimal(2).ln() * 2 ** 64
        assert Decimal("1e-30") < scaled - ratio._LOG2_3 < 1 - Decimal("1e-30")

    def test_an_undecided_exponent_takes_the_exact_powers(self, monkeypatch):
        # j = +/-2nk = +/-6 at n = 3 for one fifth each way, and the pairing of
        # that table, before the patch
        with pytest.raises(CoverageError) as unpatched:
            pairing_table(generate_fifths(1, 1), 3)
        # 6c = 2**67 - 2 with this c, so 6c >> 64 = 7 and (6(c+1) - 1) >> 64 = 8:
        # the reading, taken at any size here, straddles, and 3**6 / 1 gives
        # floor(6 * log2 3) = 9
        monkeypatch.setattr(ratio, "_LOG2_3", 2 ** 64 + (2 ** 64 - 1) // 3)
        monkeypatch.setattr(ratio, "_READING_BITS", 0)
        with counted_powers() as calls:
            assert (_floor_log2(3, 1, 6), _floor_log2(3, 1, -6)) == (9, -10)
            assert len(calls) == 2
            with pytest.raises(CoverageError) as patched:
                pairing_table(generate_fifths(1, 1), 3)
        assert str(patched.value) == str(unpatched.value)


def floor_log2_by_shifts(p, q):
    """floor(log2(p/q)) for positive integers, by one shifted comparison: no
    gcd, so powers of a million bits compare in milliseconds."""
    d = p.bit_length() - q.bit_length()
    return d - (p < q << d if d >= 0 else p << -d < q)


def smooth(e2, e3, e5):
    return 2 ** e2 * 3 ** e3 * 5 ** e5


#: exponents of 3 and 5 up to one past the tables of 3**i and 5**j
past_the_table = st.integers(0, EXPONENT_BOUND + 1)


class TestFiveSmoothReading:
    def test_log2_5_is_the_floor_of_a_high_precision_logarithm(self):
        with localcontext() as ctx:
            ctx.prec = 60
            scaled = Decimal(5).ln() / Decimal(2).ln() * 2 ** 64
        assert Decimal("1e-30") < scaled - ratio._LOG2_5 < 1 - Decimal("1e-30")

    @THOUSAND
    @given(st.integers(-10 ** 4, 10 ** 4), st.integers(-3000, 3000), st.integers(-3000, 3000))
    def test_the_reading_is_the_exact_floor(self, j2, j3, j5):
        # 2**k <= 2**j2 * 3**j3 * 5**j5 < 2**(k+1), in integers
        num = smooth(max(j2, 0), max(j3, 0), max(j5, 0))
        den = smooth(max(-j2, 0), max(-j3, 0), max(-j5, 0))
        assert ratio._log2_reading(j2, j3, j5) == floor_log2_by_shifts(num, den)

    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(0, 300), past_the_table, past_the_table),
        st.tuples(st.integers(0, 300), past_the_table, past_the_table),
        st.integers(-3000, 3000),
    )
    def test_floor_log2_against_exact_powers(self, top, bottom, m):
        # a negative m swaps a and b; a power past MAX_POWER_BITS raises first
        a, b = smooth(*top), smooth(*bottom)
        if abs(m) * max(a, b).bit_length() > MAX_POWER_BITS:
            with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
                _floor_log2(a, b, m)
            return
        p, q = (a ** m, b ** m) if m >= 0 else (b ** -m, a ** -m)
        assert _floor_log2(a, b, m) == floor_log2_by_shifts(p, q)

    def test_a_straddling_reading_takes_the_exact_powers(self, monkeypatch):
        before = [_floor_log2(5, 1, 3), _floor_log2(5, 1, -3), _floor_log2(5, 4, 3)]
        degree = nearest_degree(Fraction(5, 4), 3)
        # 3c = 7 * 2**64 - 1 with this c, so the readings of 5**3, 5**-3, (5/4)**3
        # and (5/4)**6 each straddle an integer, taken at any size here.  A constant
        # off by a few units straddles no reading whose exact powers are short
        # enough to form
        monkeypatch.setattr(ratio, "_LOG2_5", (7 * 2 ** 64 - 1) // 3)
        monkeypatch.setattr(ratio, "_READING_BITS", 0)
        with counted_powers() as calls:
            assert [_floor_log2(5, 1, 3), _floor_log2(5, 1, -3), _floor_log2(5, 4, 3)] == before
            assert before == [6, -7, 0]
            assert nearest_degree(Fraction(5, 4), 3) == degree == 1
        assert len(calls) == 4

    def test_a_smooth_ratio_past_the_power_bound_raises_before_any_reading(self):
        # 3**64 / 2**101 in [1, 2): 102 bits, so m = 10 281 passes MAX_POWER_BITS
        a, b = 3 ** 64, 2 ** 101
        m = MAX_POWER_BITS // 102 + 1
        with mock.patch.object(ratio, "_log2_reading", side_effect=AssertionError("read")):
            with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
                _floor_log2(a, b, m)
            with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
                _floor_log2(b, a, -m)
            with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
                compare_pitches(Fraction(a, b), EtPitch(1, m))
        # one step inside the bound, the reading decides with no bracket or power
        with counted_powers() as calls, mock.patch.object(
            ratio, "_power_bracket", side_effect=AssertionError("bracket formed")
        ):
            got = _floor_log2(a, b, m - 1)
        assert calls == [] and got == floor_log2_by_shifts(a ** (m - 1), b ** (m - 1))


def exact_floor_log2(p, q):
    """floor(log2(p/q)) by one Fraction comparison: d - 1 or d for d the
    bit-length difference, as 2**(d-1) < p/q < 2**(d+1)."""
    d = p.bit_length() - q.bit_length()
    return d - 1 + (Fraction(p, q) >= Fraction(2) ** d)


class TestFloorLog2AnyExponent:
    @given(
        st.sampled_from([(3, 1), (1, 3), (3, 2), (1, 1), (2, 1)])
        | st.tuples(st.integers(1, 2 ** 64), st.integers(1, 2 ** 64)),
        st.integers(-300, 300),
        st.sampled_from([1, 2, 64]),
    )
    @settings(deadline=None)
    def test_against_exact_powers(self, ab, m, guard_bits):
        # a negative m swaps a and b, m = 0 gives 0; few guard bits put the
        # bracket and the exact fallback both within reach
        a, b = ab
        p, q = (a ** m, b ** m) if m >= 0 else (b ** -m, a ** -m)
        with bracketed(guard_bits):
            assert _floor_log2(a, b, m) == exact_floor_log2(p, q)

    def test_exponent_zero_forms_nothing(self):
        with counted_powers() as calls, mock.patch.object(
            ratio, "_power_bracket", side_effect=AssertionError("bracket formed")
        ):
            for a, b in ((3, 1), (1, 3), (3 ** 1000, 2), (1, 1 << MAX_POWER_BITS)):
                assert _floor_log2(a, b, 0) == 0
        assert calls == []

    def test_a_rational_past_the_bound_forms_no_power_at_exponent_one(self):
        # m = +/-1 reads bit lengths and one shift: no bound, bracket or power
        a = (1 << MAX_POWER_BITS) + 1
        with counted_powers() as calls, mock.patch.object(
            ratio, "_power_bracket", side_effect=AssertionError("bracket formed")
        ):
            assert _floor_log2(a, 1) == MAX_POWER_BITS == _floor_log2(1, a, -1)
            assert _floor_log2(1, a) == -MAX_POWER_BITS - 1 == _floor_log2(a, 1, -1)
            assert _floor_log2(a, a - 2) == 0 and _floor_log2(3 * a, a) == 1
        assert calls == []
        with pytest.raises(TuningError, match="over MAX_POWER_BITS"):
            _floor_log2(a, 1, 2)
