import math
import signal
import sys
from contextlib import contextmanager
from decimal import Decimal, ROUND_DOWN, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tritune import equal, ratio
from tritune.equal import (
    MAX_ET_DIGITS,
    MAX_DIVISIONS,
    MAX_OCTAVES,
    EtPitch,
    EtScale,
    compare_fraction_to_et,
    compare_pitches,
    et_value,
    generate_et,
    nearest_degree,
)
from tritune.errors import TuningError
from tritune.intervals import Interval, compose, interval_between
from tritune.pythagorean import FifthStep, classify_to_et
from tritune.ratio import MAX_DIGITS, MAX_POWER_BITS, Monzo, _fixed_point
from tritune.ratio import integer_nth_root, is_nth_root_irrational, monzo_to_rational


def decimal_power_of_two(k: int, n: int, digits: int) -> str:
    """Independent oracle: 2**(k/n) via 50-digit Decimal ln/exp, truncated."""
    with localcontext() as ctx:
        ctx.prec = 50
        value = (Decimal(2).ln() * k / n).exp()
        return str(value.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_DOWN))


def decimal_radicand_value(k: int, n: int, digits: int) -> str:
    """The reference for an irrational 2**(k/n), k/n reduced: floor(2**(k/n) *
    10**d) as the root of the decimal radicand 2**k * 10**(d*n) =
    5**(d*n) * 2**(d*n + k), floored when the shift is negative."""
    dn = digits * n
    x = 5 ** dn << dn + k if dn + k >= 0 else 5 ** dn >> -(dn + k)
    return _fixed_point(integer_nth_root(x, n), digits)


def irrational_pitches(n: int):
    """(k, n) reduced for every k in -n..2n whose 2**(k/n) is irrational."""
    for k in range(-n, 2 * n + 1):
        e = Fraction(k, n)
        if e.denominator > 1:
            yield e.numerator, e.denominator


@contextmanager
def counted_roots():
    """The degree n of every root ``et_value`` takes, in call order."""
    calls = []

    def counting(x, n):
        calls.append(n)
        return integer_nth_root(x, n)

    with mock.patch.object(equal, "integer_nth_root", counting):
        yield calls


@contextmanager
def within_seconds(seconds):
    """Fail the enclosed block if it runs longer than ``seconds``."""

    def timeout(*args):
        raise AssertionError(f"took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestEtPitch:
    def test_equality_reduces(self):
        assert EtPitch(2, 24) == EtPitch(1, 12)
        assert hash(EtPitch(2, 24)) == hash(EtPitch(1, 12))
        assert EtPitch(3, 12) != EtPitch(4, 12)

    def test_rationality(self):
        assert EtPitch(0, 12).is_rational()
        assert EtPitch(12, 12).as_fraction() == 2
        assert EtPitch(24, 12).as_fraction() == 4
        assert not EtPitch(7, 12).is_rational()
        with pytest.raises(ValueError):
            EtPitch(7, 12).as_fraction()

    @pytest.mark.parametrize("n, r", [(1, 1), (12, 1), (53, Fraction(3, 5))])
    def test_octaves_of_a_rational_pitch_are_capped(self, n, r):
        # |k // n| up to MAX_OCTAVES gives r * 2**(k // n); one past it is refused
        for octaves in (MAX_OCTAVES, -MAX_OCTAVES):
            value = EtPitch(octaves * n, n, r).as_fraction()
            assert value == r * Fraction(2) ** octaves
        assert Interval(EtPitch(MAX_OCTAVES * n, n, r)).ratio == r * 2 ** MAX_OCTAVES
        for octaves in (MAX_OCTAVES + 1, -MAX_OCTAVES - 1):
            with pytest.raises(TuningError, match=f"k // n must be an integer .*, got {octaves}$"):
                EtPitch(octaves * n, n, r).as_fraction()

    def test_the_octave_cap_is_checked_before_any_power(self, monkeypatch):
        # a trapped power of a Fraction: over the cap the TuningError comes first,
        # at the cap the trap shows the power is the one as_fraction forms
        def trap(*args):
            raise AssertionError("a power was formed")

        monkeypatch.setattr(Fraction, "__pow__", trap)
        for k in (MAX_OCTAVES + 1, 10 ** 40, -(10 ** 40)):
            with pytest.raises(TuningError):
                EtPitch(k, 1).as_fraction()
            with pytest.raises(TuningError):
                str(EtPitch(k, 1))
            with pytest.raises(TuningError):
                interval_between(EtPitch(k, 1), 1)
        with pytest.raises(AssertionError, match="a power was formed"):
            EtPitch(MAX_OCTAVES, 1).as_fraction()

    def test_interior_pitches_are_irrational(self):
        for k in range(1, 12):
            assert not EtPitch(k, 12).is_rational()
        assert EtPitch(12, 12).is_rational()

    def test_irrationality_reads_a_radicand_under_n_bits(self):
        # 2**(k/n) = 2**(k // n) * 2**((k % n) / n): it is irrational exactly
        # when the n-th root of the radicand 2**(k % n), under n bits, is
        for k, n in [(10**7 + 1, 3), (-(10**7 + 1), 3)] + [
            (k, n) for n in range(1, 25) for k in range(-3 * n, 3 * n + 1)
        ]:
            radicand = 2 ** (k % n)
            irrational = radicand > 1 and is_nth_root_irrational(radicand, n)
            assert EtPitch(k, n).is_rational() != irrational, (k, n)
            assert irrational == (k % n != 0)

    def test_exact_form(self):
        assert EtPitch(0, 12).exact_form() == "1"
        assert EtPitch(12, 12).exact_form() == "2"
        assert EtPitch(7, 12).exact_form() == "2^(7/12)"

    def test_invalid_division(self):
        with pytest.raises(ValueError):
            EtPitch(1, 0)

    @pytest.mark.parametrize(
        "k, n", [(1.5, 12), (True, 12), (Fraction(1), 12), (1, 12.0), (1, True), (1, Fraction(12))]
    )
    def test_k_and_n_must_be_integers(self, k, n):
        with pytest.raises(TuningError):
            EtPitch(k, n)

    def test_coefficient(self):
        p = EtPitch(-19, 12, 3)
        assert p.exact_form() == "3*2^(-19/12)" and not p.is_rational()
        assert p == EtPitch(-38, 24, Fraction(3)) and hash(p) == hash(EtPitch(-38, 24, 3))
        assert p != EtPitch(-19, 12) and p != EtPitch(-19, 12, 5)
        assert EtPitch(24, 12, Fraction(3, 5)).as_fraction() == Fraction(12, 5)
        assert EtPitch(0, 1, 3).exact_form() == "3"

    @pytest.mark.parametrize(
        "call, pitch",
        [
            (lambda: float(EtPitch(2000, 1)), "k=2000"),
            (lambda: float(EtPitch(0, 1, Fraction(3**1000))), "r=Fraction(1322"),
            (lambda: float(EtPitch(1000, 1, Fraction(3**100))), "k=1000"),
            (lambda: float(EtPitch(3073, 3)), "k=3073"),
            (lambda: float(EtPitch(10**400, 1)), "k=1000"),
            (lambda: float(EtPitch(10**400, 3)), "k=1000"),
            (lambda: float(Interval(EtPitch(10**400, 3)).ratio), "k=1000"),
        ],
        ids=["float-k", "float-r", "float-inf", "float-k-n", "huge-k", "huge-k-n", "interval"],
    )
    def test_past_the_float_range_is_a_tuning_error(self, call, pitch):
        # an OverflowError, also where only the product of r and 2**(k/n) overflows,
        # or where k has more digits than a float holds
        with pytest.raises(TuningError, match="past the float range") as caught:
            call()
        assert str(caught.value).startswith("EtPitch(k=") and pitch in str(caught.value)

    def test_values_at_the_edges_of_the_float_range(self):
        assert float(EtPitch(-2000, 1)) == 0.0 and float(EtPitch(1020, 1)) == 2.0**1020
        assert float(EtPitch(3071, 3)) == pytest.approx(2.0**1023 * 2 ** (2 / 3), rel=1e-15)
        assert float(EtPitch(1, 10**400)) == 1.0 and float(EtPitch(-(10**400), 3)) == 0.0

    @pytest.mark.parametrize(
        "pitch, exact, root",
        [
            (EtPitch(-2000, 1, Fraction(3**1000)), Fraction(3**1000, 2**2000), 1),
            (EtPitch(2000, 1, Fraction(1, 3**1000)), Fraction(2**2000, 3**1000), 1),
            (EtPitch(-6001, 3, Fraction(3**1000)), Fraction(3**1000, 2**2000), 2 ** (-1 / 3)),
        ],
        ids=["r-over", "r-under", "irrational"],
    )
    def test_a_coefficient_past_the_float_range_with_a_value_inside_it(self, pitch, exact, root):
        # r = 3**1000 alone is past the float range; r * 2**(k/n) is not
        assert float(pitch) == pytest.approx(float(exact) * root, rel=1e-15)
        if root == 1:
            assert float(pitch) == float(exact)

    @pytest.mark.parametrize(
        "r", [2, Fraction(3, 4), Fraction(4, 3), 0, -3, Fraction(-1, 3), 1.5, "3"]
    )
    def test_non_odd_coefficient_rejected(self, r):
        with pytest.raises(TuningError):
            EtPitch(1, 12, r)

    def test_bool_coefficient_rejected(self):
        # True is an int with odd numerator and denominator, but never a number
        with pytest.raises(TuningError, match="positive ratio of odd integers"):
            EtPitch(1, 12, True)
        assert EtPitch(1, 12, 1).r == 1

    def test_of(self):
        assert EtPitch.of(Fraction(12, 5)) == EtPitch(2, 1, Fraction(3, 5))
        assert EtPitch.of(Fraction(3, 8)) == EtPitch(-3, 1, 3)
        assert EtPitch.of(1) == EtPitch(0, 1) and EtPitch.of(32) == EtPitch(5, 1)
        assert EtPitch.of(monzo_to_rational(Monzo(-3, 1, 1))) == EtPitch(-3, 1, 15)
        p = EtPitch(7, 12)
        assert EtPitch.of(p) is p
        for bad in (0, -2, Fraction(-1, 3), 1.5, True, None):
            with pytest.raises(TuningError):
                EtPitch.of(bad)

    def test_products_and_quotients_stay_exact(self):
        assert EtPitch(7, 12) * EtPitch(5, 12) == EtPitch(1, 1)
        assert EtPitch(7, 12) * 2 == EtPitch(19, 12)
        assert EtPitch(7, 12) / Fraction(3, 2) == EtPitch(19, 12, Fraction(1, 3))
        assert EtPitch(7, 12, 3) / EtPitch(7, 12, 3) == EtPitch(0, 1)
        two_thirds = monzo_to_rational(Monzo(1, -1, 0))
        assert EtPitch(1, 2, 5) * two_thirds == EtPitch(3, 2, Fraction(5, 3))


class TestEtValue:
    def test_examples(self):
        assert et_value(EtPitch(1, 12), 5) == "1.05946"
        assert et_value(EtPitch(0, 12), 5) == "1"
        # exact truncation; five-digit reference prints round this one up
        assert et_value(EtPitch(11, 12), 5) == "1.88774"
        assert et_value(EtPitch(7, 12), 5) == "1.49830"

    @given(
        st.integers(min_value=0, max_value=36),
        st.integers(min_value=1, max_value=36),
        st.integers(min_value=1, max_value=15),
    )
    def test_against_decimal_oracle(self, k, n, digits):
        # the ln/exp oracle can land a hair under exact powers of two, so it
        # is only authoritative where the true value is irrational
        assume(not EtPitch(k, n).is_rational())
        ours = et_value(EtPitch(k, n), digits)
        oracle = decimal_power_of_two(k, n, digits)
        assert Decimal(ours) == Decimal(oracle)

    def test_below_the_base(self):
        # 2^(-1/12) = 0.94387...
        assert et_value(EtPitch(-1, 12), 5) == "0.94387"
        assert et_value(EtPitch(-12, 12), 5) == "0.5"
        # 2^(-25/12) = 0.23597...: below 10**-(d*n) * 2**k the radicand is floored
        assert [et_value(EtPitch(-25, 12), d) for d in (1, 2, 3)] == ["0.2", "0.23", "0.235"]

    def test_domain(self):
        with pytest.raises(ValueError):
            et_value(EtPitch(1, 12), 0)
        for digits in (2.5, 5.0, True):
            with pytest.raises(TuningError):
                et_value(EtPitch(1, 12), digits)

    @pytest.mark.parametrize("p", [EtPitch(7, 12, 3), EtPitch(0, 1, 3), EtPitch(1, 2, Fraction(1, 5))])
    def test_coefficient_other_than_one_rejected(self, p):
        with pytest.raises(TuningError, match="only 2"):
            et_value(p, 5)

    @pytest.mark.parametrize("n", [1, 12])
    def test_k_cap_before_any_power(self, n, monkeypatch):
        # 3 * (k // n) >= 10 * L rejects at once: 2**(10L/3) > 10**L
        limit = sys.get_int_max_str_digits()
        first = -(-10 * limit // 3)
        assert 2 ** (first - 1) >= 10 ** limit  # past the limit: the exact check rejects
        value = n * first - 1
        with pytest.raises(TuningError, match="too many digits to print"):
            et_value(EtPitch(value, n), 1)

        def no_power(*args):
            raise AssertionError("a power was built")

        monkeypatch.setattr(equal, "integer_nth_root", no_power)
        monkeypatch.setattr(equal, "to_decimal", no_power)
        for k in (value + 1, 10 ** 12):
            with pytest.raises(TuningError, match="integer digits"):
                et_value(EtPitch(k, n), 1)

    def test_division_cap_on_the_reduced_n(self, monkeypatch):
        top = EtPitch(1, MAX_DIVISIONS)
        assert et_value(top, 5) == decimal_radicand_value(1, MAX_DIVISIONS, 5)
        assert et_value(EtPitch(2, 2 * MAX_DIVISIONS), 5) == et_value(top, 5)
        # unreduced past the cap, reduced to n = 1 under it
        assert et_value(EtPitch(2 * (MAX_DIVISIONS + 1), 2 * (MAX_DIVISIONS + 1)), 5) == "2"

        def no_power(*args):
            raise AssertionError("a power was built")

        monkeypatch.setattr(equal, "integer_nth_root", no_power)
        monkeypatch.setattr(equal, "to_decimal", no_power)
        for p in (EtPitch(1, MAX_DIVISIONS + 1), EtPitch(2, 2 * MAX_DIVISIONS + 2), EtPitch(1, 10**9)):
            with pytest.raises(TuningError, match="reduced n"):
                et_value(p, 5)

    def test_longest_printable_power_is_still_printed(self):
        limit = sys.get_int_max_str_digits()
        k = (10 ** limit).bit_length() - 1  # the last 2**k below 10**limit
        assert et_value(EtPitch(k, 1), 1) == str(2 ** k)
        assert et_value(EtPitch(12 * k, 12), 1) == str(2 ** k)
        with pytest.raises(TuningError, match="too many digits to print"):
            et_value(EtPitch(k + 1, 1), 1)

    def test_digit_cap(self):
        assert len(et_value(EtPitch(1, 12), MAX_DIGITS)) == MAX_DIGITS + 2
        for k in (0, 1):
            with pytest.raises(TuningError):
                et_value(EtPitch(k, 12), MAX_DIGITS + 1)

    def test_too_many_digits_for_a_string_is_a_tuning_error(self):
        # 2**20000 has 6021 integer digits, past the interpreter's limit
        with pytest.raises(TuningError):
            et_value(EtPitch(20000, 1), 5)

    @pytest.mark.parametrize("n", [*range(1, 65), 311, 1200])
    def test_power_of_two_radicand_against_the_decimal_one(self, n):
        # every k of an octave and its neighbours, the digit counts cycling
        # up to the cap an et table of n steps takes
        cap = min(MAX_DIGITS, MAX_ET_DIGITS // n)
        for i, (k, m) in enumerate(irrational_pitches(n)):
            digits = (cap, 1, 5, max(cap // 3, 1))[i % 4]
            with counted_roots() as calls:
                value = et_value(EtPitch(k, m), digits)
            # one root of a power of two decides every one of these values
            assert calls == [m] and value == decimal_radicand_value(k, m, digits)

    @pytest.mark.parametrize("guard_bits", [0, 1, 2])
    def test_undecided_digits_fall_back_to_the_decimal_radicand(self, guard_bits):
        fallbacks = 0
        with mock.patch.object(equal, "_ET_GUARD_BITS", guard_bits), counted_roots() as calls:
            for n, digits in ((12, 5), (31, 50), (53, 100), (311, 20)):
                for k, m in irrational_pitches(n):
                    calls.clear()
                    value = et_value(EtPitch(k, m), digits)
                    assert calls in ([m], [m, m])
                    fallbacks += len(calls) == 2
                    assert value == decimal_radicand_value(k, m, digits)
        assert fallbacks > 0

    def test_53_divisions_at_200_digits_is_certified(self):
        text = et_value(EtPitch(7, 53), 200)
        whole, _, frac = text.partition(".")
        assert whole == "1" and len(frac) == 200
        a = int(whole + frac)
        assert a ** 53 <= 2 ** 7 * 10 ** (200 * 53) < (a + 1) ** 53


class TestGeneration:
    def test_two_divisions(self):
        scale = generate_et(2)
        assert list(scale.pitches) == [EtPitch(0, 2), EtPitch(1, 2), EtPitch(2, 2)]
        assert scale.pitches[0].as_fraction() == 1
        assert scale.pitches[2].as_fraction() == 2
        assert float(scale.pitches[1]) == pytest.approx(2 ** 0.5)

    def test_twelve_divisions_fifth(self):
        assert et_value(generate_et(12).pitches[7], 5) == "1.49830"

    def test_single_step(self):
        assert [p.exact_form() for p in generate_et(1).pitches] == ["1", "2"]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_et(0)

    def test_division_cap(self):
        scale = EtScale(MAX_DIVISIONS)
        assert scale.pitches[-1] == EtPitch(MAX_DIVISIONS, MAX_DIVISIONS)
        with pytest.raises(TuningError):
            EtScale(MAX_DIVISIONS + 1)
        with pytest.raises(TuningError):
            generate_et(MAX_DIVISIONS + 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 19, 53])
    def test_homogeneity(self, n):
        scale = generate_et(n)
        for a, b in zip(scale.pitches, scale.pitches[1:]):
            assert b / a == EtPitch(1, n)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=-24, max_value=24))
    def test_transposition_keeps_steps(self, n, shift):
        scale = generate_et(n)

        def exponent(k):
            p = scale.pitch(k)
            return Fraction(p.k, p.n)

        original = [exponent(k + 1) - exponent(k) for k in range(n)]
        shifted = [exponent(k + 1 + shift) - exponent(k + shift) for k in range(n)]
        assert original == shifted

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 31])
    def test_steps_compose_to_the_octave_symbolically(self, n):
        total = Interval(EtPitch(0, n))
        for _ in range(n):
            total = compose(total, Interval(EtPitch(1, n)))
        assert isinstance(total.ratio, Fraction) and total.ratio == 2


class TestExactComparison:
    def test_three_way(self):
        assert compare_fraction_to_et(Fraction(3, 2), EtPitch(7, 12)) == 1
        assert compare_fraction_to_et(Fraction(4, 3), EtPitch(5, 12)) == -1
        assert compare_fraction_to_et(Fraction(2), EtPitch(12, 12)) == 0

    def test_divisions_cap(self):
        assert nearest_degree(Fraction(3, 2), MAX_DIVISIONS) == 702
        for n in (MAX_DIVISIONS + 1, 0, -12, 12.0, True):
            with pytest.raises(TuningError):
                nearest_degree(Fraction(3, 2), n)

    def test_nearest_degree_anchors(self):
        assert nearest_degree(Fraction(1), 12) == 0
        assert nearest_degree(Fraction(2), 12) == 12
        assert nearest_degree(Fraction(3, 2), 12) == 7
        assert nearest_degree(Fraction(531441, 524288), 12) == 0

    def test_nearest_degree_against_float_rounding(self):
        import math

        for num in range(32, 64):
            for den in range(32, num + 1):
                r = Fraction(num, den)
                if not 1 <= r <= 2:
                    continue
                x = 12 * math.log2(num / den)
                if abs(x - round(x) + 0.5) < 1e-9:
                    continue  # too close to a boundary for the float oracle
                assert nearest_degree(r, 12) == math.floor(x + 0.5)

    @pytest.mark.parametrize("n", [12, 31, 53, 311])
    @given(r=st.fractions(min_value=Fraction(1, 8), max_value=8))
    def test_nearest_degree_bracket(self, n, r):
        d = nearest_degree(r, n)
        p, q = r.numerator ** (2 * n), r.denominator ** (2 * n)
        assert q * Fraction(2) ** (2 * d - 1) <= p < q * Fraction(2) ** (2 * d + 1)

    @pytest.mark.parametrize("n", [1, 2, 12, 31, 53, 311])
    def test_nearest_degree_of_octaves(self, n):
        for j in range(-3, 4):
            assert nearest_degree(Fraction(2) ** j, n) == j * n

    @pytest.mark.parametrize("n", [1, 2])
    def test_nearest_degree_beside_half_way(self, n):
        # a/M and (a+1)/M straddle the irrational half-way point 2**((2d+1)/(2n))
        m = 10 ** 12
        for d in range(-2, 2 * n + 1):
            e = 2 * d + 1
            x = m ** (2 * n) << e if e > 0 else m ** (2 * n) >> -e
            a = integer_nth_root(x, 2 * n)
            assert nearest_degree(Fraction(a, m), n) == d
            assert nearest_degree(Fraction(a + 1, m), n) == d + 1

    @given(
        st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
        st.sampled_from([12, 31, 53, 311]),
        st.integers(min_value=1, max_value=3 * 311),
    )
    def test_compare_below_the_base(self, r, n, minus_k):
        # r <=> 2**(-minus_k/n)  iff  p**n * 2**minus_k <=> q**n
        lhs = r.numerator ** n << minus_k
        rhs = r.denominator ** n
        expected = (lhs > rhs) - (lhs < rhs)
        assert compare_fraction_to_et(r, EtPitch(-minus_k, n)) == expected


def pitch_as_power(p):
    """(r, k, n) with p = r * 2**(k/n): the integer definition's view of p."""
    if isinstance(p, EtPitch):
        return Fraction(p.r), p.k, p.n
    return Fraction(p), 0, 1


odd = st.integers(min_value=0, max_value=30).map(lambda i: 2 * i + 1)

pitches = st.one_of(
    st.integers(min_value=1, max_value=1000),
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.builds(
        Monzo,
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-10, max_value=10),
        st.integers(min_value=-5, max_value=5),
    ).map(monzo_to_rational),
    st.builds(
        EtPitch,
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=1, max_value=60),
    ),
    st.builds(
        EtPitch,
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=1, max_value=60),
        st.builds(Fraction, odd, odd),
    ),
    # far apart: many octaves from the others, settled by the octaves alone
    st.integers(min_value=2 ** 60, max_value=2 ** 200),
    st.builds(
        EtPitch,
        st.integers(min_value=-10 ** 4, max_value=10 ** 4),
        st.integers(min_value=1, max_value=60),
        st.builds(Fraction, odd, odd),
    ),
)


class TestComparePitches:
    @given(pitches, pitches)
    def test_matches_the_integer_definition(self, x, y):
        # r1 * 2**(k1/n1) <=> r2 * 2**(k2/n2)  iff, with N = n1*n2,
        # p1**N * q2**N * 2**(k1*n2) <=> p2**N * q1**N * 2**(k2*n1)
        (r1, k1, n1), (r2, k2, n2) = pitch_as_power(x), pitch_as_power(y)
        big_n = n1 * n2
        lhs = (r1.numerator * r2.denominator) ** big_n
        rhs = (r2.numerator * r1.denominator) ** big_n
        shift = k1 * n2 - k2 * n1
        if shift >= 0:
            lhs <<= shift
        else:
            rhs <<= -shift
        expected = (lhs > rhs) - (lhs < rhs)
        assert compare_pitches(x, y) == expected
        assert compare_pitches(y, x) == -expected

    @pytest.mark.parametrize(
        "x, y",
        [
            (EtPitch(12, 12), 2),
            (EtPitch(-24, 12), Fraction(1, 4)),
            (EtPitch(6, 12), EtPitch(1, 2)),
            (monzo_to_rational(Monzo(3, 0)), EtPitch(3, 1)),
            (monzo_to_rational(Monzo(-1, 1)), Fraction(3, 2)),
        ],
    )
    def test_equal_across_forms(self, x, y):
        assert compare_pitches(x, y) == compare_pitches(y, x) == 0

    @given(pitches, pitches, st.integers(min_value=1, max_value=6), st.booleans())
    def test_one_exact_form_exactly_when_equal(self, x, y, m, tie):
        if tie:  # y becomes x in another form: k/n unreduced, or a Fraction
            c = EtPitch.of(x)
            y = c.as_fraction() if c.is_rational() and m % 2 else EtPitch(c.k * m, c.n * m, c.r)
        same = EtPitch.of(x) == EtPitch.of(y)
        assert same == (compare_pitches(x, y) == 0)
        if same:
            assert hash(EtPitch.of(x)) == hash(EtPitch.of(y))
        assert tie <= same

    def test_different_octaves_form_no_power(self):
        # exponent m = 1199 * 1200 would take tens of seconds to form
        x, y = EtPitch(1, 1199, 3 ** 20), EtPitch(1, 1200, 5 ** 13)
        with within_seconds(5):
            assert compare_pitches(x, y) == 1
            assert compare_pitches(y, x) == -1

    def test_near_miss_is_decided(self):
        # 53545/35737 lies 2e-7 cents below 2**(7/12)
        assert compare_pitches(Fraction(53545, 35737), EtPitch(7, 12)) == -1


def just_above_one(bits):
    """(2**(bits-1) + 1) / 2**(bits-1): in [1, 2), numerator of ``bits`` bits."""
    return Fraction(2 ** (bits - 1) + 1, 2 ** (bits - 1))


class TestPowerBound:
    """Both integer comparison kernels form b**e only while e * bits(b) is
    at most MAX_POWER_BITS, and raise TuningError beyond it before any power."""

    def test_nearest_degree_at_the_bound_and_one_bit_past(self):
        n, bits = 1024, MAX_POWER_BITS // 2048
        assert 2 * n * bits == MAX_POWER_BITS
        with within_seconds(5):
            assert nearest_degree(just_above_one(bits), n) == 0
            with pytest.raises(TuningError):
                nearest_degree(just_above_one(bits + 1), n)

    def test_compare_pitches_at_the_bound_and_one_bit_past(self):
        # one octave band: 1 <= r < 2**(1/n) < 2, so the power is r's to the n
        n, bits = 1024, MAX_POWER_BITS // 1024
        assert n * bits == MAX_POWER_BITS
        with within_seconds(5):
            assert compare_pitches(just_above_one(bits), EtPitch(1, n)) == -1
            assert compare_pitches(EtPitch(1, n), just_above_one(bits)) == 1
            x, y = just_above_one(bits + 1), EtPitch(1, n)
            with pytest.raises(TuningError):
                compare_pitches(x, y)
            with pytest.raises(TuningError):
                compare_pitches(y, x)

    @pytest.mark.parametrize(
        "x, y",
        [
            (EtPitch(1, 1199, 3), EtPitch(1, 1200, 5)),
            (EtPitch(7, 1200, 3 ** 10), EtPitch(3, 1199, 5 ** 7)),
        ],
    )
    def test_one_band_pitches_past_the_bound_fail_fast(self, x, y):
        with within_seconds(5):
            with pytest.raises(TuningError):
                compare_pitches(x, y)

    def test_rational_pairs_past_the_bound_compare(self):
        # exponent m = 1: two rationals compare by one shift, with no power
        x = just_above_one(2 ** 20 + 1)
        assert x.numerator.bit_length() > MAX_POWER_BITS
        with within_seconds(5):
            assert compare_pitches(x, 1) == 1 == -compare_pitches(1, x)
            assert compare_pitches(x, x) == 0
            assert Interval(x).ratio == x
            assert interval_between(1, x).ratio == x
            assert compare_pitches(x, Fraction(3, 2)) == -1

    def test_long_ratio_fails_fast(self):
        with within_seconds(5):
            with pytest.raises(TuningError):
                nearest_degree(Fraction(3 ** 2000, 2 ** 3169), 1200)

    @pytest.mark.parametrize("direction", ["up", "down"])
    def test_largest_use_in_the_package_is_within_the_bound(self, direction):
        r = FifthStep(direction, 64).ratio
        bits = max(r.numerator.bit_length(), r.denominator.bit_length())
        assert 2 * MAX_DIVISIONS * bits <= MAX_POWER_BITS
        d = classify_to_et(r, MAX_DIVISIONS)[0]
        p, q = r.numerator ** (2 * MAX_DIVISIONS), r.denominator ** (2 * MAX_DIVISIONS)
        assert q << 2 * d <= 2 * p < q << 2 * d + 2

    @given(
        st.integers(min_value=1, max_value=64),
        st.builds(Fraction, st.integers(1, 2 ** 40), st.integers(1, 2 ** 40)),
    )
    def test_nearest_degree_raises_exactly_past_the_bound(self, n, r):
        # a lowered bound puts both sides of it within reach of cheap draws
        power = 2 * n * max(r.numerator, r.denominator).bit_length()
        with mock.patch.object(ratio, "MAX_POWER_BITS", 1024):
            if power > 1024:
                with pytest.raises(TuningError):
                    nearest_degree(r, n)
            else:
                d = nearest_degree(r, n)
                p, q = r.numerator ** (2 * n), r.denominator ** (2 * n)
                assert q * Fraction(2) ** (2 * d - 1) <= p < q * Fraction(2) ** (2 * d + 1)

    @given(
        st.integers(min_value=2, max_value=64).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n - 1))
        ),
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=0, max_value=2 ** 64),
    )
    def test_compare_pitches_raises_exactly_past_the_bound(self, nk, bits, low):
        n, k = nk
        r = Fraction(2 ** (bits - 1) + low % 2 ** (bits - 1), 2 ** (bits - 1))
        power = n // math.gcd(k, n) * max(r.numerator, r.denominator).bit_length()
        with mock.patch.object(ratio, "MAX_POWER_BITS", 1024):
            if power > 1024:
                with pytest.raises(TuningError):
                    compare_pitches(r, EtPitch(k, n))
            else:
                lhs, rhs = r.numerator ** n, r.denominator ** n << k
                assert compare_pitches(r, EtPitch(k, n)) == (lhs > rhs) - (lhs < rhs)
