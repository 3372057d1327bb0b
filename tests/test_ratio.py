from decimal import Decimal, ROUND_DOWN, localcontext
from fractions import Fraction

import math
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritune import ratio
from tritune.equal import MAX_ET_DIGITS, EtPitch, et_value
from tritune.errors import ExponentBoundError, TuningError
from tritune.ratio import (
    EXPONENT_BOUND,
    MAX_DIGITS,
    Monzo,
    cents,
    integer_nth_root,
    is_five_smooth,
    is_nth_root_irrational,
    monzo_form,
    monzo_to_rational,
    octave_shift,
    rational_to_monzo,
    reduce_to_octave,
    to_decimal,
)

exponents = st.integers(min_value=-EXPONENT_BOUND, max_value=EXPONENT_BOUND)
monzos = st.builds(Monzo, exponents, exponents, exponents)
positive_fractions = st.fractions(min_value=Fraction(1, 10**6), max_value=10**6)
#: (a, b, c, w) for x = 2**a * 3**b * 5**c * w, with b and c up to 6 past the bound
smooth_parts = st.tuples(
    st.integers(min_value=0, max_value=200),
    *[st.integers(min_value=0, max_value=EXPONENT_BOUND + 6)] * 2,
    st.sampled_from([1, 7, 11]),
)


def trial_division_exponents(r: Fraction):
    """(e2, e3, e5) with r = 2**e2 * 3**e3 * 5**e5 by trial division, with no
    exponent bound, or None when r is not 5-smooth."""
    num, den, exps = r.numerator, r.denominator, []
    for p in (2, 3, 5):
        e = 0
        while num % p == 0:
            num, e = num // p, e + 1
        while den % p == 0:
            den, e = den // p, e - 1
        exps.append(e)
    return tuple(exps) if num == den == 1 else None


def high_precision_cents(f: Fraction) -> float:
    """Independent log oracle via Decimal natural logs at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        value = Decimal(f.numerator) / Decimal(f.denominator)
        return float(1200 * value.ln() / Decimal(2).ln())


class TestMonzo:
    def test_examples(self):
        assert monzo_to_rational(Monzo(-3, 1, 1)) == Fraction(15, 8)
        assert monzo_to_rational(Monzo(0, 0, 0)) == 1
        assert monzo_to_rational(Monzo(-19, 12, 0)) == Fraction(531441, 524288)

    def test_bound_is_enforced(self):
        with pytest.raises(ExponentBoundError):
            Monzo(EXPONENT_BOUND + 1, 0, 0)
        with pytest.raises(ExponentBoundError):
            Monzo(EXPONENT_BOUND, 0, 0) + Monzo(1, 0, 0)

    def test_factorization_examples(self):
        assert rational_to_monzo(Fraction(15, 8)) == Monzo(-3, 1, 1)
        assert rational_to_monzo(Fraction(11, 8)) is None
        assert rational_to_monzo(Fraction(1)) == Monzo(0, 0, 0)
        assert not is_five_smooth(Fraction(11, 8))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rational_to_monzo(Fraction(0))

    def test_an_int_is_factored_without_a_fraction(self, monkeypatch):
        def trap(x, what):
            raise AssertionError(f"positive_fraction({x!r}) on a valid ratio")

        monkeypatch.setattr(ratio, "positive_fraction", trap)
        assert is_five_smooth(24) is True
        assert rational_to_monzo(24) == Monzo(3, 1, 0)
        assert monzo_form(24) == "2^3*3"

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, Fraction(-1, 2), "3/2"])
    def test_a_non_ratio_raises_the_contract_error(self, bad):
        message = f"a pitch ratio must be a positive int or Fraction, got {bad!r}"
        for call in (is_five_smooth, rational_to_monzo, monzo_form):
            with pytest.raises(TuningError) as info:
                call(bad)
            assert str(info.value) == message

    @given(
        *[st.integers(min_value=-70, max_value=70)] * 3,
        st.sampled_from([1, 7, 11]),
        st.booleans(),
    )
    def test_factoring_matches_trial_division(self, a, b, c, other, above):
        r = Fraction(2) ** a * Fraction(3) ** b * Fraction(5) ** c
        r = r * other if above else r / other
        expected = trial_division_exponents(r)
        if expected is not None and max(map(abs, expected)) > EXPONENT_BOUND:
            # the message names the first exponent past the bound, in e2, e3, e5 order
            e = next(e for e in expected if abs(e) > EXPONENT_BOUND)
            bound = f"exponent must be an integer from -{EXPONENT_BOUND} to {EXPONENT_BOUND}"
            with pytest.raises(ExponentBoundError, match=f"^{bound}, got {e}$"):
                ratio._five_exponents(r)
        else:
            assert ratio._five_exponents(r) == expected
            assert is_five_smooth(r) is (expected is not None)

    def test_a_smooth_ratio_past_the_bound_raises_and_a_rough_one_is_not_smooth(self):
        with pytest.raises(ExponentBoundError, match="got 100"):
            is_five_smooth(2 ** 100)
        assert is_five_smooth(7 * 2 ** 100) is False

    def test_a_smooth_ratio_past_the_bound_names_its_exponent(self):
        # a 158 497-bit (232 193-bit) argument is factored whole by _strip, which
        # divides by p, p**2, p**4, ...: about 2 * log2(e) divisions, not e
        e, past = 100_000, EXPONENT_BOUND + 1
        calls = [
            (is_five_smooth, 3 ** e, f"got {e}$"),
            (rational_to_monzo, Fraction(1, 5 ** e), f"got -{e}$"),
            (monzo_form, Fraction(3 ** e, 5 ** e), f"got {e}$"),
        ]
        for call, r, message in calls:
            with mock.patch.object(ratio, "_strip", wraps=ratio._strip) as strip:
                with pytest.raises(ExponentBoundError, match=message):
                    call(r)
            # at most two of the four strips divide, each in bits(e) + 1 calls
            assert 0 < strip.call_count <= 2 * (e.bit_length() + 1) + 2
        # a rough rest is still not 5-smooth, however large its smooth part
        assert is_five_smooth(7 * 3 ** 100_000) is False
        assert rational_to_monzo(Fraction(3 ** past, 7 * 5 ** 100_000)) is None

    @given(
        st.integers(min_value=1, max_value=10 ** 30),
        st.sampled_from([2, 3, 5, 7, 3 ** 5]),
        st.integers(min_value=0, max_value=3000),
    )
    def test_strip(self, rest, p, e):
        while rest % p == 0:
            rest //= p
        assert ratio._strip(rest * p ** e, p) == (rest, e)

    @given(smooth_parts, smooth_parts)
    def test_smooth_exponents_answer_within_the_tables_and_agree(self, top, bottom):
        sides = []
        for a, b, c, w in (top, bottom):
            x = 2 ** a * 3 ** b * 5 ** c * w
            smooth = w == 1 and max(b, c) <= EXPONENT_BOUND
            assert ratio._smooth_exponents(x) == ((a, b, c) if smooth else None)
            sides.append((x, smooth))
        (x, x_smooth), (y, y_smooth) = sides
        if x_smooth and y_smooth:
            diff = tuple(i - j for i, j in zip(top[:3], bottom[:3]))
            if max(map(abs, diff)) > EXPONENT_BOUND:  # only e2 can pass it
                with pytest.raises(ExponentBoundError, match=f"got {diff[0]}$"):
                    ratio._five_exponents(Fraction(x, y))
            else:
                assert ratio._five_exponents(Fraction(x, y)) == diff

    @given(monzos)
    def test_round_trip(self, m):
        assert rational_to_monzo(monzo_to_rational(m)) == m

    @given(
        st.builds(Monzo, *[st.integers(min_value=-32, max_value=32)] * 3),
        st.builds(Monzo, *[st.integers(min_value=-32, max_value=32)] * 3),
    )
    def test_multiplicative(self, a, b):
        assert monzo_to_rational(a + b) == monzo_to_rational(a) * monzo_to_rational(b)

    def test_distinctness_within_12(self):
        values = {
            monzo_to_rational(Monzo(m, n))
            for m in range(-12, 13)
            for n in range(-12, 13)
        }
        assert len(values) == 25 * 25

    def test_no_cycle_closes_on_the_octave(self):
        hits = [
            (m, n)
            for m in range(-40, 41)
            for n in [*range(-25, 0), *range(1, 26)]
            if Fraction(2) ** m * Fraction(3) ** n == 2
        ]
        assert hits == []


class TestExactSortKey:
    @given(
        st.lists(positive_fractions | st.integers(1, 10**6), min_size=1, max_size=8).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=20)
        )
    )
    def test_orders_as_fractions_do_ties_included(self, ratios):
        d, keyed = ratio._ascending([*range(len(ratios))], ratios.__getitem__)
        assert [i for _, i in keyed] == sorted(range(len(ratios)), key=ratios.__getitem__)
        assert [key for key, _ in keyed] == [ratios[i] * d for _, i in keyed]


class TestOctaveReduction:
    def test_examples(self):
        assert reduce_to_octave(Fraction(3)) == Fraction(3, 2)
        assert reduce_to_octave(Fraction(5)) == Fraction(5, 4)
        assert reduce_to_octave(Fraction(1)) == 1

    @given(positive_fractions)
    def test_idempotent_and_in_range(self, r):
        reduced = reduce_to_octave(r)
        assert 1 <= reduced < 2
        assert reduce_to_octave(reduced) == reduced

    @staticmethod
    def shift_by_loop(r: Fraction) -> int:
        h = 0
        while r < 1:
            r *= 2
            h += 1
        while r >= 2:
            r /= 2
            h -= 1
        return h

    @given(
        st.one_of(
            st.fractions(min_value=Fraction(1, 10**30), max_value=10**30),
            st.integers(min_value=-200, max_value=200).map(lambda e: Fraction(2) ** e),
        )
    )
    def test_octave_shift_matches_the_loop(self, r):
        assert octave_shift(r) == self.shift_by_loop(r)

    @pytest.mark.parametrize(
        "r",
        [
            Fraction(1),
            Fraction(2),
            Fraction(1, 2),
            Fraction(2) ** 95,
            Fraction(2) ** -95,
            Fraction(3, 2) ** 60,
            Fraction(3, 2) ** -60,
            Fraction(2**64 - 1, 2**63),
            Fraction(2**63 + 1, 2**64),
        ],
    )
    def test_octave_shift_at_powers_of_two_and_far_fifths(self, r):
        h = octave_shift(r)
        assert h == self.shift_by_loop(r)
        assert 1 <= r * Fraction(2) ** h < 2

    def test_octave_shift_rejects_nonpositive(self):
        for r in (0, Fraction(-3, 2)):
            with pytest.raises(ValueError):
                octave_shift(r)


class TestPerfectPowers:
    def test_examples(self):
        assert not is_nth_root_irrational(8, 3)
        assert is_nth_root_irrational(32, 12)
        # integer exponentiation oracle: 3**6 == 729
        assert 3 ** 6 == 729
        assert not is_nth_root_irrational(729, 6)

    @given(st.integers(min_value=2, max_value=500), st.integers(min_value=2, max_value=8))
    def test_against_brute_force(self, m, n):
        brute = next((a for a in range(1, m + 1) if a ** n == m), None)
        assert is_nth_root_irrational(m, n) == (brute is None)

    def test_irrationality_examples(self):
        assert is_nth_root_irrational(2, 12)
        assert not is_nth_root_irrational(4, 2)
        # exhaustive oracle over all conceivable roots of 2**7
        assert all(a ** 12 != 2 ** 7 for a in range(1, 2 ** 7 + 1))
        assert is_nth_root_irrational(2 ** 7, 12)

    def test_domain(self):
        for m, n in ((0, 2), (1, 2), (8, 1)):
            with pytest.raises(ValueError):
                is_nth_root_irrational(m, n)


def certified(a: int, x: int, n: int) -> bool:
    return a ** n <= x < (a + 1) ** n


class TestIntegerRoot:
    @given(
        st.integers(min_value=0, max_value=20_000).flatmap(
            lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)
        ),
        st.integers(min_value=1, max_value=311),
    )
    def test_certificate_holds(self, x, n):
        assert certified(integer_nth_root(x, n), x, n)

    @pytest.mark.parametrize("n", [2, 3, 12, 53, 311])
    @pytest.mark.parametrize("a", [1, 2, 3, 7, 10 ** 5, 2 ** 100 + 1, 3 ** 200])
    def test_boundaries_of_exact_powers(self, a, n):
        x = a ** n
        assert integer_nth_root(x - 1, n) == a - 1
        assert integer_nth_root(x, n) == a
        assert integer_nth_root(x + 1, n) == a

    def test_small_values(self):
        assert [integer_nth_root(x, 3) for x in range(10)] == [0, 1, 1, 1, 1, 1, 1, 1, 2, 2]
        assert integer_nth_root(2 ** 258, 311) == 1
        assert integer_nth_root(12345, 1) == 12345

    @pytest.mark.parametrize("offset", [-40.0, -1.0, 1.0, 40.0])
    def test_result_does_not_rest_on_the_float_seed(self, monkeypatch, offset):
        class SkewedMath:
            isqrt = staticmethod(math.isqrt)

            @staticmethod
            def log2(v):
                return math.log2(v) + offset

        monkeypatch.setattr(ratio, "math", SkewedMath)
        for x, n in [(10 ** 30 + 7, 3), (2 ** 7 * 10 ** 100, 12), (3 ** 500, 53)]:
            assert certified(integer_nth_root(x, n), x, n)

    def test_failed_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(ratio, "_root_candidate", lambda x, n: 1)
        message = "root certificate failed: root of degree 3 of a 30-bit integer"
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            integer_nth_root(10 ** 9, 3)

    @pytest.mark.parametrize("x, n", [(10 ** 100, 2), (10 ** 100, 21), (10 ** 100, 53)])
    def test_failed_certificate_names_the_degree_of_any_root(self, monkeypatch, x, n):
        # "degree n" reads for every n, where "n-th" gave "2-th", "21-th" and "53-th"
        monkeypatch.setattr(ratio, "_root_candidate", lambda x, n: 1)
        monkeypatch.setattr(ratio, "math", mock.Mock(isqrt=lambda x: 1))  # the n = 2 candidate
        message = f"root certificate failed: root of degree {n} of a 333-bit integer"
        with pytest.raises(ArithmeticError, match=f"^{message}$"):
            integer_nth_root(x, n)

    #: roots next to an exact power (10**9 = 1000**3) and a bracketed one
    NEIGHBOURS = [
        (10 ** 9 - 1, 3), (10 ** 9, 3), (2 ** 7 * 10 ** 100, 12), (3 ** 500, 53), (1 << 12_000, 53)
    ]

    @pytest.mark.parametrize("x, n", NEIGHBOURS)
    @pytest.mark.parametrize("off", [-1, 1])
    def test_a_candidate_off_by_one_is_corrected(self, monkeypatch, x, n, off):
        # the lower half of the certificate rejects the one above, the upper
        # half the one below, and one move gives the certified root
        a = integer_nth_root(x, n)
        assert certified(a, x, n)
        monkeypatch.setattr(ratio, "_root_candidate", lambda x, n: a + off)
        assert integer_nth_root(x, n) == a

    @pytest.mark.parametrize("x, n", NEIGHBOURS)
    @pytest.mark.parametrize("off", [-1, 1])
    def test_a_candidate_past_the_correction_bound_raises(self, monkeypatch, x, n, off):
        a = integer_nth_root(x, n) + off * (ratio._CORRECTIONS + 1)
        monkeypatch.setattr(ratio, "_root_candidate", lambda x, n: a)
        with pytest.raises(ArithmeticError):
            integer_nth_root(x, n)

    @given(
        st.integers(min_value=2, max_value=4_000).flatmap(
            lambda bits: st.integers(min_value=2, max_value=(1 << bits) - 1)
        ),
        st.integers(min_value=3, max_value=311),
    )
    def test_candidate_is_within_the_correction_bound(self, x, n):
        a = integer_nth_root(x, n)
        assert abs(ratio._root_candidate(x, n) - a) <= ratio._CORRECTIONS == 1
        # with every power formed exactly the Halley steps read no bracket
        with mock.patch.object(ratio, "_EXACT_BITS", 1 << 40):
            assert abs(ratio._root_candidate(x, n) - a) <= 1

    @pytest.mark.parametrize(
        "x, n, a",
        [(2 ** 258, 311, 1)]
        + [((a + 1) ** n - 1, n, a) for n in (3, 12, 53, 311) for a in (1, 2, n // 2, n)],
    )
    def test_root_where_the_binomial_bound_does_not_decide(self, x, n, a):
        # x >= (a + n) * a**(n-1): only (a+1)**n itself closes the bracket.
        # The a = 1 rows have at most n bits and return before the
        # certificate; the a >= 2 rows, past 2**n, are the ones that reach it
        assert x >= (a + n) * a ** (n - 1)
        assert (x.bit_length() > n) == (a >= 2)
        assert integer_nth_root(x, n) == a

    def test_an_x_of_at_most_n_bits_has_the_root_one_at_any_n(self):
        # returned before any power: a float start of 2 would form 2**n.  The
        # a = 2 rows of test_boundaries_of_exact_powers hold x = 2**n - 1 and
        # 2**n at small n; these n are past _EXACT_BITS
        assert integer_nth_root(3, 1 << 40) == 1
        assert is_nth_root_irrational(3, 1 << 40)
        for n in (4096, 10 ** 5):
            assert integer_nth_root((1 << n) - 1, n) == 1
            assert integer_nth_root(1 << n, n) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            integer_nth_root(-1, 3)
        with pytest.raises(ValueError):
            integer_nth_root(8, 0)


def newton_root(x: int, n: int) -> int:
    """floor(x ** (1/n)) for a power of two x = 2**(s + n*p), 0 <= s < n, by
    Newton's iteration on exact integers: from a start above the root each
    step descends, until the floor root, from which a step does not."""
    p, s = divmod(x.bit_length() - 1, n)
    assert x == 1 << s + n * p
    c = int(2 ** (s / n) * (1 + 2 ** -40) * 2 ** 52) + 1  # above 2**(s/n) * 2**52
    a = c << p - 52 if p >= 52 else -(-c >> 52 - p)
    assert a ** n > x
    while (b := ((n - 1) * a + x // a ** (n - 1)) // n) < a:
        a = b
    return a


def et_radicands(n: int, digits: int, ks) -> list[int]:
    """The radicand ``et_value(EtPitch(k, n), digits)`` roots, 2**(k + n*P) for
    0 < k < n, with P the bits of 10**digits and 16 more."""
    return [1 << k + n * ((10 ** digits).bit_length() + 16) for k in ks]


#: the divisions of the et roots differentiated here, each with its digit cap
DIVISIONS = {n: min(MAX_DIGITS, MAX_ET_DIGITS // n) for n in (3, 12, 31, 53, 311, 665, 1200)}


class TestHalleyCandidate:
    @pytest.mark.parametrize("n, digits, most", [(311, 20, 2), (311, 50, 3)])
    def test_brackets_per_value(self, n, digits, most):
        # one for each Halley step past the float start and one for the
        # certificate: Newton's steps took 3 at 20 digits and 5 at 50
        with mock.patch.object(ratio, "_power_bracket", wraps=ratio._power_bracket) as brackets:
            for k in range(1, n):
                brackets.reset_mock()
                et_value(EtPitch(k, n), digits)
                assert brackets.call_count <= most, k

    @pytest.mark.parametrize("off", [-1, 1])
    @pytest.mark.parametrize("n", sorted(DIVISIONS))
    def test_a_step_from_the_worst_inner_candidate_lands_within_one(self, monkeypatch, n, off):
        # the inner candidate one off the inner floor root, the edge of the
        # bound the step's proof assumes: within 2 + 1/n below root / 2**h,
        # within 1 above it
        top = ratio._root_candidate
        inner = []

        def worst(y, m):
            inner.append(y)
            return newton_root(y, m) + off

        monkeypatch.setattr(ratio, "_root_candidate", worst)
        for digits in {DIVISIONS[n], 100, 40} & set(range(1, DIVISIONS[n] + 1)):
            for x in et_radicands(n, digits, {1, 2, n // 2, n - 2, n - 1}):
                inner.clear()
                assert abs(top(x, n) - newton_root(x, n)) <= 1
                assert len(inner) == 1  # past one step from the float start

    @pytest.mark.parametrize("n", sorted(DIVISIONS))
    def test_against_integer_newton_on_et_radicands(self, n):
        cap = DIVISIONS[n]
        for digits in sorted({1, 5, 20, 50, cap // 2, cap} & set(range(1, cap + 1))):
            for x in et_radicands(n, digits, {1, n // 3, n // 2, n - 1}):
                a = newton_root(x, n)
                assert integer_nth_root(x, n) == a
                assert abs(ratio._root_candidate(x, n) - a) <= 1


class TestDecimalRendering:
    def test_examples(self):
        assert to_decimal(Fraction(256, 243), 5) == "1.05349"
        assert to_decimal(Fraction(3, 2), 5) == "1.5"
        assert to_decimal(Fraction(1), 5) == "1"

    def test_truncates_not_rounds(self):
        assert to_decimal(Fraction(2, 3), 5) == "0.66666"
        # expansion continues past the cut: the trailing zero stays
        assert to_decimal(Fraction(6561, 4096), 5) == "1.60180"

    def test_terminating_shorter_than_width(self):
        assert to_decimal(Fraction(9, 8), 5) == "1.125"
        assert to_decimal(Fraction(2), 5) == "2"

    @given(
        st.fractions(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=20),
    )
    def test_against_decimal_module(self, r, digits):
        with localcontext() as ctx:
            ctx.prec = 60
            exact = Decimal(r.numerator) / Decimal(r.denominator)
            truncated = exact.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_DOWN)
        assert Decimal(to_decimal(r, digits)) == truncated

    def test_domain(self):
        with pytest.raises(TuningError):
            to_decimal(Fraction(1), 0)
        for digits in (True, 2.5, 5.0, "5"):
            with pytest.raises(TuningError):
                to_decimal(Fraction(1, 3), digits)

    def test_digit_cap(self):
        assert to_decimal(Fraction(1, 3), MAX_DIGITS) == "0." + "3" * MAX_DIGITS
        with pytest.raises(TuningError):
            to_decimal(Fraction(1, 3), MAX_DIGITS + 1)

    def test_the_power_of_five_is_split_in_logarithmic_steps(self):
        # _strip divides by 5, 25, 625, ...: each call makes at most two
        # divisions, so 5**e splits in about 2 * log2(e) of them, not e
        e = 100_000
        with mock.patch.object(ratio, "_strip", wraps=ratio._strip) as strip:
            assert ratio._terminating_digits(2 ** 7 * 5 ** e) == e
        assert 0 < strip.call_count <= e.bit_length() + 1
        assert to_decimal(Fraction(1, 5 ** e), 5) == "0.00000"

    def test_too_many_digits_for_a_string_is_a_tuning_error(self):
        # 301 integer digits plus 4000 fraction digits pass the interpreter's
        # 4300-digit int-to-str limit
        with pytest.raises(TuningError):
            to_decimal(Fraction(10**301, 3), MAX_DIGITS)


class TestCents:
    def test_octave(self):
        assert cents(Fraction(2)) == pytest.approx(1200.0, abs=1e-9)

    def test_log_oracle_values(self):
        fifth = Fraction(3, 2)
        comma = Fraction(531441, 524288)
        assert cents(fifth) == pytest.approx(high_precision_cents(fifth), abs=1e-9)
        assert cents(fifth) == pytest.approx(701.955, abs=1e-3)
        assert cents(comma) == pytest.approx(high_precision_cents(comma), abs=1e-9)
        assert cents(comma) == pytest.approx(23.460, abs=1e-3)

    @given(positive_fractions, positive_fractions)
    def test_additive_under_multiplication(self, a, b):
        assert cents(a * b) == pytest.approx(cents(a) + cents(b), abs=1e-6)

    def test_refuses_monzos_and_nonpositive(self):
        # a lattice point has cents only through monzo_to_rational
        assert cents(monzo_to_rational(Monzo(1, 0, 0))) == pytest.approx(1200.0, abs=1e-9)
        with pytest.raises(TuningError):
            cents(Monzo(1, 0, 0))
        with pytest.raises(ValueError):
            cents(0.0)

    def test_refuses_an_equal_division_pitch(self):
        # cents reads rationals only: an EtPitch has no float cents
        with pytest.raises(TuningError, match="positive int or Fraction"):
            cents(EtPitch(7, 12))


class TestMonzoForm:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (Fraction(243, 128), "3^5/2^7"),
            (Fraction(15, 8), "3*5/2^3"),
            (Fraction(9, 8), "3^2/2^3"),
            (Fraction(3, 2), "3/2"),
            (Fraction(5, 4), "5/2^2"),
            (Fraction(1), "1"),
            (Fraction(2), "2"),
            (Fraction(4, 3), "2^2/3"),
            (Fraction(11, 8), "11/8"),
        ],
    )
    def test_rendering(self, value, expected):
        assert monzo_form(value) == expected
