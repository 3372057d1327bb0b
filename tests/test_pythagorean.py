from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritune.equal import MAX_DIVISIONS, EtPitch, compare_fraction_to_et, nearest_degree
from tritune import equal, pythagorean, ratio
from tritune.errors import CoverageError, ExponentBoundError, PropositionViolationError
from tritune.errors import TuningError
from tritune.intervals import are_congruent
from tritune.pythagorean import (
    PYTHAGOREAN_COMMA,
    FifthStep,
    PythTable,
    base_dependence_demo,
    classify_to_et,
    generate_fifths,
    pairing_table,
    select_chromatic,
)
from tritune.ratio import EXPONENT_BOUND, _floor_log2, cents, octave_shift, to_decimal

# the classical 26-sound generation, twelve fifths each way:
# (direction, k, h, ratio, five-digit truncation)
EXPECTED_STEPS = [
    ("down", 1, 1, Fraction(4, 3), "1.33333"),
    ("down", 2, 2, Fraction(16, 9), "1.77777"),
    ("down", 3, 2, Fraction(32, 27), "1.18518"),
    ("down", 4, 3, Fraction(128, 81), "1.58024"),
    ("down", 5, 3, Fraction(256, 243), "1.05349"),
    ("down", 6, 4, Fraction(1024, 729), "1.40466"),
    ("down", 7, 5, Fraction(4096, 2187), "1.87288"),
    ("down", 8, 5, Fraction(8192, 6561), "1.24859"),
    ("down", 9, 6, Fraction(32768, 19683), "1.66478"),
    ("down", 10, 6, Fraction(65536, 59049), "1.10985"),
    ("down", 11, 7, Fraction(262144, 177147), "1.47981"),
    ("down", 12, 8, Fraction(1048576, 531441), "1.97308"),
    ("up", 1, 0, Fraction(3, 2), "1.5"),
    ("up", 2, -1, Fraction(9, 8), "1.125"),
    ("up", 3, -1, Fraction(27, 16), "1.6875"),
    ("up", 4, -2, Fraction(81, 64), "1.26562"),
    ("up", 5, -2, Fraction(243, 128), "1.89843"),
    ("up", 6, -3, Fraction(729, 512), "1.42382"),
    ("up", 7, -4, Fraction(2187, 2048), "1.06787"),
    ("up", 8, -4, Fraction(6561, 4096), "1.60180"),
    ("up", 9, -5, Fraction(19683, 16384), "1.20135"),
    ("up", 10, -5, Fraction(59049, 32768), "1.80203"),
    ("up", 11, -6, Fraction(177147, 131072), "1.35152"),
    ("up", 12, -7, Fraction(531441, 524288), "1.01364"),
]

# the classical 18-sound chromatic selection from a DO base, ascending
EXPECTED_CHROMATIC = [
    ("DO", Fraction(1)),
    ("RE♭", Fraction(256, 243)),
    ("DO♯", Fraction(2187, 2048)),
    ("RE", Fraction(9, 8)),
    ("MI♭", Fraction(32, 27)),
    ("RE♯", Fraction(19683, 16384)),
    ("MI", Fraction(81, 64)),
    ("FA", Fraction(4, 3)),
    ("SOL♭", Fraction(1024, 729)),
    ("FA♯", Fraction(729, 512)),
    ("SOL", Fraction(3, 2)),
    ("LA♭", Fraction(128, 81)),
    ("SOL♯", Fraction(6561, 4096)),
    ("LA", Fraction(27, 16)),
    ("SI♭", Fraction(16, 9)),
    ("LA♯", Fraction(59049, 32768)),
    ("SI", Fraction(243, 128)),
    ("DO", Fraction(2)),
]


@pytest.fixture(scope="module")
def table():
    return generate_fifths(12, 12)


class TestGeneration:
    def test_matches_the_reference_walk(self, table):
        got = [(s.direction, s.k, s.h, s.ratio) for s in table.down + table.up]
        assert got == [(d, k, h, r) for d, k, h, r, _ in EXPECTED_STEPS]

    def test_five_digit_truncations(self, table):
        for step, (_, _, _, _, expected) in zip(
            table.down + table.up, EXPECTED_STEPS
        ):
            assert to_decimal(step.ratio, 5) == expected

    def test_first_fifth_down_and_comma(self, table):
        assert table.down[0].ratio == 2 * Fraction(3, 2) ** -1 == Fraction(4, 3)
        assert table.up[11].ratio == PYTHAGOREAN_COMMA
        assert table.up[11].h == -7

    def test_empty_walk_keeps_endpoints(self):
        t = generate_fifths(0, 0)
        assert t.ratios() == [1, 2]

    def test_negative_counts_rejected(self):
        with pytest.raises(TuningError):
            generate_fifths(-1, 0)

    @pytest.mark.parametrize("m1, m2", [(0, 0), (5, 3), (12, 12), (20, 1)])
    def test_entry_count(self, m1, m2):
        entries = generate_fifths(m1, m2).entries()
        assert len(entries) == m1 + m2 + 2
        assert all(isinstance(s, FifthStep) for s in entries)

    def test_all_sounds_distinct_and_inside_octave(self, table):
        ratios = table.ratios()
        assert len(set(ratios)) == 26
        for s in table.down + table.up:
            assert 1 < s.ratio < 2

    def test_octave_correction_is_unique(self, table):
        for s in table.down + table.up:
            sign = 1 if s.direction == "up" else -1
            raw = Fraction(3, 2) ** (sign * s.k)
            fits = [h for h in range(-20, 21) if 1 < Fraction(2) ** h * raw < 2]
            assert fits == [s.h]

    @pytest.mark.parametrize("direction, k", [("sideways", 1), ("up", -1), ("down", -1)])
    def test_step_rejects_bad_direction_or_count(self, direction, k):
        with pytest.raises(ValueError):
            FifthStep(direction, k)

    @pytest.mark.parametrize("direction, sign", [("up", 1), ("down", -1)])
    def test_step_folds_by_octave_shift(self, direction, sign):
        for k in range(1, EXPONENT_BOUND + 1):
            raw = Fraction(3, 2) ** (sign * k)
            s = FifthStep(direction, k)
            assert s.h == octave_shift(raw)
            assert s.ratio == raw * Fraction(2) ** s.h
            assert 1 < s.ratio < 2 and sign * s.h <= 0

    def test_fold_is_bounded(self):
        # m = floor(k * log2(3/2)) = floor(log2 3**k) - k, 3**k not a power of two
        folds = []
        for k in range(1, EXPONENT_BOUND + 1):
            m = (3 ** k).bit_length() - 1 - k
            assert FifthStep("up", k).h == -m and FifthStep("down", k).h == m + 1
            folds.append(m + 1)
        assert max(folds) == 38

    def test_the_fold_agrees_with_the_certified_log2_3(self):
        # h reads floor(k * log2(3/2)) from bit lengths (m = 1); floor(k *
        # log2 3) - k reads the same floor from ratio._LOG2_3, with no power
        for k in range(EXPONENT_BOUND + 1):
            f = _floor_log2(3, 1, k) - k
            assert (FifthStep("up", k).h, FifthStep("down", k).h) == (-f, f + 1)
            assert _floor_log2(3, 2, k) == f

    def test_fifth_count_cap(self):
        t = generate_fifths(EXPONENT_BOUND, EXPONENT_BOUND)
        assert len(t.entries()) == 2 * EXPONENT_BOUND + 2
        for m1, m2, message in (
            (EXPONENT_BOUND + 1, 0, "fifths down m1 must be an integer from 0 to 64, got 65"),
            (0, EXPONENT_BOUND + 1, "fifths up m2 must be an integer from 0 to 64, got 65"),
            (-1, 0, "fifths down m1 must be an integer from 0 to 64, got -1"),
            (0, -1, "fifths up m2 must be an integer from 0 to 64, got -1"),
        ):
            with pytest.raises(ExponentBoundError) as exc:
                generate_fifths(m1, m2)
            assert str(exc.value) == message
        with pytest.raises(ExponentBoundError):
            FifthStep("up", EXPONENT_BOUND + 1)

    def test_tables_share_one_walk(self):
        for m in range(EXPONENT_BOUND + 1):
            t = generate_fifths(m, m)
            # a FifthStep compares by direction, k, h and ratio
            for got, direction in ((t.down, "down"), (t.up, "up")):
                assert got == tuple(FifthStep(direction, k) for k in range(1, m + 1))
            entries = t.entries()
            assert (entries[0].ratio, entries[-1].ratio) == (1, 2)
            assert (entries[0].direction, entries[-1].direction) == ("up", "down")

    def test_count_checked_before_any_step_is_built(self, monkeypatch):
        built = mock.Mock(side_effect=AssertionError("a step was built"))
        monkeypatch.setattr(pythagorean, "FifthStep", built)
        with pytest.raises(ExponentBoundError):
            generate_fifths(10 ** 12, 0)


def five_limit_ratios():
    """2**a * 3**b * 5**c folded into [1, 2), for |b|, |c| <= 2."""
    ratios = {Fraction(3) ** b * Fraction(5) ** c for b in range(-2, 3) for c in range(-2, 3)}
    return sorted(r * Fraction(2) ** octave_shift(r) for r in ratios)


#: the ratios the benchmark classifies: 60 fifths each way and the 5-limit ones
LARGE_N_POOL = generate_fifths(60, 60).ratios() + five_limit_ratios()


def public_classification(r, n):
    """(degree, deviation) read through the public ``nearest_degree`` and ``cents``."""
    d = nearest_degree(r, n)
    return d, cents(r) - d * 1200.0 / n


class TestClassification:
    def test_fifth(self):
        degree, deviation = classify_to_et(Fraction(3, 2))
        assert degree == 7
        assert deviation == pytest.approx(1.955, abs=1e-3)

    def test_comma_sits_above_the_base(self):
        degree, deviation = classify_to_et(PYTHAGOREAN_COMMA)
        assert degree == 0
        assert deviation > 0

    def test_unison(self):
        assert classify_to_et(Fraction(1)) == (0, 0.0)

    def test_outside_octave_rejected(self):
        with pytest.raises(TuningError):
            classify_to_et(Fraction(5, 2))

    def test_divisions_must_be_an_integer_from_1_to_the_cap(self, table):
        assert classify_to_et(Fraction(3, 2), MAX_DIVISIONS)[0] == 702
        for n in (0, -12, MAX_DIVISIONS + 1, 12.0):
            with pytest.raises(TuningError):
                classify_to_et(Fraction(3, 2), n)
            with pytest.raises(TuningError):
                pairing_table(table, n)

    @pytest.mark.parametrize("n", [12, 31, 53, 311])
    def test_is_nearest_degree_and_cents_on_the_large_n_pool(self, n):
        for r in LARGE_N_POOL:
            assert repr(classify_to_et(r, n)) == repr(public_classification(r, n))

    @given(
        st.one_of(
            st.sampled_from(LARGE_N_POOL),
            st.fractions(min_value=1, max_value=2, max_denominator=10 ** 9),
        ),
        st.integers(min_value=1, max_value=MAX_DIVISIONS),
    )
    @settings(deadline=None)
    def test_is_nearest_degree_and_cents(self, r, n):
        # repr tells every float apart, -0.0 from 0.0 too: bit-identical
        assert repr(classify_to_et(r, n)) == repr(public_classification(r, n))

    @pytest.mark.parametrize(
        "r, n, message",
        [
            # the ratio first, then its octave, then n
            (True, 0, "a pitch ratio must be a positive int or Fraction, got True"),
            (Fraction(5, 2), 0, "ratio Fraction(5, 2) is outside the reference octave [1, 2]"),
            (
                Fraction(3, 2),
                MAX_DIVISIONS + 1,
                "steps per octave n must be an integer from 1 to 1200, got 1201",
            ),
        ],
    )
    def test_checks_the_ratio_its_octave_and_n_in_that_order(self, r, n, message):
        with pytest.raises(TuningError) as exc:
            classify_to_et(r, n)
        assert type(exc.value) is TuningError and str(exc.value) == message


class TestPairing:
    def test_every_degree_gets_a_bracket(self, table):
        pairs = pairing_table(table)
        assert sorted(pairs) == list(range(13))
        for degree, (low, high) in pairs.items():
            et = EtPitch(degree, 12)
            assert compare_fraction_to_et(low.ratio, et) <= 0
            assert compare_fraction_to_et(high.ratio, et) >= 0
            assert low.ratio < high.ratio

    def test_quoted_rows(self, table):
        pairs = pairing_table(table)
        assert pairs[7][0].ratio == Fraction(262144, 177147)
        assert pairs[7][1].ratio == Fraction(3, 2)
        assert pairs[1][0].ratio == Fraction(256, 243)
        assert pairs[1][1].ratio == Fraction(2187, 2048)
        assert pairs[0][0].ratio == 1
        assert pairs[0][1].ratio == PYTHAGOREAN_COMMA
        assert pairs[12][0].ratio == Fraction(1048576, 531441)
        assert pairs[12][1].ratio == 2

    def test_incomplete_walk_raises_with_degree(self):
        with pytest.raises(CoverageError):
            pairing_table(generate_fifths(11, 12))
        with pytest.raises(CoverageError):
            pairing_table(generate_fifths(12, 11))

    @pytest.mark.parametrize("n", [12, 53])
    def test_each_degree_pairs_its_sounds_fed_in_either_order(self, n, monkeypatch):
        # DO first, as a tie in m (at degree 0) keeps the order given; the rest
        # falling, so each degree's higher sound comes before its lower one
        t = generate_fifths(n, n)
        pairs = pairing_table(t, n)
        do, *rest = t.entries()
        falling = [do, *sorted(rest, key=lambda s: s.ratio, reverse=True)]
        monkeypatch.setattr(PythTable, "entries", lambda self: falling)
        assert pairing_table(t, n) == pairs

    @pytest.mark.parametrize(
        "m1, m2, message",
        [
            (12, 5, "degree 0 has 1 approximant, expected 2"),
            (53, 53, "degree 0 has 6 approximants, expected 2"),
        ],
    )
    def test_coverage_message_counts_in_the_singular_and_plural(self, m1, m2, message):
        with pytest.raises(CoverageError) as exc:
            pairing_table(generate_fifths(m1, m2))
        assert str(exc.value) == message


def bracket_pairing(t, n):
    """The pairing decided sound by sound and degree by degree: each sound
    bucketed by ``nearest_degree``, then each degree's two sounds checked
    against it by two ``compare_fraction_to_et`` calls."""
    buckets = {}
    for step in t.entries():
        buckets.setdefault(nearest_degree(step.ratio, n), []).append(step)
    pairs = {}
    for degree in range(n + 1):
        found = sorted(buckets.get(degree, []), key=lambda s: s.ratio)
        if len(found) != 2:
            raise CoverageError(degree, len(found))
        low, high = found
        et = EtPitch(degree, n)
        if compare_fraction_to_et(low.ratio, et) > 0 or compare_fraction_to_et(
            high.ratio, et
        ) < 0:
            raise PropositionViolationError(
                f"degree {degree} approximants do not bracket the equal value"
            )
        pairs[degree] = (low, high)
    return pairs


def outcome(pairing, t, n):
    """The pairing's dict, or the type and message of what it raised."""
    try:
        return pairing(t, n)
    except TuningError as exc:
        return type(exc), str(exc)


# (m1, m2) walks, valid at some n and short or lopsided at others
WALKS = [(0, 0), (1, 1), (2, 2), (3, 2), (5, 5), (7, 5), (11, 12), (12, 11), (12, 12),
         (24, 24), (41, 41), (30, 53), (53, 53), (64, 9), (64, 64)]


class TestPairingParity:
    @pytest.mark.parametrize("m1, m2", WALKS)
    def test_one_decision_per_sound_matches_the_brackets(self, m1, m2):
        t = generate_fifths(m1, m2)
        valid = 0
        for n in [*range(1, 81), 311, 665, 1200]:
            got = outcome(pairing_table, t, n)
            assert got == outcome(bracket_pairing, t, n), (m1, m2, n)
            valid += isinstance(got, dict)
        # at these divisions, only n fifths each way pair the n-division
        # scale, and only at these n; every other case raises, a
        # PropositionViolationError where a degree gets two sounds on one side
        # (12 fifths each way at n = 10, 11, 13, 14, 15), else a CoverageError
        assert valid == (m1 == m2 and m1 in (1, 2, 5, 12, 24, 53))

    def test_two_sounds_on_one_side_violate_the_proposition(self, table):
        # degree 7 keeps 3/2 and gets 3**13/2**20 in place of 2**18/3**11:
        # both above 2**(7/12), the low one of even m, compared once more
        down = tuple(s for s in table.down if s.k != 11)
        above = PythTable(down, table.up + (FifthStep("up", 13),))
        # degree 5 gets 4/3 twice in place of 3**11/2**17: both below 2**(5/12)
        up = tuple(s for s in table.up if s.k != 11)
        below = PythTable(table.down + (FifthStep("down", 1),), up)
        for t, degree in ((above, 7), (below, 5)):
            message = f"degree {degree} approximants do not bracket the equal value"
            with pytest.raises(PropositionViolationError) as exc:
                pairing_table(t, 12)
            assert str(exc.value) == message
            assert outcome(bracket_pairing, t, 12) == (PropositionViolationError, message)

    @given(
        st.one_of(
            st.sampled_from(generate_fifths(64, 64).ratios()),
            st.fractions(min_value=1, max_value=2, max_denominator=10 ** 9),
        ),
        st.integers(min_value=1, max_value=311),
    )
    def test_the_parity_of_the_floor_is_the_side(self, r, n):
        p, q = r.numerator, r.denominator
        m = _floor_log2(p, q, 2 * n)
        d = (m + 1) // 2
        side = compare_fraction_to_et(r, EtPitch(d, n))
        assert 0 <= d <= n
        # r <=> 2**(d/n)  iff  p**n <=> q**n * 2**d
        assert side == (p ** n > q ** n << d) - (p ** n < q ** n << d)
        assert (m % 2 == 1) == (side < 0)
        assert (side == 0) == (r in (1, 2))

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 24, 53])
    def test_a_valid_pairing_forms_no_power(self, n, monkeypatch):
        # each sound's m comes from its step's exponents and one bracket of
        # log2 3, taken at import: no power, bracket or comparison per sound,
        # whether through a kernel in ratio or a binding of it in equal
        t = generate_fifths(n, n)
        for module, name in ((ratio, "_powers"), (ratio, "_power_bracket"),
                             (equal, "compare_pitches"), (ratio, "_sign"), (equal, "_sign")):
            monkeypatch.setattr(module, name, mock.Mock(side_effect=AssertionError(name)))
        assert sorted(pairing_table(t, n)) == list(range(n + 1))


class TestChromaticSelection:
    def test_eighteen_named_sounds(self, table):
        named = select_chromatic(table)
        assert [(str(p.name), p.ratio) for p in named] == EXPECTED_CHROMATIC

    def test_flats_sit_below_their_sharps(self, table):
        by_name = {str(p.name): p.ratio for p in select_chromatic(table)}
        assert by_name["RE♭"] < by_name["DO♯"]
        assert by_name["SOL♭"] < by_name["FA♯"]

    def test_fewer_iterations_win_on_diatonic_degrees(self, table):
        by_name = {str(p.name): p for p in select_chromatic(table)}
        assert by_name["SOL"].ratio == Fraction(3, 2)
        assert by_name["SOL"].step.k == 1

    def test_endpoints_are_both_do(self, table):
        named = select_chromatic(table)
        assert str(named[0].name) == str(named[-1].name) == "DO"
        assert (named[0].ratio, named[-1].ratio) == (1, 2)

    def test_endpoints_are_the_zero_fifth_steps(self):
        do, octave = FifthStep("up", 0), FifthStep("down", 0)
        assert (do.ratio, do.h, do.construction()) == (1, 0, "1")
        assert (octave.ratio, octave.h, octave.construction()) == (2, 1, "2")
        assert isinstance(do.ratio, Fraction) and isinstance(octave.ratio, Fraction)
        assert generate_fifths(0, 0).entries() == [do, octave]

    def test_every_selected_sound_is_three_limit(self, table):
        from tritune.ratio import rational_to_monzo

        for p in select_chromatic(table):
            m = rational_to_monzo(p.ratio)
            assert m is not None and m.exp5 == 0

    def test_shift_by_one_breaks_congruence(self, table):
        # the selection is not equally spaced: sliding the index window by
        # one produces a different consecutive-ratio sequence
        pitches = [p.ratio for p in select_chromatic(table)]
        assert not are_congruent(pitches[:-1], pitches[1:])


class TestToneSplit:
    def test_semitone_identities(self):
        # the 9/8 tone DO-RE splits into the limma 2**8/3**5 and the apotome
        # 3**7/2**11, one below and one above the equal semitone; each
        # completes the tone with the other, and two equal semitones fall short
        limma, apotome, tone = Fraction(256, 243), Fraction(2187, 2048), Fraction(9, 8)
        assert limma * apotome == tone
        assert tone / limma == apotome and tone / apotome == limma
        semitone = EtPitch(1, 12)
        assert compare_fraction_to_et(limma, semitone) < 0
        assert compare_fraction_to_et(apotome, semitone) > 0
        assert compare_fraction_to_et(tone, EtPitch(2, 12)) > 0
        assert cents(tone) == pytest.approx(203.91, abs=1e-2)
        assert cents(tone) > 200.0


class TestBaseDependence:
    def test_rebased_walk_leaves_the_table(self, table):
        demo = base_dependence_demo(table)
        assert (demo.product_monzo.exp2, demo.product_monzo.exp3) == (-20, 13)
        assert demo.product_monzo.exp5 == 0
        assert not demo.product_in_table
        assert demo.product_ratio == Fraction(3**13, 2**20)

    def test_a_table_reaching_the_rebased_sound_is_refused(self):
        # thirteen fifths up reach 3^13/2^20, the rebased product itself
        with pytest.raises(PropositionViolationError, match="rebased sound was found in the table"):
            base_dependence_demo(generate_fifths(12, 13))

    def test_same_shift_from_do_is_already_there(self, table):
        demo = base_dependence_demo(table)
        assert demo.control_ratio == Fraction(19683, 16384)
        assert demo.control_in_table
