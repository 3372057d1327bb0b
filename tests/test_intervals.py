from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tritune.equal import EtPitch, compare_pitches, generate_et
from tritune.errors import TuningError
from tritune.intervals import (
    Interval,
    are_congruent,
    classify_chord,
    compose,
    interval_between,
    note_name,
    transpose_indices,
)
from tritune.ratio import Monzo, monzo_to_rational

fractions_01 = st.fractions(min_value=Fraction(1, 1000), max_value=1000)

#: every exact form: rationals (5-smooth ones among them), 2**(k/n), and r * 2**(k/n)
#: with r odd/odd
exact_pitches = st.one_of(
    fractions_01,
    st.integers(min_value=1, max_value=64),
    st.builds(Monzo, st.integers(-6, 6), st.integers(-4, 4), st.integers(-2, 2)).map(
        monzo_to_rational
    ),
    st.builds(EtPitch, st.integers(-36, 36), st.integers(1, 31)),
    st.builds(
        EtPitch,
        st.integers(-36, 36),
        st.integers(1, 31),
        st.sampled_from([Fraction(3), Fraction(5, 3), Fraction(1, 15), Fraction(7, 9)]),
    ),
)


def nth_power(p: EtPitch) -> Fraction:
    """(r * 2**(k/n))**n = r**n * 2**k, an integer identity for p's value."""
    return Fraction(p.r) ** p.n * Fraction(2) ** p.k


class TestIntervalBetween:
    def test_octave_unison_and_division(self):
        assert interval_between(Fraction(1), Fraction(2)).ratio == 2
        assert interval_between(Fraction(7, 3), Fraction(7, 3)).ratio == 1
        # rational division oracle: (3/2) / (9/8) == 4/3
        assert Fraction(3, 2) / Fraction(9, 8) == Fraction(4, 3)
        assert interval_between(Fraction(9, 8), Fraction(3, 2)).ratio == Fraction(4, 3)

    def test_auto_orders(self):
        assert interval_between(Fraction(3, 2), Fraction(1)).ratio == Fraction(3, 2)

    def test_refuses_monzos(self):
        # a lattice point is a pitch only through monzo_to_rational
        with pytest.raises(TuningError):
            interval_between(Monzo(0, 0, 0), Monzo(-1, 1, 0))
        fifth = interval_between(*map(monzo_to_rational, (Monzo(0, 0, 0), Monzo(-1, 1, 0))))
        assert fifth.ratio == Fraction(3, 2)

    def test_accepts_plain_integers(self):
        assert interval_between(1, 2).ratio == 2
        assert interval_between(32, 4).ratio == 8

    def test_et_pitches_stay_symbolic(self):
        i = interval_between(EtPitch(4, 12), EtPitch(7, 12))
        assert isinstance(i.ratio, EtPitch)
        assert Fraction(i.ratio.k, i.ratio.n) == Fraction(3, 12)

    def test_ratio_form_follows_the_value_not_the_operands(self):
        octave = interval_between(EtPitch(1, 12), EtPitch(13, 12))
        assert isinstance(octave.ratio, Fraction) and octave.ratio == 2
        assert isinstance(Interval(2).ratio, Fraction) and Interval(2).ratio == 2
        assert isinstance(Interval(monzo_to_rational(Monzo(1, 1))).ratio, Fraction)
        third = interval_between(EtPitch(4, 12), EtPitch(7, 12))
        assert isinstance(third.ratio, EtPitch) and third.ratio == EtPitch(3, 12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            interval_between(Fraction(-1), Fraction(2))
        # a rational against an irrational pitch is exact: (3/2) / 2**(7/12)
        # = 3 * 2**(-19/12), whose twelfth power is (3/2)**12 / 2**7
        i = interval_between(Fraction(3, 2), EtPitch(7, 12))
        assert i.ratio == EtPitch(-19, 12, 3)
        assert nth_power(i.ratio) == Fraction(3, 2) ** 12 / 2 ** 7
        assert interval_between(EtPitch(7, 12), Fraction(3, 2)).ratio == i.ratio

    @given(fractions_01, fractions_01, st.integers(min_value=-10, max_value=10))
    def test_scale_invariance(self, a, b, k):
        scaled = interval_between(a * Fraction(2) ** k, b * Fraction(2) ** k)
        assert scaled.ratio == interval_between(a, b).ratio

    def test_interval_requires_at_least_unison(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1, 2))
        with pytest.raises(ValueError):
            Interval(EtPitch(-1, 12))


class TestCompose:
    def test_examples(self):
        assert compose(Interval(Fraction(2)), Interval(Fraction(4))).ratio == 8
        assert compose(Interval(Fraction(4)), Interval(Fraction(8))).ratio == 32
        assert compose(Interval(Fraction(3, 2)), Interval(Fraction(4, 3))).ratio == 2

    @given(exact_pitches, exact_pitches, exact_pitches)
    def test_telescopes(self, x, y, z):
        a, c, b = sorted([x, y, z], key=cmp_to_key(compare_pitches))
        left = compose(interval_between(a, c), interval_between(c, b))
        whole = interval_between(a, b)
        assert EtPitch.of(left.ratio) == EtPitch.of(whole.ratio)
        assert left.ratio == whole.ratio
        if all(isinstance(p, Fraction) for p in (x, y, z)):
            assert isinstance(left.ratio, Fraction)

    def test_octave_through_an_irrational_pitch_is_a_fraction(self):
        i = compose(interval_between(1, EtPitch(5, 12)), interval_between(EtPitch(5, 12), 2))
        assert i.ratio == interval_between(1, 2).ratio
        assert isinstance(i.ratio, Fraction) and i.ratio == 2

    def test_mixed_et_and_octave(self):
        i = compose(Interval(EtPitch(7, 12)), Interval(Fraction(2)))
        assert Fraction(i.ratio.k, i.ratio.n) == Fraction(19, 12)
        # a non-octave rational with an irrational step is exact too:
        # 2**(7/12) * 3/2 = 3 * 2**(-5/12), whose twelfth power is 2**7 * (3/2)**12
        i = compose(Interval(EtPitch(7, 12)), Interval(Fraction(3, 2)))
        assert i.ratio == EtPitch(-5, 12, 3)
        assert nth_power(i.ratio) == 2 ** 7 * Fraction(3, 2) ** 12


class TestCongruence:
    def test_scaled_sequence_is_congruent(self):
        base = [Fraction(1), Fraction(2), Fraction(3)]
        for kappa in (Fraction(2), Fraction(7, 5), Fraction(1, 3)):
            assert are_congruent(base, [kappa * f for f in base])

    def test_different_ratio(self):
        assert not are_congruent(
            [Fraction(1), Fraction(3, 2)], [Fraction(1), Fraction(4, 3)]
        )

    def test_index_transposition_on_equal_scale(self):
        melody = [EtPitch(k, 12) for k in (4, 5, 7)]
        shifted = [EtPitch(k, 12) for k in (6, 7, 9)]
        assert are_congruent(melody, shifted)

    def test_length_mismatch_is_false(self):
        assert not are_congruent([Fraction(1)], [Fraction(1), Fraction(2)])

    def test_mixed_exact_and_equal_octave_and_fifth(self):
        assert are_congruent(
            [Fraction(1), Fraction(2)], [EtPitch(0, 12), EtPitch(12, 12)]
        )
        assert not are_congruent(
            [Fraction(1), Fraction(3, 2)], [EtPitch(0, 12), EtPitch(7, 12)]
        )

    def test_mixed_exact_and_equal_is_exact(self):
        # 53545/35737 is within 1e-6 cents of 2**(7/12) but not equal to it
        assert not are_congruent(
            [1, Fraction(53545, 35737)], [EtPitch(0, 12), EtPitch(7, 12)]
        )
        assert are_congruent(
            [monzo_to_rational(Monzo(0, 0)), monzo_to_rational(Monzo(1, 0))],
            [EtPitch(5, 12), EtPitch(17, 12)],
        )
        assert not are_congruent([1, 2], [EtPitch(5, 12), EtPitch(16, 12)])

    def test_monzo_sequences_compare_exactly(self):
        walk = [monzo_to_rational(Monzo(-k, k, 0)) for k in range(3)]
        scaled = [Fraction(5) * Fraction(3, 2) ** k for k in range(3)]
        assert are_congruent(walk, scaled)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            are_congruent([], [])
        with pytest.raises(ValueError):
            are_congruent([1, 2], [])

    @given(st.lists(fractions_01, min_size=2, max_size=6), fractions_01, fractions_01)
    def test_equivalence_laws(self, seq, kappa, lam):
        scaled = [kappa * f for f in seq]
        rescaled = [lam * f for f in scaled]
        assert are_congruent(seq, seq)  # reflexive
        assert are_congruent(seq, scaled) == are_congruent(scaled, seq)  # symmetric
        if are_congruent(seq, scaled) and are_congruent(scaled, rescaled):
            assert are_congruent(seq, rescaled)  # transitive

    @given(
        st.integers(min_value=1, max_value=24),
        st.lists(st.integers(min_value=0, max_value=48), min_size=2, max_size=8),
        st.integers(min_value=-36, max_value=36),
    )
    def test_transposition_congruence_on_any_equal_scale(self, n, indices, k):
        scale = generate_et(n)
        original = [scale.pitch(i) for i in indices]
        shifted = [scale.pitch(i) for i in transpose_indices(indices, k)]
        assert are_congruent(original, shifted)


class TestIndexOperators:
    def test_transpose_examples(self):
        assert transpose_indices([0, 4, 7], 2) == [2, 6, 9]
        assert transpose_indices([5, 7, 11], -5) == [0, 2, 6]
        assert transpose_indices([4, 4, 5, 7], 12) == [16, 16, 17, 19]


class TestNaming:
    def test_note_names(self):
        assert str(note_name(7, "sharp")) == "SOL"
        assert note_name(1, "flat") == "RE♭"
        assert str(note_name(1, "flat")) == "RE♭"
        assert str(note_name(13, "sharp")) == "DO♯"

    def test_preference_validated(self):
        with pytest.raises(ValueError):
            note_name(1, "up")


class TestChords:
    def test_examples(self):
        assert classify_chord({0, 4, 7}) == "DO major"
        assert classify_chord({2, 5, 9}) == "RE minor"
        assert classify_chord({4, 8, 11, 15}) == "MI major seventh"

    def test_transposition_invariance(self):
        for k in range(-24, 25):
            assert classify_chord({0 + k, 4 + k, 7 + k}) == f"{note_name(k)} major"
            assert classify_chord({0 + k, 3 + k, 7 + k}) == f"{note_name(k)} minor"

    def test_unknown_and_errors(self):
        assert classify_chord({0, 1, 2}) == "unknown"
        assert classify_chord({0, 2, 4, 6}) == "unknown"
        with pytest.raises(TuningError):
            classify_chord({0, 4})
        with pytest.raises(TuningError):
            classify_chord({0, 0, 4})  # duplicates collapse below three sounds
