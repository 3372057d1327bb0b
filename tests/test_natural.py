import math
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritune import natural
from tritune.equal import EtPitch, compare_pitches
from tritune.errors import PropositionViolationError, TuningError
from tritune.intervals import LETTERS
from tritune.natural import (
    Candidate,
    ComparisonRow,
    CoreScale,
    FaLaSolution,
    MeanTriple,
    SiSearch,
    assemble_diatonic,
    build_core,
    compare_three_scales,
    find_si,
    frequency_of_division,
    harmonic_divide,
    means,
    solve_fa_la,
)
from tritune.pythagorean import FifthStep, generate_fifths, pairing_table, select_chromatic
from tritune.ratio import _ascending, is_five_smooth
from tritune.scalefile import export_table
from tritune.tables import comparison_text

positive_fractions = st.fractions(min_value=Fraction(1, 1000), max_value=1000)


@pytest.fixture(scope="module")
def comp():
    return compare_three_scales()


class TestMeans:
    def test_harmonic_examples(self):
        assert means(1, Fraction(1, 2)).harmonic == Fraction(2, 3)
        assert means(1, Fraction(2, 3)).harmonic == Fraction(4, 5)

    def test_degenerate_pair(self):
        t = means(Fraction(7, 5), Fraction(7, 5))
        assert t.arithmetic == t.harmonic == Fraction(7, 5)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            means(0, 1)

    @given(positive_fractions, positive_fractions)
    def test_mean_proportional_identity(self, a, b):
        t = means(a, b)
        assert t.arithmetic * t.harmonic == a * b

    @given(positive_fractions, positive_fractions)
    def test_ordering_with_equality_iff_equal(self, a, b):
        t = means(a, b)
        # compare through squares so the geometric mean never leaves the
        # rationals: h <= g <= a  iff  h^2 <= ab <= a^2
        assert t.harmonic ** 2 <= a * b <= t.arithmetic ** 2
        if a == b:
            assert t.harmonic == t.arithmetic
        else:
            assert t.harmonic ** 2 < a * b < t.arithmetic ** 2


class TestHarmonicDivision:
    def test_examples(self):
        assert harmonic_divide(Fraction(1, 2), 1).ab == Fraction(2, 3)
        assert harmonic_divide(Fraction(2, 3), 1).ab == Fraction(4, 5)
        assert harmonic_divide(Fraction(4, 5), 1).ab == Fraction(8, 9)

    def test_defining_proportion_holds(self):
        d = harmonic_divide(Fraction(1, 2), 1)
        cb = d.ab - d.ac
        bd = d.ad - d.ab
        assert d.ac / cb == d.ad / bd

    def test_ordering_enforced(self):
        with pytest.raises(TuningError):
            harmonic_divide(1, Fraction(1, 2))
        with pytest.raises(TuningError):
            harmonic_divide(1, 1)

    def test_the_proportion_check_refuses_a_wrong_mean(self, monkeypatch):
        # with the arithmetic mean in place of the harmonic one, B = 3/2 on
        # AC = 1, AD = 2: CB = BD = 1/2, and AC/CB = 2 is not AD/BD = 4
        def arithmetic_only(a, b):
            return MeanTriple(arithmetic=(a + b) / 2, harmonic=(a + b) / 2)

        monkeypatch.setattr(natural, "means", arithmetic_only)
        with pytest.raises(PropositionViolationError, match="^harmonic division proportion failed$"):
            harmonic_divide(1, 2)

    @given(positive_fractions, positive_fractions, positive_fractions)
    def test_frequency_bridge(self, x, y, kappa):
        # frequencies are inversely proportional to lengths, so the harmonic
        # point's frequency is the arithmetic mean of the endpoint frequencies
        ac, ad = min(x, y), max(x, y)
        if ac == ad:
            return
        d = harmonic_divide(ac, ad)
        assert frequency_of_division(kappa / d.ac, kappa / d.ad) == kappa / d.ab


class TestFrequencyOfDivision:
    def test_examples(self):
        assert frequency_of_division(1, 2) == Fraction(3, 2)
        assert frequency_of_division(1, Fraction(3, 2)) == Fraction(5, 4)
        assert frequency_of_division(1, Fraction(5, 4)) == Fraction(9, 8)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            frequency_of_division(0, 1)


class TestCoreConstruction:
    def test_chain(self):
        core = build_core()
        assert core.degrees == (
            Fraction(1),
            Fraction(9, 8),
            Fraction(5, 4),
            Fraction(3, 2),
            Fraction(2),
        )
        assert core.trace == (
            "mean(DO, 2DO) -> SOL = 3/2",
            "mean(DO, SOL) -> MI = 5/4",
            "mean(DO, MI) -> RE = 9/8",
        )

    def test_next_iteration_falls_off_the_lattice(self):
        next_candidate = frequency_of_division(1, Fraction(9, 8))
        assert next_candidate == Fraction(17, 16)
        assert not is_five_smooth(next_candidate)


class TestFaLa:
    def test_unique_solution(self):
        sol = solve_fa_la()
        assert sol.f1 == Fraction(4, 3)
        assert sol.f2 == Fraction(5, 3)

    def test_substitution(self):
        sol = solve_fa_la()
        assert (1 + sol.f2) / 2 == sol.f1
        assert (sol.f1 + 2) / 2 == sol.f2

    def test_gap_placement(self):
        sol = solve_fa_la()
        assert Fraction(5, 4) < sol.f1 < Fraction(3, 2)
        assert Fraction(3, 2) < sol.f2 < 2


class TestFindSi:
    def test_unique_acceptance(self):
        search = find_si()
        assert search.accepted.value == Fraction(15, 8)
        assert (search.accepted.f_n1, search.accepted.f_n2) == (
            Fraction(3, 2),
            Fraction(9, 8),
        )

    def test_in_range_rejects_are_off_lattice(self):
        rejected = {(c.f_n1, c.f_n2): c for c in find_si().rejected}
        seven_fourths = rejected[(Fraction(3, 2), Fraction(5, 4))]
        assert (seven_fourths.value, seven_fourths.reason) == (
            Fraction(7, 4),
            "not-5-limit",
        )
        eleven_sixths = rejected[(Fraction(5, 3), Fraction(3, 2))]
        assert (eleven_sixths.value, eleven_sixths.reason) == (
            Fraction(11, 6),
            "not-5-limit",
        )

    def test_la_with_mi_overshoots_the_octave(self):
        # 2 * 5/3 - 5/4 = 25/12, above the octave, hence rejected on range
        rejected = {(c.f_n1, c.f_n2): c for c in find_si().rejected}
        overshoot = rejected[(Fraction(5, 3), Fraction(5, 4))]
        assert overshoot.value == Fraction(25, 12)
        assert overshoot.reason == "out-of-range"

    def test_no_candidate_equals_35_twelfths(self):
        # no ordered pair of degrees can produce 35/12 at all
        search = find_si()
        values = {c.value for c in search.rejected} | {search.accepted.value}
        assert Fraction(35, 12) not in values

    def test_searches_the_derived_degrees(self, monkeypatch):
        # without RE no pair lands a 5-limit sound between LA and the octave
        # (15/8 needs 9/8), so a search over the derivation finds none
        core = CoreScale(tuple(map(Fraction, (1, "5/4", "3/2", 2))), ())
        monkeypatch.setattr(natural, "build_core", lambda: core)
        with pytest.raises(PropositionViolationError, match="found 0"):
            find_si()

    @pytest.mark.parametrize(
        "extra",
        [None, Fraction(16, 15), Fraction(10, 9), Fraction(32, 25), Fraction(7, 5)],
        ids=["derived", "lcm-120", "lcm-72", "lcm-600", "two-accepted"],
    )
    def test_integer_search_matches_fraction_arithmetic(self, monkeypatch, extra):
        # the search runs on numerators over the lcm of the degrees'
        # denominators; each verdict is recomputed here with Fractions, also
        # on cores with one more degree (other denominators, or two SIs)
        core = build_core()
        if extra is not None:
            core = CoreScale(tuple(sorted({*core.degrees, extra})), core.trace)
            monkeypatch.setattr(natural, "build_core", lambda: core)
        fa_la = solve_fa_la()
        known = sorted({*core.degrees, fa_la.f1, fa_la.f2})
        expected = {}
        for a in known:
            for b in known:
                if a != b:
                    v = 2 * a - b
                    if not fa_la.f2 < v < known[-1]:
                        expected[(a, b)] = (v, "out-of-range")
                    else:
                        expected[(a, b)] = (v, "accepted" if is_five_smooth(v) else "not-5-limit")
        accepted = sum(reason == "accepted" for _, reason in expected.values())
        if accepted != 1:
            with pytest.raises(PropositionViolationError, match=f"found {accepted}"):
                find_si()
            return
        search = find_si()
        assert (search.core, search.fa_la) == (core, fa_la)
        assert search.denominator == math.lcm(*(f.denominator for f in known))
        candidates = (search.accepted, *search.rejected)
        assert len(candidates) == len(known) * (len(known) - 1)
        assert all(type(c.value) is Fraction for c in candidates)
        assert {(c.f_n1, c.f_n2): (c.value, c.reason) for c in candidates} == expected
        assert search.accepted.reason == "accepted"

    def test_rejected_are_built_when_read_in_the_order_searched(self):
        # every ordered pair of the ascending known degrees, as permutations
        # yields them, the accepted SI left out; values by Fraction arithmetic
        search = find_si()
        fa_la = search.fa_la
        known = sorted({*search.core.degrees, fa_la.f1, fa_la.f2})
        expected = []
        for a in known:
            for b in known:
                v = 2 * a - b
                if a == b or fa_la.f2 < v < known[-1] and is_five_smooth(v):
                    continue
                reason = "not-5-limit" if fa_la.f2 < v < known[-1] else "out-of-range"
                expected.append((a, b, v, reason))
        assert search.searched == len(known) * (len(known) - 1) == 42
        rejected = search.rejected
        assert [(c.f_n1, c.f_n2, c.value, c.reason) for c in rejected] == expected
        assert len(rejected) == search.searched - 1 == 41
        assert all(type(c) is Candidate and type(c.value) is Fraction for c in rejected)
        # a property, not a field: equality, hash and repr read the fields alone
        assert "rejected" not in SiSearch._fields and search.rejected == rejected
        assert search == find_si() and hash(search) == hash(find_si())

    def test_every_rejection_has_a_reason(self):
        for c in find_si().rejected:
            assert c.reason in ("out-of-range", "not-5-limit")
            if c.reason == "not-5-limit":
                assert Fraction(5, 3) < c.value < 2
                assert not is_five_smooth(c.value)


class TestDiatonicAssembly:
    def test_degrees_and_steps(self):
        scale = assemble_diatonic()
        assert [ratio for _, ratio in scale.degrees] == [
            Fraction(1),
            Fraction(9, 8),
            Fraction(5, 4),
            Fraction(4, 3),
            Fraction(3, 2),
            Fraction(5, 3),
            Fraction(15, 8),
            Fraction(2),
        ]
        assert list(scale.steps) == [
            Fraction(9, 8),
            Fraction(10, 9),
            Fraction(16, 15),
            Fraction(9, 8),
            Fraction(10, 9),
            Fraction(9, 8),
            Fraction(16, 15),
        ]
        assert math.prod(scale.steps) == 2

    def test_keeps_the_chain_it_was_assembled_from(self):
        scale = assemble_diatonic()
        search = scale.search
        assert (search.core, search.fa_la) == (build_core(), solve_fa_la())
        assert search.denominator == 24 and len(search.rejected) == 41
        assert scale.degrees[6] == ("SI", search.accepted.value)

    def test_the_just_ratios_check_the_chain(self, monkeypatch):
        # an SI of 16/9 still closes the octave on the 5-limit lattice, so
        # only the check against the eight just ratios refuses it
        search = find_si()
        si = search.accepted
        accepted = Candidate(si.f_n1, si.f_n2, Fraction(16, 9), si.reason)
        wrong = SiSearch(search.core, search.fa_la, search.denominator, accepted, search.searched)
        monkeypatch.setattr(natural, "find_si", lambda: wrong)
        with pytest.raises(PropositionViolationError, match="diatonic assembly produced"):
            assemble_diatonic()

    def test_the_octave_closure_checks_the_chain(self, monkeypatch):
        # a core without the octave leaves steps from DO to SI, whose product
        # is 15/8: the closure check refuses it before the just ratios do
        search = find_si()
        core = CoreScale(search.core.degrees[:-1], search.core.trace)
        wrong = SiSearch(core, search.fa_la, search.denominator, search.accepted, search.searched)
        monkeypatch.setattr(natural, "find_si", lambda: wrong)
        with pytest.raises(PropositionViolationError, match="do not close the octave"):
            assemble_diatonic()

    def test_the_five_limit_checks_the_chain(self, monkeypatch):
        # an SI of 7/4 still closes the octave, off the 5-limit lattice
        search = find_si()
        si = search.accepted
        accepted = Candidate(si.f_n1, si.f_n2, Fraction(7, 4), si.reason)
        wrong = SiSearch(search.core, search.fa_la, search.denominator, accepted, search.searched)
        monkeypatch.setattr(natural, "find_si", lambda: wrong)
        with pytest.raises(PropositionViolationError, match="escaped the 5-limit lattice"):
            assemble_diatonic()

    def test_the_five_limit_checks_the_common_denominator(self, monkeypatch):
        # degrees 8/7, 9/7, 10/7, 12/7 and 16/7 close the octave, and over d = 7
        # every numerator is 5-smooth: only d itself fails the check (with DO = 1
        # among the degrees its numerator is d, so the real chain cannot show this)
        search = find_si()
        core = CoreScale((Fraction(8, 7), Fraction(16, 7)), search.core.trace)
        si = search.accepted
        accepted = Candidate(si.f_n1, si.f_n2, Fraction(12, 7), si.reason)
        fa_la = FaLaSolution(Fraction(9, 7), Fraction(10, 7))
        wrong = SiSearch(core, fa_la, search.denominator, accepted, search.searched)
        monkeypatch.setattr(natural, "find_si", lambda: wrong)
        with pytest.raises(PropositionViolationError, match="escaped the 5-limit lattice"):
            assemble_diatonic()

    @given(
        st.lists(
            st.tuples(*[st.integers(-6, 6)] * 3, st.sampled_from([0, 0, 0, 1, -1])).map(
                lambda e: math.prod(Fraction(p) ** x for p, x in zip((2, 3, 5, 7), e))
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_the_five_limit_of_the_numerators_is_that_of_the_values(self, values):
        # the assembly's check: d and every numerator over d, against each value
        def five_smooth(m: int) -> bool:
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        d, keyed = _ascending(values)
        on_integers = five_smooth(d) and all(five_smooth(a) for a, _ in keyed)
        assert on_integers == all(map(is_five_smooth, values))
        # a prime divides the lcm iff it divides one of them: one factoring decides
        assert is_five_smooth(math.lcm(d, *(a for a, _ in keyed))) == on_integers

    def test_one_factoring_checks_the_assembled_lattice(self, monkeypatch):
        # the 3 in-range SI candidates, then the lcm of d = 24 and the numerators
        # 24, 27, 30, 32, 36, 40, 45, 48 over it: 2^5 * 3^3 * 5, not 9 factorings
        seen = []

        def counted(r):
            seen.append(r)
            return is_five_smooth(r)

        monkeypatch.setattr(natural, "is_five_smooth", counted)
        assemble_diatonic()
        assert len(seen) == 4 and seen[-1] == 4320

    def test_names(self):
        names = [str(name) for name, _ in assemble_diatonic().degrees]
        assert names == ["DO", "RE", "MI", "FA", "SOL", "LA", "SI", "DO"]

    def test_two_whole_tone_sizes_block_transposition(self):
        scale = assemble_diatonic()
        assert Fraction(9, 8) in scale.steps and Fraction(10, 9) in scale.steps
        assert Fraction(9, 8) != Fraction(10, 9)
        degrees = dict(
            (str(name), ratio) for name, ratio in scale.degrees if ratio != 2
        )
        assert degrees["SOL"] / degrees["DO"] == Fraction(3, 2)
        assert degrees["LA"] / degrees["RE"] == Fraction(40, 27)
        assert degrees["SOL"] / degrees["DO"] != degrees["LA"] / degrees["RE"]


class TestComparison:
    def test_rows(self, comp):
        by_degree = {}
        for row in comp.rows:
            by_degree.setdefault(row.degree, row)
        la = by_degree["LA"]
        assert la.equal == EtPitch(9, 12)
        assert la.pythagorean == Fraction(27, 16)
        assert la.natural == Fraction(5, 3)
        do = by_degree["DO"]
        assert (do.equal, do.pythagorean, do.natural) == (EtPitch(0, 12), 1, 1)
        mi = by_degree["MI"]
        assert mi.pythagorean == Fraction(81, 64)
        assert mi.natural == Fraction(5, 4)

    def test_orderings(self, comp):
        assert comp.orderings["MI"] == "N < E < P"
        assert comp.orderings["FA"] == "N = P < E"
        assert comp.orderings["LA"] == "N < E < P"
        assert comp.orderings["SI"] == "N < E < P"
        assert comp.orderings["DO"] == "N = E = P"

    def test_orderings_are_read_only(self, comp):
        with pytest.raises(TypeError):
            comp.orderings["MI"] = "x"
        with pytest.raises(TypeError):
            del comp.orderings["MI"]
        assert comp.orderings["MI"] == "N < E < P"

    def test_orderings_are_computed_only_when_read(self, monkeypatch):
        ordering = natural._ordering

        def trap(row):
            raise AssertionError(f"ordering of {row.degree} computed")

        monkeypatch.setattr(natural, "_ordering", trap)
        comparison = compare_three_scales()
        assert export_table(comparison, "csv") and export_table(comparison, "json")
        computed = []
        monkeypatch.setattr(natural, "_ordering", lambda row: computed.append(row) or ordering(row))
        assert comparison_text().splitlines()[-4:] == [
            "MI: N < E < P", "FA: N = P < E", "LA: N < E < P", "SI: N < E < P"
        ]
        # only the printed rows, each once, in print order
        assert computed == [comparison.rows[i] for i in (2, 3, 5, 6)]
        assert [row.degree for row in computed] == ["MI", "FA", "LA", "SI"]

    def test_comparisons_hash_by_their_rows(self, comp):
        again = compare_three_scales()
        assert again is not comp and again == comp and hash(again) == hash(comp)
        assert {comp: "three systems"}[again] == "three systems"
        assert all(comp.orderings[row.degree] == row.ordering for row in comp.rows)

    def test_shape(self, comp):
        assert [row.degree for row in comp.rows] == [
            "DO",
            "RE",
            "MI",
            "FA",
            "SOL",
            "LA",
            "SI",
            "DO",
        ]

    def test_p_is_the_diatonic_selection(self, comp):
        # the fewer-fifths sound of each pair is what the 18-name selection keeps
        named = select_chromatic(generate_fifths(12, 12))
        kept = [p.ratio for p in named if p.name in LETTERS]
        assert [row.pythagorean for row in comp.rows] == kept

    def test_a_tie_in_fifth_counts_is_refused(self, monkeypatch):
        # MI's pair made 8 fifths down and 8 up: neither is reached in fewer
        pairs = dict(pairing_table(generate_fifths(12, 12), 12))
        pairs[4] = (FifthStep("down", 8), FifthStep("up", 8))
        monkeypatch.setattr(natural, "pairing_table", lambda t, n: pairs)
        with pytest.raises(PropositionViolationError, match="^degree 4: fifth counts tie"):
            compare_three_scales()

    def test_ties_with_a_coefficient(self):
        row = ComparisonRow("X", EtPitch(12, 12, 3), Fraction(7), Fraction(6))
        assert natural._ordering(row) == "N = E < P"
        row = ComparisonRow("X", EtPitch(-24, 12, Fraction(5, 3)), Fraction(5, 12), Fraction(1, 3))
        assert natural._ordering(row) == "N < E = P"


def reference_ordering(row: ComparisonRow) -> str:
    """The three values sorted by ``compare_pitches``, ties kept in N, E, P order."""
    values = {"N": row.natural, "E": row.equal, "P": row.pythagorean}
    order = sorted(values, key=cmp_to_key(lambda a, b: compare_pitches(values[a], values[b])))
    parts = [order[0]]
    for a, b in zip(order, order[1:]):
        parts += ["<" if compare_pitches(values[a], values[b]) < 0 else "=", b]
    return " ".join(parts)


@st.composite
def comparison_rows(draw):
    """E = r * 2**(k/12), rational at every twelfth k; N and P random, or tied
    with each other or with a rational E."""
    k = draw(st.one_of(st.integers(-3, 3).map(lambda j: 12 * j), st.integers(-36, 36)))
    r = draw(st.sampled_from([Fraction(1), Fraction(3), Fraction(1, 3), Fraction(5, 3)]))
    e = EtPitch(k, 12, r)
    values = st.fractions(min_value=Fraction(1, 64), max_value=64, max_denominator=2 ** 20)
    exact = [st.just(e.as_fraction())] if e.is_rational() else []
    n = draw(st.one_of(values, *exact))
    p = draw(st.one_of(values, st.just(n), *exact))
    return ComparisonRow("X", e, p, n)


@settings(max_examples=1000, deadline=None)
@given(comparison_rows())
def test_orderings_on_integers_agree_with_compare_pitches(row):
    assert natural._ordering(row) == reference_ordering(row)
