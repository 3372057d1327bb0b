"""Five-limit just scale built solely from harmonic division.

A point B divides a string AD harmonically against an interior point C when
AC/CB = AD/BD; then AB is the harmonic mean of AC and AD, and because
frequency is inversely proportional to string length, the frequency of AB is
the arithmetic mean of the frequencies of AC and AD.  Iterating that single
construction from the octave produces SOL, MI, RE; a unique pair FA/LA closes
two octave proportions; and a brute-force search shows exactly one admissible
SI.  The result is the eight-degree just diatonic scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

from .equal import DIATONIC_INDICES, EtPitch, _neighbour_signs
from .errors import PropositionViolationError, TuningError, _record, _shown, check_instance
from .errors import positive_fraction
from .intervals import note_name
from .pythagorean import _fewer_fifths, generate_fifths, pairing_table
from .ratio import RationalLike, _ascending, is_five_smooth

#: the just diatonic degrees DO..DO, ascending, that the assembly must reach
JUST_DIATONIC = (
    Fraction(1), Fraction(9, 8), Fraction(5, 4), Fraction(4, 3),
    Fraction(3, 2), Fraction(5, 3), Fraction(15, 8), Fraction(2),
)


@_record
class MeanTriple:
    """The arithmetic and harmonic means of a positive pair a, b.

    Their product is a*b, the square of the geometric mean, so the mean
    proportional m_a * m_h == a*b needs no third field.
    """

    arithmetic: Fraction
    harmonic: Fraction


def means(a: RationalLike, b: RationalLike) -> MeanTriple:
    """The arithmetic and harmonic means of two positive rationals."""
    fa, fb = positive_fraction(a, "a"), positive_fraction(b, "b")
    return MeanTriple(arithmetic=(fa + fb) / 2, harmonic=2 * fa * fb / (fa + fb))


@_record
class HarmonicDivision:
    """Lengths AC < AB < AD with AB the harmonic mean of AC and AD."""

    ac: Fraction
    ad: Fraction
    ab: Fraction


def harmonic_divide(ac: RationalLike, ad: RationalLike) -> HarmonicDivision:
    """Place the harmonic point B between C and D on the string AD.

    The defining proportion AC/CB == AD/BD is re-checked exactly on the
    result before it is returned.
    """
    fac, fad = positive_fraction(ac, "AC"), positive_fraction(ad, "AD")
    if fac >= fad:
        raise TuningError(f"AC must be shorter than AD, got AC={_shown(fac)}, AD={_shown(fad)}")
    ab = means(fac, fad).harmonic
    cb, bd = ab - fac, fad - ab
    if not (cb > 0 and bd > 0 and fac * bd == fad * cb):
        raise PropositionViolationError("harmonic division proportion failed")
    return HarmonicDivision(fac, fad, ab)


def frequency_of_division(f_ac: RationalLike, f_ad: RationalLike) -> Fraction:
    """Frequency of the harmonic point: the mean of the two frequencies.

    Inverse proportionality between string length and frequency turns the
    harmonic mean of lengths into the arithmetic mean of frequencies.
    """
    return (positive_fraction(f_ac, "a") + positive_fraction(f_ad, "b")) / 2


@_record
class CoreScale:
    """The sounds reachable by iterating harmonic division from the octave,
    and the derivation, one line per mean: "mean(DO, 2DO) -> SOL = 3/2"."""

    degrees: tuple[Fraction, ...]
    trace: tuple[str, ...]


def build_core() -> CoreScale:
    """DO and its octave generate SOL, then MI, then RE, then nothing new."""
    do, do2 = Fraction(1), Fraction(2)
    sol = frequency_of_division(do, do2)
    mi = frequency_of_division(do, sol)
    re = frequency_of_division(do, mi)
    trace = (
        f"mean(DO, 2DO) -> SOL = {sol}",
        f"mean(DO, SOL) -> MI = {mi}",
        f"mean(DO, MI) -> RE = {re}",
    )
    return CoreScale(degrees=(do, re, mi, sol, do2), trace=trace)


@_record
class Candidate:
    """A value built from the ordered pair (f_n1, f_n2) and its verdict."""

    f_n1: Fraction
    f_n2: Fraction
    value: Fraction
    reason: str  # "accepted" | "out-of-range" | "not-5-limit"


@_record
class FaLaSolution:
    """The unique pair closing both octave proportions: FA and LA."""

    f1: Fraction  # FA
    f2: Fraction  # LA


def solve_fa_la() -> FaLaSolution:
    """Solve f1 = (f0 + f2)/2, f2 = (f1 + 2 f0)/2 exactly, with f0 = 1.

    In matrix form (2 -1; -1 2) (f1 f2) = (1, 2); Cramer's rule on integers
    gives f1 = n1/det and f2 = n2/det, det = 3 > 0, and both checks read n1,
    n2 and det before the two Fractions are built.
    """
    (a11, a12, b1), (a21, a22, b2) = (2, -1, 1), (-1, 2, 2)
    det = a11 * a22 - a12 * a21
    n1, n2 = b1 * a22 - a12 * b2, a11 * b2 - b1 * a21
    if not (2 * n1 == det + n2 and 2 * n2 == n1 + 2 * det):
        raise PropositionViolationError("FA/LA system solution failed substitution")
    if not (5 * det < 4 * n1 and 2 * n1 < 3 * det < 2 * n2 and n2 < 2 * det):
        raise PropositionViolationError("FA/LA fell outside the expected gaps")
    return FaLaSolution(f1=Fraction(n1, det), f2=Fraction(n2, det))


@_record
class SiSearch:
    """The core and FA/LA searched, the accepted SI and the number of ordered pairs
    searched; ``rejected``, built at each read, is the rest."""

    core: CoreScale
    fa_la: FaLaSolution
    accepted: Candidate
    searched: int

    @property
    def rejected(self) -> tuple[Candidate, ...]:
        d, verdicts = _si_verdicts(self.core, self.fa_la)
        kept = [(p, q, Fraction(f3, d), why) for p, q, f3, why in verdicts if why != "accepted"]
        return tuple([Candidate(*c) for c in kept])


def _si_verdicts(core: CoreScale, fa_la: FaLaSolution) -> tuple[int, list[tuple]]:
    """d, the common denominator of the known degrees, and (f_n1, f_n2, f3, reason) for each
    ordered pair of them, ascending, f3/d = 2*f_n1 - f_n2: the verdicts of :func:`find_si`."""
    d, known = _ascending([*{*core.degrees, fa_la.f1, fa_la.f2}])
    lo, hi = fa_la.f2.numerator * (d // fa_la.f2.denominator), known[-1][0]
    verdicts = []
    for (a, f_n1), (b, f_n2) in permutations(known, 2):
        why = "out-of-range" if not lo < (f3 := 2 * a - b) < hi else (
            "accepted" if is_five_smooth(Fraction(f3, d)) else "not-5-limit")
        verdicts.append((f_n1, f_n2, f3, why))
    return d, verdicts


def find_si() -> SiSearch:
    """Brute-force the last degree: the only harmonic proportion that lands
    a 5-limit sound strictly between LA and the octave.

    For every ordered pair (f_n1, f_n2) of distinct known degrees the
    candidate is f3 = 2*f_n1 - f_n2 (so that f_n1 is the mean of f_n2 and
    f3), over the degrees derived so far, those of :func:`build_core` and
    :func:`solve_fa_la`.  Every verdict is given in integers: over their common
    denominator d, f3 is 2a - b for numerators a, b, and LA < f3 < octave compares
    numerators; only an in-range f3 is tested for the 5-limit.  Only the accepted SI
    becomes a Fraction and a Candidate; the rejected ones are built when read.
    Exactly one candidate survives; any other outcome raises, because uniqueness
    is the whole point.
    """
    core, fa_la = build_core(), solve_fa_la()
    d, verdicts = _si_verdicts(core, fa_la)
    accepted = [(p, q, Fraction(f3, d), why) for p, q, f3, why in verdicts if why == "accepted"]
    if len(accepted) != 1:
        raise PropositionViolationError(
            f"expected exactly one admissible SI, found {len(accepted)}"
        )
    return SiSearch(core, fa_la, Candidate(*accepted[0]), len(verdicts))


@_record
class NaturalScale:
    """The eight named degrees, the seven steps between them, their SI search."""

    degrees: tuple[tuple[str, Fraction], ...]
    steps: tuple[Fraction, ...]
    search: SiSearch


def assemble_diatonic() -> NaturalScale:
    """DO..DO from one :func:`find_si` chain (its core, FA/LA and SI), checked
    to close the octave, to stay 5-limit and then to be the just ratios."""
    search = find_si()
    fa_la, si = search.fa_la, search.accepted.value
    d, keyed = _ascending([*{*search.core.degrees, fa_la.f1, fa_la.f2, si}])
    nums, values = [a for a, _ in keyed], [v for _, v in keyed]
    if nums[-1] != 2 * nums[0]:  # the steps a_(i+1)/a_i telescope to a_last/a_first
        raise PropositionViolationError("scale steps do not close the octave")
    # the a_i/d, d the lcm of their denominators, are 5-smooth iff d and all a_i are:
    # if d is, so are g = gcd(a_i, d) and d/g, and a_i/d = (a_i/g)/(d/g) is iff a_i/g
    # is, iff a_i is; if d is not, a prime p > 5 divides d, hence some denominator;
    # and a prime divides lcm(d, a_1, ...) iff it divides d or an a_i: one factoring
    if not is_five_smooth(math.lcm(d, *nums)):
        raise PropositionViolationError("a degree escaped the 5-limit lattice")
    if values != list(JUST_DIATONIC):
        raise PropositionViolationError(f"diatonic assembly produced {values}")
    steps = tuple(Fraction(b, a) for a, b in zip(nums, nums[1:]))
    degrees = tuple(zip(map(note_name, DIATONIC_INDICES), values))
    return NaturalScale(degrees=degrees, steps=steps, search=search)


@_record
class ComparisonRow:
    """One diatonic degree across the three systems; ``ordering``, computed at each
    read from them, is their ascending order ("N < E < P")."""

    degree: str
    equal: EtPitch
    pythagorean: Fraction
    natural: Fraction

    @property
    def ordering(self) -> str:
        """Ascending order of the three values, each pair compared once, exactly:
        ``equal._neighbour_signs`` of N, E, P, N gives sign(N-E), sign(E-P), sign(P-N).

        A value's rank counts the values strictly below it, so equal values share
        a rank and the stable sort lists ties N first, then E, then P.
        """
        ne, ep, pn = _neighbour_signs((self.natural, self.equal, self.pythagorean, self.natural))
        rank = {"N": (ne > 0) + (pn < 0), "E": (ne < 0) + (ep > 0), "P": (ep < 0) + (pn > 0)}
        order = sorted(rank, key=rank.get)
        parts = [order[0]]
        for a, b in zip(order, order[1:]):
            parts += ["<" if rank[a] < rank[b] else "=", b]
        return " ".join(parts)


@_record
class ScaleComparison:
    """The diatonic degrees across the three systems, one row each."""

    rows: tuple[ComparisonRow, ...]

    def __post_init__(self):
        for row in check_instance("comparison rows", self.rows, tuple):
            check_instance("a row's E", check_instance("a row", row, ComparisonRow).equal, EtPitch)

    @property
    def orderings(self) -> MappingProxyType[str, str]:
        """Each degree's name mapped to its row's ordering, read-only."""
        return MappingProxyType({row.degree: row.ordering for row in self.rows})


def compare_three_scales() -> ScaleComparison:
    """The diatonic degrees of the equal, fifth-built and just scales; P is the sound
    of each degree's pair in the 12-fifth pairing reached in fewer fifths, as kept
    by ``select_chromatic`` (a tie is a PropositionViolationError)."""
    pairs, natural = pairing_table(generate_fifths(12, 12), 12), assemble_diatonic()
    rows = tuple(
        ComparisonRow(name, EtPitch(k, 12), _fewer_fifths(k, *pairs[k]).ratio, n)
        for (name, n), k in zip(natural.degrees, DIATONIC_INDICES)
    )
    return ScaleComparison(rows=rows)
