"""Three-limit scale built by stacking perfect fifths.

Walking k fifths up or down from the base and folding each result back into
the octave with a power of two yields the family 2**h * (3/2)**(+/-k), all
distinct rationals: the walk never closes.  Twelve steps each way and the
zero-fifth endpoints 1 and 2 are 26 sounds that bracket the twelve-division
equal scale in pairs, from which the traditional 18-name chromatic selection
is drawn.
"""

from __future__ import annotations

from fractions import Fraction

from .equal import DIATONIC_INDICES, MAX_DIVISIONS, _degree
from .errors import _DERIVED, CoverageError, ExponentBoundError, PropositionViolationError
from .errors import TuningError, _record, _shown, check_instance, check_int, positive_fraction
from .intervals import note_name
from .ratio import EXPONENT_BOUND, Monzo, _cents, _floor_log2, _log2_reading
from .ratio import monzo_to_rational, reduce_to_octave

PYTHAGOREAN_COMMA = Fraction(531441, 524288)  # (3/2)**12 / 2**7


@_record
class FifthStep:
    """One sound of the table, set by a direction and a count k of fifths.

    ``h`` and ``ratio`` follow from those two as ratio = 2**h * (3/2)**(+/-k),
    folded into [1, 2) as by ``ratio.reduce_to_octave``, h = -floor(log2 of
    (3/2)**(+/-k)), but for DO' = 2 (k = 0 down), lifted one octave above DO = 1.
    Every k >= 1 lands strictly inside (1, 2), never on a power of two.  The
    fold is bounded by |h| <= ceil(k*log2(3/2)), at most 38 for k up to
    ``EXPONENT_BOUND`` = 64; a k outside 0 to 64 is an ExponentBoundError.
    """

    direction: str  # "up" or "down"
    k: int
    h: int = _DERIVED
    ratio: Fraction = _DERIVED

    def __post_init__(self):
        if self.direction not in ("up", "down"):
            raise TuningError(f"direction must be 'up' or 'down', got {_shown(self.direction)}")
        k = check_int("a fifth count k", self.k, 0, EXPONENT_BOUND, ExponentBoundError)
        up = self.direction == "up"
        p, q = (3 ** k, 2 ** k) if up else (2 ** k, 3 ** k)
        h = (not up and k == 0) - _floor_log2(p, q)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "ratio", Fraction(p << max(h, 0), q << max(-h, 0)))

    def construction(self) -> str:
        """How the sound is reached: "1" or "2" at k = 0, else "3/2",
        "2*(3/2)^-1", "2^-1*(3/2)^2" and so on."""
        if self.k == 0:
            return str(self.ratio.numerator)
        e = self.k if self.direction == "up" else -self.k
        fifth = "3/2" if e == 1 else f"(3/2)^{e}"
        if self.h == 0:
            return fifth
        two = "2" if self.h == 1 else f"2^{self.h}"
        return f"{two}*{fifth}"


#: the whole walk, k = 0 to ``EXPONENT_BOUND`` each way, built once: every
#: table is a slice of it, and its k = 0 steps are the endpoints DO = 1 and DO' = 2
_DOWN = tuple(FifthStep("down", k) for k in range(EXPONENT_BOUND + 1))
_UP = tuple(FifthStep("up", k) for k in range(EXPONENT_BOUND + 1))
_DO, _DO_OCTAVE = _UP[0], _DOWN[0]


@_record
class PythTable:
    """Sounds generated by m1 fifths down and m2 fifths up."""

    down: tuple[FifthStep, ...]
    up: tuple[FifthStep, ...]

    def __post_init__(self):
        for steps in self.down, self.up:
            if not all(isinstance(s, FifthStep) for s in check_instance("steps", steps, tuple)):
                raise TuningError(f"steps must be of type FifthStep, got {_shown(steps)}")

    def entries(self) -> list[FifthStep]:
        """DO, the steps down, the steps up and DO'."""
        return [_DO, *self.down, *self.up, _DO_OCTAVE]

    def ratios(self) -> list[Fraction]:
        return [s.ratio for s in self.entries()]


def generate_fifths(m1: int, m2: int) -> PythTable:
    """Walk m1 fifths down and m2 fifths up, folding into the base octave.

    m1 and m2 run from 0 to ``EXPONENT_BOUND``, checked before anything else
    (ExponentBoundError outside); the steps are shared slices of the walk
    built once at import, safe to share since a ``FifthStep`` is frozen.
    """
    check_int("fifths down m1", m1, 0, EXPONENT_BOUND, ExponentBoundError)
    check_int("fifths up m2", m2, 0, EXPONENT_BOUND, ExponentBoundError)
    return PythTable(_DOWN[1 : m1 + 1], _UP[1 : m2 + 1])


def classify_to_et(r: Fraction, n: int = 12) -> tuple[int, float]:
    """Slot a ratio against the nearest n-division degree.

    Returns (degree, deviation in cents); positive deviation means the sound
    sits above its equal neighbour.  n is an integer from 1 to
    ``equal.MAX_DIVISIONS``, as for ``equal.nearest_degree``, checked after r.
    """
    r = positive_fraction(r, "a pitch ratio")
    a, b = r.numerator, r.denominator
    if not b <= a <= 2 * b:
        raise TuningError(f"ratio {_shown(r)} is outside the reference octave [1, 2]")
    degree = _degree(a, b, check_int("steps per octave n", n, 1, MAX_DIVISIONS))
    return degree, _cents(a, b) - degree * 1200.0 / n


def pairing_table(t: PythTable, n: int = 12) -> dict[int, tuple[FifthStep, FifthStep]]:
    """Group the generated sounds around the n+1 equal degrees, two apiece.

    Each degree must receive exactly one approximant from below and one from
    above (the endpoints sit exactly on degrees 0 and n); anything else is a
    coverage error naming the offending degree, and n runs from 1 to
    ``equal.MAX_DIVISIONS``.  A sound r = 2**h * (3/2)**e, e = +/-k, has m = floor(log2
    r**(2n)) = ``ratio._log2_reading(2n(h - e), 2ne, 0)``, decided at every k <= 64 and n
    <= 1200 (``test_every_exponent_a_pairing_asks_for_is_decided``): degree d = (m + 1) // 2,
    below 2**(d/n) at m = 2d - 1, at or above at m = 2d.  Only 1 and 2 lie on a degree.
    """
    entries = check_instance("a fifth table", t, PythTable).entries()
    check_int("steps per octave n", n, 1, MAX_DIVISIONS)
    buckets: dict[int, list[tuple[int, FifthStep]]] = {}
    for step in entries:
        e = step.k if step.direction == "up" else -step.k
        m = _log2_reading(2 * n * (step.h - e), 2 * n * e, 0)
        buckets.setdefault((m + 1) // 2, []).append((m, step))
    pairs = {}
    for degree in range(n + 1):
        found = buckets.get(degree, ())
        if len(found) != 2:
            noun = "approximant" if len(found) == 1 else "approximants"
            raise CoverageError(f"degree {degree} has {len(found)} {noun}, expected 2")
        # m never falls as the ratio grows; a tie (at degree 0 only) keeps DO first
        (m_low, low), (m_high, high) = found if found[0][0] <= found[1][0] else found[::-1]
        if m_high % 2 or not (m_low % 2 or low.k == 0):
            raise PropositionViolationError(
                f"degree {degree} approximants do not bracket the equal value"
            )
        pairs[degree] = (low, high)
    return pairs


@_record
class NamedPitch:
    """A selected chromatic sound: its name ("RE♭") and the fifth step it keeps."""

    name: str
    step: FifthStep

    @property
    def ratio(self) -> Fraction:
        return self.step.ratio


def _fewer_fifths(degree: int, low: FifthStep, high: FifthStep) -> FifthStep:
    """Of a diatonic degree's pair, the sound reached in fewer fifths (a tie raises)."""
    if low.k == high.k:
        raise PropositionViolationError(f"degree {degree}: fifth counts tie, selection undefined")
    return low if low.k < high.k else high


def select_chromatic(t: PythTable) -> list[NamedPitch]:
    """The 18-sound chromatic selection, named from a DO base.

    Diatonic degrees keep the approximant reached in fewer fifths; the five
    altered degrees keep both sounds, the lower spelled as the flat of the
    letter above, the higher as the sharp of the letter below.
    """
    pairs = pairing_table(t, 12)
    named: list[NamedPitch] = []
    for degree, (low, high) in pairs.items():
        if degree in DIATONIC_INDICES:
            named.append(NamedPitch(note_name(degree), _fewer_fifths(degree, low, high)))
        else:
            named.append(NamedPitch(note_name(degree, "flat"), low))
            named.append(NamedPitch(note_name(degree, "sharp"), high))
    return named  # ascending: the pairing's degree bands rise, each lower sound first


@_record
class BaseDependenceDemo:
    """Witness that the finite selection depends on the starting sound: the product of
    the walk rebased on MI, as a monzo over DO, and whether the DO table holds it."""

    product_monzo: Monzo
    product_in_table: bool


def base_dependence_demo(t: PythTable) -> BaseDependenceDemo:
    """Rebase the walk on MI and exhibit a sound the DO table cannot reach; a table
    without the control, the same shift from DO, (3/2)**9 folded into the octave (fewer
    than 9 fifths up), witnesses nothing and raises PropositionViolationError."""
    mi = Monzo(-6, 4)
    shift = Monzo(-5 - 9, 9)  # 2**-5 * (3/2)**9
    product = mi + shift
    ratios = set(check_instance("a fifth table", t, PythTable).ratios())
    if reduce_to_octave(monzo_to_rational(shift)) not in ratios:
        raise PropositionViolationError("the same shift from DO is missing from the table")
    if reduce_to_octave(monzo_to_rational(product)) in ratios:
        raise PropositionViolationError(
            "the rebased sound was found in the table; it should require "
            "further iterations"
        )
    return BaseDependenceDemo(product, False)
