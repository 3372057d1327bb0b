"""Intervals: the multiplicative distance between sounds.

The distance between two pitches is the ratio of their frequencies, so equal
musical distances are equal ratios, adjacent intervals compose by
multiplication, and two ordered sound sets are congruent when their
consecutive ratios agree.  Every pitch, a positive int or Fraction or an
``EtPitch``, is read as one ``EtPitch`` r * 2**(k/n), so intervals and congruence
between any of them are exact; anything else, a float or a Monzo, is a TuningError.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .equal import DIATONIC_INDICES, EtPitch, compare_pitches
from .errors import TuningError, _record, _shown, check_instance, check_int

Pitch = int | Fraction | EtPitch

LETTERS = ("DO", "RE", "MI", "FA", "SOL", "LA", "SI")

#: chromatic index -> diatonic letter, for the 12-division octave
_DIATONIC_LETTER = dict(zip(DIATONIC_INDICES, LETTERS))

_CHORD_PATTERNS = {
    (0, 4, 7): "major",
    (0, 3, 7): "minor",
    (0, 4, 7, 11): "major seventh",
}


def note_name(chromatic_index: int, preference: str = "sharp") -> str:
    """Name of a chromatic degree of the 12-division scale, as text.

    Diatonic degrees get their plain letter ("SOL"); the five altered degrees
    are spelled as the sharp of the letter below ("DO♯") or the flat of the
    letter above ("RE♭"), per ``preference``.
    """
    if preference not in ("sharp", "flat"):
        raise TuningError(f"preference must be 'sharp' or 'flat', got {_shown(preference)}")
    i = check_int("a chromatic index", chromatic_index, None) % 12
    if i in _DIATONIC_LETTER:
        return _DIATONIC_LETTER[i]
    if preference == "sharp":
        return _DIATONIC_LETTER[i - 1] + "♯"
    return _DIATONIC_LETTER[(i + 1) % 12] + "♭"


@_record
class Interval:
    """A ratio >= 1 between two pitches; unison is 1, the octave is 2.

    The ratio is stored in one form whatever it was given as: a Fraction when
    the interval is rational, of at most ``equal.MAX_OCTAVES`` octaves (checked
    before any power, TuningError beyond), else an exact ``EtPitch`` r * 2**(k/n).
    """

    ratio: Fraction | EtPitch

    def __post_init__(self):
        pitch = EtPitch.of(self.ratio)
        if compare_pitches(pitch, 1) < 0:
            raise TuningError("interval ratios are >= 1")
        object.__setattr__(self, "ratio", pitch.as_fraction() if pitch.is_rational() else pitch)

    def __str__(self) -> str:
        return EtPitch.of(self.ratio).exact_form()


def interval_between(f1: Pitch, f2: Pitch) -> Interval:
    """The distance between two sounds, each a ``Pitch``: the larger divided by the smaller.

    Arguments are reordered if needed so the result is always >= 1: 3/2
    against 2^(7/12) is (3/4) * 2^(5/12) = 3 * 2^(-19/12).  A rational result
    of more than ``equal.MAX_OCTAVES`` octaves is a TuningError, as for ``Interval``.
    """
    a, b = EtPitch.of(f1), EtPitch.of(f2)
    return Interval(a / b if compare_pitches(a, b) > 0 else b / a)


def compose(i1: Interval, i2: Interval) -> Interval:
    """Chain two intervals: distances compose by multiplying ratios."""
    for i in (i1, i2):
        check_instance("an interval", i, Interval)
    return Interval(EtPitch.of(i1.ratio) * i2.ratio)


def are_congruent(a, b) -> bool:
    """Whether two ordered sound sets develop along identical ratios.

    Each set must be non-empty and hold positive exact pitches (TuningError
    otherwise, floats included); sets of different length are simply not
    congruent.  Each step p[i+1] / p[i] is compared exactly.
    """
    pa, pb = (tuple(map(EtPitch.of, check_instance("a pitch set", s, Iterable))) for s in (a, b))
    if not (pa and pb):
        raise TuningError("a pitch sequence cannot be empty")
    if len(pa) != len(pb):
        return False
    return all(x1 / x0 == y1 / y0 for x0, x1, y0, y1 in zip(pa, pa[1:], pb, pb[1:]))


def transpose_indices(indices: Sequence[int], k: int) -> list[int]:
    """Shift every scale index by the same amount, preserving order."""
    check_int("a shift k", k, None)
    check_instance("indices", indices, Iterable)
    return [check_int("an index", i, None) + k for i in indices]


def classify_chord(indices) -> str:
    """Classify a stack of chromatic indices as one of the named triads.

    The pattern is read relative to the lowest sound, which also names the
    chord, an altered one as a sharp: "DO major", "DO♯ minor", "MI major
    seventh".  Anything but the three named shapes comes back as "unknown".
    """
    check_instance("chord indices", indices, Iterable)
    distinct = sorted({check_int("a chord index", i, None) for i in indices})
    if len(distinct) < 3:
        raise TuningError("a chord needs at least three distinct sounds")
    root = note_name(distinct[0])
    quality = _CHORD_PATTERNS.get(tuple(i - distinct[0] for i in distinct))
    return f"{root} {quality}" if quality else "unknown"
