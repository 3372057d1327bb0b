"""Intervals: the multiplicative distance between sounds.

The distance between two pitches is the ratio of their frequencies, so equal
musical distances are equal ratios, adjacent intervals compose by
multiplication, and two ordered sound sets are congruent when their
consecutive ratios agree.  Every exact pitch is read as one ``EtPitch``
r * 2**(k/n), so intervals between any of them are exact; only a float
drops a congruence test to cents with a 1e-6 tolerance.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional, Sequence, Union

from .equal import DIATONIC_INDICES, EtPitch, compare_pitches
from .errors import TuningError, _shown, check_instance, check_int
from .ratio import Monzo, cents

Pitch = Union[int, Fraction, float, Monzo, EtPitch]

CENTS_TOLERANCE = 1e-6

LETTERS = ("DO", "RE", "MI", "FA", "SOL", "LA", "SI")

#: chromatic index -> diatonic letter, for the 12-division octave
_DIATONIC_LETTER = dict(zip(DIATONIC_INDICES, LETTERS))

_ACCIDENTAL_MARK = {"natural": "", "sharp": "♯", "flat": "♭"}

_SEMITONE_NAMES = {
    0: "unison",
    1: "semitone",
    2: "tone",
    4: "major third",
    5: "fourth",
    7: "fifth",
    12: "octave",
}

_CHORD_PATTERNS = {
    (0, 4, 7): "major",
    (0, 3, 7): "minor",
    (0, 4, 7, 11): "major seventh",
}


@dataclass(frozen=True)
class NoteName:
    """A degree name: letter DO..SI plus an accidental."""

    letter: str
    accidental: str = "natural"

    def __post_init__(self):
        if self.letter not in LETTERS:
            raise TuningError(f"unknown letter {_shown(self.letter)}")
        if self.accidental not in _ACCIDENTAL_MARK:
            raise TuningError(f"unknown accidental {_shown(self.accidental)}")

    def __str__(self) -> str:
        return self.letter + _ACCIDENTAL_MARK[self.accidental]


def note_name(chromatic_index: int, preference: str = "sharp") -> NoteName:
    """Name of a chromatic degree of the 12-division scale.

    Diatonic degrees get their plain letter; the five altered degrees are
    spelled as the sharp of the letter below or the flat of the letter above,
    per ``preference``.
    """
    if preference not in ("sharp", "flat"):
        raise TuningError("preference must be 'sharp' or 'flat'")
    i = check_int("a chromatic index", chromatic_index, None) % 12
    if i in _DIATONIC_LETTER:
        return NoteName(_DIATONIC_LETTER[i])
    if preference == "sharp":
        return NoteName(_DIATONIC_LETTER[i - 1], "sharp")
    return NoteName(_DIATONIC_LETTER[(i + 1) % 12], "flat")


@dataclass(frozen=True)
class Interval:
    """A ratio >= 1 between two pitches; unison is 1, the octave is 2.

    The ratio is stored in one form whatever it was given as: a Fraction when
    the interval is rational, else an exact ``EtPitch`` r * 2**(k/n).
    """

    ratio: Union[Fraction, EtPitch]

    def __post_init__(self):
        pitch = EtPitch.of(self.ratio)
        if compare_pitches(pitch, 1) < 0:
            raise TuningError("interval ratios are >= 1")
        ratio = pitch.as_fraction() if pitch.is_rational() else pitch
        object.__setattr__(self, "ratio", ratio)

    def cents(self) -> float:
        return cents(self.ratio)

    def __str__(self) -> str:
        return EtPitch.of(self.ratio).exact_form()


def interval_between(f1: Pitch, f2: Pitch) -> Interval:
    """The distance between two sounds: the larger divided by the smaller.

    Arguments are reordered if needed so the result is always >= 1: 3/2
    against 2^(7/12) is (3/4) * 2^(5/12) = 3 * 2^(-19/12).
    """
    lo, hi = sorted(map(EtPitch.of, (f1, f2)), key=cmp_to_key(compare_pitches))
    return Interval(hi / lo)


def compose(i1: Interval, i2: Interval) -> Interval:
    """Chain two intervals: distances compose by multiplying ratios."""
    for i in (i1, i2):
        check_instance("an interval", i, Interval)
    return Interval(EtPitch.of(i1.ratio) * i2.ratio)


def _steps_equal(lo1: Pitch, hi1: Pitch, lo2: Pitch, hi2: Pitch) -> bool:
    """Whether hi1/lo1 == hi2/lo2: exactly unless a float is involved."""
    if not any(isinstance(p, float) for p in (lo1, hi1, lo2, hi2)):
        return EtPitch.of(hi1) / lo1 == EtPitch.of(hi2) / lo2
    step_a = cents(hi1) - cents(lo1)
    step_b = cents(hi2) - cents(lo2)
    return abs(step_a - step_b) <= CENTS_TOLERANCE


def are_congruent(a, b) -> bool:
    """Whether two ordered sound sets develop along identical ratios.

    Each set must be non-empty and hold positive exact pitches or positive
    finite floats (TuningError otherwise); sets of different length are
    simply not congruent.  Comparison is exact unless a float is involved,
    and then in cents within 1e-6.
    """
    pa, pb = (tuple(check_instance("a pitch set", s, Iterable)) for s in (a, b))
    for p in pa + pb:
        if not (isinstance(p, float) and 0 < p < math.inf):
            EtPitch.of(p)  # raises unless p is a positive exact pitch
    if not (pa and pb):
        raise TuningError("a pitch sequence cannot be empty")
    if len(pa) != len(pb):
        return False
    return all(
        _steps_equal(pa[i], pa[i + 1], pb[i], pb[i + 1]) for i in range(len(pa) - 1)
    )


def transpose_indices(indices: Sequence[int], k: int) -> list[int]:
    """Shift every scale index by the same amount, preserving order."""
    check_int("a shift k", k, None)
    check_instance("indices", indices, Iterable)
    return [check_int("an index", i, None) + k for i in indices]


def sharp(index: int) -> int:
    """One step up the chromatic ladder."""
    return check_int("an index", index, None) + 1


def flat(index: int) -> int:
    """One step down the chromatic ladder."""
    return check_int("an index", index, None) - 1


@dataclass(frozen=True)
class EtIntervalName:
    """An interval size on the 12-division scale and its name, if it has one."""

    semitones: int
    name: Optional[str]

    def __str__(self) -> str:
        return self.name if self.name else f"{self.semitones} semitones"


def classify_et_interval(semitones: int) -> EtIntervalName:
    """Name an interval by its step count: 0 unison, 5 fourth, 7 fifth, ..."""
    check_int("a step count", semitones, 0)
    return EtIntervalName(semitones, _SEMITONE_NAMES.get(semitones))


@dataclass(frozen=True)
class ChordClassification:
    quality: str
    root: NoteName

    def __str__(self) -> str:
        if self.quality == "unknown":
            return "unknown"
        return f"{self.root} {self.quality}"


def classify_chord(indices, preference: str = "sharp") -> ChordClassification:
    """Classify a stack of chromatic indices as one of the named triads.

    The pattern is read relative to the lowest sound, which also names the
    chord.  Anything but the three named shapes comes back as "unknown".
    """
    check_instance("chord indices", indices, Iterable)
    distinct = sorted({check_int("a chord index", i, None) for i in indices})
    if len(distinct) < 3:
        raise TuningError("a chord needs at least three distinct sounds")
    root = distinct[0]
    pattern = tuple(i - root for i in distinct)
    quality = _CHORD_PATTERNS.get(pattern, "unknown")
    return ChordClassification(quality, note_name(root, preference))
