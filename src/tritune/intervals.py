"""Intervals: the multiplicative distance between sounds.

The distance between two pitches is the ratio of their frequencies, so equal
musical distances are equal ratios, adjacent intervals compose by
multiplication, and two ordered sound sets are congruent when their
consecutive ratios agree.  Rationals, monzos and equal-division pitches are
compared exactly, each as r * 2**e; only a float drops the comparison to
cents with a 1e-6 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .equal import DIATONIC_INDICES, EtPitch, compare_pitches, pitch_parts
from .errors import TuningError
from .ratio import Monzo, cents, octave_shift

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
            raise ValueError(f"unknown letter {self.letter!r}")
        if self.accidental not in _ACCIDENTAL_MARK:
            raise ValueError(f"unknown accidental {self.accidental!r}")

    def __str__(self) -> str:
        return self.letter + _ACCIDENTAL_MARK[self.accidental]


def note_name(chromatic_index: int, preference: str = "sharp") -> NoteName:
    """Name of a chromatic degree of the 12-division scale.

    Diatonic degrees get their plain letter; the five altered degrees are
    spelled as the sharp of the letter below or the flat of the letter above,
    per ``preference``.
    """
    if preference not in ("sharp", "flat"):
        raise ValueError("preference must be 'sharp' or 'flat'")
    i = chromatic_index % 12
    if i in _DIATONIC_LETTER:
        return NoteName(_DIATONIC_LETTER[i])
    if preference == "sharp":
        return NoteName(_DIATONIC_LETTER[i - 1], "sharp")
    return NoteName(_DIATONIC_LETTER[(i + 1) % 12], "flat")


@dataclass(frozen=True)
class Interval:
    """A ratio >= 1 between two pitches; unison is 1, the octave is 2."""

    ratio: Union[Fraction, EtPitch]

    def __post_init__(self):
        if compare_pitches(self.ratio, 1) < 0:
            raise ValueError("interval ratios are >= 1")

    def cents(self) -> float:
        return cents(self.ratio)

    def __float__(self) -> float:
        return float(self.ratio)

    def __str__(self) -> str:
        return str(self.ratio)


def interval_between(f1: Pitch, f2: Pitch) -> Interval:
    """The distance between two sounds: the larger divided by the smaller.

    Arguments are reordered if needed so the result is always >= 1.  Both
    pitches must live in the same exact family (rational-valued, or
    equal-division); the ratio between a rational and an irrational
    equal-division pitch is not representable exactly.
    """
    parts = (pitch_parts(f1), pitch_parts(f2))
    if None not in parts and all(e.denominator == 1 for _, e in parts):
        a, b = (r * 2 ** e for r, e in parts)
        return Interval(max(a, b) / min(a, b))
    if isinstance(f1, EtPitch) and isinstance(f2, EtPitch):
        diff = abs(f2.exponent - f1.exponent)
        return Interval(EtPitch(diff.numerator, diff.denominator))
    raise TypeError(
        "cannot form an exact interval between a rational pitch and an "
        "irrational equal-division pitch"
    )


def compose(i1: Interval, i2: Interval) -> Interval:
    """Chain two intervals: distances compose by multiplying ratios."""
    if isinstance(i1.ratio, Fraction) and isinstance(i2.ratio, Fraction):
        return Interval(i1.ratio * i2.ratio)
    # with an equal-division step the product is an equal-division step,
    # provided the rational parts multiply to a power of two
    (r1, e1), (r2, e2) = pitch_parts(i1.ratio), pitch_parts(i2.ratio)
    h = octave_shift(r1 * r2)
    if r1 * r2 * Fraction(2) ** h != 1:
        raise TypeError("cannot compose a non-octave rational with an irrational step")
    e = e1 + e2 - h
    return Interval(EtPitch(e.numerator, e.denominator))


@dataclass(frozen=True)
class PitchSequence:
    """An ordered, non-empty set of positive pitches."""

    pitches: tuple

    def __init__(self, pitches: Iterable[Pitch]):
        items = tuple(pitches)
        if not items:
            raise ValueError("a pitch sequence cannot be empty")
        for p in items:
            pitch_parts(p)  # raises unless p is a positive pitch
        object.__setattr__(self, "pitches", items)

    def __len__(self):
        return len(self.pitches)

    def __iter__(self):
        return iter(self.pitches)


def _steps_equal(lo1: Pitch, hi1: Pitch, lo2: Pitch, hi2: Pitch) -> bool:
    """Whether hi1/lo1 == hi2/lo2: exactly unless a float is involved."""
    parts = [pitch_parts(p) for p in (lo1, hi1, lo2, hi2)]
    if None not in parts:
        # r2 * 2**e2 / (r1 * 2**e1) == r4 * 2**e4 / (r3 * 2**e3) iff
        # r2 * r3 == r1 * r4 * 2**e; an irrational 2**e equals no rational
        (r1, e1), (r2, e2), (r3, e3), (r4, e4) = parts
        e = e1 + e4 - e2 - e3
        return e.denominator == 1 and r2 * r3 == r1 * r4 * 2 ** e
    step_a = cents(hi1) - cents(lo1)
    step_b = cents(hi2) - cents(lo2)
    return abs(step_a - step_b) <= CENTS_TOLERANCE


def are_congruent(a, b) -> bool:
    """Whether two ordered sound sets develop along identical ratios.

    Sequences of different length are simply not congruent.  Comparison is
    exact unless a float is involved, and then in cents within 1e-6.
    """
    seq_a = a if isinstance(a, PitchSequence) else PitchSequence(a)
    seq_b = b if isinstance(b, PitchSequence) else PitchSequence(b)
    if len(seq_a) != len(seq_b):
        return False
    pa, pb = seq_a.pitches, seq_b.pitches
    return all(
        _steps_equal(pa[i], pa[i + 1], pb[i], pb[i + 1]) for i in range(len(pa) - 1)
    )


def transpose_indices(indices: Sequence[int], k: int) -> list[int]:
    """Shift every scale index by the same amount, preserving order."""
    return [i + k for i in indices]


def sharp(index: int) -> int:
    """One step up the chromatic ladder."""
    return index + 1


def flat(index: int) -> int:
    """One step down the chromatic ladder."""
    return index - 1


@dataclass(frozen=True)
class EtIntervalName:
    """An interval size on the 12-division scale and its name, if it has one."""

    semitones: int
    name: Optional[str]

    def __str__(self) -> str:
        return self.name if self.name else f"{self.semitones} semitones"


def classify_et_interval(semitones: int) -> EtIntervalName:
    """Name an interval by its step count: 0 unison, 5 fourth, 7 fifth, ..."""
    if semitones < 0:
        raise ValueError("a step count cannot be negative")
    return EtIntervalName(semitones, _SEMITONE_NAMES.get(semitones))


@dataclass(frozen=True)
class ChordClassification:
    quality: str
    root_index: int
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
    distinct = sorted(set(indices))
    if len(distinct) < 3:
        raise TuningError("a chord needs at least three distinct sounds")
    root = distinct[0]
    pattern = tuple(i - root for i in distinct)
    quality = _CHORD_PATTERNS.get(pattern, "unknown")
    return ChordClassification(quality, root, note_name(root, preference))
