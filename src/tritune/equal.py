"""Equal-division scales: N geometrically equal steps per octave.

The step ratio 2**(1/N) and its powers are irrational, so pitches are kept
symbolic as the pair (k, n) meaning 2**(k/n).  Identities like "n steps
compose to one octave" then hold exactly, and decimal values are produced on
demand by integer root extraction so that every printed digit is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .errors import TuningError, UnsupportedDivisionError
from .ratio import Monzo, _fixed_point, _floor_log2, check_digits, integer_nth_root
from .ratio import is_nth_root_irrational, to_decimal

#: Chromatic indices of the major diatonic subset of the 12-division scale.
DIATONIC_INDICES = (0, 2, 4, 5, 7, 9, 11, 12)

#: Most steps per octave an :class:`EtScale` takes (one step per cent);
#: beyond it a TuningError, so a scale holds at most 1201 pitches.
MAX_DIVISIONS = 1200

#: Most steps x digits one ``et`` table asks for: 12 x ``ratio.MAX_DIGITS``,
#: so the paper's 12-step scale takes every digit count.  Each cap alone
#: leaves the product, and with it the roots of one table, unbounded.
MAX_ET_DIGITS = 48_000


@dataclass(frozen=True)
class EtPitch:
    """The ratio 2**(k/n) relative to a scale base, kept symbolic.

    (k, n) is stored as given; equality and hashing reduce, so
    EtPitch(2, 24) == EtPitch(1, 12).
    """

    k: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("octave divisions n must be a positive integer")

    @property
    def exponent(self) -> Fraction:
        """The exact octave fraction k/n."""
        return Fraction(self.k, self.n)

    def __eq__(self, other) -> bool:
        if isinstance(other, EtPitch):
            return self.exponent == other.exponent
        return NotImplemented

    def __hash__(self):
        return hash(("EtPitch", self.exponent))

    def __float__(self) -> float:
        return 2.0 ** (self.k / self.n)

    def __str__(self) -> str:
        return self.exact_form()

    def cents(self) -> float:
        return 1200.0 * self.k / self.n

    def is_rational(self) -> bool:
        """2**(k/n) is rational iff the reduced exponent is an integer."""
        return self.exponent.denominator == 1

    def is_irrational(self) -> bool:
        """Checked through the perfect-power test, not assumed."""
        e = self.exponent
        if e.denominator == 1:
            return False
        if e >= 0:
            return is_nth_root_irrational(2 ** e.numerator, e.denominator)
        return is_nth_root_irrational(2 ** (-e.numerator), e.denominator)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"2^({self.k}/{self.n}) is irrational")
        e = self.exponent.numerator
        return Fraction(2) ** e

    def exact_form(self) -> str:
        if self.is_rational():
            return str(self.as_fraction())
        return f"2^({self.k}/{self.n})"


def et_value(p: EtPitch, precision_digits: int) -> str:
    """Truncated decimal of 2**(k/n), every emitted digit exact.

    floor(2**(k/n) * 10**d) equals the integer n-th root of 2**k * 10**(d*n),
    so the truncation is computed without any floating point at all.
    Expansions that terminate early (rational cases like 2**(0/12)) are
    emitted in full without padding.

    ``precision_digits`` is capped at ``ratio.MAX_DIGITS`` (TuningError
    beyond it).  With k/n reduced, one call takes a single certified root of
    an integer of about k + 3.33*d*n bits; the cap bounds that at
    k + 13300*n bits.  Building that radicand and its root cost about two
    big-integer powers of that size, 5**(d*n) and the root's a**(n-1) (on a
    2-vCPU Xeon VM: 0.012 s for n = 12, 1.2 s for n = 311 and 8 s for
    n = 1200 at the cap).
    """
    check_digits(precision_digits)
    if p.is_rational():
        return to_decimal(p.as_fraction(), precision_digits)
    e = p.exponent
    d = precision_digits
    # 2**k * 10**(d*n) = 5**(d*n) * 2**(d*n + k); a negative shift count
    # floors, and floor(root(x)) == floor(root(floor(x))) for x >= 0
    dn = d * e.denominator
    shift = dn + e.numerator
    radicand = 5 ** dn << shift if shift >= 0 else 5 ** dn >> -shift
    return _fixed_point(integer_nth_root(radicand, e.denominator), d)


@dataclass(frozen=True)
class EtScale:
    """n+1 pitches 2**(k/n), k = 0..n, over one octave; 1 <= n <= MAX_DIVISIONS."""

    n: int
    pitches: tuple[EtPitch, ...] = field(init=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIVISIONS:
            raise TuningError(
                f"an equal scale takes 1 to {MAX_DIVISIONS} steps per octave, "
                f"got {self.n}"
            )
        object.__setattr__(
            self, "pitches", tuple(EtPitch(k, self.n) for k in range(self.n + 1))
        )

    def pitch(self, k: int) -> EtPitch:
        """Pitch at any index, octaves included (k may lie outside 0..n)."""
        return EtPitch(k, self.n)


def generate_et(n: int) -> EtScale:
    """Equal scale with n steps: the unique geometric ladder closing at 2."""
    return EtScale(n=n)


def et_semitone_count(i1: int, i2: int) -> int:
    """Number of scale steps spanned by two indices."""
    return abs(i2 - i1)


def diatonic_subset(scale: EtScale) -> list[EtPitch]:
    """The eight-degree major subset DO..DO of the 12-division scale."""
    if scale.n != 12:
        raise UnsupportedDivisionError(
            f"the diatonic subset is defined on 12 divisions, got {scale.n}"
        )
    return [scale.pitch(k) for k in DIATONIC_INDICES]


def compare_fraction_to_et(r: Fraction, p: EtPitch) -> int:
    """Exact three-way comparison of r = a/b against 2**(k/n).

    With k/n reduced, r <=> 2**(k/n) iff a**n <=> b**n * 2**k, decided in
    integers (for k < 0 the shift moves to the other side:
    a**n * 2**(-k) <=> b**n).  Returns -1, 0 or +1.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("pitch ratios must be positive")
    e = p.exponent
    lhs = r.numerator ** e.denominator
    rhs = r.denominator ** e.denominator
    if e.numerator >= 0:
        rhs <<= e.numerator
    else:
        lhs <<= -e.numerator
    return (lhs > rhs) - (lhs < rhs)


def nearest_degree(r: Fraction, n: int) -> int:
    """Index of the n-division pitch closest to ratio r = a/b, half rounding up.

    The answer is the d with b**(2n) * 2**(2d-1) <= a**(2n) < b**(2n) * 2**(2d+1),
    found in integers: m = floor(log2 r**(2n)) is the bit-length difference
    of a**(2n) and b**(2n), less one when a single shift comparison says so
    (``ratio._floor_log2``), and d = (m + 1) // 2.  Half-way ties are
    impossible unless r is itself a power of 2**(1/2n); the half-up rule
    makes the function total anyway.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("pitch ratios must be positive")
    m = _floor_log2(r.numerator ** (2 * n), r.denominator ** (2 * n))
    return (m + 1) // 2


def compare_pitches(
    x: Union[int, Fraction, Monzo, EtPitch], y: Union[int, Fraction, Monzo, EtPitch]
) -> int:
    """Exact three-way comparison of two pitches: -1, 0 or +1.

    Two equal-division pitches compare k1*n2 with k2*n1, a rational against
    one goes through :func:`compare_fraction_to_et`, and two rationals
    compare as fractions.
    """
    x, y = (p.as_fraction() if isinstance(p, Monzo) else p for p in (x, y))
    if isinstance(x, EtPitch):
        if not isinstance(y, EtPitch):
            return -compare_fraction_to_et(y, x)
        x, y = x.k * y.n, y.k * x.n
    elif isinstance(y, EtPitch):
        return compare_fraction_to_et(x, y)
    return (x > y) - (x < y)


def pitch_parts(p) -> Optional[tuple[Fraction, Fraction]]:
    """(r, e) with p = r * 2**e, both rational; None for a float.

    Splits off the octave exponent of an equal-division pitch so that pitch
    products and quotients stay exact.  Anything that is not a positive,
    finite pitch raises ValueError.
    """
    if isinstance(p, EtPitch):
        return Fraction(1), p.exponent
    if isinstance(p, Monzo):
        return p.as_fraction(), Fraction(0)
    if isinstance(p, (int, Fraction)) and not isinstance(p, bool) and p > 0:
        return Fraction(p), Fraction(0)
    if isinstance(p, float) and 0 < p < math.inf:
        return None
    raise ValueError(f"pitches must be positive, got {p!r}")
