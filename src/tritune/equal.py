"""Equal-division scales: N geometrically equal steps per octave.

The step ratio 2**(1/N) and its powers are irrational, so pitches are kept
symbolic as the pair (k, n) meaning 2**(k/n).  Identities like "n steps
compose to one octave" then hold exactly, and decimal values are produced on
demand by integer root extraction so that every printed digit is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .errors import UnsupportedDivisionError
from .ratio import check_digits, integer_nth_root, is_nth_root_irrational, to_decimal

#: Orchestral reference: index 9 of the 12-division octave (LA) at 440 Hz,
#: so the DO base sits at 440 / 2**(9/12) Hz.
DEFAULT_BASE_HZ = 440.0 / 2 ** (9 / 12)

#: Chromatic indices of the major diatonic subset of the 12-division scale.
DIATONIC_INDICES = (0, 2, 4, 5, 7, 9, 11, 12)


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
            f = self.as_fraction()
            return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
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
    k + 13300*n bits, whose root costs a few big-integer powers of that size
    (on a 2-vCPU Xeon VM: 0.03 s for n = 12 and 3.7 s for n = 311 at the cap).
    """
    check_digits(precision_digits)
    if p.is_rational():
        return to_decimal(p.as_fraction(), precision_digits)
    e = p.exponent
    d = precision_digits
    if e.numerator >= 0:
        radicand = 2 ** e.numerator * 10 ** (d * e.denominator)
    else:
        # floor(root(x)) == floor(root(floor(x))) for x >= 0
        radicand = 10 ** (d * e.denominator) // 2 ** (-e.numerator)
    scaled = integer_nth_root(radicand, e.denominator)
    s = str(scaled).rjust(d + 1, "0")
    return f"{s[:-d]}.{s[-d:]}"


@dataclass(frozen=True)
class EtScale:
    """n+1 pitches 2**(k/n), k = 0..n, over one octave."""

    n: int
    base_frequency_hz: float = DEFAULT_BASE_HZ
    pitches: tuple[EtPitch, ...] = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("an equal scale needs at least one step per octave")
        if self.base_frequency_hz <= 0:
            raise ValueError("base frequency must be positive")
        object.__setattr__(
            self, "pitches", tuple(EtPitch(k, self.n) for k in range(self.n + 1))
        )

    def pitch(self, k: int) -> EtPitch:
        """Pitch at any index, octaves included (k may lie outside 0..n)."""
        return EtPitch(k, self.n)

    def frequency(self, k: int) -> float:
        return self.base_frequency_hz * float(self.pitch(k))


def generate_et(n: int, base_frequency_hz: float = DEFAULT_BASE_HZ) -> EtScale:
    """Equal scale with n steps: the unique geometric ladder closing at 2."""
    return EtScale(n=n, base_frequency_hz=base_frequency_hz)


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
    of a**(2n) and b**(2n), less one when a single shift comparison says so,
    and d = (m + 1) // 2.  Half-way ties are impossible unless r is itself a
    power of 2**(1/2n); the half-up rule makes the function total anyway.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("pitch ratios must be positive")
    num = r.numerator ** (2 * n)
    den = r.denominator ** (2 * n)
    # 2**(m-1) < num/den < 2**(m+1) for m the bit-length difference
    m = num.bit_length() - den.bit_length()
    if m >= 0:
        den <<= m
    else:
        num <<= -m
    if num < den:
        m -= 1
    return (m + 1) // 2
