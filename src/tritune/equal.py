"""Equal-division scales: N geometrically equal steps per octave.

The step ratio 2**(1/N) and its powers are irrational, so pitches are kept
symbolic as the pair (k, n) meaning 2**(k/n).  Identities like "n steps
compose to one octave" then hold exactly, and decimal values are produced on
demand by integer root extraction so that every printed digit is exact.
With a rational coefficient, r * 2**(k/n), the same :class:`EtPitch` holds
every exact pitch of the three systems, ordered by ``ratio._sign``.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import _DERIVED, TuningError, _record, _shown, check_instance
from .errors import check_int, positive_fraction
from .ratio import MAX_DIGITS, _fixed_point, _floor_log2, _fraction_text, _sign
from .ratio import integer_nth_root, to_decimal

#: Chromatic indices of the major diatonic subset of the 12-division scale.
DIATONIC_INDICES = (0, 2, 4, 5, 7, 9, 11, 12)

#: Most steps per octave an :class:`EtScale` takes (one step per cent);
#: beyond it a TuningError, so a scale holds at most 1201 pitches.
MAX_DIVISIONS = 1200

#: Most steps x digits one ``et`` table asks for, so the paper's 12-step scale
#: takes every digit count.  Each cap alone leaves the product, and with it the
#: roots of one table, unbounded.
MAX_ET_DIGITS = 12 * MAX_DIGITS

#: Most |k // n| of a rational pitch whose power of two ``EtPitch.as_fraction`` forms
MAX_OCTAVES = 2 ** 20

#: Bits ``et_value`` reads past the last printed digit: its one root decides
#: the digits unless they straddle a unit, about once in 2**16 values.
_ET_GUARD_BITS = 16

_ONE = Fraction(1)


@_record
class EtPitch:
    """The ratio r * 2**(k/n) relative to a scale base, kept symbolic.

    r is a positive ratio of odd integers (1 for an equal-division pitch), so
    every exact pitch, 2**x being rational only for integer x, has one r and
    one reduced k/n.  k, n and r are not bools, n >= 1, stored as given;
    equality and hashing reduce, so EtPitch(2, 24) == EtPitch(1, 12).
    """

    k: int
    n: int
    r: Fraction = _ONE

    def __post_init__(self):
        check_int("k", self.k, None)
        check_int("n", self.n, 1)
        r = self.r
        if r is not _ONE and (isinstance(r, bool) or not (
            isinstance(r, (int, Fraction)) and r > 0 and r.numerator & r.denominator & 1
        )):
            raise TuningError(f"r must be a positive ratio of odd integers, got {_shown(r)}")

    @classmethod
    def of(cls, x: int | Fraction | EtPitch) -> EtPitch:
        """x as r * 2**(k/n), the powers of two of a positive int or Fraction
        moved into k, an EtPitch as it is; TuningError for anything else."""
        if isinstance(x, EtPitch):
            return x
        p, q, _, _ = _power_form(x)
        a, b = ((m & -m).bit_length() - 1 for m in (p, q))
        return cls(a - b, 1, Fraction(p >> a, q >> b))

    def __mul__(self, other) -> EtPitch:
        o = EtPitch.of(other)
        e = Fraction(self.k, self.n) + Fraction(o.k, o.n)
        return EtPitch(e.numerator, e.denominator, self.r * o.r)

    def __truediv__(self, other) -> EtPitch:
        o = EtPitch.of(other)
        return self * EtPitch(-o.k, o.n, 1 / Fraction(o.r))

    def __eq__(self, other) -> bool:
        if isinstance(other, EtPitch):
            return self.k * other.n == other.k * self.n and self.r == other.r
        return NotImplemented

    def __hash__(self):
        return hash(("EtPitch", Fraction(self.k, self.n), self.r))

    def __float__(self) -> float:
        # r = m * 2**e with 1/2 < m < 2, as math.frexp splits: r may pass the float range
        p, q = self.r.numerator, self.r.denominator
        e = p.bit_length() - q.bit_length()
        m = p / (q << e) if e >= 0 else (p << -e) / q
        h, k = divmod(self.k, self.n)
        try:
            return math.ldexp(m * 2.0 ** (k / self.n), e + h)
        except OverflowError:
            raise TuningError(f"{_shown(self)} is past the float range") from None

    def is_rational(self) -> bool:
        """r * 2**(k/n) is rational iff the reduced exponent is an integer."""
        return self.k % self.n == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise TuningError(f"{_shown(self)} is irrational")
        octaves = check_int("the octaves k // n", self.k // self.n, -MAX_OCTAVES, MAX_OCTAVES)
        return self.r * Fraction(2) ** octaves

    def exact_form(self) -> str:
        if self.is_rational():
            return _fraction_text(self.as_fraction())
        form = f"2^({_fixed_point(self.k, 0)}/{_fixed_point(self.n, 0)})"
        return form if self.r == 1 else f"{_fraction_text(self.r)}*{form}"

    __str__ = exact_form


def _power_form(x) -> tuple[int, int, int, int]:
    """(p, q, k, n) with x = (p/q) * 2**(k/n), read off an exact pitch without
    building one; TuningError for anything but a positive exact pitch."""
    if isinstance(x, EtPitch):  # first: a miss on the ABC test of Fraction is slow
        return x.r.numerator, x.r.denominator, x.k, x.n
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.numerator > 0:
        return x.numerator, x.denominator, 0, 1
    raise TuningError(f"a pitch must be a positive exact ratio, got {_shown(x)}")


def et_value(p: EtPitch, precision_digits: int) -> str:
    """Truncated decimal of 2**(k/n), every emitted digit exact.

    With k/n reduced, q, s = divmod(k, n) and P = bits(10**d) + max(q, 0) +
    ``_ET_GUARD_BITS``, the root b of 2**(s + n*P), built by a shift, puts
    2**(k/n) * 10**d strictly between b and b + 1 times 10**d * 2**(q-P),
    under a unit apart.  Their floors agree on the digits but about once in
    2**16 values, when the root of 2**k * 10**(d*n) gives them; no float enters.
    Terminating expansions (2**(0/12)) are emitted in full without padding.
    Only r = 1 is printed (TuningError).

    ``precision_digits`` is capped at ``ratio.MAX_DIGITS``, the reduced n at
    ``MAX_DIVISIONS``, and k // n below 10/3 of the interpreter's int-to-str
    digit limit L, as 2**(10L/3) > 10**L has too many digits to print; all
    three are checked before any power (TuningError beyond any).  One call
    takes a root of about 3.33*d + 16 bits, at that precision, of a radicand
    of about n times as many (on a 2-vCPU Xeon VM at the digit cap, k < n,
    best of 5: 1.7-1.9 ms for n = 12, 3.1-3.2 ms for n = 311, 4.1-4.3 ms for
    n = 1200); a fallback adds 5**(d*n) (1 ms, 0.16 s, 1.6 s) and a root of
    about k + 3.33*d*n bits (1.5-6 ms).
    """
    check_instance("a pitch", p, EtPitch)
    check_int("digits", precision_digits, 1, MAX_DIGITS)
    if p.r != 1:
        raise TuningError(f"only 2^(k/n) is printed, not {_shown(p)}")
    g, d = math.gcd(p.k, p.n), precision_digits
    k, n = p.k // g, p.n // g
    check_int("the reduced n of a printed pitch", n, 1, MAX_DIVISIONS)
    limit = sys.get_int_max_str_digits()
    if limit and 3 * (k // n) >= 10 * limit:
        raise TuningError(f"{_shown(p)} has more than {limit} integer digits")
    if p.is_rational():
        return to_decimal(p.as_fraction(), precision_digits)
    q, s = divmod(k, n)
    ten = 10 ** d
    # b = floor(2**(s/n + j + q)): 2**(k/n) * 10**d is in (b, b+1) * 10**d / 2**j
    j = ten.bit_length() + max(q, 0) + _ET_GUARD_BITS - q
    b = integer_nth_root(1 << s + n * (j + q), n)
    lo = b * ten >> j
    if lo == ((b + 1) * ten - 1) >> j:
        return _fixed_point(lo, d)
    # 2**k * 10**(d*n) = 5**(d*n) * 2**(d*n + k); a negative shift count
    # floors, and floor(root(x)) == floor(root(floor(x))) for x >= 0
    shift = d * n + k
    radicand = 5 ** (d * n) << shift if shift >= 0 else 5 ** (d * n) >> -shift
    return _fixed_point(integer_nth_root(radicand, n), d)


@_record
class EtScale:
    """n+1 pitches 2**(k/n), k = 0..n, over one octave; 1 <= n <= MAX_DIVISIONS."""

    n: int
    pitches: tuple[EtPitch, ...] = _DERIVED

    def __post_init__(self):
        check_int("steps per octave n", self.n, 1, MAX_DIVISIONS)
        object.__setattr__(
            self, "pitches", tuple(EtPitch(k, self.n) for k in range(self.n + 1))
        )

    def pitch(self, k: int) -> EtPitch:
        """Pitch at any index, octaves included (k may lie outside 0..n)."""
        return EtPitch(k, self.n)


def generate_et(n: int) -> EtScale:
    """Equal scale with n steps: the unique geometric ladder closing at 2."""
    return EtScale(n=n)


def nearest_degree(r: Fraction, n: int) -> int:
    """Index of the n-division pitch closest to ratio r = a/b, half rounding up;
    n is an integer from 1 to MAX_DIVISIONS and a**(2n), b**(2n) have at most
    ``ratio.MAX_POWER_BITS`` bits (TuningError otherwise, checked first).

    The answer is the d with b**(2n) * 2**(2d-1) <= a**(2n) < b**(2n) * 2**(2d+1):
    d = (m + 1) // 2 for m = ``ratio._floor_log2(a, b, 2n)``, which past short powers
    reads a 5-smooth r from log2 3 and log2 5 and forms powers only for another r near
    a degree or half-way.  A tie needs r a power of 2**(1/2n); half up makes it total.
    :func:`_degree` computes (m + 1) // 2; ``pairing_table`` applies it to each step's own m.
    """
    check_int("steps per octave n", n, 1, MAX_DIVISIONS)
    r = positive_fraction(r, "a pitch ratio")
    return _degree(r.numerator, r.denominator, n)


def _degree(a: int, b: int, n: int) -> int:
    """``nearest_degree`` of a/b for positive ints a, b and a checked n, unchecked."""
    return (_floor_log2(a, b, 2 * n) + 1) // 2


def compare_pitches(x: int | Fraction | EtPitch, y: int | Fraction | EtPitch) -> int:
    """Exact three-way comparison of two pitches: -1, 0 or +1.

    Each pitch, a positive int or Fraction or an ``EtPitch`` (TuningError for
    anything else), is read as (p/q) * 2**(k/n), and x <=> y iff
    (p1*q2) / (q1*p2) <=> 2**((k2*n1 - k1*n2) / (n1*n2)), which ``ratio._sign``
    decides, with a TuningError for a power past ``ratio.MAX_POWER_BITS``.
    """
    return next(_neighbour_signs((x, y)))


#: ``compare_pitches`` under the name the acceptance suite and the benchmark call
compare_fraction_to_et = compare_pitches


def _neighbour_signs(pitches):
    """``compare_pitches`` of each neighbour pair of the exact pitches, lazily:
    each pitch's form is read once, and all are read before any pair is decided."""
    forms = [*map(_power_form, pitches)]
    return (
        _sign(p1 * q2, q1 * p2, k2 * n1 - k1 * n2, n1 * n2)
        for (p1, q1, k1, n1), (p2, q2, k2, n2) in zip(forms, forms[1:])
    )
