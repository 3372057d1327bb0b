"""Exact arithmetic for pitch ratios.

Pitch ratios live in three exact representations:

* ``Fraction`` -- any positive rational, arbitrary precision;
* ``Monzo`` -- a rational factored over the primes {2, 3, 5}, stored as its
  exponent vector, which makes membership in the 3-limit/5-limit lattices a
  structural fact instead of a numeric test;
* decimal strings produced by :func:`to_decimal`, which truncate (never
  round) so that printed digits are always exact.

Irrational values such as 2**(k/n) are printed through
:func:`integer_nth_root`, the exact floor of an n-th root.  It runs Newton's
iteration on integers (Brent & Zimmermann, *Modern Computer Arithmetic*,
section 1.5), started from a float estimate or from the root at half length.
The start only decides how many steps are needed: each step lands at or
above the floor root and from above it descends, so the iteration stops at
the floor root.  The result is returned only after the certificate
``a**n <= x < (a+1)**n`` has been checked in integers, from the power
``a**(n-1)`` that the last step formed: the binomial bound
``(a+1)**n >= (a+n) * a**(n-1)`` proves the upper half, and ``(a+1)**n``
itself is formed only when that bound does not decide.

Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import ExponentBoundError, TuningError, _shown, check_int, positive_fraction

#: Safety bound on prime exponents, and on the fifths ``pythagorean.FifthStep``
#: stacks each way.  3**64 is far beyond any value a scale construction
#: reaches; exceeding the bound means a caller is iterating out of control,
#: so it becomes a typed error instead of silence.
EXPONENT_BOUND = 64

#: Most fraction digits :func:`to_decimal` and ``equal.et_value`` print.  For
#: values under 10**300 (every pitch of a scale) it keeps the digit string
#: within the interpreter's 4300-digit limit on int-to-str conversion (larger
#: values raise TuningError), and it bounds the work of one call (see
#: ``equal.et_value``).
MAX_DIGITS = 4000

#: Root sizes, in bits, that the float seed of :func:`integer_nth_root` gets
#: nearly right; longer roots are first taken at half their length.
_SEED_BITS = 48

RationalLike = Union[int, Fraction]


@dataclass(frozen=True)
class Monzo:
    """A positive rational 2**exp2 * 3**exp3 * 5**exp5 as its exponent vector.

    Two monzos are equal iff their exponents are equal; by unique
    factorization that coincides with equality of the rationals they denote.
    """

    exp2: int
    exp3: int
    exp5: int = 0

    def __post_init__(self):
        for e in (self.exp2, self.exp3, self.exp5):
            check_int("exponent", e, -EXPONENT_BOUND, EXPONENT_BOUND, ExponentBoundError)

    def __add__(self, other: "Monzo") -> "Monzo":
        return Monzo(self.exp2 + other.exp2, self.exp3 + other.exp3, self.exp5 + other.exp5)


def _monzo_terms(m: Monzo) -> tuple[int, int]:
    """Coprime (num, den) with num / den = 2**exp2 * 3**exp3 * 5**exp5."""
    terms = ((2, m.exp2), (3, m.exp3), (5, m.exp5))
    num = math.prod(prime ** e for prime, e in terms if e > 0)
    return num, math.prod(prime ** -e for prime, e in terms if e < 0)


def monzo_to_rational(m: Monzo) -> Fraction:
    """Return the reduced fraction 2**exp2 * 3**exp3 * 5**exp5."""
    return Fraction(*_monzo_terms(m))


def rational_to_monzo(r: RationalLike) -> Optional[Monzo]:
    """Factor ``r`` over {2, 3, 5}; None when it is not 5-smooth.

    None is a membership signal, not an error: callers use it to test whether
    a sound belongs to the prime lattice at all.
    """
    r = positive_fraction(r, "a pitch ratio")
    exps = {2: 0, 3: 0, 5: 0}
    num, den = r.numerator, r.denominator
    for p in (2, 3, 5):
        while num % p == 0:
            num //= p
            exps[p] += 1
        while den % p == 0:
            den //= p
            exps[p] -= 1
    if num != 1 or den != 1:
        return None
    return Monzo(exps[2], exps[3], exps[5])


def is_five_smooth(r: RationalLike) -> bool:
    return rational_to_monzo(r) is not None


def _floor_log2(a: int, b: int) -> int:
    """floor(log2(a/b)) for positive integers: m or m - 1, for m the bit-length
    difference of a and b, since 2**(m-1) < a/b < 2**(m+1)."""
    m = a.bit_length() - b.bit_length()
    return m - (a < b << m if m >= 0 else a << -m < b)


def octave_shift(r: RationalLike) -> int:
    """The unique h with 1 <= r * 2**h < 2."""
    r = positive_fraction(r, "a pitch ratio")
    return -_floor_log2(r.numerator, r.denominator)


def reduce_to_octave(r: RationalLike) -> Fraction:
    """Multiply by the unique power of two that lands ``r`` in [1, 2)."""
    r = positive_fraction(r, "a pitch ratio")
    return r * Fraction(2) ** octave_shift(r)


def integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)), certified by ``a**n <= x < (a+1)**n`` in integers.

    Newton's iteration ``a <- ((n-1)*a + x // a**(n-1)) // n`` lands at or
    above the floor root from any positive ``a`` (by the mean inequality),
    and from an ``a`` with ``a**n > x`` it strictly descends, so it stops at
    the first ``a`` with ``a**n <= x``: the floor root.  The start only sets
    the step count.  A root of up to ``_SEED_BITS`` bits starts from
    ``math.log2`` of the top 64 bits of ``x`` plus the dropped bit count,
    divided by n and lifted by a relative 2**-30; the lift is checked in
    integers and doubled should it fall short.  A longer root starts with
    one step from ``r << half``, where ``r`` is the root of ``x`` with
    ``n*half`` low bits dropped (a little under half of the root's bits):
    that start is at or below the root, its power ``a**(n-1)`` is the inner
    root's power shifted, and the step lands within a unit of the root.  For
    n = 2 ``math.isqrt`` does the same job.

    The certificate is checked before returning, from the witness
    ``p = a**(n-1)`` that the iteration's last test formed: ``p * a <= x``
    is the lower half, and ``x < (a + n) * p`` proves the upper half, since
    ``(a+1)**n >= a**n + n * a**(n-1)`` by the binomial theorem.  That bound
    leaves about a share (n-1)/(2a) of the bracket undecided, so only for
    roots within a small multiple of n is ``(a+1)**n`` ever formed.  If the
    certificate failed, ``ArithmeticError`` is raised instead of returning
    an inexact root.
    """
    check_int("x", x, 0)
    if check_int("n", n, 1) == 1:
        a, p = x, 1
    elif n == 2:
        a = p = math.isqrt(x)
    else:
        a, p = _newton_root(x, n)
    if not (p * a <= x and (x < (a + n) * p or x < (a + 1) ** n)):
        raise ArithmeticError(
            f"root certificate failed: {n}-th root of a {x.bit_length()}-bit integer"
        )
    return a


def _newton_root(x: int, n: int) -> tuple[int, int]:
    """(a, p) with a = floor(x ** (1/n)) and p = a**(n-1), for n >= 3, by
    integer Newton steps (uncertified)."""
    m = n - 1
    if x < 2:
        return x, x ** m
    half = (x.bit_length() // n - n.bit_length()) // 2
    # drop a little under half of the root's bits: a start right in the top
    # half plus log2(n) bits is within a unit after one step, which squares
    # the relative error and scales it by about n/2
    if half > _SEED_BITS // 2:
        # r << half is at or below root(x) and its power is q << half*m, so
        # the step from it needs no power of its own
        r, q = _newton_root(x >> (n * half), n)
        a = (m * (r << half) + (x >> (half * m)) // q) // n
        p = a ** m
    else:
        drop = max(x.bit_length() - 64, 0)
        a = int(2.0 ** ((math.log2(x >> drop) + drop) / n + 2.0 ** -30)) + 1
        p = a ** m
        while p * a <= x:  # only if the float estimate fell short
            a <<= 1
            p = a ** m
    while p * a > x:
        a = (m * a + x // p) // n
        p = a ** m
    return a, p


def is_perfect_nth_power(m: int, n: int) -> tuple[bool, Optional[int]]:
    """Whether a**n == m for some integer a; returns (flag, a or None)."""
    check_int("m", m, 1)
    a = integer_nth_root(m, check_int("n", n, 2))
    if a ** n == m:
        return True, a
    return False, None


def is_nth_root_irrational(m: int, n: int) -> bool:
    """True exactly when the nth root of m is irrational (m, n >= 2)."""
    check_int("m", m, 2)
    return not is_perfect_nth_power(m, n)[0]


def _terminating_digits(den: int) -> Optional[int]:
    """Length of the exact decimal expansion for 1/den, or None if infinite."""
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def to_decimal(r: RationalLike, digits: int) -> str:
    """Truncated decimal expansion of ``r`` with ``digits`` fraction digits.

    Expansions that terminate within the requested width are emitted in full
    with no zero padding ("1.5", "1"); all other values get exactly ``digits``
    truncated digits ("1.33333", "1.60180").  ``r`` is an int or Fraction
    >= 0, not a bool (TuningError otherwise, floats and strings included).
    """
    check_int("digits", digits, 1, MAX_DIGITS)
    if isinstance(r, bool) or not (isinstance(r, (int, Fraction)) and r >= 0):
        raise TuningError(f"a printed ratio must be an int or Fraction >= 0, got {_shown(r)}")
    exact_len = _terminating_digits(r.denominator)
    width = exact_len if exact_len is not None and exact_len <= digits else digits
    return _fixed_point(r.numerator * 10 ** width // r.denominator, width)


def _fixed_point(scaled: int, width: int) -> str:
    """``scaled / 10**width`` as a decimal with ``width`` fraction digits;
    TuningError past the interpreter's int-to-str digit limit."""
    try:
        s = str(scaled)
    except ValueError:
        raise TuningError(
            f"a {scaled.bit_length()}-bit value has too many digits to print"
        ) from None
    if width == 0:
        return s
    s = s.rjust(width + 1, "0")
    return f"{s[:-width]}.{s[-width:]}"


def monzo_form(r: RationalLike) -> str:
    """Factored rendering over {2, 3, 5}: 243/128 -> "3^5/2^7", 15/8 -> "3*5/2^3".

    Ratios outside the lattice fall back to plain "p/q".
    """
    m = rational_to_monzo(r)
    if m is None:
        f = Fraction(r)
        return f"{f.numerator}/{f.denominator}"

    def side(exps: list[tuple[int, int]]) -> str:
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in exps if e > 0]
        return "*".join(parts)

    num = side([(2, m.exp2), (3, m.exp3), (5, m.exp5)])
    den = side([(2, -m.exp2), (3, -m.exp3), (5, -m.exp5)])
    if not num and not den:
        return "1"
    if not den:
        return num
    return f"{num or '1'}/{den}"


def cents(r) -> float:
    """Interval size of a ratio in cents: 1200 * log2(r).

    Accepts a positive int or Fraction (not a bool), a positive finite float,
    a Monzo, or an object exposing ``cents()`` itself (symbolic equal-division
    pitches); anything else is a TuningError.
    """
    if hasattr(r, "cents"):
        return r.cents()
    if isinstance(r, Monzo):
        r = monzo_to_rational(r)
    if isinstance(r, float) and 0 < r < math.inf:
        return 1200.0 * math.log2(r)
    if isinstance(r, bool) or not (isinstance(r, (int, Fraction)) and r > 0):
        raise TuningError(f"cents takes a positive exact ratio or finite float, got {_shown(r)}")
    # split the log to stay accurate for very large numerator/denominator
    return 1200.0 * (math.log2(r.numerator) - math.log2(r.denominator))
