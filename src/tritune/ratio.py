"""Exact arithmetic for pitch ratios.

A rational pitch is a positive int or ``Fraction`` (``equal.EtPitch`` holds
the rest); two other exact forms are not pitches:

* ``Monzo`` -- a point of the {2, 3, 5} lattice, its exponent vector, which makes
  membership in the 3-limit/5-limit lattices a structural fact instead of a
  numeric test; :func:`monzo_to_rational` makes it a pitch;
* decimal strings produced by :func:`to_decimal`, which truncate (never
  round) so that printed digits are always exact.

Irrational values such as 2**(k/n) are printed through
:func:`integer_nth_root`, the exact floor of an n-th root.  Its candidate
comes from Halley's iteration (Brent & Zimmermann, *Modern Computer
Arithmetic*, section 4.2), which triples a root's correct bits with the one
power ``a**(n-1)`` a step that Newton's takes to double them, read past
``_EXACT_BITS`` bits from a bracket (:func:`_power_bracket`: the power rounded
down and a proven bound above it).  So is the certificate ``a**n <= x <
(a+1)**n``, and a long full power is formed only on a near-tie, as in
:func:`_floor_log2`, floor(m * log2(a/b)), the one exact logarithm of the octave
folds, the pairing and the comparisons, read from log2 3 and log2 5 if 5-smooth.

Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from operator import itemgetter

from .errors import ExponentBoundError, TuningError, _shown, check_instance, check_int
from .errors import _record, positive_fraction

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

#: Powers of at most _EXACT_BITS bits are formed exactly, longer ones bracketed with
#: _GUARD_BITS more bits than a decision needs: on a 2-vCPU Xeon VM a bracket is slower
#: below 2000-4000 bits, and a 5-smooth reading (0.8-1 us) below about _READING_BITS.
_EXACT_BITS, _GUARD_BITS, _READING_BITS = 2048, 64, 512

#: Most bits of a power b**e, counted as e * bits(b), that an exact comparison
#: may form, checked first (TuningError beyond); only ``equal.nearest_degree``
#: and ``equal.compare_pitches`` of an irrational ratio in one octave band form
#: one, so two rationals always compare.  A full power, formed only on a
#: near-tie, takes about 65 ms at the bound on a 2-vCPU Xeon VM.
MAX_POWER_BITS = 2 ** 20

#: Most one-unit moves :func:`integer_nth_root` makes from its candidate.
_CORRECTIONS = 1

RationalLike = int | Fraction


@_record
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


def monzo_to_rational(m: Monzo) -> Fraction:
    """Return the reduced fraction 2**exp2 * 3**exp3 * 5**exp5."""
    m = check_instance("a monzo", m, Monzo)
    terms = ((2, m.exp2), (3, m.exp3), (5, m.exp5))
    num = math.prod(prime ** e for prime, e in terms if e > 0)
    return Fraction(num, math.prod(prime ** -e for prime, e in terms if e < 0))


def _five_exponents(r: RationalLike) -> tuple[int, ...] | None:
    """(e2, e3, e5) with r = 2**e2 * 3**e3 * 5**e5, None off the 5-limit; TuningError
    unless ``r`` is a positive int or Fraction.  Both sides factor whole, 3 and 5 by
    :func:`_strip`, so ExponentBoundError names an exponent of a 5-smooth r past the bound."""
    if isinstance(r, bool) or not (isinstance(r, (int, Fraction)) and r.numerator > 0):
        positive_fraction(r, "a pitch ratio")  # raises, naming the argument
    n, d, b = r.numerator, r.denominator, EXPONENT_BOUND
    n, n3 = _strip(n >> (n2 := (n & -n).bit_length() - 1), 3)
    n, n5 = _strip(n, 5)
    if n != 1:
        return None
    d, d3 = _strip(d >> (d2 := (d & -d).bit_length() - 1), 3)
    d, d5 = _strip(d, 5)
    if d != 1:
        return None
    e2, e3, e5 = n2 - d2, n3 - d3, n5 - d5
    if not (-b <= e2 <= b and -b <= e3 <= b and -b <= e5 <= b):
        for e in (e2, e3, e5):  # the first past the bound raises, naming it
            check_int("exponent", e, -b, b, ExponentBoundError)
    return e2, e3, e5


def _strip(v: int, p: int) -> tuple[int, int]:
    """(w, e), v = w * p**e with p not dividing w, in about 2 * log2(e) divisions."""
    q, rest = divmod(v, p)
    if rest:
        return v, 0
    w, e = _strip(q, p * p)
    q, rest = divmod(w, p)
    return (w, 2 * e + 1) if rest else (q, 2 * e + 2)


def rational_to_monzo(r: RationalLike) -> Monzo | None:
    """Factor ``r`` over {2, 3, 5} with :func:`_five_exponents`; None if not 5-smooth.

    None is a membership signal, not an error (callers test whether a sound belongs to the
    lattice); an exponent past ``EXPONENT_BOUND`` raises ExponentBoundError naming it.
    """
    exps = _five_exponents(r)
    return None if exps is None else Monzo(*exps)


def is_five_smooth(r: RationalLike) -> bool:
    return _five_exponents(r) is not None


def _ascending(items: list, ratio: Callable | None = None) -> tuple[int, list[tuple]]:
    """(d, [(r * d, item), ...]) ascending in r = ``ratio(item)``, or the item,
    ties in the order given, d the lcm of the denominators: integer keys that
    sort exactly as the ints or Fractions r do."""
    ratios = items if ratio is None else [*map(ratio, items)]
    d = math.lcm(*(r.denominator for r in ratios))
    keyed = ((r.numerator * (d // r.denominator), x) for r, x in zip(ratios, items))
    return d, sorted(keyed, key=itemgetter(0))


def octave_shift(r: RationalLike) -> int:
    """The unique h with 1 <= r * 2**h < 2."""
    r = positive_fraction(r, "a pitch ratio")
    return -_floor_log2(r.numerator, r.denominator)


def reduce_to_octave(r: RationalLike) -> Fraction:
    """Multiply by the unique power of two that lands ``r`` in [1, 2)."""
    r = positive_fraction(r, "a pitch ratio")
    return r * Fraction(2) ** octave_shift(r)


def _power_bracket(a: int, b: int, m: int, t: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= (a/b)**m <= hi * 2**e for a, b, m, t >= 1,
    hi - lo <= m * lo * 2**(3-t), and lo == hi if no rounding occurred.  Only
    lo is a chain (Moore's interval arithmetic would round a second one up):
    square-and-multiply on q = floor(a * 2**k / b), each product floored to t
    >= bits(m) + 4 bits (a smaller t is raised).  A floor to t bits or more
    drops a relative u < 2**(1-t), of weight m for q and 2**(L-i) after loop
    step i of L = bits(m) - 1, which sum to 2**L - 1 < m.  So (a/b)**m <= lo *
    2**e / (1-u)**(2m) <= lo * 2**e / (1-z) for z = m * 2**(2-t) <= 1/4, and
    1/(1-z) <= 1 + 4z/3 < 1 + 3m * 2**(1-t) < hi / lo; with lo >= 2**(t-1),
    that keeps the width."""
    t = max(t, m.bit_length() + 4)
    k = t - a.bit_length() + b.bit_length()  # a * 2**k / b has t or t+1 bits
    q, rounded = divmod(a << k, b) if k >= 0 else divmod(a, b << -k)
    lo, shift = q, 0  # (a/b)**p ~ lo * 2**(shift - k*p), p the bits of m read so far
    for bit in bin(m)[3:]:
        lo = lo * lo * q if bit == "1" else lo * lo
        drop = lo.bit_length() - t  # > 0, as lo had t bits or more
        if not rounded:
            rounded = lo & ((1 << drop) - 1)
        lo, shift = lo >> drop, 2 * shift + drop
    return lo, lo + (3 * lo * m >> t - 1) + 1 if rounded else lo, shift - k * m


#: floor(2**64 * log2 p) for p = 3, 5: L - 1 + e, L the bit length of both
#: ends of the bracket of p**(2**64)
_brackets = [_power_bracket(p, 1, 1 << 64, 128) for p in (3, 5)]
if any(lo.bit_length() != hi.bit_length() for lo, hi, _ in _brackets):
    raise ArithmeticError("a bracket of 3**(2**64) or 5**(2**64) straddles a power of two")
_LOG2_3, _LOG2_5 = (lo.bit_length() - 1 + e for lo, _, e in _brackets)
#: i of 3**i and j of 5**j up to EXPONENT_BOUND; gcd(x, _FIVE_TOP) is the 5-part of such an x
_THREES, _FIVES = ({p ** i: i for i in range(EXPONENT_BOUND + 1)} for p in (3, 5))
_FIVE_TOP = 5 ** EXPONENT_BOUND


def _powers(a: int, b: int, m: int) -> tuple[int, int]:
    """a**m and b**m: the only full powers the comparisons form."""
    return a ** m, b ** m


def _smooth_exponents(x: int) -> tuple[int, int, int] | None:
    """(e2, e3, e5) with x = 2**e2 * 3**e3 * 5**e5, None unless e3, e5 <= EXPONENT_BOUND."""
    e2 = (x & -x).bit_length() - 1
    odd = x >> e2
    five = 1 if odd % 5 else math.gcd(odd, _FIVE_TOP)
    three = _THREES.get(odd // five)
    return None if three is None else (e2, three, _FIVES[five])


def _log2_reading(j2: int, j3: int, j5: int) -> int | None:
    """floor(j2 + j3 * log2 3 + j5 * log2 5), None where the reading straddles an
    integer.  As log2 p is irrational, j * 2**64 * log2 p lies strictly between
    j*c + min(j, 0) and that plus |j|, for c = ``_LOG2_3`` or ``_LOG2_5``.  So X =
    2**64 * (j3 log2 3 + j5 log2 5) lies strictly between lo, the sum of both lower
    ends, and lo + w, w = |j3| + |j5|, with min(j3, 0) + min(j5, 0) = (j3 + j5 - w)
    / 2: ends lo >> 64 and (lo + w - 1) >> 64 that agree give floor(X / 2**64).
    No tie: 3**(q*j3) * 5**(q*j5) = 2**p only at j3 = j5 = 0, where X = lo = 0."""
    w = abs(j3) + abs(j5)
    lo = j3 * _LOG2_3 + j5 * _LOG2_5 + (j3 + j5 - w >> 1)
    f = lo >> 64
    return j2 + f if f == lo + w - 1 >> 64 or not w else None


def _floor_log2(a: int, b: int, m: int = 1) -> int:
    """floor(m * log2(a/b)) for positive integers a, b and any integer m: the one
    exact logarithm of every octave fold, pairing and comparison.  At m = 1 it
    is k or k - 1 for k the bit-length difference, since 2**(k-1) < a/b <
    2**(k+1): no power, no bound.  Otherwise a negative m swaps a and b, m = 0
    gives 0, and TuningError comes first if m * bits(max(a, b)) passes
    ``MAX_POWER_BITS``.  Past ``_READING_BITS`` :func:`_log2_reading` decides a
    5-smooth a/b (:func:`_smooth_exponents`); on a straddle or off the 5-limit,
    past ``_EXACT_BITS``, ends of one bit length L of a bracket lo * 2**e <=
    (a/b)**m <= hi * 2**e give L - 1 + e, so only a near-tie with a power of two
    (within about 2**-60) or at most ``_READING_BITS`` forms the full powers."""
    if m == 1:
        k = a.bit_length() - b.bit_length()
        return k - (a < b << k if k >= 0 else a << -k < b)
    if m < 1:
        return _floor_log2(b, a, -m) if m else 0
    bits = max(a, b).bit_length()
    if m * bits > MAX_POWER_BITS:
        raise TuningError(f"a power of {_shown(m)} x {bits} bits is over MAX_POWER_BITS")
    x = m * bits > _READING_BITS and _smooth_exponents(a)
    if x and (y := _smooth_exponents(b)):
        f = _log2_reading(m * (x[0] - y[0]), m * (x[1] - y[1]), m * (x[2] - y[2]))
        if f is not None:
            return f
    if m * bits > _EXACT_BITS:
        lo, hi, e = _power_bracket(a, b, m, _GUARD_BITS + m.bit_length())
        if lo.bit_length() == hi.bit_length():
            return lo.bit_length() - 1 + e
    return _floor_log2(*_powers(a, b, m))


def _sign(a: int, b: int, s: int, m: int) -> int:
    """sign(a/b - 2**(s/m)) for positive integers a, b and m.

    Octaves first: a/b lies in [2**f, 2**(f+1)) for f = ``_floor_log2(a, b)``,
    and 2**(s/m) in [2**e, 2**(e+1)) for e = s // m, so f != e decides with no
    power.  Within one octave band, with s/m reduced, a/b >= 2**s at m = 1,
    equal or not by one shift; at m > 1 a tie is impossible and a/b > 2**(s/m)
    iff ``_floor_log2(a, b, m)`` >= s (TuningError past MAX_POWER_BITS).
    """
    if a == b:
        return (s < 0) - (s > 0)
    f, e = _floor_log2(a, b), s // m
    if f != e:
        return (f > e) - (f < e)
    g = math.gcd(s, m)
    s, m = s // g, m // g
    if m == 1:
        return int(a << max(-s, 0) != b << max(s, 0))
    return 1 if _floor_log2(a, b, m) >= s else -1


def integer_nth_root(x: int, n: int) -> int:
    """floor(x ** (1/n)), certified by ``a**n <= x < (a+1)**n`` in integers.

    The candidate, from ``math.isqrt`` or the Halley steps of :func:`_root_candidate`,
    is the floor root give or take one.  The certificate compares a bracket lo *
    2**e <= a**(n-1) <= hi * 2**e (``_power_bounds``: lo rounded down, hi a bound)
    with ``x >> e``: ``lo * a`` and ``hi * a`` bound a**n, ``(a + n) * lo`` bounds
    (a+1)**n from below by the binomial theorem.  a**n is formed only when its
    bounds hold ``x >> e``, (a+1)**n only when x lies above that lower bound,
    about a share (n-1)/(2a) of [a**n, (a+1)**n).  A failed candidate moves one
    towards the root, at most ``_CORRECTIONS`` times; past that bound
    ``ArithmeticError`` is raised instead of an uncertified root.  An x of at most
    n bits has the root 1, returned before any power, so no power formed has many
    more bits than x, whatever n.
    """
    check_int("x", x, 0)
    if check_int("n", n, 1) == 1 or x < 2:
        return x
    if x.bit_length() <= n:
        return 1
    a = math.isqrt(x) if n == 2 else _root_candidate(x, n)
    for _ in range(_CORRECTIONS + 1):
        lo, hi, e = _power_bounds(a, n - 1, a.bit_length() + n.bit_length() + _GUARD_BITS)
        top = x >> e
        if lo * a > top or hi * a > top and a ** n > x:
            a -= 1
        elif (a + n) * lo > top or (a + 1) ** n > x:
            return a
        else:
            a += 1
    raise ArithmeticError(
        f"root certificate failed: root of degree {n} of a {x.bit_length()}-bit integer"
    )


def _power_bounds(a: int, m: int, t: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo * 2**e <= a**m <= hi * 2**e, for a >= 0 and m, t
    >= 1: the power itself when it has at most about ``_EXACT_BITS`` or 2t
    bits, else its t-bit bracket, where e >= 0 as the power has over 2t bits."""
    if m * (a.bit_length() - 1) <= max(_EXACT_BITS, 2 * t):
        p = a ** m
        return p, p, 0
    return _power_bracket(a, 1, m, t)


def _root_candidate(x: int, n: int) -> int:
    """floor(x ** (1/n)) give or take one, for x >= 2 and n >= 3 (uncertified).

    Halley's step from a = s * root, a + 2a(X - A) / ((n+1)A + (n-1)X) for
    A = a**n and X = x, is phi(s) * root on a's side of the root, where for C =
    (n*n-1)/12, phi(s) - 1 <= C * s**(n-2) * (s-1)**3 at s >= 1 and
    |phi(s) - 1| < 1.65C * |s-1|**3 at |s-1| <= 1/(2n).  A is ``lo * a`` from
    ``_power_bounds(a, n-1, t)``; A and X truncated to t = bits(root) + bits(n)
    + _GUARD_BITS bits move a step by under 2**-60 before its floor.  A root of
    over 114 - 2*bits(n) bits, past one step from the float start, first takes
    the candidate for x >> n*h, within 2 + 1/n of root / 2**h; for 2**(3h) <=
    root**2 / (4n*n) (so h >= 4 at n < 2**35) the step from it lands within
    1.75n*n * 2**(3h) / root**2 < 1/2 of the root.  A shorter one starts from the
    float root lifted by 2**-40 past its rounding, doubled until a step descends,
    and steps down until a step does not or moves by u with 4n*n * u**3 < a**2:
    then u < a/(2n), a**n < 2x, a - root < 5u/3, the step lands < 0.31 above.
    """
    m, bits = n - 1, x.bit_length()
    t = bits // n + n.bit_length() + _GUARD_BITS
    big_x = x >> (drop := max(bits - t, 0))

    def step(a: int, shift: int = 0) -> int:  # Halley's step from a << shift
        lo, _, e = _power_bounds(a, m, t)
        e += n * shift - drop  # (a << shift)**n / 2**drop is about lo * a * 2**e
        big_a = lo * a << e if e >= 0 else lo * a >> -e
        return (a << shift) + (2 * a * (big_x - big_a) << shift) // ((n + 1) * big_a + m * big_x)

    if bits > n * (114 - 2 * n.bit_length()):
        h = (2 * (bits - 1) // n - 2 * n.bit_length() - 2) // 3
        return step(_root_candidate(x >> n * h, n), h)
    a = int(2.0 ** ((math.log2(big_x) + drop) / n + 2.0 ** -40)) + 1
    while (b := step(a)) >= a:
        a <<= 1
    while 4 * n * n * (a - b) ** 3 >= a * a and (c := step(b)) < b:
        a, b = b, c
    return b


def is_nth_root_irrational(m: int, n: int) -> bool:
    """True exactly when m (>= 2) is no perfect nth power (n >= 2), so its root is irrational."""
    check_int("m", m, 2)
    return integer_nth_root(m, check_int("n", n, 2)) ** n != m


def _terminating_digits(den: int) -> int | None:
    """Length of the exact decimal expansion for 1/den, or None if infinite."""
    twos = (den & -den).bit_length() - 1
    rest, fives = _strip(den >> twos, 5)
    return max(twos, fives) if rest == 1 else None


def to_decimal(r: RationalLike, digits: int) -> str:
    """Truncated decimal expansion of ``r`` with ``digits`` fraction digits.

    Expansions that terminate within the requested width are emitted in full
    with no zero padding ("1.5", "1"); all other values get exactly ``digits``
    truncated digits ("1.33333", "1.60180").  ``r`` is an int or Fraction
    >= 0, not a bool (TuningError otherwise, floats and strings included).
    """
    check_int("digits", digits, 1, MAX_DIGITS)
    if isinstance(r, bool) or not (isinstance(r, (Fraction, int)) and r.numerator >= 0):
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
            f"a value of {scaled.bit_length()} bits has too many digits to print"
        ) from None
    if width == 0:
        return s
    s = s.rjust(width + 1, "0")
    return f"{s[:-width]}.{s[-width:]}"


def _pq_text(r: RationalLike) -> str:
    """"p/q" for an int or Fraction, 2 as "2/1"; TuningError past the digit limit."""
    return f"{_fixed_point(r.numerator, 0)}/{_fixed_point(r.denominator, 0)}"


def _fraction_text(r: RationalLike) -> str:
    """``str(r)`` for an int or Fraction, TuningError past the digit limit."""
    return _fixed_point(r.numerator, 0) if r.denominator == 1 else _pq_text(r)


def monzo_form(r: RationalLike) -> str:
    """Factored rendering over {2, 3, 5}: 243/128 -> "3^5/2^7", 15/8 -> "3*5/2^3".

    Ratios outside the lattice fall back to plain "p/q".
    """
    exps = _five_exponents(r)
    if exps is None:
        return _pq_text(r)
    up, down = [], []
    for p, e in zip("235", exps):
        if e:
            (up if e > 0 else down).append(p if e in (1, -1) else f"{p}^{abs(e)}")
    num = "*".join(up) or "1"
    return f"{num}/{'*'.join(down)}" if down else num


def cents(r: RationalLike) -> float:
    """Interval size of a ratio in cents: 1200 * log2(r), for a positive int or
    Fraction; TuningError for anything else, a float, a Monzo or an ``EtPitch``."""
    r = positive_fraction(r, "the ratio given to cents")
    return _cents(r.numerator, r.denominator)


def _cents(a: int, b: int) -> float:
    """1200 * log2(a/b) for positive integers, unchecked; split to stay accurate for huge ones."""
    return 1200.0 * (math.log2(a) - math.log2(b))
