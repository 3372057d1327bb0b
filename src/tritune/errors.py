"""Exception types shared across the package, and the input contract that
every public count, index, ratio and real argument passes through."""

import sys
from fractions import Fraction


class TuningError(ValueError):
    """Base class for all domain errors raised by this package."""


class ExponentBoundError(TuningError):
    """A prime exponent fell outside the configured safety bound."""


class CoverageError(TuningError):
    """A degree of the reference equal scale did not receive exactly two approximants."""

    def __init__(self, degree: int, count: int):
        self.degree = degree
        self.count = count
        noun = "approximant" if count == 1 else "approximants"
        super().__init__(f"degree {degree} has {count} {noun}, expected 2")


class PropositionViolationError(TuningError):
    """An exhaustive search did not confirm a uniqueness claim it was asked to verify."""


def _shown(value) -> str:
    """``repr(value)`` for an error message, or its size when repr raises: an
    int past the interpreter's int-to-str digit limit cannot be printed."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (int, Fraction)):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            return f"<{type(value).__name__} of {bits} bits>"
        return f"<{type(value).__name__} too long to print>"


def check_int(
    what: str, value, lo: int | None, hi: int | None = None, error=TuningError
) -> int:
    """``value`` if it is an int, not a bool, with lo <= value <= hi (a bound
    of None is no bound); ``error`` otherwise."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    span = "" if lo is None else f" from {lo} to {hi}" if hi is not None else f" >= {lo}"
    raise error(f"{what} must be an integer{span}, got {_shown(value)}")


def check_instance(what: str, value, kind: type):
    """``value`` if it is an instance of ``kind``; a TuningError otherwise."""
    if isinstance(value, kind):
        return value
    raise TuningError(f"{what} must be of type {kind.__name__}, got {_shown(value)}")


def positive_fraction(x, what: str) -> Fraction:
    """``x`` as a Fraction if it is an int or Fraction, not a bool, with a
    positive numerator; a TuningError otherwise, floats and strings included."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.numerator > 0:
        return x if isinstance(x, Fraction) else Fraction(x)
    raise TuningError(f"{what} must be a positive int or Fraction, got {_shown(x)}")


def finite_real(x, what: str) -> float:
    """``x`` as a float if it is an int, float or Fraction, not a bool, within
    the finite float range; a TuningError otherwise, nan and inf included."""
    real = isinstance(x, (int, float, Fraction)) and not isinstance(x, bool)
    if real and abs(x) <= sys.float_info.max:
        return float(x)
    raise TuningError(f"{what} must be a finite int, float or Fraction, got {_shown(x)}")
