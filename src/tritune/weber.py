"""Weber's law: S1 * dP = k * dS.

Perceived increments are proportional to relative stimulus increments, so a
uniformly rising perception corresponds to stimuli in geometric progression
of ratio 1 + C/k.  That is the empirical argument for spacing scale pitches
geometrically.  This module is plain floating point: the law is an empirical
relation over real-valued stimuli, not lattice arithmetic.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from .errors import TuningError, check_instance, check_int, finite_real

#: Most stimuli :func:`uniform_stimuli` produces; beyond it a TuningError, so
#: one call builds at most this many floats.
MAX_STIMULI = 10_000


def perception_increments(stimuli: Sequence[float], k: float) -> list[float]:
    """Perceived change at each step: dP_j = k * (S_{j+1} - S_j) / S_j.

    ``k`` and at least two stimuli must be positive finite numbers (int,
    float or Fraction, not bool), and every increment must be finite;
    otherwise a TuningError.
    """
    if finite_real(k, "the context constant k") <= 0:
        raise TuningError("the context constant k must be positive")
    stimuli = check_instance("stimuli", stimuli, Iterable)
    values = [finite_real(s, "a stimulus") for s in stimuli]
    if len(values) < 2:
        raise TuningError("a stimulus series needs at least two values")
    if not all(v > 0 for v in values):
        raise TuningError("stimuli must be positive")
    increments = [k * (b - a) / a for a, b in zip(values, values[1:])]
    if not all(math.isfinite(d) for d in increments):
        raise TuningError("a perceived increment leaves the float range")
    return increments


def uniform_stimuli(s1: float, c: float, k: float, n: int) -> list[float]:
    """The stimulus series whose perceived increments are constantly ``c``.

    Geometric with ratio 1 + c/k: S_j = s1 * (1 + c/k)**(j-1), j = 1..n.
    ``s1``, ``c`` and ``k`` must be finite ints, floats or Fractions (not
    bools), 2 <= n <= MAX_STIMULI, and every stimulus must stay a positive
    finite float; otherwise a TuningError.
    """
    s1, c, k = (finite_real(v, "each of s1, c and k") for v in (s1, c, k))
    if k <= 0:
        raise TuningError("the context constant k must be positive")
    if s1 <= 0:
        raise TuningError("the starting stimulus must be positive")
    check_int("a stimulus count n", n, 2, MAX_STIMULI)
    ratio = 1.0 + c / k
    if not 0 < ratio < math.inf:
        raise TuningError(
            f"progression ratio 1 + C/k must be positive and finite, got {ratio}"
        )
    try:
        series = [s1 * ratio ** j for j in range(n)]
    except OverflowError:
        series = None
    if series is None or not all(0 < v < math.inf for v in series):
        raise TuningError(f"the series of {n} stimuli leaves the positive float range")
    return series
