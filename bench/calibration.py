"""Reference-speed scaling for every time the benchmark reports.

The machine's speed drifts by tens of percent, sometimes by half, over a few
seconds (a 2-vCPU Xeon VM whose cores are shared).  A fixed calibration job
slows and speeds with it, so each measured time is divided by the job's time
around it and multiplied by ``REFERENCE_NS``: the time the measurement would
have taken had the job run at its reference speed.  The job uses no tritune
code, so a change to the program cannot change it.

The job is big-integer powers of the sizes ``deep_digits`` works with.  Of the
jobs tried (this one, dict and list churn, and a mix of the two), it tracked
``deep_digits`` best and the other workloads as well as any.
"""

from __future__ import annotations

import time

#: the job's typical time on the VM above; only a unit, it cancels in comparisons
REFERENCE_NS = 600_000


def calibrate() -> int:
    """Nanoseconds the job takes now."""
    a = (1 << 166) + 12345
    start = time.perf_counter_ns()
    a ** 311, a ** 120
    return time.perf_counter_ns() - start


def factor(before_ns: int, after_ns: int) -> float:
    """Multiplier to reference speed for a time measured between two jobs."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)
