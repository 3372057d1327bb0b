"""One workload in one process: set up, run the closed loop, check, report.

Started by run.py; prints one JSON object on stdout.  With ``--setup-only`` it
imports tritune, builds the first cycle of inputs, prints ``ready`` and exits,
so run.py can time set-up from the outside.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from contextlib import nullcontext, suppress
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)
from calibration import calibrate, factor  # noqa: E402

#: the calibration job runs between operations once per this much time
CALIBRATE_EVERY_NS = 10_000_000
#: operation times kept for the quantiles; beyond it a uniform sample is kept,
#: so the worker's memory does not grow with the operation rate
SAMPLE_CAPACITY = 20_000


class Timings:
    """Operation times at reference speed: an exact total and a sample."""

    def __init__(self, seed: int):
        self.total_ns = 0.0
        self.count = 0
        self.sample = array("d")
        self._pending = array("q")
        self._rng = random.Random(seed)

    def add(self, ns: int) -> None:
        self._pending.append(ns)

    def settle(self, before_ns: int, after_ns: int) -> None:
        """Scale the times measured since the last calibration by the two
        calibrations around them, and keep them."""
        scale = factor(before_ns, after_ns)
        for ns in self._pending:
            t = ns * scale
            self.total_ns += t
            self.count += 1
            if len(self.sample) < SAMPLE_CAPACITY:
                self.sample.append(t)
            else:
                slot = self._rng.randrange(self.count)
                if slot < SAMPLE_CAPACITY:
                    self.sample[slot] = t
        del self._pending[:]


def run_loop(workload, seed: int, seconds: float, recorder=None) -> dict:
    """Replay the seeded inputs for ``seconds``, one operation at a time.

    One untimed warm-up cycle runs first.  Throughput is operations over the
    time spent inside them; the checks between operations are not counted.
    """
    for op in next(workload.cycles(random.Random(-seed - 1))):
        workload.execute(op)
    cycles = workload.cycles(random.Random(seed))
    tally = workloads.Tally()
    timings = Timings(seed)
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    before = calibrate()
    next_calibration = clock() + CALIBRATE_EVERY_NS
    with recorder or nullcontext():
        while clock() < deadline:
            for op in next(cycles):
                if clock() >= next_calibration:
                    after = calibrate()
                    timings.settle(before, after)
                    before = after
                    next_calibration = clock() + CALIBRATE_EVERY_NS
                if recorder is not None:
                    recorder.op = tally.attempted
                start = clock()
                result = workload.execute(op)
                timings.add(clock() - start)
                tally.attempted += 1
                workload.record(op, result, tally, recorder)
    timings.settle(before, calibrate())
    workload.finish(tally)
    busy_s = timings.total_ns / 1e9
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": tally.problems,
        "ops_per_s": tally.attempted / busy_s,
        "latency_p50_ms": statistics.median(timings.sample) / 1e6,
        "latency_p90_ms": statistics.quantiles(timings.sample, n=10)[-1] / 1e6,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "digits_per_s": tally.digits / busy_s,
    }


def traced_report(workload, args) -> dict:
    """Half the time untraced, half traced over the same inputs; per-layer
    metrics come from the traced half, overhead from comparing the two."""
    from spans import Recorder

    problems = workloads.self_check(workload.outdir, ROOT) if args.workload == "paper12" else []
    plain = run_loop(workload, args.seed, args.seconds / 2)
    recorder = Recorder()
    traced = run_loop(workload, args.seed, args.seconds / 2, recorder)
    layers = recorder.metrics(traced["attempted"])
    layers["trace.overhead_pct"] = (plain["ops_per_s"] / traced["ops_per_s"] - 1) * 100
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "wrong": plain["wrong"] + traced["wrong"] + len(problems),
        "problems": problems + plain["problems"] + traced["problems"],
        "layers": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    outdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{time.monotonic_ns()}"
    workload = workloads.WORKLOADS[args.workload](ROOT, outdir)
    next(workload.cycles(random.Random(args.seed)))
    if args.setup_only:
        print("ready", flush=True)
        return 0

    outdir.mkdir(parents=True)
    try:
        if args.trace:
            report = traced_report(workload, args)
        else:
            report = run_loop(workload, args.seed, args.seconds)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with suppress(OSError):  # another run may still be using it
            outdir.parent.rmdir()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
