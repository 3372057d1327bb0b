"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload paper12 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it reports the end-to-end
metrics: the spawn-to-ready set-up time (median of several fresh
interpreters), and the throughput, latency, success rate, exact-digit rate
and peak memory of one worker process that runs the workload's closed loop.
With ``--trace 1`` the worker splits the time between an untraced and a
traced loop and reports per-layer metrics, beside the start time of a bare
interpreter.  Times are at reference speed (see calibration.py).
The last line of stdout is the JSON result; anything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibrate, factor

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper12", "deep_digits", "large_n")
#: fresh interpreters timed per run, for set-up or for the bare start
SPAWNS = 15
#: a run must end within this many seconds
LIMIT_S = 170

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "digits_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def spawn_seconds(argv: list[str]) -> float:
    """Seconds from starting ``argv`` until it prints ``ready``."""
    before = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=30)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"exit status {proc.returncode}: {' '.join(argv)}")
    return elapsed * factor(before, calibrate())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.monotonic()

    for needed in (ROOT / "src" / "tritune" / "__init__.py", ROOT / "tests" / "golden"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a tritune checkout", file=sys.stderr)
            return 2

    worker = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed)]
    try:
        # the first spawn compiles bytecode, which an installed package would not pay
        spawn_seconds(worker + ["--setup-only"])
        # set-up is an end-to-end metric; the bare start is context for it,
        # reported with the per-layer metrics because it is too noisy to gate
        if args.trace:
            argv, name = [sys.executable, "-c", "print('ready')"], "python.bare_start_s"
        else:
            argv, name = worker + ["--setup-only"], "setup_s"
        times = [spawn_seconds(argv) for _ in range(SPAWNS)]
        metrics = {name: (statistics.median(times), "s")}
        done = subprocess.run(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=LIMIT_S - (time.monotonic() - started),
        )
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: worker exit status {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(done.stdout.splitlines()[-1])
    for problem in report["problems"]:
        print(problem, file=sys.stderr)

    if args.trace:
        from spans import metric_units

        units = {**metric_units(), "trace.overhead_pct": "%"}
        metrics.update({name: (report["layers"][name], unit) for name, unit in units.items()})
    else:
        metrics.update({name: (report[name], unit) for name, unit in END_TO_END_UNITS.items()})
    print(
        json.dumps(
            {
                "correct": report["wrong"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
