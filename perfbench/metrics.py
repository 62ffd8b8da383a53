"""The benchmark's metric definitions, latency summaries and the measurement
discipline behind them: CPU pinning and scaling to reference speed."""

from __future__ import annotations

import cmath
import math
import os
import subprocess
import sys
from time import perf_counter

import numpy as np

# End-to-end metrics of an untraced run: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("points_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER = (
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import_scipy_s", "s", "lower"),
    ("cli.modules_loaded", "count", "lower"),
    ("cli.run_ms", "ms", "lower"),
    ("kernels.calls", "count", "lower"),
    ("kernels.calls_per_point", "count/point", "lower"),
    ("kernels.self_s", "s", "lower"),
    ("dielectric.calls", "count", "lower"),
    ("dielectric.self_s", "s", "lower"),
    ("dielectric.errors.PoleAtBranchPoint", "count", "lower"),
    ("dielectric.errors.DegenerateQ", "count", "lower"),
    ("dielectric.errors.NonUpperHalfPlane", "count", "lower"),
    ("dielectric.errors.NonFiniteResult", "count", "lower"),
    ("dielectric.errors.DenominatorVanishes", "count", "lower"),
    ("dielectric.errors.StaticDenominatorVanishes", "count", "lower"),
    ("dielectric.errors.DivisionByZeroFrequency", "count", "lower"),
    ("sweep.self_s", "s", "lower"),
    ("sweep.points", "count", "higher"),
    ("sweep.nudged", "count", "lower"),
    ("sweep.skipped", "count", "lower"),
    ("sweep.threads_started", "count", "lower"),
    ("sweep.csv_s", "s", "lower"),
    ("svg.line_plot_s", "s", "lower"),
    ("sweep.output_bytes", "bytes", "lower"),
    ("kohn.scan_s", "s", "lower"),
    ("kohn.scan_points", "count", "higher"),
    ("kohn.roots_self_s", "s", "lower"),
    ("quadrature.calls", "count", "lower"),
    ("quadrature.scipy_quad_calls", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("units.calls", "count", "lower"),
    ("units.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Every run repeats its pass of distinct ops at least MIN_PASSES times.
MIN_PASSES = 5

# Reference speed.  The host this runs on changes the speed of every
# instruction stream by up to ~1.9x, for fractions of a second to minutes
# at a time (CPU time slows with wall time: it is not preemption), so raw
# op times of two runs differ more than most code changes.  The worker
# therefore times a fixed reference every CAL_EVERY_S, and each op's time
# is scaled by the reference's nominal time over the median of the
# CAL_WINDOW reference samples nearest it: a latency "at reference speed"
# is what the op would take on a machine that runs the reference in its
# nominal time.  A change to the program moves it; a change of the host's
# speed, which moves the reference too, does not.
#
# In-process ops are scaled by REFERENCE_S over a pure-Python loop.  A new
# process spends its time differently (exec, loading extension modules,
# page faults), and slows less than the loop when the host does, so `cli`
# ops and set-up times are scaled by PROCESS_REFERENCE_S over a fresh
# interpreter that imports numpy and runs nothing of the program, timed
# before every `cli` op (each sample costs ~0.2 s; one every 2 s left the
# `cli` spread at 0.10, one per op brought it to 0.02).
CAL_EVERY_S = 0.05
PROCESS_CAL_EVERY_S = 0.5
CAL_WINDOW = 5
CAL_ITERS = 1500
REFERENCE_S = 1e-3
PROCESS_REFERENCE_ARGV = (sys.executable, "-c", "import numpy")
PROCESS_REFERENCE_S = 0.15


def pin_to_one_cpu() -> int:
    """Keep this process, the threads it starts and its children on one
    CPU, the same one for run.py and the worker, so that an op and the
    reference timed next to it run on the same CPU: the two vCPUs of this
    host change speed independently.  The library still starts its default
    sweep pool (os.cpu_count() ignores affinity), but the pool threads hand
    the interpreter lock over on one CPU instead of waking an idle virtual
    CPU, whose wake-up latency is set by the host's load and swung sweep
    times by 2x between runs."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_work(n: int = CAL_ITERS) -> complex:
    """Interpreted float and complex arithmetic with calls, the mix of the
    closed-form kernels, and nothing the program under test runs."""
    z = 0.5 + 0.25j
    acc = 0.0
    for k in range(n):
        w = z * z + complex(k * 1e-3, 0.5)
        acc += abs(w) + (w.real / (1.0 + w.imag * w.imag))
        z = cmath.sqrt(w) * 0.5
    return acc + z


def reference_seconds() -> float:
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def process_reference_seconds() -> float:
    t0 = perf_counter()
    subprocess.run(PROCESS_REFERENCE_ARGV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True, timeout=60)
    return perf_counter() - t0


def reference_for(workload: str):
    """(timer, nominal seconds, seconds between samples) of the reference a
    workload's ops are scaled by."""
    if workload == "cli":
        return process_reference_seconds, PROCESS_REFERENCE_S, PROCESS_CAL_EVERY_S
    return reference_seconds, REFERENCE_S, CAL_EVERY_S


def at_reference_speed(lat, at, cal_at, cal, nominal: float = REFERENCE_S) -> np.ndarray:
    """Each latency lat[i] (started at at[i]) times ``nominal`` over the
    median of the CAL_WINDOW reference samples nearest in time."""
    lat, at, cal_at, cal = (np.asarray(v, dtype=float) for v in (lat, at, cal_at, cal))
    if len(cal) <= CAL_WINDOW:
        return lat * nominal / np.median(cal)
    lo = np.clip(np.searchsorted(cal_at, at) - CAL_WINDOW // 2, 0, len(cal) - CAL_WINDOW)
    return lat * nominal / np.median(cal[lo[:, None] + np.arange(CAL_WINDOW)], axis=1)


# Tail percentiles, highest last: 5% steps up to p90.  The reported tail
# is the highest one with at least TAIL_MIN_BEYOND samples above it.  The
# ladder stops at p90 because above it the in-process workloads measure the
# host, not the code: every `pointwise` op costs the same to within 4% in
# its median, yet p99 over single timings reads 1.7x the median.
TAIL_LADDER = tuple(float(p) for p in range(50, 95, 5))
TAIL_MIN_BEYOND = 10


def quantile(sorted_values, p: float) -> float:
    """Nearest-rank p-th percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return sorted_values[rank - 1]


def median(values) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def tail(sorted_values, min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """(value, percentile, values beyond it) for the highest ladder
    percentile with at least ``min_beyond`` values above it; the maximum,
    with 0 beyond, when there are too few values for any."""
    n = len(sorted_values)
    found = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            found = (sorted_values[rank - 1], p, n - rank)
    if found is None:
        return sorted_values[-1], 100.0, 0
    return found
