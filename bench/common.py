"""Shared pieces of the benchmark: paths, seeded input streams, order statistics.

Everything here is standard library only, so the benchmark's own tests run
without numpy or the package under test.
"""

from __future__ import annotations

import gc
import math
import os
import random
import statistics
import subprocess
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# scratch space for files the CLI workload writes; removed at the end of a run
WORK = ROOT / ".bench_work"

# tail percentiles tried from the highest down; a tail is reported only where
# at least MIN_BEYOND samples lie beyond it
TAIL_LADDER = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


# Host speed.  On a shared virtual machine the CPU speed flips between levels
# about 1.5x apart and holds each for seconds to minutes, so whole runs, and
# whole sets of runs, can land on one level.  The benchmark times a fixed
# pure-Python reference kernel between ops and scales each op's wall time by
# REF_US over the kernel's time around it: the op's time at reference speed,
# on a host where the kernel takes REF_US microseconds (the fast level of a
# two-vCPU x86-64 VM with Python 3.11).  The kernel does what gf2 does most,
# shifts and xors on Python ints under interpreted loops, and never calls the
# package under test, so a change to the package cannot move it.
REF_US = 128.0
REF_REPEATS = 3


def ref_kernel() -> int:
    a = 0x9E3779B97F4A7C15F39CC0605CEDC834
    b = 0xC2B2AE3D27D4EB4F165667B19E3779F9
    acc = 0
    for _ in range(3):
        for i in range(128):
            if b >> i & 1:
                acc ^= a << i
        table = {}
        for i in range(256):
            table[i] = (acc >> i) & 0xFF
        acc ^= sum(table.values())
    return acc


def ref_us() -> float:
    """The reference kernel's time now: the least of REF_REPEATS timings, in
    microseconds, with the cyclic garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REF_REPEATS):
            t0 = time.perf_counter()
            ref_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best * 1e6


class CheckFailed(Exception):
    """An operation returned an output that is not the correct one."""


def op_rng(seed: int, workload: str, index: int) -> random.Random:
    """Input stream of one operation; a function of (seed, workload, index) only."""
    return random.Random(f"{seed}:{workload}:{index}")


def run_child(argv, timeout: float, **popen):
    """Run a child process to its end: (exit code, wall seconds, peak RSS KiB).

    Waits in os.wait4, which returns the moment the child exits (a wait with
    a timeout polls, in steps of up to 50 ms); a timer kills a child that
    outlives the timeout.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, **popen)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def _rank(q: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def nearest_rank(values, q: float):
    """The q-th percentile by the nearest-rank rule, and how many samples lie beyond it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = _rank(q, len(xs))
    return xs[rank - 1], len(xs) - rank


def tail_percentile(n: int):
    """Highest percentile on TAIL_LADDER with at least MIN_BEYOND of n samples beyond it."""
    for q in TAIL_LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q
    return None


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
