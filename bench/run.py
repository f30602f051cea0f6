#!/usr/bin/env python3
"""prekem benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload kem-noisy --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 1

Run from anywhere; prekem is imported from the src/ directory next to this
one, and the run refuses to start if it would import any other copy.  Each
workload (see its module) runs in whole cycles, a fixed mix of ops, with a
single client that sends the next op when the last one has returned, until
about --seconds have passed (at least MIN_CYCLES cycles).  Every op's output
is checked.

--trace 0 reports the end-to-end metrics, times at reference speed (see
common.REF_US: each wall time is scaled by the host's speed measured by a
fixed reference kernel timed around it, because on a shared machine the CPU
speed flips between two levels about 1.5x apart for seconds to minutes):
  setup_s         median of SETUP_RUNS fresh child processes that import
                  prekem, set the workload up and run one warm-up op,
                  started between cycles spread over the run
  peak_rss_mib    peak resident memory of the measuring process (of the CLI
                  child processes, for cli-pipeline)
  op_ms_at_ref    median op latency
  cycle_s_at_ref  the cycle's time: the sum over its ops of each op's median
                  latency
The wall-clock figures (median and tail op latency, mean cycle time, set-up
time), the host's speed over the run and the workload's own figures are
printed beside them.

--trace 1 runs untraced for a third of the time, then traced (bench/spans.py)
for the rest, and reports the per-layer metrics per op, plus
trace.overhead_ratio, the traced mean cycle time at reference speed over the
untraced one.  In
traced runs the cli-pipeline calls prekem.cli.main in-process.

Human-readable lines come first: the environment, each metric with its unit
and sample count, and the workload's own figures (decap_ms_p50, he_mib_per_s,
games_suite_s, cli_pipeline_s, ...).  The last line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import (REF_US, ROOT, SRC, nearest_rank, ref_us, run_child,
                    tail_percentile)

WORKLOADS = {
    "kem-noisy": "kem_noisy",
    "hybrid-mixed": "hybrid_mixed",
    "games-desk": "games_desk",
    "cli-pipeline": "cli_pipeline",
}
MIN_CYCLES = 3
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170
SHOWN_ERRORS = 5


def _import_prekem():
    sys.path.insert(0, str(SRC))
    try:
        import prekem
    except ImportError as e:
        sys.exit(f"cannot import prekem from {SRC}: {e}")
    if Path(prekem.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"imported prekem from {prekem.__file__}, not from {SRC}")
    return prekem


def environment(seed: int, prekem) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    try:
        load = float(Path("/proc/loadavg").read_text().split()[0])
    except OSError:
        load = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "cryptography": version("cryptography"), "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg_1m": load,
            "git_commit": commit, "seed": seed, "prekem": prekem.__file__}


def time_setup(workload: str, seed: int):
    """One set-up in a fresh child process: (wall seconds, seconds at
    reference speed)."""
    before = ref_us()
    status, elapsed, _ = run_child(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--setup-only"], CHILD_TIMEOUT_S, cwd=ROOT, stdout=subprocess.DEVNULL)
    if status != 0:
        sys.exit(f"set-up of {workload} exited {status}")
    return elapsed, elapsed * 2 * REF_US / (before + ref_us())


class Loop:
    """Closed-loop measurement in whole cycles.

    The reference kernel is timed before the first op and after every op;
    an op's time at reference speed is its wall time times REF_US over the
    mean of the kernel's times just before and just after it.
    """

    def __init__(self, w, tracer=None) -> None:
        self.w = w
        self.tracer = tracer
        self.op_s = []
        self.cycle_s = []
        self.ref_cycle_s = []
        self.ref_us = []
        self.slots = None  # per slot of the cycle, its time at reference speed
        self.attempted = 0
        self.errors = []

    def run(self, seconds: float, min_cycles: int, pause=None,
            pauses: int = 0) -> "Loop":
        """Measure whole cycles for about `seconds`.  pause() is called
        `pauses` times between cycles, spread evenly over the measured time,
        and its own time is not counted."""
        w, tracer = self.w, self.tracer
        start = time.perf_counter()
        paused = 0.0
        done_pauses = 0
        self.slots = [[] for _ in range(w.ops_per_cycle)]
        i = 0
        before = ref_us()
        while True:
            cycle = ref_cycle = 0.0
            for _ in range(w.ops_per_cycle):
                self.attempted += 1
                try:
                    if tracer is None:
                        dt = w.op(i)
                    else:
                        dt = tracer.op(i, lambda: w.op(i))
                except Exception as e:
                    self.errors.append(f"op {i}: {type(e).__name__}: {e}")
                    if len(self.errors) <= SHOWN_ERRORS:
                        traceback.print_exc(file=sys.stderr)
                else:
                    after = ref_us()
                    at_ref = dt * 2 * REF_US / (before + after)
                    self.ref_us.append(after)
                    before = after
                    self.op_s.append(dt)
                    self.slots[i % w.ops_per_cycle].append(at_ref)
                    cycle += dt
                    ref_cycle += at_ref
                i += 1
            self.cycle_s.append(cycle)
            self.ref_cycle_s.append(ref_cycle)
            done = len(self.cycle_s)
            elapsed = time.perf_counter() - start - paused
            if done_pauses < pauses and elapsed >= seconds * done_pauses / pauses:
                t0 = time.perf_counter()
                pause()
                paused += time.perf_counter() - t0
                done_pauses += 1
                before = ref_us()
            if (done >= min_cycles and done_pauses == pauses
                    and (elapsed * (done + 1) / done > seconds
                         or (tracer is not None and tracer.full))):
                return self


def _line(name, value, unit, samples) -> None:
    print(f"metric  {name:<28} {value:>14.6g} {unit:<8} n={samples}")


def run_one(args) -> int:
    prekem = _import_prekem()
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        w = module.Workload(args.seed)
        try:
            w.warm()
        finally:
            w.close()
        return 0

    # users run from a warm bytecode cache, whatever PYTHONDONTWRITEBYTECODE
    # says here; this writes only what is missing or stale
    for package in (SRC / "prekem", Path(__file__).parent):
        compileall.compile_dir(str(package), quiet=1)
    env = environment(args.seed, prekem)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print("env " + json.dumps(env))
    w = module.Workload(args.seed, inproc=bool(args.trace))
    try:
        w.warm()
        if args.trace:
            metrics, loop = traced(w, args.seconds)
        else:
            # set-ups are spread over the run, so that their median does not
            # rest on the machine's speed during one moment
            setups = []
            loop = Loop(w).run(
                args.seconds, MIN_CYCLES, pauses=SETUP_RUNS,
                pause=lambda: setups.append(time_setup(args.workload, args.seed)))
            if hasattr(w, "peak_rss_kib"):
                rss_kib = w.peak_rss_kib()
            else:
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            medians = [statistics.median(lat) for lat in loop.slots]
            at_ref = [t for lat in loop.slots for t in lat]
            metrics = {
                "setup_s": (statistics.median(t for _, t in setups), "s",
                            len(setups)),
                "peak_rss_mib": (rss_kib / 1024, "MiB", 1),
                "op_ms_at_ref": (statistics.median(at_ref) * 1e3, "ms",
                                 len(at_ref)),
                "cycle_s_at_ref": (sum(medians), "s", len(loop.cycle_s)),
            }
        problems = w.finish()
    finally:
        w.close()

    failed = len(loop.errors)
    for name, (value, unit, n) in metrics.items():
        _line(name, value, unit, n)
    if not args.trace and loop.op_s:
        _line("setup_s_wall", statistics.median(t for t, _ in setups), "s",
              len(setups))
        n = len(loop.op_s)
        _line("op_ms_p50", statistics.median(loop.op_s) * 1e3, "ms", n)
        q = tail_percentile(n)
        if q is None:
            print(f"note    no percentile of op_ms has 10 of {n} samples beyond it")
        else:
            _line(f"op_ms_p{q:g}", nearest_rank(loop.op_s, q)[0] * 1e3, "ms", n)
        _line("cycle_s_mean", statistics.mean(loop.cycle_s), "s", len(loop.cycle_s))
        speed = sorted(REF_US / r for r in loop.ref_us)
        _line("host_speed_p50", statistics.median(speed), "ratio", len(speed))
        _line("host_speed_p10", nearest_rank(speed, 10)[0], "ratio", len(speed))
        _line("host_speed_p90", nearest_rank(speed, 90)[0], "ratio", len(speed))
        for row in w.report(loop.op_s):
            _line(*row)
    _line("error_ratio", failed / loop.attempted, "ratio", loop.attempted)
    for text in loop.errors[:SHOWN_ERRORS] + problems:
        print(f"FAILED  {text}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


def traced(w, seconds: float):
    import spans

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    plain = Loop(w).run(seconds / 3, 1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        loop = Loop(w, tracer).run(seconds * 2 / 3, 1)
    finally:
        tracer.uninstall()
    loop.errors = plain.errors + loop.errors
    loop.attempted += plain.attempted
    values = spans.layer_metrics(tracer, len(loop.op_s) or 1)
    values.update(w.trace_extras())
    values["trace.overhead_ratio"] = (statistics.mean(loop.ref_cycle_s)
                                      / statistics.mean(plain.ref_cycle_s))
    print(f"note    {len(tracer.names)} spans over {len(loop.op_s)} traced ops")
    return ({m["name"]: (values[m["name"]], m["unit"], len(loop.op_s))
             for m in declared}, loop)


def run_all(args) -> int:
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"FAILED  {workload} printed no result")
            correct = False
            continue
        correct &= result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update((f"{workload}.{k}", v) for k, v in result["metrics"].items())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
