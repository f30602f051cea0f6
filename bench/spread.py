#!/usr/bin/env python3
"""Repeat the benchmark over many seeds and judge its spread against its bounds.

    python3 bench/spread.py --seeds 1-10 > first.txt
    python3 bench/spread.py --seeds 9001-9010 --baseline first.txt

Runs the command of BENCHMARK.json once per (workload, seed), one run at a
time, with run_seconds and --trace 0.  For every end-to-end metric it prints
the median and the quartile spread (third minus first quartile, as a share of
the median, from statistics.quantiles(n=4)) and compares the spread with the
metric's bound: "steady" below a third of it, "within" below it, "WIDE" above
(setup_s is exempt from the spread test).  With --baseline, the medians are
compared with those of an earlier invocation's output, and none may be worse
by more than its bound: on the same code with other seeds, an A/A check; on
a parent and a child commit, the no-regression test.  The last line is a
JSON summary; the exit code is 0 when every run was correct and every test
passed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, quartile_spread

SPREAD_EXEMPT = ("setup_s",)


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, workload, seeds):
    values, correct = {}, True
    for seed in seeds:
        cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        try:
            result = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "metrics": {}}
        ok = proc.returncode == 0 and result["correct"]
        correct &= ok
        shown = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"run  {workload:<13} seed {seed:<6} {'ok' if ok else 'FAILED'}  {shown}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, correct


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first seed set, lo-hi")
    parser.add_argument("--baseline",
                        help="output of an earlier run to compare medians with")
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()

    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.loads(f.read().splitlines()[-1])["metrics"]
    summary, passed = {}, True
    for workload in args.workloads.split(","):
        first, ok = run_set(bench, workload, _seeds(args.seeds))
        passed &= ok
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = first.get(name, [])
            if len(vals) < 2:
                passed = False
                print(f"sum  {workload:<13} {name:<14} too few results")
                continue
            spread = quartile_spread(vals)
            median = statistics.median(vals)
            if name in SPREAD_EXEMPT:
                verdict = "exempt"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within"
            else:
                verdict = "WIDE"
                passed = False
            row = {"median": median, "spread": spread, "bound": bound,
                   "verdict": verdict}
            line = (f"sum  {workload:<13} {name:<14} median {median:<11.5g} "
                    f"spread {spread:6.2%} bound {bound:.0%} {verdict}")
            base = baseline.get(f"{workload}.{name}")
            if base is not None:
                worse = (median - base["median"]) / base["median"]
                if metric["better"] == "higher":
                    worse = -worse
                row.update(baseline=base["median"], worse_by=worse,
                           compared="ok" if worse <= bound else "WORSE")
                passed &= worse <= bound
                line += (f" | baseline {base['median']:<11.5g} worse by "
                         f"{worse:+6.2%} {row['compared']}")
            print(line, flush=True)
            summary[f"{workload}.{name}"] = row
    print(json.dumps({"passed": passed, "metrics": summary}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
