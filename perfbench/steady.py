"""Steadiness of the benchmark: repeat each workload with different seeds.

    python3 perfbench/steady.py [--first-seed 1] [workload ...]

Runs run.py ten times for each workload (all four by default), with the
seeds from --first-seed on, the run length of BENCHMARK.json and tracing
off.  It prints, per workload and end-to-end metric, the median, the
quartiles (Python's statistics.quantiles(n=4)) and the spread, the
distance between the quartiles as a share of the median, set beside a
third of the metric's bound.  It also prints the share of failed
operations of every run, which must be one value per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads:
        values, shares, correct = {}, set(), True
        for seed in range(args.first_seed, args.first_seed + REPEATS):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print("%s seed %d: exit %d" % (workload, seed, proc.returncode))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct = correct and result["correct"]
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("%s: %d runs, correct %s, failed share %s" % (
            workload, REPEATS, correct, sorted(shares)))
        steady = steady and correct and len(shares) == 1
        for name, xs in values.items():
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            ok = spread <= bounds[name] / 3.0
            steady = steady and ok
            print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f  bound/3 %.4f %s" % (
                name, q2, q1, q3, spread, bounds[name] / 3.0, "ok" if ok else "WIDE"))
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
