"""Benchmark of apolylab: one workload per run, checked against references.

    python3 perfbench/run.py --workload {demo,arcs,jones,probe} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src``.  One operation is in flight at a time (a closed loop with one
client).  The measured process is a fresh interpreter (worker.py) that
sets up, then runs whole rounds of the workload's fixed list of
operations until S seconds have passed.  This process then computes the
references and checks every output of every round.

--trace 0 reports the end-to-end metrics:
    setup_s      median over SETUP_REPEATS fresh interpreters of the time
                 from start to the first operation ready to run (import,
                 knot table, reading the inputs this process made)
    wall_s       median time of one round, tracing off
    peak_rss_mb  high-water resident memory of the process that runs the
                 operations (for demo, the largest demo process)
The two times are scaled to one host speed (hostspeed.py): the machine
is shared and its speed drifts by tens of percent within minutes.  The
benchmark and every process it starts run on one CPU.
--trace 1 reports the per-layer metrics (tracer.METRICS) of the set-up
plus one round (medians over the traced rounds, as measured), and
trace.overhead_s, the traced round's median time less the untraced
one's (both scaled), each from half of the run.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
from hostspeed import HostSpeed, pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SETUP_REPEATS = 11


def worker_timeout(seconds: float) -> float:
    """How long a worker may take: its run plus rounds up to three times
    that long, so that a much slower program is still measured."""
    return 120.0 + 4.0 * seconds


def _env():
    # the checkout's package only, whatever PYTHONPATH the caller had
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _spawn(args):
    return subprocess.Popen([sys.executable, str(HERE / "worker.py")] + args,
                            stdout=subprocess.PIPE, stderr=sys.stderr, env=_env(), cwd=ROOT)


def _until_ready(proc):
    line = proc.stdout.readline()
    if line.strip() != b"ready":
        proc.wait()
        raise RuntimeError("worker did not set up (exit %s)" % proc.returncode)


def setup_time(workload, inputs_file) -> float:
    """Scaled seconds from spawning a set-up worker to its "ready" line."""
    with HostSpeed() as speed:
        proc = _spawn(["setup", workload, str(inputs_file)])
        _until_ready(proc)
    proc.communicate(timeout=worker_timeout(0.0))
    return speed.seconds


def run_worker(workload, inputs_file, seconds, traced, work_dir):
    result_file = work_dir / ("result-%d.json" % traced)
    proc = _spawn(["run", workload, str(inputs_file), repr(seconds), str(int(traced)),
                   str(work_dir), str(result_file)])
    try:
        _until_ready(proc)
        proc.communicate(timeout=worker_timeout(seconds))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %s" % proc.returncode)
    return json.loads(result_file.read_text())


def verify(workload, inputs, results):
    """(correct, attempted, failed) over every round of every result."""
    correct, attempted, failed = True, 0, 0
    for result in results:
        first = result["rounds"][0]["outputs"]
        verdicts = checks.check(workload, inputs, first)
        for ok, known_fault, problems in verdicts:
            for problem in problems:
                print("%s: %s%s" % (workload, problem, " (known fault)" if known_fault else ""),
                      file=sys.stderr)
            if not ok and not known_fault:
                correct = False
        per_round = sum(1 for ok, _, _ in verdicts if not ok)
        reference = json.dumps(first)
        for rnd in result["rounds"]:
            attempted += len(verdicts)
            failed += per_round
            if json.dumps(rnd["outputs"]) != reference:
                print("%s: outputs differ between rounds of one run" % workload, file=sys.stderr)
                correct = False
    return correct, attempted, failed


def _median_round(result) -> float:
    return statistics.median(r["seconds"] for r in result["rounds"])


def layer_report(result, untraced):
    raws = result["round_raw"]
    if not raws:
        raise RuntimeError("traced run recorded no rounds")
    counts = [json.dumps(tracing.counts_of(raw), sort_keys=True) for raw in raws]
    if len(set(counts)) != 1:
        print("per-layer counts differ between traced rounds", file=sys.stderr)
    raw = tracing.median_raw(raws)
    if result["setup_raw"]:
        raw = tracing.add_raw(result["setup_raw"], raw)
    metrics = tracing.layer_metrics(raw)
    metrics["trace.overhead_s"] = _median_round(result) - _median_round(untraced)
    for name in result["missing"]:
        print("not traced (absent): %s" % name, file=sys.stderr)
    return metrics, len(set(counts)) == 1


UNITS = {"calls": "count", "samples": "count", "halvings": "count", "terms": "count",
         "lifts": "count", "self_s": "s", "busy_s": "s", "overhead_s": "s",
         "us_per_call": "us", "us_per_sample": "us", "ns_per_term": "ns"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "apolylab" / "__init__.py").is_file():
        print("no package at %s; run from a checkout of the repository" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    inputs = make_inputs(args.workload, args.seed)
    work_dir = ROOT / ".bench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work_dir.mkdir(parents=True)
    inputs_file = work_dir / "inputs.json"
    inputs_file.write_text(json.dumps(inputs))
    try:
        if args.trace:
            untraced = run_worker(args.workload, inputs_file, args.seconds / 2, False, work_dir)
            traced = run_worker(args.workload, inputs_file, args.seconds / 2, True, work_dir)
            values, repeat = layer_report(traced, untraced)
            last = traced
            correct, attempted, failed = verify(args.workload, inputs, [untraced, traced])
            correct = correct and repeat
            metrics = {name: {"value": value, "unit": UNITS[name.rsplit(".", 1)[1]]}
                       for name, value in values.items()}
        else:
            # set-up samples before and after the run, so that their median
            # spans the host's drift over the run
            half = SETUP_REPEATS // 2
            setups = [setup_time(args.workload, inputs_file) for _ in range(half)]
            result = last = run_worker(args.workload, inputs_file, args.seconds, False, work_dir)
            setups += [setup_time(args.workload, inputs_file) for _ in range(SETUP_REPEATS - half)]
            correct, attempted, failed = verify(args.workload, inputs, [result])
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "wall_s": {"value": _median_round(result), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_kb"] / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    print("%s seed %d: %d round(s); unscaled median round %.4g s" % (
        args.workload, args.seed, len(last["rounds"]),
        statistics.median(r["unscaled"] for r in last["rounds"])))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
