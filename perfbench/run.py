"""hazgate benchmark: one workload, one seed, one fresh single-threaded process.

    python3 perfbench/run.py --workload campaign-on --seed 7 --seconds 25 --trace 0

Run from anywhere; the checkout is the directory above this file, and
hazgate is imported from its ``src``.  The run loads the program's inputs,
warms up, times set-up in fresh interpreters, then runs verdicts back to
back (a closed loop with one client) for ``--seconds`` and checks each one.
Times are scaled by a reference loop timed beside the workload
(``stepclock.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with every layer boundary wrapped, and prints the
per-layer metrics of the fastest traced verdict and the tracing overhead.
Each metric is printed as ``name = value unit``, then one ``record`` line
(environment, sample counts, verdict digest, failures), and as the last
line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit 0 when correct, 1 when a gate failed, 2 on a usage error
or a checkout without hazgate sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from stepclock import REFERENCE_LOOP_S, StepClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_ms_p50": "ms",
    "scenario_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hazgate benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure_setup(samples: int) -> dict:
    """Median of each set-up timing over fresh interpreters, run one at a time."""
    runs = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def measure(workload, inputs, seconds: float, tracer=None, layer_metrics=None):
    """Verdicts back to back until ``seconds`` have passed (at least one).

    Returns the reps, the per-layer metrics of each rep when traced, and the
    operations lost to an exception, which ends the loop."""
    reps, layers = [], []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        try:
            rep = workload.run(inputs)
        except Exception:  # the program raised: count the verdict's operations as failed
            traceback.print_exc()
            return reps, layers, workload.ops_per_rep(inputs)
        reps.append(rep)
        if tracer is not None:
            layers.append(layer_metrics(tracer))
    return reps, layers, 0


def judge(reps: list, raised_ops: int) -> dict:
    """Counts and problems of a set of verdicts of one seed.

    Every verdict of one seed repeats the same operations, so ``attempted``
    is the operations of one verdict and ``failed`` the distinct operations
    that failed in any of them (all of them when a verdict raised).  Both
    depend on the seed and the program only, not on how many verdicts fit
    in the run."""
    attempted = max([raised_ops] + [r.ops for r in reps])
    failed = attempted if raised_ops else len({f for r in reps for f in r.failures})
    problems = sorted({g for r in reps for g in r.gates})
    if len({r.digest for r in reps}) > 1:
        problems.append("verdict digest differs between verdicts of one seed")
    unknown = sum(len(r.failures) - len(r.known) for r in reps)
    if unknown:
        problems.append(f"{unknown} failed operations match no known defect")
    if raised_ops:
        problems.append("the program raised")
    if not reps:
        problems.append("no verdict completed")
    return {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems,
        "failures": sorted({f for r in reps for f in r.failures})[:10],
        "known_failures": sorted({k for r in reps for k in r.known}),
    }


def end_to_end(reps: list, setup: dict) -> dict:
    """Median verdict, and percentiles over the scenarios of each one's median
    over the verdicts, in reference-loop time (``stepclock.py``).  Every
    verdict of one seed runs the same scenarios in the same order."""
    verdict_s = statistics.median(r.work for r in reps) * REFERENCE_LOOP_S
    scenarios = [statistics.median(times) for times in zip(*(r.scenarios for r in reps))]
    return {
        "setup_s": setup["setup_s"],
        "verdict_s": verdict_s,
        "scenarios_per_s": reps[0].ops / verdict_s,
        "scenario_ms_p50": percentile(scenarios, 50) * REFERENCE_LOOP_S * 1000,
        "scenario_ms_p99": percentile(scenarios, 99) * REFERENCE_LOOP_S * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hazgate" / "__init__.py").is_file():
        print(f"error: no hazgate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hazgate

    if not Path(hazgate.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: hazgate imported from {hazgate.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from layers import PER_LAYER_UNITS, Patches, Tracer, instrument, layer_metrics
    from workloads import WORKLOADS, Context

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    patches = Patches()
    clock = StepClock()
    try:
        inputs = workload.prepare(Context.load(ROOT), args.seed, patches, clock)
        workload.warm_up(inputs)
        setup = measure_setup(SETUP_SAMPLES)
        if not args.trace:
            reps, _, raised = measure(workload, inputs, args.seconds)
            verdict = judge(reps, raised)
            metrics = end_to_end(reps, setup) if reps else {}
            units = END_TO_END_UNITS
            spans = None
        else:
            plain, _, raised_plain = measure(workload, inputs, args.seconds / 2)
            tracer = Tracer()
            instrument(tracer)
            clock.probing = False  # keep the reference loop out of the spans
            try:
                traced, layers, raised = measure(workload, inputs, args.seconds / 2,
                                                 tracer, layer_metrics)
            finally:
                tracer.uninstall()
            reps = plain + traced
            verdict = judge(reps, raised_plain + raised)
            metrics = {}
            if plain and traced:
                best = min(range(len(traced)), key=lambda i: traced[i].wall_s)
                metrics = dict(layers[best])
                metrics.update({k: v for k, v in setup.items() if k in PER_LAYER_UNITS})
                untraced_s = min(r.wall_s for r in plain)
                metrics["trace.overhead_share"] = (
                    traced[best].wall_s - untraced_s) / untraced_s
            units = PER_LAYER_UNITS
            spans = tracer.edges()
    finally:
        patches.restore()

    if set(metrics) != set(units):
        print("error: no complete verdict to take metrics from", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        # percentiles are over distinct scenarios, each at its median of `verdicts`
        "samples": {"verdicts": len(reps), "setup_runs": SETUP_SAMPLES,
                    "scenario_ms_p50": len(reps[0].scenarios),
                    "scenario_ms_p99": len(reps[0].scenarios)},
        "reference_loop_s": {"fastest": min(clock.probes),
                             "median": statistics.median(clock.probes),
                             "samples": len(clock.probes)},
        "verdict_wall_s": {"min": min(r.wall_s for r in reps),
                           "median": statistics.median(r.wall_s for r in reps)},
        "digest": reps[0].digest, "summary": reps[0].summary,
        "failed_share": verdict["failed"] / verdict["attempted"],
        "operations_run": sum(r.ops for r in reps),
        "failures_run": sum(len(r.failures) for r in reps),
        "known_failures": verdict["known_failures"], "failures": verdict["failures"],
        "problems": verdict["problems"],
    }
    if spans is not None:
        record["spans_of_last_traced_verdict"] = spans
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": verdict["correct"], "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
