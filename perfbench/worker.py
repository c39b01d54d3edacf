"""One pass of one workload, in a fresh process.

Started by run.py with a scrubbed environment (PYTHONPATH pointing at the
checkout's `src`, BND_THREADS=1), so the package's in-process caches start
cold as they do for a command-line call and fill within the pass as they
do for a library batch.  Between operations it runs the calibration work
(calibration.py) at least every CALIBRATE_EVERY_S of operation time, and
reports each latency both in seconds and in cal.  Prints one JSON object
on stdout.

    python3 perfbench/worker.py --workload W --seed S --trace 0|1 \
        --workdir DIR --src SRC --spans FILE --spawned-at T --cpu N [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import time

import calibration
import tracing
import workloads

SOLVER_COUNTERS = ("samples", "start_pairs", "converged", "verified", "pairs")
# Operation time between two calibration runs: short against the tens of
# seconds over which the host changes speed, long against the 40 ms a
# calibration run takes.
CALIBRATE_EVERY_S = 0.25


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop before the first operation")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    import bnd.cli
    import bnd.systems
    import numpy

    if not os.path.abspath(bnd.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"imported bnd from {bnd.__file__}, not from {args.src}")

    ops = workloads.make_ops(args.workload, args.seed, args.workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": time.monotonic() - args.spawned_at}))
        return 0
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()

    start = time.monotonic()
    calibration.work()  # warm-up, untimed
    cal = [calibration.timed()]
    latencies, before, results = [], [], []
    since = 0.0
    for i, op in enumerate(ops):
        if recorder:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            result, error = workloads.execute(op, bnd), None
        except (Exception, SystemExit) as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        before.append(len(cal) - 1)  # cal[k] and cal[k + 1] bracket operation i
        results.append((result, error))
        since += latencies[-1]
        if since >= CALIBRATE_EVERY_S or i == len(ops) - 1:
            cal.append(calibration.timed())
            since = 0.0
    wall = time.monotonic() - start
    latencies_cal = [lat * 2 / (cal[k] + cal[k + 1]) for lat, k in zip(latencies, before)]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers, absent = None, []
    if recorder:
        layers, absent = recorder.metrics()
        recorder.write(args.spans)

    reference = workloads.load_reference(args.workload)
    failures, found, total = [], 0, 0
    solver = dict.fromkeys(SOLVER_COUNTERS + ("isolated",), 0)
    for op, (result, error) in zip(ops, results):
        if error is None:
            error, hits, size = workloads.check(
                args.workload, op, result, reference, bnd.systems.format_system
            )
        else:
            hits, size = 0, workloads.reference_size(args.workload, op, reference)
        found += hits
        total += size
        if error is not None:
            failures.append(error)
        if args.workload == "solve" and result is not None:
            for key in SOLVER_COUNTERS:
                solver[key] += result.get("diagnostics", {}).get(key, 0)
            solver["isolated"] += len(workloads.isolated_pairs(result))

    print(
        json.dumps(
            {
                "setup_s": start - args.spawned_at,
                "wall_s": wall,
                "latencies": latencies,
                "latencies_cal": latencies_cal,
                "calibration_s": cal,
                "rss_mib": rss_mib,
                "failures": failures,
                "found": found,
                "total": total,
                "solver": solver,
                "layers": layers,
                "absent_metrics": absent,
                "absent_targets": recorder.absent if recorder else [],
                "python": platform.python_version(),
                "numpy": numpy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
