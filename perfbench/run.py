"""Benchmark for bnd: one closed-loop client issuing `bnd` commands.

    python3 perfbench/run.py --workload degrees|formula|systems|solve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout.  Each pass runs every operation of the
workload once, in order, in a fresh worker process (worker.py); passes
repeat until the next one would end after --seconds, with at least
MIN_PASSES of them.  The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-module metrics with --trace 1.  The
line before it is a JSON object with the details (pass count, tail
percentile, environment, failures, absent targets).

Times are in cal (see calibration.py): each operation's latency divided by
the duration of a fixed calibration work run just before and just after it
on the same processor.  A small shared host can change speed by up to 1.8x
within tens of seconds, and in seconds ten runs of the same code spread by
more than any bound the benchmark may set; in cal they do not.  The seconds are
reported too, in the details line.  Each operation's latency is its median
over the run's passes (every pass repeats the same operations on cold
caches); `wall_cal` is the sum of those medians, `ops_per_cal` operations
over `wall_cal`, and `op_p50_cal` and `op_tail_cal` their median and their
highest percentile with ten operations above it, (n - 11) / (n - 1) for n
operations per pass; with fewer than eleven (solve) `op_tail_cal` is the
slowest operation.  `peak_rss_mib` is the median over the passes, and
`setup_s` the median over the passes and the extra set-up-only workers
(SETUP_EVERY_S); `recall` and `ok_ops_frac` pool all operations.

The traced run alternates plain and traced passes; the per-module metrics
are medians over the traced ones, and `trace.overhead_cal` is the traced
`wall_cal` minus the plain `wall_cal`, both as defined above.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_PASSES = 3  # plain passes in a --trace 0 run
MIN_TRACED_PASSES = 2  # of each kind in a --trace 1 run
RUN_LIMIT_S = 170  # a run must exit within 180 s
TAIL_BEYOND = 10
# A run spawns extra workers that stop before the first operation, so that
# it holds one set-up sample per SETUP_EVERY_S, spread over the run.
SETUP_EVERY_S = 2.0


class BenchError(Exception):
    pass


def worker_env(src: str) -> dict[str, str]:
    """A scrubbed environment: the checkout's package, one solver thread,
    one BLAS thread, fixed hashing."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": src,
        "PYTHONHASHSEED": "0",
        "BND_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def run_pass(
    args, traced: bool, workdir: str, src: str, started: float, index: int, cpu: int,
    setup_only: bool = False,
) -> dict:
    spans = os.path.join(HERE, "out", f"spans-{args.workload}-{index}.jsonl")
    timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - started))
    spawned = time.monotonic()
    cmd = [
        sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(int(traced)), "--workdir", workdir, "--src", src,
        "--spans", spans, "--spawned-at", repr(spawned), "--cpu", str(cpu),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            cmd, env=worker_env(src), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {args.workload} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"unreadable worker output: {proc.stdout[-500:]!r}")


def run_passes(args, src: str) -> tuple[list[dict], list[dict], list[float]]:
    """(plain passes, traced passes, set-up times) for one run."""
    started = time.monotonic()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    # compile the package's bytecode once, as an installed copy would have it
    prime = subprocess.run(
        [sys.executable, "-c", "import bnd.cli"], env=worker_env(src), capture_output=True, text=True
    )
    if prime.returncode != 0:
        raise BenchError(f"cannot import bnd: {prime.stderr.strip()[-2000:]}")
    kinds = (False, True) if args.trace else (False,)
    least = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    done: dict[bool, list[dict]] = {False: [], True: []}
    setups: list[float] = []
    deadline = started + args.seconds
    # Rotate the processors, the same way for plain and traced passes: on a
    # shared host each one slows down on its own for tens of seconds.
    cpus = sorted(os.sched_getaffinity(0))
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        for index in itertools.count():
            traced = kinds[index % len(kinds)]
            cpu = cpus[index // len(kinds) % len(cpus)]
            t0 = time.monotonic()
            done[traced].append(run_pass(args, traced, workdir, src, started, index, cpu))
            setups.append(done[traced][-1]["setup_s"])
            while len(setups) < (time.monotonic() - started) / SETUP_EVERY_S:
                extra = run_pass(args, False, workdir, src, started, index, cpu, setup_only=True)
                setups.append(extra["setup_s"])
            now = time.monotonic()
            enough = all(len(done[k]) >= least for k in kinds)
            if enough and (now + (now - t0) > deadline or now - started > RUN_LIMIT_S / 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done[False], done[True], setups


def tail_fraction(n_ops: int) -> float | None:
    """Rank fraction of the tail latency for n_ops operations per pass."""
    if n_ops <= TAIL_BEYOND:
        return None
    return (n_ops - TAIL_BEYOND - 1) / (n_ops - 1)


def op_latencies(passes: list[dict], key: str = "latencies_cal") -> list[float]:
    """Each operation's median latency over the passes, in ascending order."""
    return sorted(statistics.median(op) for op in zip(*(p[key] for p in passes)))


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, float]:
    lat = op_latencies(passes)
    fraction = tail_fraction(len(lat))
    wall = sum(lat)
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "wall_cal": wall,
        "ops_per_cal": len(lat) / wall,
        "op_p50_cal": statistics.median(lat),
        "op_tail_cal": lat[-1] if fraction is None else lat[round(fraction * (len(lat) - 1))],
        "ok_ops_frac": 1 - failed / attempted,
        "recall": sum(p["found"] for p in passes) / sum(p["total"] for p in passes),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    solver = {
        key: statistics.median(p["solver"][key] for p in traced) for key in traced[0]["solver"]
    }
    for key, value in solver.items():
        out[f"solver.{key}"] = value
    starts = solver["start_pairs"]
    out["solver.converged_per_start"] = solver["converged"] / starts if starts else 0.0
    out["solver.isolated_per_start"] = solver["isolated"] / starts if starts else 0.0
    out["trace.overhead_cal"] = sum(op_latencies(traced)) - sum(op_latencies(plain))
    return out


def details(args, plain: list[dict], traced: list[dict]) -> dict:
    n_ops = len(plain[0]["latencies"])
    fraction = tail_fraction(n_ops)
    failures = [f for p in plain + traced for f in p["failures"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "ops_per_pass": n_ops,
        "op_tail": (
            {"percentile": round(100 * fraction, 1), "samples_beyond": TAIL_BEYOND,
             "samples": n_ops}
            if fraction is not None
            else {"percentile": 100, "samples": n_ops,
                  "note": "fewer than eleven operations per pass: the slowest operation"}
        ),
        "pass_wall_s": [round(p["wall_s"], 4) for p in plain],
        "wall_s": sum(op_latencies(plain, "latencies")),
        "calibration_s": statistics.median(c for p in plain for c in p["calibration_s"]),
        "recall_base": sum(p["total"] for p in plain + traced),
        "env": {"nproc": os.cpu_count(), "python": plain[0]["python"], "numpy": plain[0]["numpy"]},
        "failures": failures[:20],
    }
    if traced:
        info["solver_ratio_bases"] = {
            "start_pairs": statistics.median(p["solver"]["start_pairs"] for p in traced),
        }
        info["traced_wall_cal"] = sum(op_latencies(traced))
        info["plain_wall_cal"] = sum(op_latencies(plain))
        info["absent_metrics"] = traced[0]["absent_metrics"]
        info["absent_targets"] = traced[0]["absent_targets"]
    return info


def measure(args, root: str, src: str) -> tuple[dict, dict]:
    """(result line, details) of one run."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    plain, traced, setups = run_passes(args, src)
    if args.trace:
        values, declared = per_layer(plain, traced), spec["per_layer"]
    else:
        values, declared = end_to_end(plain, setups), spec["end_to_end"]
    passes = plain + traced
    with open(os.path.join(HERE, "out", f"passes-{args.workload}.json"), "w", encoding="utf-8") as handle:
        json.dump({"plain": plain, "traced": traced}, handle)
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    info = details(args, plain, traced)
    info["setup_samples"] = len(setups)
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bnd", "cli.py")):
        print(f"error: no bnd package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = {}
    try:
        for name in names:
            rows[name] = measure(argparse.Namespace(**{**vars(args), "workload": name}), root, src)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, (result, info) in rows.items():
        print(json.dumps(info))
        for metric, entry in result["metrics"].items():
            print(f"{name:8} {metric:28} {entry['value']:.6g} {entry['unit']}")
    if args.workload != "all":
        print(json.dumps(rows[args.workload][0]))
        return 0
    combined = {
        "correct": all(r["correct"] for r, _ in rows.values()),
        "attempted": sum(r["attempted"] for r, _ in rows.values()),
        "failed": sum(r["failed"] for r, _ in rows.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, (r, _) in rows.items()
            for metric, entry in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
