"""Write the reference outputs that the benchmark checks against.

    python3 perfbench/pin.py --output DIR [workload ...]

Run from the root of a checkout at the commit whose outputs become the
reference.  The files in perfbench/reference were written this way at the
seed commit of the benchmark; run.py only reads them.  Writes
DIR/<workload>.json; it never writes into perfbench/reference unless told to.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from run import worker_env
import workloads


def pin(workload: str, bnd, workdir: str) -> dict:
    if workload == "degrees":
        ops = workloads.all_degree_ops()
    elif workload == "formula":
        ops = workloads.make_ops("formula", 0, workdir)
    elif workload == "systems":
        ops = []
        for draw in range(workloads.SYSTEM_POOL):
            os.mkdir(os.path.join(workdir, str(draw)))
            ops += workloads.system_ops(draw, os.path.join(workdir, str(draw)))
    else:
        ops = workloads.solve_ops(workloads.SOLVE_SEED, workdir)
    return {
        op["key"]: workloads.observe(workload, workloads.execute(op, bnd))
        for op in sorted(ops, key=lambda op: op["key"])
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", required=True)
    parser.add_argument("workload", nargs="*", choices=workloads.WORKLOADS)
    args = parser.parse_args()

    src = os.path.join(os.getcwd(), "src")
    os.environ.update({k: v for k, v in worker_env(src).items() if k != "PATH"})
    sys.path.insert(0, src)
    import bnd.cli
    import bnd.systems

    os.makedirs(args.output, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as workdir:
            values = pin(workload, bnd, workdir)
        with open(os.path.join(args.output, f"{workload}.json"), "w", encoding="utf-8") as handle:
            json.dump(values, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{workload}: {len(values)} reference values")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
