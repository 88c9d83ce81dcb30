#!/usr/bin/env python3
"""Layered benchmark of marginfilter.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload headline --seed 0 --seconds 38 --trace 0

Runs one workload (see BENCHMARK.json and perfbench/workloads.py) in a
fresh child process, with the BLAS thread count fixed at 1 so that every
compared commit runs with the same thread settings.  The child builds its
inputs from ``--seed``, times the workload's operation in a closed loop
for about ``--seconds`` seconds, checks the outputs, and prints one line
per metric.  The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json under ``--trace 0`` and its per-layer metrics
under ``--trace 1``.  A traced run also writes its spans to
``.bench_out/trace-<workload>-seed<seed>.json``.

The library is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.

Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    src = ROOT / "src"
    if not (src / "marginfilter" / "__init__.py").is_file():
        print(f"error: no marginfilter sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), **THREADS)
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        print(f"error: benchmark child exited with status {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1

    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    print("\n".join(lines[:-1]))
    if reported != declared:
        print(f"error: metrics {sorted(reported.items())} do not match BENCHMARK.json "
              f"{sorted(declared.items())}", file=sys.stderr)
        return 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
