#!/usr/bin/env python3
"""Reproduce the benchmark sweeps (noise, channel count, lag, filter
length, kernel bandwidth) and write plot-ready CSVs per axis.

Equivalent to running the `marginfilter sweep` subcommand once per axis;
expect this to take a while at full scale — trim --seeds or --n-test for
a quick look.  Each failed task is printed to stderr; an axis with no
rows writes no CSV, and makes the exit status 1.
"""

import argparse
import os
import sys

from marginfilter import harness
from marginfilter.harness import DEFAULT_AXIS_VALUES, run_toy_sweep
from marginfilter.persistence import atomic_write_text
from marginfilter.signals import ToyParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="sweep-results")
    ap.add_argument("--axes", default="noise,size,lag,f,sigma_k")
    ap.add_argument("--methods", default="svm,avg_svm,kf_svm")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--max-cg-iters", type=int, default=30)
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    methods = args.methods.split(",")
    base = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=2)
    empty = []
    for axis in args.axes.split(","):
        res = run_toy_sweep(
            axis, DEFAULT_AXIS_VALUES[axis], methods,
            seeds=tuple(range(args.seeds)), base=base, n_test=args.n_test,
            learner_kwargs={"max_cg_iters": args.max_cg_iters})
        for (value, method, seed), msg in res.failures:
            print(f"{axis} {value!r} {method} seed {seed} failed: {msg}", file=sys.stderr)
        if not res.rows:
            print(f"{axis}: 0 rows, {len(res.failures)} failures, nothing written",
                  file=sys.stderr)
            empty.append(axis)
            continue
        atomic_write_text(os.path.join(args.out_dir, f"{axis}_results.csv"),
                          harness.sweep_rows_csv(res))
        atomic_write_text(os.path.join(args.out_dir, f"{axis}_summary.csv"),
                          harness.sweep_summary_csv(res))
        print(f"{axis}: {len(res.rows)} rows, {len(res.failures)} failures "
              f"-> {args.out_dir}/{axis}_results.csv")
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main())
