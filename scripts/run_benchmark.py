#!/usr/bin/env python3
"""Headline benchmark: noisy lagged two-channel signal, 10 seeds.

Trains the unfiltered SVM, the fixed-average-filter SVM and the
jointly-learned-filter SVM with validation-selected hyperparameters,
then reports mean test error for online and Viterbi decoding plus the
signed-rank p-value of the learned filter against the unfiltered SVM
(from 5 seeds up).  The table is a one-point sweep of the harness's
runner; a task that fails is printed to stderr and the exit status is 1.
"""

import argparse
import sys
import time

import numpy as np

from marginfilter.harness import run_toy_sweep, wilcoxon_signed_rank
from marginfilter.signals import ToyParams


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sigma-n", type=float, default=1.0)
    ap.add_argument("--lag", type=int, default=5)
    ap.add_argument("--nbtot", type=int, default=2)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--max-cg-iters", type=int, default=30)
    args = ap.parse_args()

    base = ToyParams(n=1, sigma_n=args.sigma_n, lag=args.lag, nbtot=args.nbtot)
    methods = ("svm", "avg_svm", "kf_svm")

    t0 = time.perf_counter()
    try:
        res = run_toy_sweep("noise", [base.sigma_n], methods, seeds=tuple(range(args.seeds)),
                            base=base, n_test=args.n_test,
                            learner_kwargs={"max_cg_iters": args.max_cg_iters})
    except ValueError as exc:  # raised before any task runs: the arguments' error
        ap.error(str(exc))
    print(f"finished in {time.perf_counter() - t0:.1f}s\n")
    if res.failures:
        for (_, method, seed), msg in res.failures:
            print(f"{method} seed {seed} failed: {msg}", file=sys.stderr)
        return 1
    errs = {m: {d: res.errors(base.sigma_n, m, d) for d in ("online", "viterbi")}
            for m in methods}

    print(f"{'method':10} {'online':>8} {'viterbi':>8}   per-seed online errors")
    for m in methods:
        on, vit = errs[m]["online"], errs[m]["viterbi"]
        print(f"{m:10} {on.mean():8.4f} {vit.mean():8.4f}   {np.round(on, 3)}")

    if args.seeds >= 5:
        p = wilcoxon_signed_rank(errs["kf_svm"]["online"], errs["svm"]["online"])
        print(f"\nsigned-rank p (kf_svm vs svm, online): {p:.4g}")
    else:
        print("\nsigned-rank p (kf_svm vs svm, online): needs at least 5 seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
