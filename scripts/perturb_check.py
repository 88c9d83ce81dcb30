#!/usr/bin/env python3
"""Perturbation check: how far a learned-filter fit moves under 1 ulp.

For each headline seed (sigma_n 1, lag 5, two channels; train 1000, test
10000) it fits kf_svm at one fixed cell (C 100, lambda 1, f 11, n0 6) twice: on the training signal X
and on X moved by 1 ulp toward +inf (``np.nextafter``).  It prints per
seed the relative filter change ||F' - F|| / ||F|| and the online test
error of both fits, then how many fits moved (relative change above
MOVED_ABOVE, far above rounding), the largest relative filter change and
the largest test-error change.  A fit that does not hang on the last bit
moves by rounding only.

    PYTHONPATH=src python3 scripts/perturb_check.py --seeds 10
"""

import argparse
import sys

import numpy as np

from marginfilter.harness import error_rate, toy_split, train_pipeline
from marginfilter.signals import ToyParams

MOVED_ABOVE = 1e-9


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--n-train", type=int, default=1000)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--max-cg-iters", type=int, default=30)
    args = ap.parse_args()

    params = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=2)
    cell = {"C": 100.0, "sigma_k": 1.0, "lam": 1.0, "f": 11, "n0": 6}
    kwargs = {"max_cg_iters": args.max_cg_iters}
    rel_changes, err_changes = [], []
    print(f"{'seed':>4} {'rel_filter_change':>18} {'online_error':>13} {'moved_error':>12}")
    for seed in range(args.seeds):
        # the validation slice is unused; sized like the training one, it
        # leaves the test slice where the headline split puts it
        (X, y), _, (Xte, yte) = toy_split(params, seed, args.n_train, args.n_train,
                                          args.n_test)
        pipes = [train_pipeline(Xtr, y, "kf_svm", learner_kwargs=kwargs, **cell)
                 for Xtr in (X, np.nextafter(X, np.inf))]
        F, F_moved = (pipe.filter.coeffs for pipe in pipes)
        rel = float(np.linalg.norm(F_moved - F) / np.linalg.norm(F))
        errs = [error_rate(pipe.predict(Xte), yte) for pipe in pipes]
        rel_changes.append(rel)
        err_changes.append(abs(errs[1] - errs[0]))
        print(f"{seed:>4} {rel:>18.2e} {errs[0]:>13.4f} {errs[1]:>12.4f}")

    moved = sum(rel > MOVED_ABOVE for rel in rel_changes)
    print(f"\nmoved fits: {moved} of {args.seeds} (relative filter change > {MOVED_ABOVE:.0e})")
    print(f"largest relative filter change: {max(rel_changes, default=0.0):.2e}")
    print(f"largest online test-error change: {max(err_changes, default=0.0):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
