#!/usr/bin/env python3
"""Perturbation check: how far the learned-filter fits move under 1 ulp.

For each seed it fits every cell of the default kf_svm grid (headline
data: sigma_n 1, lag 5, two channels) and of the default skf_svm grid
(the same with six channels, four of them noise) twice, along the
grid's own regularization paths: each chain (``harness._grid_chains``)
runs from the largest lambda down, each cell starting from the previous
cell's pipeline, as ``harness.grid_search`` runs it.  The first run fits
the training signal X, the second X moved by 1 ulp toward +inf
(``np.nextafter``); train 1000, test 10000.

Per cell it prints how many of the seeds' fits moved (relative filter
change ||F' - F|| / ||F|| above MOVED_ABOVE, far above rounding), the
largest relative filter change and the largest online test-error change.
A fit that does not hang on the last bit moves by rounding only; a later
cell of a path inherits whatever its start moved.

    PYTHONPATH=src python3 scripts/perturb_check.py --seeds 10
"""

import argparse
import sys

import numpy as np

from marginfilter.harness import (
    _grid_chains,
    default_grid,
    error_rate,
    toy_split,
    train_pipeline,
)
from marginfilter.signals import ToyParams

MOVED_ABOVE = 1e-9
DATA = {"kf_svm": ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=2),
        "skf_svm": ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=6)}


def path_filters(X, y, method, cells, kwargs):
    """{cell index: pipeline} of every cell, fitted along the grid's paths."""
    pipes = {}
    for chain in _grid_chains(cells, method):
        start = None
        for idx in chain:
            start = pipes[idx] = train_pipeline(X, y, method, learner_kwargs=kwargs,
                                                start=start, **cells[idx])
    return pipes


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--n-train", type=int, default=1000)
    ap.add_argument("--n-test", type=int, default=10000)
    ap.add_argument("--max-cg-iters", type=int, default=30)
    args = ap.parse_args()

    kwargs = {"max_cg_iters": args.max_cg_iters}
    print(f"{'method':>7} {'C':>5} {'lambda':>6} {'moved':>7} {'max_rel_filter_change':>22} "
          f"{'max_online_error_change':>24}")
    total_moved = total_fits = 0
    largest_rel = largest_err = 0.0
    for method, params in DATA.items():
        cells = default_grid(method).cells()
        rel = np.zeros((args.seeds, len(cells)))
        err = np.zeros((args.seeds, len(cells)))
        for seed in range(args.seeds):
            # the validation slice is unused; sized like the training one, it
            # leaves the test slice where the headline split puts it
            (X, y), _, (Xte, yte) = toy_split(params, seed, args.n_train,
                                              args.n_train, args.n_test)
            fits = [path_filters(Xtr, y, method, cells, kwargs)
                    for Xtr in (X, np.nextafter(X, np.inf))]
            for k in range(len(cells)):
                F, F_moved = (fit[k].filter.coeffs for fit in fits)
                rel[seed, k] = (np.linalg.norm(F_moved - F)
                               / max(np.linalg.norm(F), np.finfo(float).tiny))
                errs = [error_rate(fit[k].predict(Xte), yte) for fit in fits]
                err[seed, k] = abs(errs[1] - errs[0])
        for k, cell in enumerate(cells):
            moved = int(np.sum(rel[:, k] > MOVED_ABOVE))
            total_moved += moved
            total_fits += args.seeds
            print(f"{method:>7} {cell['C']:>5g} {cell['lam']:>6g} {moved:>3} of {args.seeds:<2}"
                  f" {rel[:, k].max():>22.2e} {err[:, k].max():>24.4f}")
        largest_rel = max(largest_rel, rel.max(initial=0.0))
        largest_err = max(largest_err, err.max(initial=0.0))

    print(f"\nmoved fits: {total_moved} of {total_fits} "
          f"(relative filter change > {MOVED_ABOVE:.0e})")
    print(f"largest relative filter change: {largest_rel:.2e}")
    print(f"largest online test-error change: {largest_err:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
