"""The benchmark's workloads.

A workload has a set-up, which makes one input set from a data seed and
writes it to files, and an operation on that input set, which is what the
benchmark times.  Operations call the library's public functions through
their modules (``harness.grid_search``, not a from-imported name), so a
traced run sees them.

| workload   | operation                                              | stresses                    |
|------------|--------------------------------------------------------|-----------------------------|
| headline   | svm, avg_svm, kf_svm grid-searched on 1000/1000/10000  | SMO, warm starts, CG        |
| skf-select | one skf_svm fit on 6 channels (2 informative, 4 noise) | MM loop, d>2 gradient       |
| label-long | load a 3-class avg_svm model, label 60000 samples      | decoding, test kernels, I/O |

Operations last a few seconds each, so that a run times several of them,
each on an input set of its own: on a shared 2-core machine the same
operation varies by about 15% from one execution to the next, and the
work of a fit varies by as much from one input set to the next.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from marginfilter import harness, persistence
from marginfilter.signals import ToyParams

HEADLINE_PARAMS = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=2)
SKF_PARAMS = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=6)
LABEL_PARAMS = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=2, n_classes=3)
# learner settings of the acceptance suite's headline and skf fixtures
BENCH_KWARGS = {"max_cg_iters": 30}
SKF_KWARGS = {"max_cg_iters": 25, "tol_dF": 1e-4, "mm_max_outer": 12}
# the middle cell of the acceptance skf grid (lambda 2, 8, 32); one cell
# instead of the grid keeps an operation at a few seconds
SKF_GRID = harness.GridSpec("skf_svm", C=(100.0,), lam=(8.0,), f=(11,), n0=(6,))


def failed_ops_ratio(failed: int, attempted: int) -> float:
    """Share of attempted operations (grid cells, fits, labelings) that failed."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def label_problem(pred, n: int, classes) -> str | None:
    """Why a predicted label sequence is invalid, or None when it is valid."""
    pred = np.asarray(pred)
    if pred.shape != (n,):
        return f"{pred.shape[0] if pred.ndim else 0} labels for {n} samples"
    unknown = np.setdiff1d(pred, classes)
    if unknown.size:
        return f"labels {unknown.tolist()} outside the class set {list(classes)}"
    return None


@dataclass
class OpRecord:
    """What one set-up or operation did.

    ``failures`` maps each failed operation to the reason; an operation is
    a grid cell, a fit or a labeling.  ``correct`` turns false when a
    check on the program's output fails.
    """

    phases: dict = field(default_factory=dict)
    labeled: dict = field(default_factory=dict)
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    correct: bool = True
    errors: dict = field(default_factory=dict)
    model_bytes: int = 0

    @contextmanager
    def phase(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0

    def fail(self, op: str, reason: str, *, check: bool):
        self.failures[op] = "; ".join(filter(None, (self.failures.get(op), reason)))
        if check:
            self.correct = False

    def grid(self, result: harness.GridSearchResult):
        """Count the cells of a grid search; failed cells are failed operations."""
        self.attempted += len(result.table) + len(result.failures)
        for cell, reason in result.failures:
            self.fail(f"{result.method} cell {cell}", reason, check=False)

    def label(self, name: str, pipe, X, y) -> dict:
        """Label X online and with Viterbi; check the labels, record the errors."""
        preds = {}
        for decode in harness.DECODE_MODES:
            with self.phase(decode):
                pred = pipe.predict(X, decode=decode)
            self.attempted += 1
            self.labeled[decode] = self.labeled.get(decode, 0) + len(X)
            problem = label_problem(pred, len(X), pipe.model.classes)
            if problem:
                self.fail(f"{name}.{decode}", problem, check=True)
                self.errors[f"{name}.{decode}"] = math.nan
            else:
                self.errors[f"{name}.{decode}"] = harness.error_rate(pred, y)
            preds[decode] = pred
        return preds


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # whose test errors the workload reports
    setup: Callable  # (data seed, directory, OpRecord) -> state
    op: Callable  # (state, directory, OpRecord) -> None


def _select(rec: OpRecord, train, val, grid: harness.GridSpec, kwargs: dict):
    """Grid-search on validation and calibrate the chosen pipeline."""
    gs = harness.grid_search(train, val, grid, learner_kwargs=kwargs, keep_pipeline=True)
    rec.grid(gs)
    return harness.calibrate_pipeline(gs.pipeline, *val)


def _save(rec: OpRecord, pipe, directory):
    model = os.path.join(directory, "model.json")
    persistence.save_model(model, pipe)
    persistence.save_filter(os.path.join(directory, "filter.json"), pipe.filter)
    rec.model_bytes = os.path.getsize(model)


def _split_files(params: ToyParams, seed: int, directory, sizes):
    """Make a train/validation/test split, save it as dataset CSVs, load it back."""
    parts = []
    for name, (X, y) in zip(("train", "val", "test"), harness.toy_split(params, seed, *sizes)):
        path = os.path.join(directory, f"{name}.csv")
        persistence.save_dataset(path, X, y)
        parts.append(persistence.load_dataset(path))
    return parts


def headline_setup(seed, directory, rec):
    return _split_files(HEADLINE_PARAMS, seed, directory, (1000, 1000, 10000))


def headline_op(data, directory, rec):
    train, val, test = data
    with rec.phase("fit"):
        pipes = {m: _select(rec, train, val, harness.default_grid(m), BENCH_KWARGS)
                 for m in ("svm", "avg_svm", "kf_svm")}
    for method, pipe in pipes.items():
        rec.label(method, pipe, *test)
    # acceptance gate 01, asserted there for seeds 0-9
    if not rec.errors["kf_svm.online"] < rec.errors["svm.online"]:
        rec.fail("kf_svm.online", "kf_svm online error not below svm's", check=True)
    _save(rec, pipes["kf_svm"], directory)


def skf_setup(seed, directory, rec):
    return _split_files(SKF_PARAMS, seed, directory, (1000, 1000, 10000))


def skf_op(data, directory, rec):
    train, val, test = data
    with rec.phase("fit"):
        pipe = _select(rec, train, val, SKF_GRID, SKF_KWARGS)
    rec.label("skf_svm", pipe, *test)
    _save(rec, pipe, directory)


def label_long_setup(seed, directory, rec):
    train, val, test = harness.toy_split(LABEL_PARAMS, seed, 1000, 1000, 60000)
    with rec.phase("fit"):
        pipe = harness.train_pipeline(*train, "avg_svm", C=10.0, sigma_k=1.0, f=11, n0=6)
        harness.calibrate_pipeline(pipe, *val)
    _save(rec, pipe, directory)
    persistence.save_dataset(os.path.join(directory, "test.csv"), *test)
    return directory


def label_long_op(directory, _, rec):
    bank = persistence.load_filter(os.path.join(directory, "filter.json"))
    pipe = persistence.load_model(os.path.join(directory, "model.json"), bank)
    X, y = persistence.load_dataset(os.path.join(directory, "test.csv"))
    preds = rec.label("avg_svm", pipe, X, y)
    for decode, pred in preds.items():
        persistence.save_predictions(os.path.join(directory, f"pred-{decode}.csv"), pred)
    rec.model_bytes = os.path.getsize(os.path.join(directory, "model.json"))


WORKLOADS = {w.name: w for w in (
    Workload("headline", "kf_svm", headline_setup, headline_op),
    Workload("skf-select", "skf_svm", skf_setup, skf_op),
    Workload("label-long", "avg_svm", label_long_setup, label_long_op),
)}
