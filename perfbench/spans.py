"""In-memory spans around calls into marginfilter's layers.

The benchmark measures each layer from outside the library: it replaces
the public functions of ``signals``, ``svm``, ``filter_learning``,
``decoding``, ``harness`` and ``persistence`` with timing wrappers for the
duration of a traced operation, and restores them afterwards.  A name
bound by ``from module import name`` is a separate binding in the
importing module, so every module of the package that holds the original
function object gets the wrapper, not only the module that defines it.

Each call leaves one span: name, start, end, the span that was open when
it started (its parent), and a few attributes read from its arguments and
result (iteration counts, convergence flags, array sizes).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "marginfilter"


def _solve_attrs(args, kwargs, model):
    return {"warm": kwargs.get("warm_alpha") is not None,
            "iters": int(model.n_iter), "converged": bool(model.converged)}


def _kernel_attrs(args, kwargs, K):
    # bytes of the result array, computed from its shape as m * p * 8
    return {"bytes": int(K.shape[0]) * int(K.shape[1]) * 8}


def _fit_attrs(args, kwargs, fit):
    return {"converged": bool(fit.converged)}


def _train_pipeline_attrs(args, kwargs, pipe):
    return {"method": pipe.method, "history": len(pipe.history)}


def _grid_attrs(args, kwargs, result):
    return {"cells": len(result.table) + len(result.failures),
            "failed": len(result.failures)}


def _viterbi_attrs(args, kwargs, out):
    return {"samples": int(len(out))}


# span name -> (defining module, function name, attribute reader)
TARGETS = {
    "signals.apply_filter": ("signals", "apply_filter", None),
    "svm.kernel_matrix": ("svm", "kernel_matrix", _kernel_attrs),
    "svm.solve_svm_dual": ("svm", "solve_svm_dual", _solve_attrs),
    "svm.train_multiclass": ("svm", "train_multiclass", None),
    "svm.decision_scores": ("svm", "decision_scores", None),
    "svm.oao_vote": ("svm", "oao_vote", None),
    "svm.class_probabilities": ("svm", "class_probabilities", None),
    "filter_learning.fit_shared_filter": ("filter_learning", "fit_shared_filter", _fit_attrs),
    # the only private name: the gradient has no public entry point yet
    "filter_learning.gradient": ("filter_learning", "_inner_gradient", None),
    "decoding.viterbi": ("decoding", "viterbi", _viterbi_attrs),
    "decoding.decode_offline": ("decoding", "decode_offline", None),
    "harness.train_pipeline": ("harness", "train_pipeline", _train_pipeline_attrs),
    "harness.calibrate_pipeline": ("harness", "calibrate_pipeline", None),
    "harness.grid_search": ("harness", "grid_search", _grid_attrs),
    "persistence.load_dataset": ("persistence", "load_dataset", None),
    "persistence.save_dataset": ("persistence", "save_dataset", None),
    "persistence.load_model": ("persistence", "load_model", None),
    "persistence.save_model": ("persistence", "save_model", None),
    "persistence.save_predictions": ("persistence", "save_predictions", None),
}

# per-layer metrics in output order, with their units
LAYER_METRICS = {
    "svm.solve_svm_dual.calls": "count",
    "svm.solve_svm_dual.warm_calls": "count",
    "svm.solve_svm_dual.iters": "count",
    "svm.solve_svm_dual.self_s": "s",
    "svm.solve_svm_dual.us_per_iter": "us",
    "svm.solve_svm_dual.iters_per_warm_solve": "count",
    "svm.solve_svm_dual.iters_per_cold_solve": "count",
    "svm.solve_svm_dual.unconverged": "count",
    "svm.kernel_matrix.calls": "count",
    "svm.kernel_matrix.self_s": "s",
    "svm.kernel_matrix.computed_mb": "MB",
    "svm.kernel_matrix.max_mb": "MB",
    "filter_learning.fit_shared_filter.calls": "count",
    "filter_learning.fit_shared_filter.self_s": "s",
    "filter_learning.fit_shared_filter.solves": "count",
    "filter_learning.fit_shared_filter.unconverged": "count",
    "filter_learning.gradient.calls": "count",
    "filter_learning.gradient.self_s": "s",
    "filter_learning.evals_per_cg_step": "ratio",
    "filter_learning.mm_outer_steps": "count",
    "svm.train_multiclass.calls": "count",
    "svm.train_multiclass.self_s": "s",
    "svm.train_multiclass.solves": "count",
    "signals.apply_filter.calls": "count",
    "signals.apply_filter.self_s": "s",
    "svm.decision_scores.calls": "count",
    "svm.decision_scores.self_s": "s",
    "svm.oao_vote.self_s": "s",
    "svm.class_probabilities.self_s": "s",
    "decoding.viterbi.self_s": "s",
    "decoding.viterbi.samples_per_s": "1/s",
    "decoding.decode_offline.self_s": "s",
    "harness.train_pipeline.calls": "count",
    "harness.train_pipeline.self_s": "s",
    "harness.calibrate_pipeline.self_s": "s",
    "harness.grid_search.cells": "count",
    "harness.grid_search.failed_cells": "count",
    "harness.error_rate.online": "ratio",
    "harness.error_rate.viterbi": "ratio",
    "phase.fit_s": "s",
    "phase.online_samples_per_s": "1/s",
    "phase.viterbi_samples_per_s": "1/s",
    "persistence.load_dataset.self_s": "s",
    "persistence.save_dataset.self_s": "s",
    "persistence.load_model.self_s": "s",
    "persistence.save_model.self_s": "s",
    "persistence.save_predictions.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; one tracer per traced operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper


@contextmanager
def patched(tracer: Tracer):
    """Route every binding of each TARGETS function through ``tracer``.

    All bindings are restored on exit, also when the body raises.
    """
    replaced = []
    try:
        for name, (module, attr, reader) in TARGETS.items():
            original = getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr)
            wrapper = tracer.wrap(name, original, reader)
            for mod in [m for key, m in sys.modules.items()
                        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    replaced.append((mod, key, original))
                    setattr(mod, key, wrapper)
        yield tracer
    finally:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children[idx], key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and self times from one traced operation.

    Returns a dict over every LAYER_METRICS name that spans determine
    (all but the test errors, the phase times and the trace overhead,
    which the caller measures).
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span.name].append(idx)

    def calls(name):
        return len(by_name[name])

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def under(idx, name):
        parent = spans[idx].parent
        while parent is not None:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    solves = [spans[i] for i in by_name["svm.solve_svm_dual"]]
    warm = [s for s in solves if s.attrs.get("warm")]
    cold = [s for s in solves if not s.attrs.get("warm")]
    iters = sum(s.attrs.get("iters", 0) for s in solves)
    kernel_bytes = [spans[i].attrs.get("bytes", 0) for i in by_name["svm.kernel_matrix"]]
    fit_solves = sum(under(i, "filter_learning.fit_shared_filter")
                     for i in by_name["svm.solve_svm_dual"])
    grads = calls("filter_learning.gradient")
    grids = [spans[i].attrs for i in by_name["harness.grid_search"]]
    viterbi_samples = sum(spans[i].attrs.get("samples", 0) for i in by_name["decoding.viterbi"])

    m = {
        "svm.solve_svm_dual.calls": len(solves),
        "svm.solve_svm_dual.warm_calls": len(warm),
        "svm.solve_svm_dual.iters": iters,
        "svm.solve_svm_dual.self_s": self_s("svm.solve_svm_dual"),
        "svm.solve_svm_dual.us_per_iter": 1e6 * _ratio(self_s("svm.solve_svm_dual"), iters),
        "svm.solve_svm_dual.iters_per_warm_solve": _ratio(
            sum(s.attrs.get("iters", 0) for s in warm), len(warm)),
        "svm.solve_svm_dual.iters_per_cold_solve": _ratio(
            sum(s.attrs.get("iters", 0) for s in cold), len(cold)),
        "svm.solve_svm_dual.unconverged": sum(
            not s.attrs.get("converged", False) for s in solves),
        "svm.kernel_matrix.calls": len(kernel_bytes),
        "svm.kernel_matrix.self_s": self_s("svm.kernel_matrix"),
        "svm.kernel_matrix.computed_mb": sum(kernel_bytes) / 1e6,
        "svm.kernel_matrix.max_mb": max(kernel_bytes, default=0) / 1e6,
        "filter_learning.fit_shared_filter.calls": calls("filter_learning.fit_shared_filter"),
        "filter_learning.fit_shared_filter.self_s": self_s("filter_learning.fit_shared_filter"),
        "filter_learning.fit_shared_filter.solves": fit_solves,
        "filter_learning.fit_shared_filter.unconverged": sum(
            not spans[i].attrs.get("converged", False)
            for i in by_name["filter_learning.fit_shared_filter"]),
        "filter_learning.gradient.calls": grads,
        "filter_learning.gradient.self_s": self_s("filter_learning.gradient"),
        "filter_learning.evals_per_cg_step": _ratio(fit_solves, grads),
        "filter_learning.mm_outer_steps": sum(
            spans[i].attrs.get("history", 0) for i in by_name["harness.train_pipeline"]
            if spans[i].attrs.get("method") == "skf_svm"),
        "svm.train_multiclass.calls": calls("svm.train_multiclass"),
        "svm.train_multiclass.self_s": self_s("svm.train_multiclass"),
        "svm.train_multiclass.solves": sum(under(i, "svm.train_multiclass")
                                           for i in by_name["svm.solve_svm_dual"]),
        "signals.apply_filter.calls": calls("signals.apply_filter"),
        "signals.apply_filter.self_s": self_s("signals.apply_filter"),
        "svm.decision_scores.calls": calls("svm.decision_scores"),
        "svm.decision_scores.self_s": self_s("svm.decision_scores"),
        "svm.oao_vote.self_s": self_s("svm.oao_vote"),
        "svm.class_probabilities.self_s": self_s("svm.class_probabilities"),
        "decoding.viterbi.self_s": self_s("decoding.viterbi"),
        "decoding.viterbi.samples_per_s": _ratio(viterbi_samples, self_s("decoding.viterbi")),
        "decoding.decode_offline.self_s": self_s("decoding.decode_offline"),
        "harness.train_pipeline.calls": calls("harness.train_pipeline"),
        "harness.train_pipeline.self_s": self_s("harness.train_pipeline"),
        "harness.calibrate_pipeline.self_s": self_s("harness.calibrate_pipeline"),
        "harness.grid_search.cells": sum(g.get("cells", 0) for g in grids),
        "harness.grid_search.failed_cells": sum(g.get("failed", 0) for g in grids),
    }
    for name in ("load_dataset", "save_dataset", "load_model", "save_model", "save_predictions"):
        m[f"persistence.{name}.self_s"] = self_s(f"persistence.{name}")
    return m


def spans_document(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from the first span."""
    t0 = spans[0].start if spans else 0.0
    return [{"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent, **s.attrs} for i, s in enumerate(spans)]
