"""Tests of the benchmark's own helpers.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from marginfilter import filter_learning, harness, signals, svm  # noqa: E402


def span(name, start, end, parent=None, **attrs):
    return spans.Span(name, start, end, parent, attrs)


def record(fit_s):
    return workloads.OpRecord(phases={"fit": fit_s, "online": 0.5, "viterbi": 1.0},
                              labeled={"online": 100, "viterbi": 100})


def test_self_time_subtracts_direct_children_only():
    tree = [span("a", 0, 10), span("b", 1, 3, 0), span("c", 4, 8, 0), span("d", 5, 6, 2)]
    assert spans.self_times(tree) == pytest.approx([4, 2, 3, 1])


def test_self_time_counts_overlapping_children_once():
    tree = [span("a", 0, 10), span("b", 1, 5, 0), span("c", 3, 7, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4)


def test_layer_metrics_ratios_and_their_bases():
    tree = [
        span("filter_learning.fit_shared_filter", 0, 10, converged=False),
        span("svm.solve_svm_dual", 1, 2, 0, warm=False, iters=50, converged=True),
        span("filter_learning.gradient", 2, 3, 0),
        span("svm.solve_svm_dual", 3, 4, 0, warm=True, iters=10, converged=True),
        span("svm.solve_svm_dual", 4, 6, 0, warm=True, iters=30, converged=False),
        span("svm.train_multiclass", 11, 13),
        span("svm.solve_svm_dual", 11, 12, 5, warm=False, iters=10, converged=True),
    ]
    m = spans.layer_metrics(tree)
    assert m["svm.solve_svm_dual.calls"] == 4
    assert m["svm.solve_svm_dual.warm_calls"] == 2
    assert m["svm.solve_svm_dual.iters"] == 100
    assert m["svm.solve_svm_dual.us_per_iter"] == pytest.approx(5 / 100 * 1e6)
    assert m["svm.solve_svm_dual.iters_per_warm_solve"] == 20
    assert m["svm.solve_svm_dual.iters_per_cold_solve"] == 30
    assert m["svm.solve_svm_dual.unconverged"] == 1
    assert m["filter_learning.fit_shared_filter.solves"] == 3
    assert m["filter_learning.fit_shared_filter.unconverged"] == 1
    assert m["filter_learning.fit_shared_filter.self_s"] == pytest.approx(10 - 5)
    assert m["filter_learning.evals_per_cg_step"] == 3
    assert m["svm.train_multiclass.solves"] == 1
    assert m["svm.train_multiclass.self_s"] == pytest.approx(1)
    # no viterbi span: the rate has no base and reads 0
    assert m["decoding.viterbi.samples_per_s"] == 0


def test_phase_metrics_leave_out_traced_operations():
    ops = [child.Op(0.0, None, 1.0, record(2.0), False),
           child.Op(0.0, None, 1.0, record(4.0), False),
           child.Op(0.0, None, 9.0, record(90.0), True)]
    assert child.phases(ops) == {"phase.fit_s": 3.0, "phase.online_samples_per_s": 200.0,
                                 "phase.viterbi_samples_per_s": 100.0}


def test_failed_ops_ratio():
    assert workloads.failed_ops_ratio(0, 18) == 0
    assert workloads.failed_ops_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        workloads.failed_ops_ratio(0, 0)
    with pytest.raises(ValueError):
        workloads.failed_ops_ratio(5, 4)


def test_failed_grid_cells_and_checks_are_failed_operations():
    rec = workloads.OpRecord()
    rec.grid(harness.GridSearchResult(
        method="kf_svm", best={"C": 1.0}, best_error=0.1, table=[({"C": 1.0}, 0.1)],
        failures=[({"C": 10.0}, "FloatingPointError: overflow")]))
    assert (rec.attempted, len(rec.failures), rec.correct) == (2, 1, True)
    assert workloads.failed_ops_ratio(len(rec.failures), rec.attempted) == 0.5
    rec.fail("kf_svm.online", "wrong length", check=True)
    rec.fail("kf_svm.online", "not below svm", check=True)
    assert len(rec.failures) == 2 and not rec.correct
    assert rec.failures["kf_svm.online"] == "wrong length; not below svm"


def test_label_problem():
    classes = np.array([1, 2])
    assert workloads.label_problem(np.array([1, 2, 2]), 3, classes) is None
    assert "2 labels for 3" in workloads.label_problem(np.array([1, 2]), 3, classes)
    assert "[3]" in workloads.label_problem(np.array([1, 3, 2]), 3, classes)


def test_wrapping_reaches_calls_through_from_imported_names():
    # harness.train_pipeline reaches fit_shared_filter, train_multiclass and
    # apply_filter through names harness imported with "from ... import",
    # and filter_learning reaches solve_svm_dual and kernel_matrix likewise
    X, y = signals.generate_toy(signals.ToyParams(n=120, lag=2, seed=3))
    originals = (harness.fit_shared_filter, filter_learning.solve_svm_dual, svm.solve_svm_dual)
    tracer = spans.Tracer()
    with spans.patched(tracer):
        assert filter_learning.solve_svm_dual is not originals[1]
        harness.train_pipeline(X, y, "kf_svm", C=10.0, sigma_k=1.0, lam=1.0, f=3, n0=1,
                               learner_kwargs={"max_cg_iters": 2})
    assert (harness.fit_shared_filter, filter_learning.solve_svm_dual,
            svm.solve_svm_dual) == originals

    names = [s.name for s in tracer.spans]
    assert names[0] == "harness.train_pipeline"
    parents = {names[s.parent] for s in tracer.spans if s.name == "svm.solve_svm_dual"}
    assert parents == {"filter_learning.fit_shared_filter", "svm.train_multiclass"}
    assert {"svm.kernel_matrix", "signals.apply_filter", "filter_learning.gradient"} <= set(names)
    m = spans.layer_metrics(tracer.spans)
    assert m["filter_learning.fit_shared_filter.solves"] > 0
    assert m["svm.train_multiclass.solves"] == 3
    assert m["filter_learning.gradient.calls"] >= 1


def test_bindings_restored_when_the_traced_call_raises():
    original = harness.train_pipeline
    with pytest.raises(ValueError):
        with spans.patched(spans.Tracer()) as tracer:
            harness.train_pipeline(np.zeros((4, 2)), [1, 1, 2, 2], "no_such_method",
                                   C=1.0, sigma_k=1.0)
    assert harness.train_pipeline is original
    assert tracer.spans[0].attrs == {"error": "ValueError"}


def test_benchmark_json_declares_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == child.END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    measured_by_caller = {"harness.error_rate.online", "harness.error_rate.viterbi",
                          "trace.overhead_s", *child.phases([child.Op(0.0, None, 1.0, record(2.0), False)])}
    assert set(spans.LAYER_METRICS) - measured_by_caller == set(spans.layer_metrics([]))


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "headline",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
