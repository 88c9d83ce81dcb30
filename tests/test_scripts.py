"""The scripts under scripts/ run end to end at tiny sizes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METHODS = ("svm", "avg_svm", "kf_svm")


def run_script(name, *args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def test_run_benchmark_prints_the_table(tmp_path):
    proc = run_script("run_benchmark.py", "--seeds", "1", "--n-test", "200",
                      "--max-cg-iters", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    head = next(i for i, ln in enumerate(lines) if ln.startswith("method"))
    assert lines[head].split()[:3] == ["method", "online", "viterbi"]
    for method, line in zip(METHODS, lines[head + 1 : head + 4], strict=True):
        cells = line.split()
        assert cells[0] == method
        assert all(0.0 <= float(c) <= 1.0 for c in cells[1:3])
    assert "needs at least 5 seeds" in proc.stdout


def test_run_benchmark_reports_failed_tasks(tmp_path):
    # an empty test set fails every task after its grid search
    proc = run_script("run_benchmark.py", "--seeds", "1", "--n-test", "0",
                      "--max-cg-iters", "1", cwd=tmp_path)
    assert proc.returncode == 1
    assert [ln.split(" failed:")[0] for ln in proc.stderr.splitlines()] == \
        [f"{m} seed 0" for m in METHODS]
    assert "method" not in proc.stdout


def test_run_sweeps_writes_its_tables(tmp_path):
    out = tmp_path / "out"
    proc = run_script("run_sweeps.py", "--axes", "noise", "--methods", "svm",
                      "--seeds", "1", "--n-test", "100", "--out-dir", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    results = (out / "noise_results.csv").read_text().splitlines()
    summary = (out / "noise_summary.csv").read_text().splitlines()
    assert results[0] == "axis_value,method,decode,seed,test_error"
    assert summary[0] == "axis_value,method,decode,mean_test_error"
    # four default noise levels, two decoders, one seed
    assert len(results) == len(summary) == 1 + 4 * 2
    assert "noise: 8 rows, 0 failures" in proc.stdout


def test_run_sweeps_reports_an_axis_without_rows(tmp_path):
    # an empty test set fails every task after its grid search
    out = tmp_path / "out"
    proc = run_script("run_sweeps.py", "--axes", "noise", "--methods", "svm",
                      "--seeds", "1", "--n-test", "0", "--out-dir", str(out),
                      cwd=tmp_path)
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    # one line per failed task: four default noise levels, one seed
    assert [ln.split(" failed:")[0] for ln in err[:4]] == \
        [f"noise {v!r} svm seed 0" for v in (0.25, 0.5, 1.0, 2.0)]
    assert all(": " in ln.split(" failed:")[1] for ln in err[:4])
    assert err[4:] == ["noise: 0 rows, 4 failures, nothing written"]
    assert list(out.iterdir()) == []


def test_perturb_check_prints_its_summary(tmp_path):
    proc = run_script("perturb_check.py", "--seeds", "2", "--n-train", "120",
                      "--n-test", "100", "--max-cg-iters", "2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["seed", "rel_filter_change", "online_error", "moved_error"]
    for seed, line in enumerate(lines[1:3]):
        cells = line.split()
        assert int(cells[0]) == seed and float(cells[1]) >= 0.0
        assert all(0.0 <= float(c) <= 1.0 for c in cells[2:])
    assert re.fullmatch(r"moved fits: [0-2] of 2 \(relative filter change > 1e-09\)", lines[4])
    assert lines[5].startswith("largest relative filter change: ")
    assert lines[6].startswith("largest online test-error change: ")
