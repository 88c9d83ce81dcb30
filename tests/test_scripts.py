"""The scripts under scripts/ run end to end at tiny sizes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name, args", [
    ("run_benchmark.py", ()), ("run_sweeps.py", ("--axes", "noise", "--out-dir", "out"))],
    ids=["run_benchmark", "run_sweeps"])
def test_zero_seeds_are_rejected_before_any_task(tmp_path, name, args):
    proc = run_script(name, "--seeds", "0", *args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith("error: empty sweep: no seeds")
    assert "Traceback" not in proc.stderr and proc.stdout == ""


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
    assert lines[0].split() == ["method", "C", "lambda", "moved", "max_rel_filter_change",
                                "max_online_error_change"]
    # one line per cell of the default kf_svm (6) and skf_svm (3) grids
    cells = [line.split() for line in lines[1:10]]
    assert [(c[0], float(c[1]), float(c[2])) for c in cells] == [
        ("kf_svm", C, lam) for C in (10.0, 100.0) for lam in (0.1, 1.0, 10.0)] + [
        ("skf_svm", 100.0, lam) for lam in (2.0, 8.0, 32.0)]
    for c in cells:
        assert 0 <= int(c[3]) <= 2 and c[4:6] == ["of", "2"]
        assert float(c[6]) >= 0.0 and 0.0 <= float(c[7]) <= 1.0
    assert re.fullmatch(r"moved fits: \d+ of 18 \(relative filter change > 1e-09\)", lines[11])
    assert lines[12].startswith("largest relative filter change: ")
    assert lines[13].startswith("largest online test-error change: ")


def load_script(name):
    """A script under scripts/ imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CODE_BUDGET = load_script("code_budget")

SAMPLE_MODULE = '''"""Module
docstring."""

# a comment
import os


def f():
    """One line."""
    return os.sep  # trailing
'''


@pytest.mark.parametrize("source, counts", [
    ('"""Doc."""\nx = 1\n', (2, 1, 1)),
    ('class A:\n    """Doc\n    more."""\n    x = 1\n', (4, 2, 2)),
    ('async def f():\n    """Doc."""\n', (2, 1, 1)),
    ('def f():\n    def g():\n        """Doc."""\n    return g\n', (4, 3, 1)),
    ('# c\n\n    # indented\nx = 1  # trailing\n', (4, 1, 0)),
    ('x = 1\n"""Not a docstring."""\n', (2, 2, 0)),
    ('"""Doc\n# in the docstring\n"""\n', (3, 0, 3)),
], ids=["module", "class", "async-function", "nested-function", "comments-and-blanks",
        "string-after-code", "hash-in-docstring"])
def test_code_budget_counts_a_construct(tmp_path, source, counts):
    (tmp_path / "m.py").write_text(source)
    assert CODE_BUDGET.count(tmp_path / "m.py") == counts


def test_code_budget_counts_each_module(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(SAMPLE_MODULE)
    # a string that is no docstring is code
    (package / "b.py").write_text('x = """not a\ndocstring"""\n')
    proc = run_script("code_budget.py", str(package), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "total", "code", "docstring"],
        ["a.py", "10", "3", "3"],
        ["b.py", "2", "2", "0"],
        ["total", "12", "5", "3"],
    ]
    # by default the package's own modules, and a total row that sums them
    proc = run_script("code_budget.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    modules = sorted(path.name for path in (ROOT / "src" / "marginfilter").glob("*.py"))
    assert [row[0] for row in rows[:-1]] == modules
    assert rows[-1] == ["total"] + [str(sum(int(row[k]) for row in rows[:-1]))
                                    for k in (1, 2, 3)]
