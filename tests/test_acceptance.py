"""End-to-end acceptance gates for the whole package.

Each test prints one PASS/FAIL line (run with ``pytest -v -s`` to see them
even on success).  The benchmark-scale fixtures are shared across tests
and take a few minutes in total; everything is deterministic.
"""

import itertools
import time

import numpy as np
import pytest

from marginfilter.cli import main as cli_main
from marginfilter.decoding import TransitionMatrix, viterbi
from marginfilter.filter_learning import (
    LearnerConfig,
    RegularizerSpec,
    _commit_all,
    _evaluate,
    _gradient,
    _make_problems,
    regularizer_value_grad,
)
from marginfilter.harness import (
    GridSpec,
    default_grid,
    error_rate,
    grid_search,
    run_toy_sweep,
    toy_split,
    train_pipeline,
    wilcoxon_signed_rank,
)
from marginfilter.persistence import load_dataset, load_filter, load_model, load_predictions
from marginfilter.signals import FilterBank, ToyParams, apply_filter, make_average_filter
from marginfilter.svm import KernelParams, decision_scores, kernel_matrix, solve_svm_dual
from test_svm import kkt_violation

HEADLINE_PARAMS = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=2)
SEEDS = tuple(range(10))
BENCH_KWARGS = {"max_cg_iters": 30}
SKF_KWARGS = {"max_cg_iters": 25, "tol_dF": 1e-4, "mm_max_outer": 12}


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared benchmark fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def headline_benchmark():
    """10-seed benchmark at sigma_n=1, lag=5, nbtot=2, f=11, n0=6 with
    train/val/test = 1000/1000/10000 and validation-selected C, lambda."""
    methods = ("svm", "avg_svm", "kf_svm")
    sigma_n = HEADLINE_PARAMS.sigma_n
    res = run_toy_sweep("noise", [sigma_n], methods, seeds=SEEDS,
                        base=HEADLINE_PARAMS, learner_kwargs=BENCH_KWARGS)
    assert not res.failures, res.failures
    return {m: {d: res.errors(sigma_n, m, d) for d in ("online", "viterbi")}
            for m in methods}


@pytest.fixture(scope="session")
def skf_benchmark():
    """Per-seed channel-selection runs on the 6-channel toy (2 informative
    + 4 noise channels), lambda selected on validation."""
    params = ToyParams(n=1, sigma_n=1.0, lag=5, nbtot=6)
    grid = GridSpec(method="skf_svm", C=(100.0,), lam=(2.0, 8.0, 32.0),
                    f=(11,), n0=(6,))
    selected = []
    for seed in SEEDS:
        tr, va, _ = toy_split(params, seed, 1000, 1000, 1)
        gs = grid_search(tr, va, grid, learner_kwargs=SKF_KWARGS,
                         keep_pipeline=True)
        selected.append(gs.pipeline)
    return selected


@pytest.fixture(scope="session")
def sigma_k_sweep():
    """Mean test error per kernel bandwidth for the fixed-average and the
    learned filter, 10 seeds each."""
    grids = {
        "avg_svm": default_grid("avg_svm"),
        "kf_svm": GridSpec(method="kf_svm", C=(100.0,), lam=(0.1, 1.0, 10.0),
                           f=(11,), n0=(6,)),
    }
    values = (0.5, 1.0, 2.0, 4.0, 8.0)
    res = run_toy_sweep("sigma_k", values, ["avg_svm", "kf_svm"], seeds=SEEDS,
                        base=HEADLINE_PARAMS, grids=grids,
                        learner_kwargs=BENCH_KWARGS)
    assert not res.failures, res.failures
    means = {m: np.array([res.mean_error(v, m, "online") for v in values])
             for m in grids}
    return values, means


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_headline_errors(headline_benchmark):
    """Raw-sample SVM stays above 0.30 test error while the jointly learned
    filter drops below 0.10, winning on every seed."""
    svm = headline_benchmark["svm"]["online"]
    kf = headline_benchmark["kf_svm"]["online"]
    ok = svm.mean() >= 0.30 and kf.mean() <= 0.10 and bool(np.all(kf < svm))
    report(1, ok, f"svm mean={svm.mean():.3f} (>=0.30), kf mean={kf.mean():.3f} "
                  f"(<=0.10), kf<svm on {int(np.sum(kf < svm))}/10 seeds")


def test_criterion_02_method_ordering(headline_benchmark):
    """kf < avg < svm in mean error, significant by signed-rank test."""
    kf = headline_benchmark["kf_svm"]["online"]
    avg = headline_benchmark["avg_svm"]["online"]
    svm = headline_benchmark["svm"]["online"]
    p = wilcoxon_signed_rank(kf, svm)
    ok = kf.mean() < avg.mean() < svm.mean() and p < 0.05
    report(2, ok, f"means kf={kf.mean():.3f} < avg={avg.mean():.3f} "
                  f"< svm={svm.mean():.3f}; wilcoxon p={p:.4g} (<0.05)")


def test_criterion_03_viterbi_never_hurts_on_average(headline_benchmark):
    """Sequence decoding is at worst 0.01 above the online error for every
    method, on the 10-seed averages."""
    gaps = {m: headline_benchmark[m]["viterbi"].mean()
            - headline_benchmark[m]["online"].mean()
            for m in headline_benchmark}
    ok = all(g <= 0.01 for g in gaps.values())
    report(3, ok, "viterbi-online mean gaps: "
           + ", ".join(f"{m}={g:+.3f}" for m, g in gaps.items()) + " (all <= +0.01)")


def test_criterion_04_learned_filter_beats_decoded_baseline(headline_benchmark):
    """Online decoding with the learned filter beats even the
    Viterbi-decoded unfiltered SVM."""
    kf_online = headline_benchmark["kf_svm"]["online"].mean()
    svm_vit = headline_benchmark["svm"]["viterbi"].mean()
    ok = kf_online < svm_vit
    report(4, ok, f"kf online mean={kf_online:.3f} < svm viterbi mean={svm_vit:.3f}")


def test_criterion_05_gradient_matches_finite_differences():
    """The descent's filter gradient (``_gradient`` on the committed solves)
    vs central finite differences of the fixed-dual objective on 20 random
    instances."""

    def frozen_objective(F, X, y, alpha, cfg):
        Xf = apply_filter(X, FilterBank(F, n0=cfg.n0))
        K = kernel_matrix(Xf, Xf, cfg.kernel)
        ay = alpha * y
        reg, _ = regularizer_value_grad(F, cfg.reg)
        return float(alpha.sum() - 0.5 * ay @ K @ ay) + reg

    rng = np.random.default_rng(2024)
    combos = list(itertools.product((1, 2, 3), (1, 3, 5)))
    worst = 0.0
    for trial in range(20):
        d, f = combos[trial % len(combos)]
        n = 50
        X = rng.normal(size=(n, d))
        y = np.concatenate([np.ones(n // 2), -np.ones(n // 2)])
        rng.shuffle(y)
        y = np.where(y > 0, 1, 2)  # class 1 takes the +1 side
        cfg = LearnerConfig(
            C=float(rng.uniform(1, 10)),
            kernel=KernelParams(float(rng.uniform(0.5, 2.0))),
            reg=RegularizerSpec("frobenius", float(rng.uniform(0, 1))),
            f=f, n0=int(rng.integers(0, f)), svm_tol=1e-8)
        F = rng.normal(size=(f, d))
        problems = _make_problems(y)
        _evaluate(problems, F, X, cfg)
        _commit_all(problems)
        G = _gradient(problems, F, X, cfg)
        p = problems[0]
        G_fd = np.zeros_like(F)
        h = 1e-6
        for u in range(f):
            for v in range(d):
                E = np.zeros_like(F)
                E[u, v] = h
                G_fd[u, v] = (frozen_objective(F + E, X, p.y_pm, p.alpha, cfg)
                              - frozen_objective(F - E, X, p.y_pm, p.alpha, cfg)) / (2 * h)
        rel = np.abs(G - G_fd).max() / max(np.abs(G_fd).max(), 1e-12)
        worst = max(worst, rel)
    report(5, worst < 1e-4, f"max relative gradient error {worst:.2e} (<1e-4) "
                            f"over 20 instances")


def test_criterion_06_dual_solver_matches_qp_oracle(qp_oracle):
    """Solver objective within 1e-6 of a dense QP solver (interior point,
    or SLSQP without cvxopt) on 20 random problems, with first-order
    optimality below 1e-3."""
    rng = np.random.default_rng(777)
    worst_gap, worst_kkt = 0.0, 0.0
    for _ in range(20):
        n = int(rng.integers(6, 21))
        X = rng.normal(size=(n, int(rng.integers(1, 4))))
        y = np.concatenate([np.ones(n // 2 + 1), -np.ones(n - n // 2 - 1)])
        rng.shuffle(y)
        C = float(rng.uniform(0.5, 20.0))
        K = kernel_matrix(X, X, KernelParams(float(rng.uniform(0.5, 3.0))))
        _, obj_ref = qp_oracle(K, y, C)

        m = solve_svm_dual(K, y, C, tol=1e-10)
        worst_gap = max(worst_gap, abs(m.objective - obj_ref))
        worst_kkt = max(worst_kkt, kkt_violation(K, y, m))
    ok = worst_gap < 1e-6 and worst_kkt < 1e-3
    report(6, ok, f"worst objective gap {worst_gap:.2e} (<1e-6), "
                  f"worst KKT violation {worst_kkt:.2e} (<1e-3)")


def test_criterion_07_viterbi_equals_exhaustive_search():
    """Dynamic program vs full path enumeration on 200 random instances."""
    rng = np.random.default_rng(31337)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(1, 4))
        M = rng.uniform(0.1, 1.0, size=(c, c))
        M /= M.sum(axis=1, keepdims=True)
        prior = rng.uniform(0.1, 1.0, size=c)
        prior /= prior.sum()
        T = TransitionMatrix(M=M, prior=prior)
        P = rng.uniform(0.05, 1.0, size=(n, c))
        P /= P.sum(axis=1, keepdims=True)
        E = np.log(P)

        best_path, best = None, -np.inf
        for path in itertools.product(range(c), repeat=n):
            s = np.log(prior[path[0]]) + E[0, path[0]]
            for i in range(1, n):
                s += np.log(M[path[i - 1], path[i]]) + E[i, path[i]]
            if s > best:
                best, best_path = s, path
        if not np.array_equal(viterbi(E, T), np.array(best_path) + 1):
            mismatches += 1
    report(7, mismatches == 0, f"{mismatches}/200 mismatches vs exhaustive oracle")


def test_criterion_08_proximal_objective_non_increasing(skf_benchmark):
    """The group-sparse objective decreases monotonically per accepted
    proximal step on all 10 runs."""
    worst = -np.inf
    for pipe in skf_benchmark:
        hist = np.array(pipe.history)
        assert len(hist) >= 2
        worst = max(worst, float(np.diff(hist).max()))
    report(8, worst <= 1e-6, f"largest increase per accepted proximal step {worst:.2e} (<=1e-6)")


def test_criterion_09_noise_channels_zeroed(skf_benchmark):
    """With validation-selected lambda, the 4 noise channels collapse below
    1e-3 while both informative channels stay above 1e-1, in >= 8/10 seeds."""
    hits = 0
    details = []
    for pipe in skf_benchmark:
        norms = np.linalg.norm(pipe.filter.coeffs, axis=0)
        ok = bool(np.all(norms[2:] < 1e-3) and np.all(norms[:2] > 1e-1))
        hits += ok
        details.append(f"{norms[2:].max():.1e}/{norms[:2].min():.2f}")
    report(9, hits >= 8, f"{hits}/10 seeds sparsified "
                         f"(noise-max/informative-min per seed: {', '.join(details)})")


def test_criterion_10_kernel_bandwidth_insensitivity(sigma_k_sweep):
    """The learned filter flattens the error curve over a 16x bandwidth
    range compared to the fixed average filter."""
    values, means = sigma_k_sweep
    spread_kf = means["kf_svm"].max() - means["kf_svm"].min()
    spread_avg = means["avg_svm"].max() - means["avg_svm"].min()
    ok = spread_kf < spread_avg
    report(10, ok, f"error spread over sigma_k {list(values)}: "
                   f"kf={spread_kf:.3f} < avg={spread_avg:.3f}")


def test_criterion_11_wide_fixture_end_to_end(tmp_path):
    """A 96-channel, 3-class feature file (the wide-CSV layout) trains a
    learned filter of length 10 and decodes online through the CLI within
    the 30-minute budget, and reloaded artifacts reproduce predictions."""
    t_start = time.time()
    stem = tmp_path / "wide.csv"
    rc = cli_main(["generate-toy", "--nbtot", "96", "--classes", "3",
                   "--sigma-n", "1.0", "--lag", "3", "--run-min", "20",
                   "--run-max", "30", "--seed", "42",
                   "--split", "600,300,300", "-o", str(stem)])
    assert rc == 0
    out = tmp_path / "run"
    rc = cli_main(["train", "--data", str(tmp_path / "wide.train.csv"),
                   "--val", str(tmp_path / "wide.val.csv"),
                   "--method", "kf-svm", "--f", "10", "--n0", "0",
                   "--C", "100", "--lambda", "1.0", "--max-cg-iters", "20",
                   "--out-dir", str(out)])
    assert rc == 0
    pred_path = tmp_path / "pred.csv"
    rc = cli_main(["decode", "--model", str(out / "model.json"),
                   "--filter", str(out / "filter.json"),
                   "--data", str(tmp_path / "wide.test.csv"),
                   "--mode", "online", "-o", str(pred_path)])
    assert rc == 0
    elapsed = time.time() - t_start

    # round-trip invariants: reloaded artifacts reproduce the predictions
    pred = load_predictions(pred_path)
    pipe = load_model(out / "model.json", load_filter(out / "filter.json"))
    Xte, yte = load_dataset(tmp_path / "wide.test.csv")
    again = pipe.predict(Xte, decode="online")
    identical = bool(np.array_equal(pred, again))
    err = error_rate(pred, yte)
    ok = elapsed < 1800 and identical and len(pred) == 300
    report(11, ok, f"96-channel 3-class pipeline in {elapsed:.0f}s (<1800s), "
                   f"reload-identical={identical}, online error={err:.3f}")


def test_criterion_12_zero_iterations_reproduce_average_baseline():
    """The kf-svm pipeline with the descent disabled is exactly the
    fixed-average-filter baseline, prediction for prediction."""
    rng = np.random.default_rng(99)
    all_equal = True
    for trial in range(10):
        params = ToyParams(n=1, sigma_n=float(rng.uniform(0.3, 1.0)),
                           lag=int(rng.integers(0, 4)), nbtot=2,
                           run_min=10, run_max=16)
        (Xtr, ytr), _, (Xte, _) = toy_split(params, int(rng.integers(0, 10**6)),
                                            300, 1, 300)
        f, n0 = 5, 2
        kf = train_pipeline(Xtr, ytr, "kf_svm", C=50.0, sigma_k=1.0, lam=0.5, f=f, n0=n0,
                            learner_kwargs={"max_cg_iters": 0})

        bank = make_average_filter(f, n0, 2)
        Xf = apply_filter(Xtr, bank)
        kernel = KernelParams(1.0)
        ref = solve_svm_dual(kernel_matrix(Xf, Xf, kernel),
                             np.where(ytr == 1, 1.0, -1.0), 50.0,
                             rows=Xf, kernel=kernel, tol=1e-3)
        Xte_f = apply_filter(Xte, bank)
        pred_kf = np.sign(decision_scores(kf.model.pairwise[(0, 1)], Xte_f))
        pred_ref = np.sign(decision_scores(ref, Xte_f))
        if not np.array_equal(pred_kf, pred_ref):
            all_equal = False
    report(12, all_equal, "zero-descent learner == average-filter baseline "
                          "on 10 random datasets (exact prediction match)")
