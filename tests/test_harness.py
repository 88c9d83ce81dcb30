import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import marginfilter.filter_learning as filter_learning
import marginfilter.harness as harness
import marginfilter.svm as svm
from marginfilter.harness import (
    GridSpec,
    default_grid,
    error_rate,
    grid_search,
    run_toy_sweep,
    sweep_rows_csv,
    sweep_summary_csv,
    toy_split,
    wilcoxon_signed_rank,
)
from marginfilter.signals import ToyParams, generate_toy
from scipy.stats import rankdata


def exact_wilcoxon_oracle(a, b):
    """Literal enumeration of every sign assignment of the rank sum."""
    diffs = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    diffs = diffs[diffs != 0]
    m = len(diffs)
    if m == 0:
        return 1.0
    ranks = rankdata(np.abs(diffs))
    w = ranks[diffs > 0].sum()
    stats = [sum(r for r, s in zip(ranks, signs) if s)
             for signs in itertools.product((False, True), repeat=m)]
    stats = np.array(stats)
    p_le = np.mean(stats <= w + 1e-12)
    p_ge = np.mean(stats >= w - 1e-12)
    return min(1.0, 2 * min(p_le, p_ge))


class TestErrorRate:
    def test_identical_is_zero(self):
        assert error_rate([1, 2, 1], [1, 2, 1]) == 0.0

    def test_complement_is_one(self):
        assert error_rate([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_half_mismatch(self):
        assert error_rate([1, 2, 1, 1], [1, 1, 1, 2]) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            error_rate([1, 2], [1, 2, 3])

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_bounded(self, labels):
        e = error_rate(labels, labels[::-1])
        assert 0.0 <= e <= 1.0


class TestWilcoxon:
    def test_identical_samples_give_one(self):
        a = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert wilcoxon_signed_rank(a, a) == 1.0

    def test_two_sided_symmetry(self, rng):
        a = rng.normal(size=10)
        b = rng.normal(size=10)
        assert_allclose(wilcoxon_signed_rank(a, b), wilcoxon_signed_rank(b, a))

    def test_all_positive_six_differences(self):
        # W = 21 is the extreme rank sum; only one of the 64 assignments
        # reaches it, so the two-sided exact p is 2/64
        b = np.full(6, 10.0)
        a = b + np.arange(1.0, 7.0)
        assert wilcoxon_signed_rank(a, b) == pytest.approx(0.03125)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(20):
            m = int(rng.integers(5, 11))
            a = rng.normal(size=m)
            b = a + rng.normal(size=m)
            assert_allclose(wilcoxon_signed_rank(a, b), exact_wilcoxon_oracle(a, b))

    def test_exact_close_to_normal_at_limit(self, rng):
        for _ in range(40):
            a = rng.normal(size=12)
            b = a + rng.normal(size=12) + rng.normal() * 0.3
            p_exact = wilcoxon_signed_rank(a, b)
            old = harness.EXACT_ENUMERATION_LIMIT
            harness.EXACT_ENUMERATION_LIMIT = 0
            try:
                p_norm = wilcoxon_signed_rank(a, b)
            finally:
                harness.EXACT_ENUMERATION_LIMIT = old
            assert abs(p_exact - p_norm) < 0.02

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1.0, 2.0], [2.0, 1.0])

    def test_ties_in_ranks_handled(self):
        a = np.array([1.0, 1.0, 2.0, 2.0, 5.0, 0.5])
        b = np.zeros(6)
        p = wilcoxon_signed_rank(a, b)
        assert 0.0 < p <= 1.0


def tiny_split(seed=0):
    params = ToyParams(n=1, sigma_n=0.5, lag=1, nbtot=2)
    return toy_split(params, seed, 80, 60, 60)


class TestGridSpec:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            GridSpec(method="boosting")

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec(method="svm", C=())

    def test_cells_collapse_irrelevant_axes(self):
        grid = GridSpec(method="svm", C=(1.0, 2.0), lam=(0.1, 0.2),
                        f=(3, 5), n0=(0,))
        cells = grid.cells()
        assert len(cells) == 2  # lambda and geometry collapse for plain svm

    def test_infeasible_delay_cells_dropped(self):
        grid = GridSpec(method="avg_svm", f=(2,), n0=(0, 5))
        assert all(c["n0"] <= c["f"] - 1 for c in grid.cells())


class TestGridSearch:
    def test_single_cell(self):
        tr, va, _ = tiny_split()
        grid = GridSpec(method="svm", C=(10.0,), sigma_k=(1.0,))
        res = grid_search(tr, va, grid)
        assert res.best == {"C": 10.0, "lam": 0.0, "sigma_k": 1.0, "f": 1, "n0": 0}
        assert 0.0 <= res.best_error <= 1.0

    def test_duplicate_cells_are_idempotent(self):
        tr, va, _ = tiny_split()
        g1 = GridSpec(method="svm", C=(10.0, 1.0))
        g2 = GridSpec(method="svm", C=(10.0, 1.0, 10.0, 1.0))
        r1 = grid_search(tr, va, g1)
        r2 = grid_search(tr, va, g2)
        assert r1.best == r2.best
        assert r1.best_error == r2.best_error

    def test_picks_lower_validation_error(self):
        tr, va, _ = tiny_split()
        grid = GridSpec(method="avg_svm", C=(50.0,), sigma_k=(1.0, 1e-3),
                        f=(5,), n0=(2,))
        res = grid_search(tr, va, grid)
        # a vanishing bandwidth memorizes the training set and must lose
        errs = dict((tuple(sorted(c.items())), e) for c, e in res.table)
        assert res.best["sigma_k"] == 1.0
        assert len(errs) == 2

    def test_tie_breaks_prefer_regularized(self, monkeypatch):
        tr, va, _ = tiny_split()
        # force identical validation errors to expose the tie-break order
        monkeypatch.setattr(harness, "error_rate", lambda p, t: 0.25)
        grid = GridSpec(method="kf_svm", C=(1.0, 10.0), lam=(0.1, 1.0),
                        f=(3,), n0=(1,))
        res = grid_search(tr, va, grid,
                          learner_kwargs={"max_cg_iters": 0})
        assert res.best["lam"] == 1.0
        assert res.best["C"] == 1.0

    def test_never_returns_foreign_cell(self):
        tr, va, _ = tiny_split()
        grid = GridSpec(method="svm", C=(1.0, 5.0), sigma_k=(0.5, 2.0))
        res = grid_search(tr, va, grid)
        assert res.best in grid.cells()

    def test_all_failures_raise(self):
        tr, va, _ = tiny_split()
        bad = (tr[0], np.ones(len(tr[1]), dtype=int))  # one class only
        grid = GridSpec(method="svm", C=(1.0,))
        with pytest.raises(RuntimeError, match="every grid cell failed"):
            grid_search(bad, va, grid)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a cell")

        monkeypatch.setattr(harness, "train_pipeline", broken)
        tr, va, _ = tiny_split()
        with pytest.raises(TypeError, match="bug in a cell"):
            grid_search(tr, va, GridSpec(method="svm", C=(1.0,)))


class SolveCounter:
    """Records the SVM solves (as their SMO step counts and warm flags) and
    counts the kernel builds before and after the filter fit of
    ``harness.train_pipeline`` returns; keeps the fit and a copy of its
    committed solves as they were when it returned."""

    def __init__(self, monkeypatch):
        self.fit = None
        self.committed = None
        self.solves = ([], [])
        self.kernels = [0, 0]
        for module in (svm, filter_learning):
            monkeypatch.setattr(module, "solve_svm_dual", self._solving(module.solve_svm_dual))
            monkeypatch.setattr(module, "kernel_matrix", self._building(module.kernel_matrix))
        fit_shared_filter = harness.fit_shared_filter

        def recording_fit(*args, **kwargs):
            self.fit = fit_shared_filter(*args, **kwargs)
            self.committed = [(p.model.alpha.copy(), p.model.bias, p.model.converged)
                              for p in self.fit.problems]
            return self.fit

        monkeypatch.setattr(harness, "fit_shared_filter", recording_fit)

    def _solving(self, fn):
        def solving(*args, **kwargs):
            model = fn(*args, **kwargs)
            warm = kwargs.get("warm_alpha") is not None
            self.solves[self.fit is not None].append((warm, model.n_iter))
            return model
        return solving

    def _building(self, fn):
        def building(*args, **kwargs):
            self.kernels[self.fit is not None] += 1
            return fn(*args, **kwargs)
        return building


def learned_filter_case(method, n_classes=2):
    nbtot = 4 if method == "skf_svm" else 2
    X, y = generate_toy(ToyParams(n=220, sigma_n=0.6, lag=2, nbtot=nbtot,
                                  n_classes=n_classes, seed=5))
    assert len(np.unique(y)) == n_classes
    lam = 4.0 if method == "skf_svm" else 0.5
    kwargs = {"max_cg_iters": 6, "mm_max_outer": 3, "svm_tol": 1e-3}
    return X, y, dict(C=50.0, sigma_k=1.0, lam=lam, f=5, n0=2, learner_kwargs=kwargs)


class TestBankSolves:
    """The final banks take no SMO step the mathematics does not need."""

    @pytest.mark.parametrize("method", ["svm", "avg_svm"])
    def test_binary_fixed_filter_bank_is_one_solve(self, monkeypatch, method):
        counter = SolveCounter(monkeypatch)
        X, y = generate_toy(ToyParams(n=200, sigma_n=0.6, lag=2, seed=6))
        pipe = harness.train_pipeline(X, y, method, C=50.0, sigma_k=1.0, f=5, n0=2)
        # the pair is solved cold; both one-vs-all orientations start at
        # its alpha and stop at their first optimality check
        (cold, pair), *orientations = counter.solves[0]
        assert not cold and pair > 0
        assert orientations == [(True, 0), (True, 0)]
        assert counter.kernels == [1, 0]
        assert len(pipe.model.one_vs_all) == 2

    @pytest.mark.parametrize("method", ["kf_svm", "skf_svm"])
    def test_binary_learned_filter_bank_takes_no_smo_step_after_the_fit(
            self, monkeypatch, method):
        counter = SolveCounter(monkeypatch)
        X, y, kw = learned_filter_case(method)
        pipe = harness.train_pipeline(X, y, method, **kw)
        assert len(counter.solves[0]) > 0
        # the pair from its committed solve, then its two orientations
        assert counter.solves[1] == [(True, 0)] * 3
        assert counter.kernels[1] == 1
        assert pipe.model.one_vs_all[0] is pipe.model.pairwise[(0, 1)]

    @pytest.mark.parametrize("method, n_classes", [("kf_svm", 2), ("skf_svm", 2),
                                                   ("kf_svm", 3)])
    def test_pairwise_bank_is_the_committed_solves(self, monkeypatch, method, n_classes):
        counter = SolveCounter(monkeypatch)
        X, y, kw = learned_filter_case(method, n_classes)
        pipe = harness.train_pipeline(X, y, method, **kw)
        # c >= 3 adds only the c cold one-vs-rest solves, on the same kernel
        c = n_classes
        pairs = len(counter.fit.problems)
        after = counter.solves[1]
        if c == 2:
            assert after == [(True, 0)] * 3
        else:
            assert after[:pairs] == [(True, 0)] * pairs
            assert [warm for warm, _ in after[pairs:]] == [False] * c
        assert counter.kernels[1] == 1
        assert len(pipe.history) > 1  # the filter moved off its start
        problems = counter.fit.problems
        assert list(pipe.model.pairwise) == [p.pair for p in problems]
        Xf = pipe.filtered(X)
        for p, (alpha, bias, converged) in zip(problems, counter.committed, strict=True):
            model = pipe.model.pairwise[p.pair]
            assert_array_equal(model.alpha, alpha)
            assert model.converged == converged
            # the committed bias came from the solver's running K @ (alpha*y)
            assert model.bias == pytest.approx(bias, abs=1e-12)
            assert_array_equal(model.sv_rows, Xf[p.rows[model.sv_idx]])
            # optimal at the returned filter, on a kernel built afresh there
            K = svm.kernel_matrix(Xf[p.rows], Xf[p.rows], model.kernel)
            assert svm.kkt_violation(K, p.y_pm, model) <= kw["learner_kwargs"]["svm_tol"]


class TestMaxWorkers:
    @pytest.mark.parametrize("env, cpus, expected", [
        (None, 8, 1), ("3", 8, 3), ("64", 2, 2), ("0", 2, 1), ("many", 2, 1),
        ("4", None, 1)])
    def test_capped_at_cpu_count(self, monkeypatch, env, cpus, expected):
        if env is None:
            monkeypatch.delenv("MARGIN_FILTER_THREADS", raising=False)
        else:
            monkeypatch.setenv("MARGIN_FILTER_THREADS", env)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        assert harness.max_workers_from_env() == expected


class TestToySplit:
    def test_splits_share_channel_lags(self):
        params = ToyParams(n=1, sigma_n=0.0, lag=5, nbtot=2)
        (Xtr, ytr), (Xval, yval), (Xte, yte) = toy_split(params, 3, 100, 100, 200)
        assert len(ytr) == 100 and len(yval) == 100 and len(yte) == 200
        # the three parts are slices of one generated signal
        X, y = generate_toy(ToyParams(n=400, sigma_n=0.0, lag=5, nbtot=2, seed=3))
        assert_allclose(np.vstack([Xtr, Xval, Xte]), X)


class TestRunToySweep:
    def test_rerun_is_byte_identical(self):
        kwargs = dict(
            seeds=(0,), base=ToyParams(n=1, sigma_n=0.4, lag=1, nbtot=2),
            grids={"svm": GridSpec(method="svm", C=(10.0,))},
            n_train=80, n_val=60, n_test=60)
        r1 = run_toy_sweep("noise", [0.4], ["svm"], **kwargs)
        r2 = run_toy_sweep("noise", [0.4], ["svm"], **kwargs)
        assert sweep_rows_csv(r1) == sweep_rows_csv(r2)
        assert sweep_summary_csv(r1) == sweep_summary_csv(r2)

    def test_rows_cover_both_decoders(self):
        res = run_toy_sweep(
            "lag", [0], ["svm"], seeds=(0, 1),
            base=ToyParams(n=1, sigma_n=0.4, lag=0, nbtot=2,
                           run_min=6, run_max=9),
            grids={"svm": GridSpec(method="svm", C=(10.0,))},
            n_train=80, n_val=60, n_test=60)
        decodes = {(r["seed"], r["decode"]) for r in res.rows}
        assert decodes == {(0, "online"), (0, "viterbi"), (1, "online"), (1, "viterbi")}
        assert res.failures == []
        errs = res.seed_errors(0, "svm", "online")
        assert len(errs) == 2  # one entry per seed
        assert np.all((0 <= errs) & (errs <= 1))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            run_toy_sweep("temperature", [1], ["svm"])

    def test_single_class_validation_slice_recorded_as_failure(self):
        # 30-40-sample label runs cannot mix classes inside a 60-sample
        # validation slice for this seed; the cell is skipped, not fatal
        res = run_toy_sweep(
            "noise", [0.3], ["svm"], seeds=(0,),
            grids={"svm": GridSpec(method="svm", C=(10.0,))},
            n_train=60, n_val=60, n_test=60)
        assert res.rows == []
        assert len(res.failures) == 1
        assert "both classes" in res.failures[0][1]

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug in a task")

        monkeypatch.setattr(harness, "evaluate_method_on_seed", broken)
        with pytest.raises(TypeError, match="bug in a task"):
            run_toy_sweep("noise", [0.3], ["svm"], seeds=(0,), max_workers=1,
                          n_train=60, n_val=60, n_test=60)

    def test_csv_shape(self):
        res = run_toy_sweep(
            "noise", [0.3], ["svm"], seeds=(0,),
            base=ToyParams(n=1, sigma_n=0.3, lag=0, nbtot=2,
                           run_min=6, run_max=9),
            grids={"svm": GridSpec(method="svm", C=(10.0,))},
            n_train=60, n_val=60, n_test=60)
        text = sweep_rows_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "axis_value,method,decode,seed,test_error"
        assert len(lines) == 3
        assert text.endswith("\n")

    def test_near_noiseless_no_lag_every_method_is_accurate(self):
        """At lag 0 and vanishing noise every method resolves the mode
        layout almost perfectly."""
        res = run_toy_sweep(
            "noise", [0.05], ["svm", "avg_svm", "kf_svm"], seeds=(0,),
            base=ToyParams(n=1, sigma_n=0.05, lag=0, nbtot=2),
            grids={
                "svm": GridSpec(method="svm", C=(100.0,)),
                "avg_svm": GridSpec(method="avg_svm", C=(100.0,), f=(5,), n0=(2,)),
                "kf_svm": GridSpec(method="kf_svm", C=(100.0,), lam=(1.0,),
                                   f=(5,), n0=(2,)),
            },
            n_train=300, n_val=300, n_test=500,
            learner_kwargs={"max_cg_iters": 10})
        assert not res.failures
        for method in ("svm", "avg_svm", "kf_svm"):
            assert res.mean_error(0.05, method, "online") < 0.05

    def test_parallel_sweep_matches_sequential(self):
        kwargs = dict(
            seeds=(0, 1), base=ToyParams(n=1, sigma_n=0.4, lag=1, nbtot=2,
                                         run_min=6, run_max=9),
            grids={"svm": GridSpec(method="svm", C=(10.0,))},
            n_train=80, n_val=60, n_test=60)
        seq = run_toy_sweep("noise", [0.4], ["svm"], max_workers=1, **kwargs)
        par = run_toy_sweep("noise", [0.4], ["svm"], max_workers=2, **kwargs)
        assert sweep_rows_csv(seq) == sweep_rows_csv(par)


class TestDefaultGrids:
    def test_all_methods_have_grids(self):
        for method in ("svm", "avg_svm", "kf_svm", "skf_svm"):
            grid = default_grid(method)
            assert grid.method == method
            assert grid.cells()
