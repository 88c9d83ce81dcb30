import itertools
import multiprocessing
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import marginfilter.filter_learning as filter_learning
import marginfilter.harness as harness
import marginfilter.svm as svm
from marginfilter.decoding import decode_offline
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
from marginfilter.persistence import save_filter, save_model
from marginfilter.signals import ToyParams, generate_toy, make_average_filter
from scipy.stats import rankdata
from test_svm import kkt_violation


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_errors_rejected(self, bad):
        a = [0.1, 0.2, bad, 0.3, 0.25, 0.2]
        b = [0.12, 0.21, 0.2, 0.31, 0.2, 0.1]
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(a, b)
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(b, a)

    def test_average_ranks_equal_scipy_rankdata(self, rng):
        for _ in range(200):
            m = int(rng.integers(1, 40))
            # few distinct values, so most draws hold runs of ties
            x = rng.integers(0, int(rng.integers(1, 8)), size=m) * 0.1
            assert_array_equal(harness._average_ranks(x), rankdata(x))

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

    @pytest.mark.parametrize("axis", ["C", "lam", "sigma_k"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_axis_value_rejected(self, axis, value):
        with pytest.raises(ValueError, match=f"grid axis {axis} must be finite"):
            GridSpec(method="kf_svm", **{axis: (1.0, value)})

    @pytest.mark.parametrize("axis, values, message", [
        ("f", (3, 2.5), "grid axis f takes integers, got [2.5]"),
        ("n0", (1.0,), "grid axis n0 takes integers, got [1.0]"),
        ("f", (True,), "grid axis f takes integers, got [True]"),
        ("C", (1.0, "10"), "grid axis C takes numbers, got ['10']"),
    ])
    def test_axis_value_of_the_wrong_type_rejected(self, axis, values, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GridSpec(method="kf_svm", **{axis: values})

    def test_numpy_integers_are_integers(self):
        grid = GridSpec(method="avg_svm", f=(np.int64(3),), n0=(np.int32(1),))
        assert grid.cells()[0]["f"] == 3

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

    @pytest.mark.parametrize("decode", ["online", "viterbi"])
    def test_underflowing_bandwidth_recorded_as_failure(self, decode):
        # 2 * (1e-300)**2 is 0: the kernel would divide by zero
        tr, va, _ = tiny_split()
        grid = GridSpec(method="svm", C=(10.0,), sigma_k=(1.0, 1e-300), decode=decode)
        res = grid_search(tr, va, grid)
        assert [cell["sigma_k"] for cell, _ in res.table] == [1.0]
        assert [(cell["sigma_k"], reason) for cell, reason in res.failures] == [
            (1e-300, "ValueError: 2 sigma_k^2 underflows for sigma_k=1e-300")]
        assert res.best["sigma_k"] == 1.0

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


class TestGridChains:
    """A learned-filter grid runs as regularization paths: the cells that
    differ only in lambda form one chain, fitted from the largest lambda
    down, each from the previous cell's fit."""

    # lambda out of order on purpose; 2 chains (C) of 3 cells
    GRID = GridSpec(method="kf_svm", C=(10.0, 1.0), lam=(1.0, 4.0, 0.25), f=(3,), n0=(1,))
    KWARGS = {"max_cg_iters": 3}

    @staticmethod
    def record_fits(monkeypatch, fail_lam=None):
        """Serial run; records each fit's (C, lambda, start) and the solves
        after it began as (warm, SMO steps); raises a ValueError in the fit
        at lambda ``fail_lam``."""
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "1")
        fits = []
        fit_shared_filter, solve = harness.fit_shared_filter, filter_learning.solve_svm_dual

        def recording_fit(X, y, cfg, *, start=None):
            fits.append({"C": cfg.C, "lam": cfg.reg.lam, "start": start, "solves": []})
            if cfg.reg.lam == fail_lam:
                raise ValueError("injected failure")
            fits[-1]["fit"] = fit_shared_filter(X, y, cfg, start=start)
            return fits[-1]["fit"]

        def recording_solve(*args, **kwargs):
            model = solve(*args, **kwargs)
            fits[-1]["solves"].append((kwargs.get("warm_alpha") is not None, model.n_iter))
            return model

        monkeypatch.setattr(harness, "fit_shared_filter", recording_fit)
        monkeypatch.setattr(filter_learning, "solve_svm_dual", recording_solve)
        return fits

    @pytest.mark.parametrize("method", ["kf_svm", "skf_svm"])
    def test_a_chain_runs_the_largest_lambda_first(self, monkeypatch, method):
        fits = self.record_fits(monkeypatch)
        tr, va, _ = tiny_split()
        grid = replace(self.GRID, method=method)
        res = grid_search(tr, va, grid, learner_kwargs=self.KWARGS)
        assert [(f["C"], f["lam"]) for f in fits] == [
            (C, lam) for C in (10.0, 1.0) for lam in (4.0, 1.0, 0.25)]
        # each chain starts at the average filter, then from the fit before
        assert [f["start"] is None for f in fits] == [True, False, False] * 2
        for before, after in zip(fits, fits[1:]):
            if after["start"] is not None:
                assert after["start"] is before["fit"]
        # the table keeps the grid's cell order
        assert [cell for cell, _ in res.table] == grid.cells()
        assert res.failures == []

    def test_a_continued_cell_starts_without_an_smo_step(self, monkeypatch):
        fits = self.record_fits(monkeypatch)
        tr, va, _ = tiny_split()
        grid_search(tr, va, self.GRID, learner_kwargs=self.KWARGS)
        # a chain's first fit solves cold; a continued one starts warm at
        # the last fit's committed alphas, optimal on the same signal
        for fit in fits:
            warm, steps = fit["solves"][0]
            if fit["start"] is None:
                assert not warm and steps > 0
            else:
                assert warm and steps == 0
                committed = fit["start"].problems[0]
                assert committed.model.converged
        assert sum(f["start"] is None for f in fits) == 2

    @pytest.mark.parametrize("method", ["kf_svm", "skf_svm"])
    @pytest.mark.parametrize("lams, collapsed", [((1000.0, 0.25), True), ((1.0, 0.25), False)])
    def test_a_continued_cell_starts_where_the_objective_is_lower(self, monkeypatch, method,
                                                                  lams, collapsed):
        """After a lambda large enough to collapse the filter to about 0,
        where the gradient vanishes, the next cell starts from the average
        filter; otherwise from the previous cell's filter, whose
        evaluation takes no SMO step."""
        fits = self.record_fits(monkeypatch)
        starts = []
        lower_start = filter_learning._lower_start

        def recording_start(problems, X, cfg, F_start, F_avg):
            F0 = lower_start(problems, X, cfg, F_start, F_avg)
            starts.append(F0 is F_avg)
            return F0

        monkeypatch.setattr(filter_learning, "_lower_start", recording_start)
        tr, va, _ = tiny_split()
        grid = GridSpec(method=method, C=(10.0,), lam=lams, f=(3,), n0=(1,))
        grid_search(tr, va, grid, learner_kwargs=self.KWARGS)
        first, second = fits
        assert second["start"] is first["fit"]
        assert (np.linalg.norm(first["fit"].bank.coeffs) < 1e-3) == collapsed
        assert starts == [collapsed]
        assert second["solves"][0] == (True, 0)
        if collapsed:
            assert second["fit"].filter_norms[0] == np.linalg.norm(
                make_average_filter(3, 1, tr[0].shape[1]).coeffs)

    def test_a_failed_cell_restarts_its_chain(self, monkeypatch):
        fits = self.record_fits(monkeypatch, fail_lam=1.0)
        tr, va, _ = tiny_split()
        res = grid_search(tr, va, self.GRID, learner_kwargs=self.KWARGS)
        assert [(cell["C"], cell["lam"], reason) for cell, reason in res.failures] == [
            (C, 1.0, "ValueError: injected failure") for C in (10.0, 1.0)]
        assert [cell for cell, _ in res.table] == [
            cell for cell in self.GRID.cells() if cell["lam"] != 1.0]
        # after the failure at lambda 1 the chain starts again at the average filter
        assert [(f["lam"], f["start"] is None) for f in fits] == \
            [(4.0, True), (1.0, False), (0.25, True)] * 2
        restarted = [f for f in fits if f["lam"] == 0.25]
        assert all(not f["solves"][0][0] for f in restarted)

    def test_a_chain_sends_back_only_its_best_pipeline(self):
        tr, va, _ = tiny_split()
        cells = [cell for cell in self.GRID.cells() if cell["C"] == 10.0][::-1]
        for keep in (True, False):
            out = harness._grid_chain((tr, va, "kf_svm", cells, "online", self.KWARGS, keep))
            kept = [k for k, (_, pipe, _) in enumerate(out) if pipe is not None]
            best = min(range(len(cells)), key=lambda k: harness._rank(cells[k], out[k][0]))
            assert kept == ([best] if keep else [])

    def test_same_bits_on_one_or_two_workers(self, monkeypatch, tmp_path):
        monkeypatch.setattr(svm, "_usable_cpus", lambda: 2)
        tr, va, _ = tiny_split()
        results, files = [], []
        for threads in (1, 2):
            monkeypatch.setenv("MARGIN_FILTER_THREADS", str(threads))
            res = grid_search(tr, va, self.GRID, learner_kwargs=self.KWARGS,
                              keep_pipeline=True)
            assert multiprocessing.active_children() == []
            save_model(tmp_path / f"{threads}-model.json", res.pipeline)
            save_filter(tmp_path / f"{threads}-filter.json", res.pipeline.filter)
            results.append((res.table, res.failures, res.best, res.best_error))
            files.append([(tmp_path / f"{threads}-{kind}.json").read_bytes()
                          for kind in ("model", "filter")])
        assert results[0] == results[1]
        assert files[0] == files[1]
        # a chain's first cell, the largest lambda, is the cell's own fit
        for cell, err in results[0][0]:
            if cell["lam"] == 4.0:
                pipe = harness.train_pipeline(*tr, "kf_svm", learner_kwargs=self.KWARGS,
                                              **cell)
                assert err == error_rate(pipe.predict(va[0]), va[1])


class TestFixedFilterPaths:
    """A fixed-filter grid runs as C paths: the cells that share sigma_k, f
    and n0 form one chain, run from the largest C down, each cell's solves
    starting from the previous cell's alphas scaled to its C."""

    @staticmethod
    def record_cells(monkeypatch):
        """Records each cell's (C, sigma_k, start, pipeline, process id,
        live worker processes) as ``train_pipeline`` is called.  In a
        worker process the record would stay in the worker, so it holds
        what ran here."""
        cells = []
        train = harness.train_pipeline

        def recording(X, y, method, *, start=None, **cell):
            cells.append({"C": cell["C"], "sigma_k": cell["sigma_k"], "start": start,
                          "pid": os.getpid(),
                          "children": multiprocessing.active_children()})
            cells[-1]["pipe"] = train(X, y, method, start=start, **cell)
            return cells[-1]["pipe"]

        monkeypatch.setattr(harness, "train_pipeline", recording)
        return cells

    @pytest.mark.parametrize("grid", [
        GridSpec(method="svm", C=(1.0, 100.0, 10.0), sigma_k=(1.0, 0.5)),
        GridSpec(method="avg_svm", C=(10.0, 1.0, 100.0), sigma_k=(1.0,), f=(3, 5),
                 n0=(1,))], ids=["svm", "avg_svm"])
    def test_a_chain_runs_the_largest_C_first(self, monkeypatch, grid):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "1")
        cells = self.record_cells(monkeypatch)
        tr, va, _ = tiny_split()
        res = grid_search(tr, va, grid)
        assert [cell["C"] for cell in cells] == [100.0, 10.0, 1.0] * 2
        assert harness._grid_chains(grid.cells(), grid.method) == [
            sorted(chain, key=lambda idx: -grid.cells()[idx]["C"])
            for chain in ([0, 2, 4], [1, 3, 5])]
        # each chain starts cold, then from the cell before
        assert [cell["start"] is None for cell in cells] == [True, False, False] * 2
        for before, after in zip(cells, cells[1:]):
            if after["start"] is not None:
                assert after["start"] is before["pipe"]
        assert [cell for cell, _ in res.table] == grid.cells()
        assert res.failures == []

    @pytest.mark.parametrize("method", ["svm", "avg_svm"])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_a_later_cell_takes_fewer_smo_steps_to_the_same_optimum(
            self, solve_log, method, n_classes):
        """A later cell's bank takes fewer SMO steps than its cold solve and
        ends within 1e-5 relative of each cold solve's dual optimum (at
        svm_tol 1e-3; up to 1.2e-5 was seen on 3-class n = 1000 data).
        Alpha seeding is a heuristic: here the 3-class avg_svm cell at
        C = 10 takes 617 steps against 593 cold, so with three classes only
        the chain's total is asserted."""
        X, y = generate_toy(ToyParams(n=400, sigma_n=0.8, lag=2, n_classes=n_classes,
                                      seed=11))
        def bank(C, start=None):
            solve_log.solves.clear()
            pipe = harness.train_pipeline(X, y, method, C=C, sigma_k=1.0, f=5, n0=2,
                                          start=start)
            return pipe, solve_log.steps()

        start, _ = bank(100.0)
        counts = []
        for C in (10.0, 1.0):
            cold, cold_steps = bank(C)
            warm, warm_steps = bank(C, start)
            counts.append((warm_steps, cold_steps))
            for w, c in zip([*warm.model.pairwise.values(), *warm.model.one_vs_all],
                            [*cold.model.pairwise.values(), *cold.model.one_vs_all],
                            strict=True):
                assert w.converged and w.C == C
                assert abs(w.objective - c.objective) <= 1e-5 * abs(c.objective)
            start = warm
        warm_steps, cold_steps = np.sum(counts, axis=0)
        assert warm_steps < cold_steps
        if n_classes == 2:
            assert all(warm < cold for warm, cold in counts)

    def test_a_scaled_alpha_at_the_box_stays_feasible(self):
        """An alpha at the box C/n, scaled by C'/C, can round above C'/n;
        the solve clips it to the box and keeps sum(alpha * y) at 0."""
        tr, _, _ = tiny_split()
        n = len(tr[1])
        C0, C = next((C0, C) for C0 in (3.0, 10.0, 30.0) for C in (0.3, 0.7, 3.0)
                     if C0 / n * (C / C0) > C / n)
        start = harness.train_pipeline(*tr, "svm", C=C0, sigma_k=1.0)
        # the committed alphas the next cell starts from: every alpha at
        # the box on an equal number of rows per side
        for p in start.fit.problems:
            p.alpha = np.zeros(len(p.rows))
            k = min(np.sum(p.y_pm > 0), np.sum(p.y_pm < 0))
            p.alpha[np.flatnonzero(p.y_pm > 0)[:k]] = p.model.box
            p.alpha[np.flatnonzero(p.y_pm < 0)[:k]] = p.model.box
        pipe = harness.train_pipeline(*tr, "svm", C=C, sigma_k=1.0, start=start)
        for m, cls in zip(pipe.model.one_vs_all, pipe.model.classes, strict=True):
            assert m.box == C / n and np.all((m.alpha >= 0) & (m.alpha <= m.box))
            assert abs(np.dot(m.alpha, np.where(tr[1] == cls, 1.0, -1.0))) <= 1e-12 * C

    def test_a_failed_cell_restarts_its_chain(self, monkeypatch, solve_log):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "1")
        cells = self.record_cells(monkeypatch)
        solve_log.fail_C = 10.0
        tr, va, _ = tiny_split()
        # a bandwidth of 1e300 overflows the kernel's 2 sigma^2 at every C
        grid = GridSpec(method="svm", C=(1.0, 10.0, 100.0), sigma_k=(1.0, 1e300))
        res = grid_search(tr, va, grid)
        assert [(cell["C"], cell["sigma_k"], reason.split(":")[0])
                for cell, reason in res.failures] == [
            (1.0, 1e300, "OverflowError"), (10.0, 1.0, "ValueError"),
            (10.0, 1e300, "OverflowError"), (100.0, 1e300, "OverflowError")]
        assert [(cell["C"], cell["sigma_k"]) for cell, _ in res.table] == [
            (1.0, 1.0), (100.0, 1.0)]
        # after a failed cell the chain's next cell solves cold
        assert [(cell["C"], cell["start"] is None) for cell in cells] == \
            [(100.0, True), (10.0, False), (1.0, True)] + \
            [(100.0, True), (10.0, True), (1.0, True)]

    def test_a_fixed_filter_grid_starts_no_worker_process(self, monkeypatch):
        monkeypatch.setattr(svm, "_usable_cpus", lambda: 2)
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "2")
        cells = self.record_cells(monkeypatch)
        tr, va, _ = tiny_split()
        for method in ("svm", "avg_svm"):
            cells.clear()
            grid_search(tr, va, GridSpec(method=method, C=(1.0, 10.0, 100.0),
                                         f=(5,), n0=(2,)))
            assert [(cell["pid"], cell["children"]) for cell in cells] == \
                [(os.getpid(), [])] * 3

    def test_same_bits_on_one_or_two_workers(self, monkeypatch, tmp_path):
        monkeypatch.setattr(svm, "_usable_cpus", lambda: 2)
        tr, va, _ = tiny_split()
        grid = GridSpec(method="avg_svm", C=(1.0, 10.0, 100.0), sigma_k=(1.0, 1e300, 0.5),
                        f=(5,), n0=(2,))
        results, files = [], []
        for threads in (1, 2):
            monkeypatch.setenv("MARGIN_FILTER_THREADS", str(threads))
            res = grid_search(tr, va, grid, keep_pipeline=True)
            assert multiprocessing.active_children() == []
            save_model(tmp_path / f"{threads}-model.json", res.pipeline)
            save_filter(tmp_path / f"{threads}-filter.json", res.pipeline.filter)
            results.append((res.table, res.failures, res.best, res.best_error))
            files.append([(tmp_path / f"{threads}-{kind}.json").read_bytes()
                          for kind in ("model", "filter")])
        assert len(results[0][1]) == 3
        assert results[0] == results[1]
        assert files[0] == files[1]


class SolveCounter:
    """Splits the solves of ``solve_log`` (as their warm flags and SMO step
    counts) and records the shapes of the kernel blocks computed, before
    and after the filter fit of ``harness.train_pipeline`` returns; keeps
    the fit and a copy of its committed solves as they were when it
    returned."""

    def __init__(self, solve_log, monkeypatch):
        self.log = solve_log
        self.fit = None
        self.committed = None
        self.split = None
        self.kernels = ([], [])
        # every kernel entry, a kernel_matrix block or a cached row, comes from here
        monkeypatch.setattr(svm, "_gaussian", self._building(svm._gaussian))
        fit_shared_filter = harness.fit_shared_filter

        def recording_fit(*args, **kwargs):
            self.fit = fit_shared_filter(*args, **kwargs)
            self.split = len(solve_log.solves)
            self.committed = [(p.model.alpha.copy(), p.model.bias, p.model.converged)
                              for p in self.fit.problems]
            return self.fit

        monkeypatch.setattr(harness, "fit_shared_filter", recording_fit)

    @property
    def solves(self) -> tuple[list, list]:
        return self.log.solves[:self.split], self.log.solves[self.split:]

    def _building(self, fn):
        def building(A, B, *args, **kwargs):
            self.kernels[self.fit is not None].append((len(A), len(B)))
            return fn(A, B, *args, **kwargs)
        return building


def learned_filter_case(method, n_classes=2):
    nbtot = 4 if method == "skf_svm" else 2
    X, y = generate_toy(ToyParams(n=220, sigma_n=0.6, lag=2, nbtot=nbtot,
                                  n_classes=n_classes, seed=5))
    assert len(np.unique(y)) == n_classes
    lam = 4.0 if method == "skf_svm" else 0.5
    kwargs = {"max_cg_iters": 6, "svm_tol": 1e-3}
    return X, y, dict(C=50.0, sigma_k=1.0, lam=lam, f=5, n0=2, learner_kwargs=kwargs)


class TestBankSolves:
    """The final banks take no SMO step the mathematics does not need."""

    @pytest.mark.parametrize("method", ["svm", "avg_svm"])
    def test_binary_fixed_filter_bank_is_one_solve(self, monkeypatch, solve_log, method):
        counter = SolveCounter(solve_log, monkeypatch)
        X, y = generate_toy(ToyParams(n=200, sigma_n=0.6, lag=2, seed=6))
        pipe = harness.train_pipeline(X, y, method, C=50.0, sigma_k=1.0, f=5, n0=2)
        # the fit of zero steps solves the pair cold; the bank's pair and
        # both one-vs-all orientations start at its alpha and stop at
        # their first optimality check
        [(cold, pair)], after = counter.solves
        assert not cold and pair > 0
        assert after == [(True, 0)] * 3
        # the cold solve computes each row it reads once, and the bank's
        # solves start from one product over the support columns
        n, n_sv = len(y), np.count_nonzero(pipe.model.one_vs_all[0].alpha)
        rows = [s for s in counter.kernels[0] if s[0] == 1]
        assert set(rows) == {(1, n)} and len(rows) <= min(n, 2 * pair)
        assert [s for s in counter.kernels[0] if s[0] > 1] == []
        assert counter.kernels[1] == [(n, n_sv)]
        assert len(pipe.model.one_vs_all) == 2

    @pytest.mark.parametrize("method", ["kf_svm", "skf_svm"])
    def test_binary_learned_filter_bank_takes_no_smo_step_after_the_fit(
            self, monkeypatch, solve_log, method):
        counter = SolveCounter(solve_log, monkeypatch)
        X, y, kw = learned_filter_case(method)
        pipe = harness.train_pipeline(X, y, method, **kw)
        assert len(counter.solves[0]) > 0
        # the pair from its committed solve, then its two orientations
        assert counter.solves[1] == [(True, 0)] * 3
        # one product over the support columns serves all three
        assert len(counter.kernels[1]) == 1
        assert pipe.model.one_vs_all[0] is pipe.model.pairwise[(0, 1)]

    @pytest.mark.parametrize("method, n_classes", [("kf_svm", 2), ("skf_svm", 2),
                                                   ("kf_svm", 3)])
    def test_pairwise_bank_is_the_committed_solves(self, monkeypatch, solve_log, method,
                                                   n_classes):
        counter = SolveCounter(solve_log, monkeypatch)
        X, y, kw = learned_filter_case(method, n_classes)
        pipe = harness.train_pipeline(X, y, method, **kw)
        # c >= 3 adds only the c cold one-vs-rest solves, which read their
        # rows through the fit's last kernel: each row is computed once
        c = n_classes
        after = counter.solves[1]
        if c == 2:
            assert after == [(True, 0)] * 3
        else:
            assert [warm for warm, _ in after] == [False] * c
        rows = [s for s in counter.kernels[1] if s[0] == 1]
        assert len(counter.kernels[1]) - len(rows) == (1 if c == 2 else 0)
        assert set(rows) <= {(1, len(y))} and len(rows) <= len(y)
        assert (len(rows) > 0) == (c > 2)
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
            assert kkt_violation(K, p.y_pm, model) <= kw["learner_kwargs"]["svm_tol"]


class TestOnePath:
    """Every method trains through one filter fit and its banks: a fixed
    filter is a fit of zero steps at the average filter."""

    @staticmethod
    def banks(pipe):
        return [*pipe.model.pairwise.values(), *pipe.model.one_vs_all]

    @pytest.mark.parametrize("n_classes", [2, 3])
    @pytest.mark.parametrize("method, f, n0", [("svm", 1, 0), ("avg_svm", 5, 2)])
    def test_a_fixed_filter_is_a_learned_one_of_zero_steps(self, method, f, n0, n_classes):
        X, y = generate_toy(ToyParams(n=240, sigma_n=0.8, lag=2, n_classes=n_classes,
                                      seed=17))
        fixed = harness.train_pipeline(X, y, method, C=20.0, sigma_k=1.0, f=f, n0=n0)
        learned = harness.train_pipeline(X, y, "kf_svm", C=20.0, sigma_k=1.0, lam=0.0,
                                         f=f, n0=n0, learner_kwargs={"max_cg_iters": 0})
        assert_array_equal(fixed.filter.coeffs, make_average_filter(f, n0, 2).coeffs)
        assert fixed.filter.n0 == n0
        assert_array_equal(fixed.filter.coeffs, learned.filter.coeffs)
        assert len(self.banks(fixed)) == len(self.banks(learned)) == (
            3 if n_classes == 2 else 6)
        for a, b in zip(self.banks(fixed), self.banks(learned), strict=True):
            assert_array_equal(a.alpha, b.alpha)
            assert (a.bias, a.n_iter) == (b.bias, b.n_iter)
        # the fit of zero steps: the one objective value, and no test passed
        assert fixed.history == learned.history and len(fixed.history) == 1
        assert fixed.filter_norms == [np.linalg.norm(fixed.filter.coeffs)]
        assert not fixed.fit.converged

    @pytest.mark.parametrize("method", ["svm", "avg_svm", "kf_svm"])
    def test_kept_pipelines_hold_no_kernel(self, method):
        tr, va, _ = tiny_split()
        grid = replace(default_grid(method), C=(1.0, 10.0), f=(3,), n0=(1,))
        res = grid_search(tr, va, grid, learner_kwargs={"max_cg_iters": 2},
                          keep_pipeline=True)
        assert all(p.kernel is None and p._last is None for p in res.pipeline.fit.problems)
        assert res.pipeline.fit.problems[0].Xf is not None

    def test_a_three_class_chain_seeds_its_one_vs_rest_scorers(self, solve_log):
        """A c >= 3 bank's one-vs-rest scorers start from the start's,
        scaled to the cell's C, and end within the solver's tolerance of
        their cold solves at the same filter."""
        X, y = generate_toy(ToyParams(n=300, sigma_n=0.8, lag=2, n_classes=3, seed=11))
        cell = dict(sigma_k=1.0, lam=1.0, f=5, n0=2, learner_kwargs={"max_cg_iters": 2})
        start = harness.train_pipeline(X, y, "kf_svm", C=50.0, **cell)
        solve_log.solves.clear()
        pipe = harness.train_pipeline(X, y, "kf_svm", C=20.0, start=start, **cell)
        assert [warm for warm, _ in solve_log.solves[-3:]] == [True] * 3
        Xf = pipe.filtered(X)
        for model, cls in zip(pipe.model.one_vs_all, pipe.model.classes, strict=True):
            cold = svm.solve_svm_dual(svm.SupportKernel(Xf, model.kernel),
                                      np.where(y == cls, 1.0, -1.0), 20.0, tol=1e-3)
            assert model.converged
            assert abs(model.objective - cold.objective) <= 1e-5 * abs(cold.objective)


@pytest.fixture(scope="module", params=[2, 3], ids=["binary", "3-class"])
def calibrated_case(request):
    """A calibrated avg_svm pipeline and a test signal, shared by the
    module's tests; each takes its own copies (``TestPipelineScoring.fresh``)."""
    X, y = generate_toy(ToyParams(n=1100, sigma_n=0.8, lag=2, n_classes=request.param,
                                  seed=11))
    pipe = harness.train_pipeline(X[:300], y[:300], "avg_svm", C=20.0, sigma_k=1.0,
                                  f=5, n0=2)
    harness.calibrate_pipeline(pipe, X[300:500], y[300:500])
    return pipe, X[500:]


class KernelRows:
    """The (rows, columns) of every kernel block computed while installed."""

    def __init__(self, monkeypatch):
        self.blocks = []
        gaussian = svm._gaussian

        def counting(A, B, *args, **kwargs):
            self.blocks.append((len(A), len(B)))
            return gaussian(A, B, *args, **kwargs)

        monkeypatch.setattr(svm, "_gaussian", counting)

    def take(self) -> list:
        blocks, self.blocks = self.blocks, []
        return blocks


class TestPipelineScoring:
    """A pipeline scores a signal once, through one test kernel, for both decoders."""

    @staticmethod
    def fresh(case):
        pipe, X = case
        return harness.Pipeline(pipe.method, pipe.filter, pipe.model, pipe.transitions,
                                pipe.platt), X.copy()

    @staticmethod
    def union_rows(models) -> int:
        return len(svm.support_table(list(models))[0])

    def test_online_then_viterbi_builds_one_test_kernel(self, monkeypatch, calibrated_case):
        pipe, X = self.fresh(calibrated_case)
        mc = pipe.model
        kernel = KernelRows(monkeypatch)
        pipe.predict(X, decode="online")
        blocks = kernel.take()
        # every test row once, against the union of both banks' support rows
        assert sum(rows for rows, _ in blocks) == len(X)
        assert {cols for _, cols in blocks} == {
            self.union_rows([*mc.pairwise.values(), *mc.one_vs_all])}
        pipe.predict(X, decode="viterbi")
        pipe.predict(X, decode="online")
        assert kernel.take() == []

    def test_uncalibrated_pipeline_scores_the_pairwise_bank_alone(
            self, monkeypatch, calibrated_case):
        pipe, X = self.fresh(calibrated_case)
        pipe.platt = None
        kernel = KernelRows(monkeypatch)
        pipe.predict(X)
        blocks = kernel.take()
        assert sum(rows for rows, _ in blocks) == len(X)
        assert {cols for _, cols in blocks} == {self.union_rows(pipe.model.pairwise.values())}
        with pytest.raises(ValueError, match="not calibrated"):
            pipe.predict(X, decode="viterbi")

    def test_the_memo_is_keyed_by_content_model_and_filter(self, monkeypatch, calibrated_case):
        pipe, X = self.fresh(calibrated_case)
        kernel = KernelRows(monkeypatch)

        def scores_again(decode="online"):
            pipe.predict(X_now, decode=decode)
            return sum(rows for rows, _ in kernel.take()) == len(X_now)

        X_now = X
        assert scores_again()
        # the same bytes in another shape miss, so the filter checks them
        with pytest.raises(ValueError, match="channel"):
            pipe.predict(X.reshape(-1, 2 * X.shape[1]))
        X_now = X.copy()  # another array of the same content hits
        assert not scores_again("viterbi")
        X_now = X[:-1]  # another signal misses
        assert scores_again()
        X_now = X
        assert scores_again()
        X[7, 0] += 1.0  # the same array changed in place misses
        assert scores_again("viterbi")
        pipe.model = replace(pipe.model)  # a reassigned model misses
        assert scores_again()
        pipe.filter = replace(pipe.filter)  # a reassigned filter misses
        assert scores_again()
        assert not scores_again("viterbi")

    def test_calibrating_later_scores_again(self, monkeypatch, calibrated_case):
        pipe, X = self.fresh(calibrated_case)
        platt, pipe.platt = pipe.platt, None
        kernel = KernelRows(monkeypatch)
        online = pipe.predict(X)
        assert sum(rows for rows, _ in kernel.take()) == len(X)
        pipe.platt = platt  # the memo has no one-vs-all columns
        viterbi = pipe.predict(X, decode="viterbi")
        assert sum(rows for rows, _ in kernel.take()) == len(X)
        assert_array_equal(online, pipe.predict(X))
        assert_array_equal(viterbi, self.fresh(calibrated_case)[0].predict(X, "viterbi"))

    def test_labels_and_scores_match_the_separate_banks(self, calibrated_case):
        pipe, X = self.fresh(calibrated_case)
        mc = pipe.model
        Xf = pipe.filtered(X)
        pairs, ova = pipe._scores(X)
        pairs_alone = svm.bank_scores(list(mc.pairwise.values()), Xf)
        ova_alone = svm.bank_scores(mc.one_vs_all, Xf)
        # against the union of both banks' support rows a bank's product
        # also sums rows of zero coefficient, in another order
        assert np.max(np.abs(pairs - pairs_alone)) <= 1e-13 * np.max(np.abs(pairs_alone))
        # the union is the one-vs-all table, so that bank's own product
        assert self.union_rows([*mc.pairwise.values(), *mc.one_vs_all]) == \
            self.union_rows(mc.one_vs_all)
        assert_array_equal(ova, ova_alone)
        if mc.n_classes == 2:
            # and the pairwise table too; the orientations are exact negations
            assert_array_equal(pairs, pairs_alone)
            assert_array_equal(ova[:, 1], -ova[:, 0])
        assert_array_equal(pipe.predict(X), svm.oao_vote(mc, Xf))
        assert_array_equal(pipe.predict(X, decode="viterbi"),
                           decode_offline(mc, pipe.platt, pipe.transitions, Xf))

    def test_score_columns_must_match_the_bank(self, calibrated_case):
        pipe, X = self.fresh(calibrated_case)
        pairs, ova = pipe._scores(X)
        with pytest.raises(ValueError, match="one score column per pairwise model"):
            svm.oao_vote(pipe.model, scores=pairs[:, :-1] if pairs.shape[1] > 1 else ova)
        with pytest.raises(ValueError, match="one score column per one-vs-all model"):
            svm.class_probabilities(pipe.model, pipe.platt, scores=ova[:, :1])


class TestTrainPipelineConfig:
    """Every method builds its LearnerConfig, so all reject the same values."""

    @pytest.mark.parametrize("method", ["svm", "avg_svm", "kf_svm"])
    @pytest.mark.parametrize("C, learner_kwargs, message", [
        (50.0, {"svm_tol": -1.0}, "svm_tol must be finite and > 0"),
        (50.0, {"svm_tol": np.nan}, "svm_tol must be finite and > 0"),
        (np.nan, None, "C must be finite and > 0"),
        (-1.0, None, "C must be finite and > 0"),
    ])
    def test_invalid_settings_rejected(self, method, C, learner_kwargs, message):
        X, y = generate_toy(ToyParams(n=60, sigma_n=0.6, lag=2, seed=6))
        with pytest.raises(ValueError, match=message):
            harness.train_pipeline(X, y, method, C=C, sigma_k=1.0, f=5, n0=2,
                                   learner_kwargs=learner_kwargs)


class TestMaxWorkers:
    @pytest.mark.parametrize("env, cpus, expected", [
        (None, 8, 8), ("3", 8, 3), ("64", 2, 2), ("4", None, 1)])
    def test_capped_at_cpu_count(self, monkeypatch, env, cpus, expected):
        """``cpus`` is the size of the affinity set; None stands for a
        platform with no affinity call whose CPU count is unknown."""
        if env is None:
            monkeypatch.delenv("MARGIN_FILTER_THREADS", raising=False)
        else:
            monkeypatch.setenv("MARGIN_FILTER_THREADS", env)
        if cpus is None:
            monkeypatch.delattr(svm.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(svm.os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(svm.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(svm.os, "cpu_count", lambda: 64)
        assert svm._worker_count(64) == expected

    def test_cpu_count_where_affinity_is_unavailable(self, monkeypatch):
        monkeypatch.delenv("MARGIN_FILTER_THREADS", raising=False)
        monkeypatch.delattr(svm.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(svm.os, "cpu_count", lambda: 3)
        assert svm._worker_count(64) == 3

    @pytest.mark.parametrize("env", ["many", "0", "-1", "", "2.5"])
    def test_malformed_value_raises(self, monkeypatch, env):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", env)
        with pytest.raises(RuntimeError, match=re.escape(f"MARGIN_FILTER_THREADS={env!r}")):
            svm._worker_count(64)

    def test_malformed_value_is_not_a_cell_failure(self, monkeypatch):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "many")
        tr, va, _ = tiny_split()
        with pytest.raises(RuntimeError, match="MARGIN_FILTER_THREADS"):
            grid_search(tr, va, GridSpec(method="svm", C=(1.0, 10.0)))
        grid = GridSpec(method="svm", C=(1.0, 10.0))
        with pytest.raises(RuntimeError, match="MARGIN_FILTER_THREADS"):
            run_toy_sweep("noise", [0.4], ["svm"], seeds=(0,), grids={"svm": grid},
                          n_train=80, n_val=60, n_test=60)
        # a task's own grid search reads the setting too, as in a worker
        task = ("noise", 0.4, 0, "svm", ToyParams(n=1, sigma_n=0.4, lag=5, nbtot=2),
                grid, (80, 60, 60), None)
        with pytest.raises(RuntimeError, match="MARGIN_FILTER_THREADS"):
            harness._sweep_task(task)


def _own_pid(_):
    return os.getpid()


def _cache_budget(_):
    return os.getpid(), svm.KERNEL_CACHE_BYTES


class TestParallelMap:
    """Grid cells run on worker processes and merge as a serial run would."""

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        """Two usable CPUs, so the parallel path runs on any machine."""
        monkeypatch.setattr(svm, "_usable_cpus", lambda: 2)

    def _search(self, monkeypatch, threads, grid, **kwargs):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", str(threads))
        tr, va, _ = tiny_split()
        res = grid_search(tr, va, grid, **kwargs)
        assert multiprocessing.active_children() == []
        return res

    def test_same_bits_serial_or_parallel(self, monkeypatch, two_cpus, tmp_path):
        grid = GridSpec(method="kf_svm", C=(1.0, 10.0), lam=(0.1, 1.0), f=(3,), n0=(1,))
        kwargs = dict(learner_kwargs={"max_cg_iters": 3}, keep_pipeline=True)
        results = [self._search(monkeypatch, threads, grid, **kwargs) for threads in (1, 2)]
        serial, parallel = results
        assert parallel.table == serial.table
        assert parallel.best == serial.best
        assert parallel.failures == serial.failures
        files = []
        for res, name in zip(results, ("serial", "parallel")):
            save_model(tmp_path / f"{name}-model.json", res.pipeline)
            save_filter(tmp_path / f"{name}-filter.json", res.pipeline.filter)
            files.append([(tmp_path / f"{name}-{kind}.json").read_bytes()
                          for kind in ("model", "filter")])
        assert files[0] == files[1]

    def test_numerical_cell_failure_recorded_in_parallel(self, monkeypatch, two_cpus):
        # a bandwidth of 1e300 overflows the kernel's 2 sigma^2
        grid = GridSpec(method="svm", C=(1.0, 10.0), sigma_k=(1.0, 1e300))
        serial, parallel = (self._search(monkeypatch, threads, grid) for threads in (1, 2))
        assert [cell["sigma_k"] for cell, _ in parallel.table] == [1.0, 1.0]
        assert [cell["sigma_k"] for cell, _ in parallel.failures] == [1e300, 1e300]
        assert all(reason.startswith("OverflowError") for _, reason in parallel.failures)
        assert (parallel.table, parallel.failures, parallel.best) == \
            (serial.table, serial.failures, serial.best)

    def test_worker_error_propagates(self, monkeypatch, two_cpus):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "2")
        tr, va, _ = tiny_split()
        with pytest.raises(TypeError, match="bogus"):
            grid_search(tr, va, GridSpec(method="svm", C=(1.0, 10.0)),
                        learner_kwargs={"bogus": 1})
        assert multiprocessing.active_children() == []

    def test_tasks_run_in_workers(self, monkeypatch, two_cpus):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "2")
        pids = harness._parallel_map(_own_pid, range(4))
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_nested_map_runs_in_the_calling_process(self, monkeypatch, two_cpus):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "2")
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        assert harness._parallel_map(_own_pid, range(4)) == [os.getpid()] * 4

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_workers_split_the_kernel_cache(self, monkeypatch, cpus):
        # at most two workers, as in the other tests of the map; the rule
        # for a larger count is checked below without starting workers
        monkeypatch.setattr(svm, "_usable_cpus", lambda: cpus)
        monkeypatch.delenv("MARGIN_FILTER_THREADS", raising=False)
        budget = svm.KERNEL_CACHE_BYTES
        seen = harness._parallel_map(_cache_budget, range(4))
        assert len({pid for pid, _ in seen}) <= cpus
        assert {b for _, b in seen} == {budget // cpus}
        assert svm.KERNEL_CACHE_BYTES == budget  # the caller's own is untouched
        assert multiprocessing.active_children() == []

    def test_the_worker_share_of_the_kernel_cache(self, monkeypatch):
        monkeypatch.setattr(svm, "KERNEL_CACHE_BYTES", 100 * 2**20)
        harness._share_kernel_cache(32)
        assert svm.KERNEL_CACHE_BYTES == 100 * 2**20 // 32


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
        errs = np.array([r["test_error"] for r in res.rows if r["decode"] == "online"])
        assert len(errs) == 2  # one entry per seed
        assert np.all((0 <= errs) & (errs <= 1))
        by_seed = {r["seed"]: r["test_error"] for r in res.rows if r["decode"] == "online"}
        assert_array_equal(res.errors(0, "svm", "online"), [by_seed[0], by_seed[1]])
        assert res.mean_error(0, "svm", "online") == np.mean([by_seed[0], by_seed[1]])

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
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "1")
        with pytest.raises(TypeError, match="bug in a task"):
            run_toy_sweep("noise", [0.3], ["svm"], seeds=(0,),
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

    def test_parallel_sweep_matches_sequential(self, monkeypatch):
        # the 2-cell grid of each task runs inside its worker
        monkeypatch.setattr(svm, "_usable_cpus", lambda: 2)
        kwargs = dict(
            seeds=(0, 1), base=ToyParams(n=1, sigma_n=0.4, lag=1, nbtot=2,
                                         run_min=6, run_max=9),
            grids={"svm": GridSpec(method="svm", C=(1.0, 10.0))},
            n_train=80, n_val=60, n_test=60)
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "1")
        seq = run_toy_sweep("noise", [0.4], ["svm"], **kwargs)
        monkeypatch.setenv("MARGIN_FILTER_THREADS", "2")
        par = run_toy_sweep("noise", [0.4], ["svm"], **kwargs)
        assert sweep_rows_csv(seq) == sweep_rows_csv(par)
        assert multiprocessing.active_children() == []


class TestDefaultGrids:
    def test_all_methods_have_grids(self):
        for method in ("svm", "avg_svm", "kf_svm", "skf_svm"):
            grid = default_grid(method)
            assert grid.method == method
            assert grid.cells()
