"""The SMO solver, bank scoring, voting and Viterbi against reference versions.

``reference_solve`` is the per-iteration full-recompute SMO loop,
``reference_oao_vote`` the per-sample tie-break loop,
``reference_decision_scores`` the one-kernel-per-model scorer,
``reference_viterbi`` the numpy recursion and ``reference_train_multiclass``
the bank trainer that solved every pair and every one-vs-all scorer that
the versions in ``marginfilter`` replaced.  ``reference_solve`` has no ``stop_above``:
the solver's default of inf must leave its iterates unchanged.  The solver, the tie-break and Viterbi do the
same arithmetic, so those comparisons are exact equality.  Bank scoring
sums each model's kernel columns in a different order (one matmul over
the distinct support vectors instead of one product per model), so scores
agree to 1e-12 of their largest magnitude and labels exactly.
"""

import multiprocessing
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from marginfilter import svm
from marginfilter.decoding import TransitionMatrix, decode_offline, viterbi
from marginfilter.svm import (
    SCORE_CHUNK_ROWS,
    STOP_BOUND,
    STOP_CONVERGED,
    STOP_MAX_ITER,
    SV_THRESHOLD_FRAC,
    KernelParams,
    MulticlassModel,
    PlattParams,
    SupportKernel,
    SvmModel,
    bank_scores,
    class_probabilities,
    decision_scores,
    joint_bank_scores,
    kernel_matrix,
    oao_vote,
    solve_svm_dual,
    support_table,
    train_multiclass,
)
from marginfilter.harness import train_pipeline
from marginfilter.persistence import load_model, save_model
from test_svm import kkt_violation


def reference_solve(K, y, C, *, tol=1e-3, max_iter=2_000_000, warm_alpha=None):
    """Returns (alpha, n_iter, objective, bias, converged)."""
    K = np.asarray(K, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = len(y)
    box = C / n
    if warm_alpha is None:
        alpha = np.zeros(n)
        u = np.zeros(n)
    else:
        alpha = np.clip(np.asarray(warm_alpha, dtype=np.float64).copy(), 0.0, box)
        u = K @ (alpha * y)

    diag = np.diag(K).copy()
    pos = y > 0
    eps_b = 1e-12 * box

    it = 0
    converged = False
    m_val = M_val = 0.0
    while it < max_iter:
        v = y - u
        up = np.where(pos, alpha < box - eps_b, alpha > eps_b)
        low = np.where(pos, alpha > eps_b, alpha < box - eps_b)
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        m_val = v_up[i]
        M_val = float(np.min(v_low))
        if m_val - M_val <= tol:
            converged = True
            break

        quad = diag[i] + diag - 2.0 * K[i]
        np.maximum(quad, 1e-12, out=quad)
        b_gain = m_val - v
        eligible = low & (b_gain > 0)
        if not np.any(eligible):
            break
        gain = np.where(eligible, (b_gain * b_gain) / quad, -np.inf)
        j = int(np.argmax(gain))

        t = (v[i] - v[j]) / quad[j]
        t_max = (box - alpha[i] if y[i] > 0 else alpha[i])
        t_max = min(t_max, alpha[j] if y[j] > 0 else box - alpha[j])
        t = min(t, t_max)
        if t <= 0:
            break
        da_i = y[i] * t
        da_j = -y[j] * t
        alpha[i] += da_i
        alpha[j] += da_j
        u += K[i] * (da_i * y[i]) + K[j] * (da_j * y[j])
        it += 1

    objective = float(alpha.sum() - 0.5 * np.dot(alpha * y, u))
    free = (alpha > SV_THRESHOLD_FRAC * box) & (alpha < (1.0 - SV_THRESHOLD_FRAC) * box)
    if np.any(free):
        bias = float(np.mean((y - u)[free]))
    else:
        bias = float(0.5 * (m_val + M_val))
    return alpha, it, objective, bias, converged


def reference_decision_scores(model: SvmModel, Xte) -> np.ndarray:
    Xte = np.atleast_2d(np.asarray(Xte, dtype=np.float64))
    if len(model.sv_idx) == 0:
        return np.full(len(Xte), model.bias)
    Kte = kernel_matrix(Xte, model.sv_rows, model.kernel)
    return Kte @ (model.sv_alpha * model.sv_labels) + model.bias


def reference_oao_vote(mc: MulticlassModel, Xte) -> np.ndarray:
    Xte = np.atleast_2d(np.asarray(Xte, dtype=np.float64))
    m = len(Xte)
    c = mc.n_classes
    votes = np.zeros((m, c), dtype=np.int64)
    margins = np.zeros((m, c))
    for (a, b), model in mc.pairwise.items():
        s = reference_decision_scores(model, Xte)
        wins_a = s > 0
        votes[wins_a, a] += 1
        votes[~wins_a, b] += 1
        margins[wins_a, a] += np.abs(s[wins_a])
        margins[~wins_a, b] += np.abs(s[~wins_a])

    out = np.empty(m, dtype=mc.classes.dtype)
    best = votes.max(axis=1)
    for i in range(m):
        tied = np.flatnonzero(votes[i] == best[i])
        if len(tied) > 1:
            tied = tied[margins[i, tied] == margins[i, tied].max()]
        out[i] = mc.classes[tied[0]]
    return out


def reference_viterbi(E, transitions: TransitionMatrix) -> np.ndarray:
    n, c = E.shape
    logM = np.log(transitions.M)
    delta = np.log(transitions.prior) + E[0]
    back = np.zeros((n, c), dtype=np.int64)
    for i in range(1, n):
        cand = delta[:, None] + logM
        back[i] = np.argmax(cand, axis=0)
        delta = cand[back[i], np.arange(c)] + E[i]
    path = np.empty(n, dtype=np.int64)
    path[-1] = int(np.argmax(delta))
    for i in range(n - 1, 0, -1):
        path[i - 1] = back[i, path[i]]
    return path + 1


def reference_decode_offline(mc: MulticlassModel, platt, transitions, Xte) -> np.ndarray:
    raw = np.column_stack([platt[k].probability(reference_decision_scores(m, Xte))
                           for k, m in enumerate(mc.one_vs_all)])
    np.maximum(raw, np.finfo(np.float64).tiny, out=raw)
    probs = raw / raw.sum(axis=1, keepdims=True)
    return mc.classes[reference_viterbi(np.log(probs), transitions) - 1]


def assert_same_solution(K, y, C, **kwargs):
    alpha, n_iter, objective, bias, converged = reference_solve(K, y, C, **kwargs)
    m = solve_svm_dual(K, y, C, **kwargs)
    assert_array_equal(m.alpha, alpha)
    assert m.n_iter == n_iter
    assert m.objective == objective
    assert m.bias == bias
    assert m.converged == converged
    return m


def xor_problem(rng, n, frac_pos=0.5):
    X = rng.normal(size=(n, 2))
    n_pos = int(round(frac_pos * n))
    y = np.concatenate([np.ones(n_pos), -np.ones(n - n_pos)])
    rng.shuffle(y)
    # noisy XOR labels on top of the class split keep many alphas free
    X += 0.8 * y[:, None] * np.sign(X[:, ::-1])
    return X, y


class TestSolverMatchesReference:
    @pytest.mark.parametrize("n, C, tol", [(40, 10.0, 1e-3), (150, 100.0, 1e-3),
                                           (150, 1.0, 1e-8), (300, 100.0, 1e-6)])
    def test_cold(self, rng, n, C, tol):
        X, y = xor_problem(rng, n)
        K = kernel_matrix(X, X, KernelParams(0.7))
        m = assert_same_solution(K, y, C, tol=tol)
        assert m.converged and m.n_iter > 0 and m.stop == STOP_CONVERGED

    def test_warm(self, rng):
        X, y = xor_problem(rng, 200)
        K = kernel_matrix(X, X, KernelParams(1.0))
        cold = solve_svm_dual(K, y, 50.0)
        for scale in (0.9, 1.1, 1.5):
            K2 = kernel_matrix(X * scale, X * scale, KernelParams(1.0))
            m = assert_same_solution(K2, y, 50.0, warm_alpha=cold.alpha)
            assert m.n_iter > 0

    @pytest.mark.parametrize("max_iter", [0, 1, 7, 60])
    def test_iteration_capped(self, rng, max_iter):
        X, y = xor_problem(rng, 120)
        K = kernel_matrix(X, X, KernelParams(0.5))
        m = assert_same_solution(K, y, 100.0, tol=1e-10, max_iter=max_iter)
        assert m.n_iter == max_iter and not m.converged and m.stop == STOP_MAX_ITER

    @pytest.mark.parametrize("frac_pos", [0.05, 0.2, 0.9])
    def test_unbalanced(self, rng, frac_pos):
        X, y = xor_problem(rng, 160, frac_pos)
        K = kernel_matrix(X, X, KernelParams(1.3))
        for C in (0.5, 20.0, 500.0):
            assert_same_solution(K, y, C, tol=1e-6)

    def test_converged_is_read_from_the_stop_reason(self, rng):
        X, y = xor_problem(rng, 120)
        K = kernel_matrix(X, X, KernelParams(0.5))
        m = solve_svm_dual(K, y, 100.0, tol=1e-10, max_iter=5)
        assert (m.stop, m.converged) == (STOP_MAX_ITER, False)
        m.stop = STOP_CONVERGED
        assert m.converged
        with pytest.raises(AttributeError):
            m.converged = False


def solve_case(rng, kind):
    """(K, y, C, solver kwargs) of a cold, a warm or an iteration-capped solve."""
    X, y = xor_problem(rng, 150)
    K = kernel_matrix(X, X, KernelParams(0.7))
    if kind == "cold":
        return K, y, 100.0, {"tol": 1e-6}
    if kind == "capped":
        return K, y, 100.0, {"tol": 1e-10, "max_iter": 60}
    K_moved = kernel_matrix(1.1 * X, 1.1 * X, KernelParams(0.7))
    return K_moved, y, 100.0, {"warm_alpha": solve_svm_dual(K, y, 100.0).alpha}


def rounding(objective):
    return 1e-12 * max(1.0, abs(objective))


class TestRunningDual:
    """``stop_above`` acts on the solver's running dual, which must bound
    the dual of the current iterate from below to within rounding."""

    @pytest.mark.parametrize("kind", ["cold", "warm", "capped"])
    def test_bound_above_the_result_changes_nothing(self, rng, kind):
        K, y, C, kw = solve_case(rng, kind)
        full = solve_svm_dual(K, y, C, **kw)
        m = solve_svm_dual(K, y, C, stop_above=full.objective + rounding(full.objective), **kw)
        assert_array_equal(m.alpha, full.alpha)
        assert (m.n_iter, m.objective, m.bias, m.converged) == \
            (full.n_iter, full.objective, full.bias, full.converged)

    @pytest.mark.parametrize("kind", ["cold", "warm", "capped"])
    def test_running_dual_tracks_every_iterate(self, rng, kind):
        K, y, C, kw = solve_case(rng, kind)
        n_iter = solve_svm_dual(K, y, C, **kw).n_iter
        assert n_iter >= 60
        uncapped = {key: v for key, v in kw.items() if key != "max_iter"}
        for k in np.unique(np.linspace(0, n_iter, 15).astype(int)):
            # the dual at iterate k, from the objective of a solve capped there
            dual_k = solve_svm_dual(K, y, C, **{**uncapped, "max_iter": int(k)}).objective
            eps = rounding(dual_k)
            below = solve_svm_dual(K, y, C, stop_above=dual_k - eps, **uncapped)
            assert below.n_iter <= k and not below.converged and below.stop == STOP_BOUND
            assert below.objective > dual_k - eps
            above = solve_svm_dual(K, y, C, stop_above=dual_k + eps, **uncapped)
            assert above.n_iter > k or above.converged

    @pytest.mark.parametrize("kind", ["cold", "warm"])
    def test_bound_below_the_start_stops_before_any_step(self, rng, kind):
        K, y, C, kw = solve_case(rng, kind)
        start = solve_svm_dual(K, y, C, max_iter=0, **kw).objective
        m = solve_svm_dual(K, y, C, stop_above=start - 0.5, **kw)
        assert m.n_iter == 0 and not m.converged and m.stop == STOP_BOUND
        assert m.objective == start > start - 0.5
        if "warm_alpha" in kw:
            assert_array_equal(m.alpha, kw["warm_alpha"])


def recorded_kernel_calls(monkeypatch):
    """Route svm._gaussian, which computes every kernel block and cached
    row, through a recorder; returns its (m, p) shapes."""
    shapes = []
    gaussian = svm._gaussian

    def recording(A, B, scale, out=None):
        shapes.append((len(A), len(B)))
        return gaussian(A, B, scale, out=out)

    monkeypatch.setattr(svm, "_gaussian", recording)
    return shapes


class TestSupportKernel:
    """The kernel source of every solve: every entry it gives is the
    entry of the full kernel, a cold solve through it is the dense solve,
    and a warm one is the dense solve up to the rounding of its start
    K @ (alpha * y)."""

    @pytest.mark.parametrize("d, n_sv", [(2, 0), (2, 1), (2, 37), (6, 80), (3, 120)])
    def test_entries_equal_the_full_kernel(self, rng, d, n_sv):
        X = rng.normal(size=(120, d))
        params = KernelParams(0.9)
        K = kernel_matrix(X, X, params)
        sv = np.sort(rng.choice(len(X), size=n_sv, replace=False))
        src = SupportKernel(X, params)
        assert src.shape == K.shape
        assert_array_equal(src.diagonal(), np.diag(K))
        for i in rng.permutation(len(X)):  # rows inside and outside S
            assert_array_equal(src[int(i)], K[i])

        w = np.zeros(len(X))
        w[sv] = rng.normal(size=n_sv)
        assert_allclose(src @ w, K @ w, rtol=0, atol=1e-12 * np.abs(w).sum())
        if n_sv < len(X):
            # another support set: the kept product is not reused
            w[np.setdiff1d(np.arange(len(X)), sv)[0]] = 1.0
            assert_allclose(src @ w, K @ w, rtol=0, atol=1e-12 * np.abs(w).sum())

    @pytest.mark.parametrize("d", [2, 6])
    @pytest.mark.parametrize("sigma_k", [1.0, 0.7])  # a reciprocal multiply, a divide
    @pytest.mark.parametrize("cache_bytes", [svm.KERNEL_CACHE_BYTES, 0])
    def test_rows_are_the_rows_of_kernel_matrix(self, rng, monkeypatch, d, sigma_k,
                                                cache_bytes):
        # cached rows and, with no cache, rows computed on each read skip
        # kernel_matrix's checks but not one bit of its formula
        monkeypatch.setattr(svm, "KERNEL_CACHE_BYTES", cache_bytes)
        X = rng.normal(size=(300, d)) * 3.0
        params = KernelParams(sigma_k)
        src = SupportKernel(X, params)
        for i in [*rng.permutation(len(X)), 0, len(X) - 1]:
            want = kernel_matrix(X[i : i + 1], X, params)[0]
            assert src[int(i)].tobytes() == want.tobytes()

    @pytest.mark.parametrize("X", [np.ones(4), np.ones((2, 3, 2))])
    def test_samples_must_be_a_matrix(self, X):
        with pytest.raises(ValueError, match="2-D"):
            SupportKernel(X, KernelParams(1.0))

    @pytest.mark.parametrize("n_sv", [1, 255, 256, 300, 699])
    @pytest.mark.parametrize("stops", [True, False])
    def test_a_stop_ends_the_product_after_the_rows_of_the_support(
            self, rng, monkeypatch, n_sv, stops):
        n = 700
        X = rng.normal(size=(n, 2))
        params = KernelParams(0.9)
        sv = np.sort(rng.choice(n, size=n_sv, replace=False))
        w = np.zeros(n)
        w[sv] = rng.normal(size=n_sv)
        full = SupportKernel(X, params) @ w
        shapes = recorded_kernel_calls(monkeypatch)
        seen = []
        src = SupportKernel(X, params)
        u = src.product(w, stop=lambda u: seen.append(u[sv].copy()) or stops)
        # asked once, after the block of rows that completes S's rows
        assert len(seen) == 1
        assert_array_equal(seen[0], full[sv])
        if not stops:
            assert_array_equal(u, full)
            return
        rows = min(-(-n_sv // svm.PRODUCT_CHUNK_ROWS) * svm.PRODUCT_CHUNK_ROWS, n)
        assert sum(m for m, _ in shapes) == rows
        off = np.setdiff1d(np.arange(n), sv)  # the rows after S, in order
        done = np.concatenate([sv, off[: rows - n_sv]])
        assert_array_equal(u[done], full[done])
        assert not u[off[rows - n_sv:]].any()  # the rows not computed read 0
        # a stopped product is not kept: the next one computes its rows
        assert_array_equal(src @ w, full)
        assert sum(m for m, _ in shapes) == rows + n

    def test_subset_rows_are_slices_of_the_shared_rows(self, rng, monkeypatch):
        X = rng.normal(size=(90, 2))
        params = KernelParams(0.9)
        K = kernel_matrix(X, X, params)
        src = SupportKernel(X, params)
        rows = np.sort(rng.choice(len(X), size=50, replace=False))
        view = src.subset(rows)
        shapes = recorded_kernel_calls(monkeypatch)
        assert view.shape == (50, 50)
        for i in (3, 7, 3):
            assert_array_equal(view[i], K[rows[i]][rows])
        assert_array_equal(src[int(rows[7])], K[rows[7]])
        # one full row per sample, read through the source's cache
        assert shapes == [(1, len(X)), (1, len(X))]

    def test_cache_full_rows_are_computed_on_each_use(self, rng, monkeypatch):
        # a cache of two rows: each row past them evicts the least
        # recently used one, which is computed again when next read
        X = rng.normal(size=(40, 2))
        params = KernelParams(0.9)
        K = kernel_matrix(X, X, params)
        monkeypatch.setattr(svm, "KERNEL_CACHE_BYTES", 2 * 8 * len(X))
        src = SupportKernel(X, params)
        shapes = recorded_kernel_calls(monkeypatch)
        for i in (0, 5, 0, 7, 5, 0):
            assert_array_equal(src[i], K[i])
        # 7 evicts 5 (0 was read after it), 5 evicts 0, and 0 evicts 7
        assert len(shapes) == 5

    @pytest.mark.parametrize("cap_rows", [1, 3])
    def test_a_small_cache_changes_no_bit(self, rng, monkeypatch, cap_rows):
        X, y = xor_problem(rng, 150)
        params = KernelParams(0.7)
        K = kernel_matrix(X, X, params)
        cold = solve_svm_dual(K, y, 100.0)
        alpha = cold.alpha
        Xm = 1.05 * X
        warm = solve_svm_dual(SupportKernel(Xm, params), y, 100.0, warm_alpha=alpha)
        assert cold.n_iter > 100 and warm.n_iter > 5
        monkeypatch.setattr(svm, "KERNEL_CACHE_BYTES", cap_rows * 8 * len(X))
        for got, want in ((solve_svm_dual(SupportKernel(X, params), y, 100.0), cold),
                          (solve_svm_dual(SupportKernel(Xm, params), y, 100.0,
                                          warm_alpha=alpha), warm)):
            assert_array_equal(got.alpha, want.alpha)
            assert (got.objective, got.bias, got.stop, got.n_iter) == \
                (want.objective, want.bias, want.stop, want.n_iter)

    @staticmethod
    def warm_case(rng, scale):
        """A warm start optimal at X, the kernel moved to scale * X, and a
        function giving a new source of the moved kernel."""
        X, y = xor_problem(rng, 150)
        params = KernelParams(0.7)
        alpha = solve_svm_dual(kernel_matrix(X, X, params), y, 100.0).alpha
        assert 0 < np.sum(alpha > 0) < len(X)
        Xm = scale * X
        return kernel_matrix(Xm, Xm, params), lambda: SupportKernel(Xm, params), y, alpha

    @pytest.mark.parametrize("bounded", [False, True])
    def test_warm_solve_matches_the_dense_solve(self, rng, bounded):
        # a small move, as between line-search trials: ~40 SMO steps
        K, source, y, alpha = self.warm_case(rng, 1.02)
        kw = {"warm_alpha": alpha}
        if bounded:
            start = solve_svm_dual(K, y, 100.0, max_iter=0, **kw).objective
            full = solve_svm_dual(K, y, 100.0, **kw)
            # the dual climbs steeply at first: a bound near the optimum
            kw["stop_above"] = full.objective - 1e-3 * (full.objective - start)
        dense = solve_svm_dual(K, y, 100.0, **kw)
        m = solve_svm_dual(source(), y, 100.0, **kw)
        assert dense.n_iter > 10
        assert (m.n_iter, m.stop) == (dense.n_iter, dense.stop)
        assert dense.stop == (STOP_BOUND if bounded else STOP_CONVERGED)
        assert_allclose(m.alpha, dense.alpha, rtol=0, atol=1e-12)
        assert abs(m.objective - dense.objective) <= 1e-12 * abs(dense.objective)
        assert abs(m.bias - dense.bias) <= 1e-12

    def test_rounding_may_break_a_working_set_tie_the_other_way(self, rng):
        # after a step that leaves both alphas free, v_i == v_j up to
        # rounding; here a later choice between two such rows falls the
        # other way at step 52, and the paths part; both end optimal
        K, source, y, alpha = self.warm_case(rng, 1.1)
        dense = solve_svm_dual(K, y, 100.0, warm_alpha=alpha)
        m = solve_svm_dual(source(), y, 100.0, warm_alpha=alpha)
        assert m.n_iter != dense.n_iter
        assert m.converged and dense.converged
        assert kkt_violation(K, y, m) <= 1e-3
        assert abs(m.objective - dense.objective) <= 1e-3 * abs(dense.objective)

    @pytest.mark.parametrize("gap", [1e-9, 1.0])
    def test_a_warm_start_above_the_bound_takes_no_step(self, rng, gap):
        # the product's rows off S are 0 where the stop leaves them, and
        # alpha is 0 there: the dual is the same double as from the whole
        K, source, y, alpha = self.warm_case(rng, 1.02)
        start = solve_svm_dual(source(), y, 100.0, warm_alpha=alpha, max_iter=0)
        m = solve_svm_dual(source(), y, 100.0, warm_alpha=alpha,
                           stop_above=start.objective - gap)
        assert (m.n_iter, m.stop) == (0, STOP_BOUND)
        assert_array_equal(m.alpha, alpha)
        assert (m.objective, m.bias) == (start.objective, start.bias)
        dense = solve_svm_dual(K, y, 100.0, warm_alpha=alpha, max_iter=0)
        assert abs(m.objective - dense.objective) <= 1e-12 * abs(dense.objective)


def sv_model(score: float, sv_rows=None, sv_alpha=None) -> SvmModel:
    """A scorer with the given support vectors (all labelled +1, so the
    sign of ``sv_alpha`` sets each one's pull) and bias ``score``."""
    sv_rows = np.zeros((0, 2)) if sv_rows is None else sv_rows
    sv_alpha = np.zeros(0) if sv_alpha is None else sv_alpha
    k = len(sv_alpha)
    return SvmModel(alpha=sv_alpha, bias=score, C=1.0, box=1.0, kernel=KernelParams(),
                    objective=0.0, sv_idx=np.arange(k), sv_labels=np.ones(k, dtype=np.int64),
                    sv_alpha=sv_alpha, sv_rows=sv_rows)


def pairs_of(c):
    return [(a, b) for a in range(c) for b in range(a + 1, c)]


class TestVoteMatchesReference:
    @pytest.mark.parametrize("c", [3, 4])
    def test_random_banks_with_vote_ties(self, rng, c):
        # independent random scorers make intransitive pairwise preferences,
        # so many samples tie on votes and the margin sums decide
        mc = MulticlassModel(classes=np.arange(1, c + 1), pairwise={
            p: sv_model(rng.uniform(-0.5, 0.5), rng.normal(size=(3, 2)),
                        rng.normal(size=3))
            for p in pairs_of(c)})
        Xte = rng.normal(size=(3000, 2))
        votes = np.zeros((len(Xte), c), dtype=np.int64)
        for (a, b), model in mc.pairwise.items():
            wins_a = reference_decision_scores(model, Xte) > 0
            votes[wins_a, a] += 1
            votes[~wins_a, b] += 1
        n_tied = np.sum(votes == votes.max(axis=1, keepdims=True), axis=1)
        assert np.mean(n_tied > 1) > 0.1
        assert_array_equal(oao_vote(mc, Xte), reference_oao_vote(mc, Xte))

    @pytest.mark.parametrize("c", [3, 4])
    def test_exact_margin_ties(self, rng, c):
        # every pair scores +-1, so tied classes also tie on margin sums and
        # the lowest class index has to decide
        classes = np.arange(10, 10 + c)
        Xte = rng.normal(size=(5, 2))
        for signs in np.ndindex(*(2,) * (c * (c - 1) // 2)):
            mc = MulticlassModel(classes=classes, pairwise={
                p: sv_model(1.0 if s else -1.0) for p, s in zip(pairs_of(c), signs)})
            assert_array_equal(oao_vote(mc, Xte), reference_oao_vote(mc, Xte))


def random_transitions(rng, c):
    M = rng.uniform(0.1, 1.0, size=(c, c))
    M /= M.sum(axis=1, keepdims=True)
    prior = rng.uniform(0.1, 1.0, size=c)
    return TransitionMatrix(M=M, prior=prior / prior.sum())


def random_bank(rng, k, pool, kernel=KernelParams(0.8)):
    """k scorers whose support vectors are random, overlapping subsets of
    the rows of ``pool``, as the models of one trained bank are."""
    models = []
    for _ in range(k):
        idx = np.sort(rng.choice(len(pool), size=rng.integers(0, len(pool) + 1),
                                 replace=False))
        sv_alpha = rng.uniform(0.0, 1.0, size=len(idx))
        models.append(SvmModel(
            alpha=sv_alpha, bias=rng.uniform(-0.5, 0.5), C=1.0, box=1.0, kernel=kernel,
            objective=0.0, sv_idx=idx, sv_labels=rng.choice([-1, 1], size=len(idx)),
            sv_alpha=sv_alpha, sv_rows=pool[idx].copy()))
    return models


def random_multiclass(rng, c, pool):
    return MulticlassModel(classes=np.arange(1, c + 1) * 10,
                           pairwise=dict(zip(pairs_of(c), random_bank(rng, len(pairs_of(c)), pool))),
                           one_vs_all=random_bank(rng, c, pool))


def assert_scores_close(got, want):
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


class TestBankScoresMatchReference:
    @pytest.mark.parametrize("k", [1, 3, 6, 10])
    def test_random_banks(self, rng, k):
        pool = rng.normal(size=(40, 3))
        models = random_bank(rng, k, pool)
        Xte = rng.normal(size=(700, 3))
        assert_scores_close(bank_scores(models, Xte), np.column_stack(
            [reference_decision_scores(m, Xte) for m in models]))
        for m in models:
            assert_scores_close(decision_scores(m, Xte), reference_decision_scores(m, Xte))

    def test_trained_banks(self, rng):
        X = rng.normal(size=(150, 2))
        y = 1 + (X[:, 0] > 0) + (X[:, 1] > 0.5)
        mc = train_multiclass(X, y, 20.0, KernelParams(0.7))
        Xte = rng.normal(size=(500, 2))
        for bank in (list(mc.pairwise.values()), mc.one_vs_all):
            assert_scores_close(bank_scores(bank, Xte), np.column_stack(
                [reference_decision_scores(m, Xte) for m in bank]))

    @pytest.mark.parametrize("m", [0, 1, SCORE_CHUNK_ROWS, SCORE_CHUNK_ROWS + 1])
    def test_chunk_edges(self, rng, m):
        pool = rng.normal(size=(30, 2))
        models = random_bank(rng, 4, pool)
        Xte = rng.normal(size=(m, 2))
        got = bank_scores(models, Xte)
        assert got.shape == (m, 4)
        assert_scores_close(got, np.column_stack(
            [reference_decision_scores(mm, Xte) for mm in models]).reshape(m, 4))

    @pytest.mark.parametrize("k", [1, 4])
    def test_support_table_holds_each_row_once(self, rng, k):
        pool = rng.normal(size=(25, 3))
        models = random_bank(rng, k, pool)
        used = np.concatenate([m.sv_idx for m in models] + [[3, 7]])
        # a row twice within one model
        models.append(sv_model(0.5, pool[[3, 7, 3]], np.array([0.5, -1.0, 0.75])))
        table, where = support_table(models)
        assert_array_equal(table, np.unique(pool[used], axis=0))
        assert len(where) == len(models)
        for m, w in zip(models, where):
            assert_array_equal(table[w], m.sv_rows)

    def test_repeated_row_within_a_model(self, rng):
        rows = rng.normal(size=(3, 2))
        model = sv_model(0.25, rows[[0, 1, 0, 2]], np.array([0.5, -1.0, 0.75, 0.3]))
        Xte = rng.normal(size=(50, 2))
        assert_scores_close(bank_scores([model], Xte)[:, 0],
                            reference_decision_scores(model, Xte))

    def test_empty_support_sets_score_their_bias_exactly(self, rng):
        models = [sv_model(b) for b in (1.0, -0.5, 0.0)]
        out = bank_scores(models, rng.normal(size=(7, 2)))
        assert_array_equal(out, np.tile([1.0, -0.5, 0.0], (7, 1)))

    def test_mixed_kernels_rejected(self, rng):
        pool = rng.normal(size=(10, 2))
        bank = random_bank(rng, 2, pool) + random_bank(rng, 1, pool, KernelParams(2.0))
        with pytest.raises(ValueError, match="kernel"):
            bank_scores(bank, pool)

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bank_scores([], np.zeros((3, 2)))

    def test_joint_banks_score_as_each_bank_alone(self, rng):
        pool = rng.normal(size=(40, 2))
        narrow = random_bank(rng, 3, pool[:25])
        # a scorer on every row of the pool: the joint table is this bank's own
        every_row = sv_model(0.1, pool, rng.normal(size=40))
        every_row.kernel = KernelParams(0.8)
        wide = random_bank(rng, 2, pool) + [every_row]
        Xte = rng.normal(size=(600, 2))
        got_narrow, got_wide = joint_bank_scores([narrow, wide], Xte)
        assert_array_equal(got_wide, bank_scores(wide, Xte))
        # the narrow bank's product also sums the rows it has no pull on
        assert_scores_close(got_narrow, bank_scores(narrow, Xte))
        assert_scores_close(got_narrow, np.column_stack(
            [reference_decision_scores(m, Xte) for m in narrow]))
        with pytest.raises(ValueError, match="empty"):
            joint_bank_scores([narrow, []], Xte)


class TestThreadedBankScores:
    """Chunks scored on threads give the serial scores bit for bit, and no
    thread outlives the call."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Pretend this many CPUs are usable, so threads run on any machine."""
        def set_cpus(n):
            monkeypatch.setattr(svm, "_usable_cpus", lambda: n)
        set_cpus(2)
        return set_cpus

    @pytest.fixture
    def chunk_threads(self, monkeypatch):
        """The thread ident of every kernel_matrix call bank_scores makes."""
        idents = []

        def recording(*args, **kwargs):
            idents.append(threading.get_ident())
            return kernel_matrix(*args, **kwargs)

        monkeypatch.setattr(svm, "kernel_matrix", recording)
        return idents

    @staticmethod
    def scores(monkeypatch, threads, models, Xte):
        monkeypatch.setenv("MARGIN_FILTER_THREADS", str(threads))
        return bank_scores(models, Xte)

    @pytest.mark.parametrize("m", [0, 1, SCORE_CHUNK_ROWS - 1, SCORE_CHUNK_ROWS,
                                   SCORE_CHUNK_ROWS + 1, 1000])
    def test_same_bits_on_one_or_two_threads(self, monkeypatch, rng, cpus, m):
        models = random_bank(rng, 4, rng.normal(size=(60, 2)))
        Xte = rng.normal(size=(m, 2))
        serial, threaded = (self.scores(monkeypatch, t, models, Xte) for t in (1, 2))
        assert threaded.shape == (m, 4)
        assert_array_equal(threaded, serial)

    def test_chunks_run_on_pool_threads(self, monkeypatch, rng, cpus, chunk_threads):
        models = random_bank(rng, 3, rng.normal(size=(30, 2)))
        before = threading.active_count()
        self.scores(monkeypatch, 2, models, rng.normal(size=(4 * SCORE_CHUNK_ROWS, 2)))
        assert threading.active_count() == before
        assert len(chunk_threads) == 4
        assert threading.get_ident() not in chunk_threads

    @pytest.mark.parametrize("m", [1, SCORE_CHUNK_ROWS])
    def test_one_chunk_runs_in_the_calling_thread(self, monkeypatch, rng, cpus,
                                                  chunk_threads, m):
        models = random_bank(rng, 3, rng.normal(size=(30, 2)))
        self.scores(monkeypatch, 2, models, rng.normal(size=(m, 2)))
        assert chunk_threads == [threading.get_ident()]

    def test_worker_process_scores_in_the_calling_thread(self, monkeypatch, rng, cpus,
                                                         chunk_threads):
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        models = random_bank(rng, 3, rng.normal(size=(30, 2)))
        self.scores(monkeypatch, 2, models, rng.normal(size=(1000, 2)))
        assert chunk_threads == [threading.get_ident()] * 4

    def test_chunk_error_propagates_after_join(self, monkeypatch, rng, cpus):
        calls = []

        def failing(A, *args, **kwargs):
            calls.append(len(A))
            if len(calls) == 2:
                raise FloatingPointError("chunk failed")
            return kernel_matrix(A, *args, **kwargs)

        monkeypatch.setattr(svm, "kernel_matrix", failing)
        models = random_bank(rng, 3, rng.normal(size=(30, 2)))
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="chunk failed"):
            self.scores(monkeypatch, 2, models, rng.normal(size=(20 * SCORE_CHUNK_ROWS, 2)))
        assert threading.active_count() == before
        # the other thread stops at its next chunk
        assert len(calls) < 20

    def test_stress_more_threads_than_cores(self, monkeypatch, rng, cpus):
        """Eight threads switching every microsecond still score each chunk
        exactly once: a chunk lost or scored twice changes the result."""
        cpus(8)
        models = random_bank(rng, 5, rng.normal(size=(40, 3)))
        Xte = rng.normal(size=(40 * SCORE_CHUNK_ROWS + 3, 3))
        serial = self.scores(monkeypatch, 1, models, Xte)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self.scores(monkeypatch, 8, models, Xte)
        finally:
            sys.setswitchinterval(interval)
        assert_array_equal(threaded, serial)


class TestLabelsMatchReference:
    @pytest.mark.parametrize("c", [2, 3, 4, 5])
    def test_random_banks(self, rng, c):
        pool = rng.normal(size=(25, 2))
        mc = random_multiclass(rng, c, pool)
        Xte = rng.normal(size=(1500, 2))
        platt = [PlattParams(A=rng.uniform(-4.0, -0.5), B=rng.uniform(-1.0, 1.0))
                 for _ in range(c)]
        T = random_transitions(rng, c)
        assert_array_equal(oao_vote(mc, Xte), reference_oao_vote(mc, Xte))
        assert_array_equal(decode_offline(mc, platt, T, Xte),
                           reference_decode_offline(mc, platt, T, Xte))

    @pytest.mark.parametrize("c", [3, 4])
    def test_forced_ties(self, rng, c):
        # bias-only and negative-alpha stubs: every one-vs-all score is the
        # same, so the emissions tie and Viterbi's tie-break decides
        pool = rng.normal(size=(3, 2))
        Xte = rng.normal(size=(40, 2))
        T = random_transitions(rng, c)
        platt = [PlattParams(A=-1.0, B=0.0)] * c
        for signs in list(np.ndindex(*(2,) * (c * (c - 1) // 2)))[::3]:
            mc = MulticlassModel(
                classes=np.arange(1, c + 1),
                pairwise={p: sv_model(1.0 if s else -1.0) for p, s in zip(pairs_of(c), signs)},
                one_vs_all=[sv_model(0.5, pool, np.array([0.4, -0.4, 0.0]))] * c)
            assert_array_equal(oao_vote(mc, Xte), reference_oao_vote(mc, Xte))
            assert_array_equal(decode_offline(mc, platt, T, Xte),
                               reference_decode_offline(mc, platt, T, Xte))


class TestViterbiMatchesReference:
    @pytest.mark.parametrize("c", [1, 2, 3, 5, 8])
    def test_random(self, rng, c):
        P = rng.uniform(0.05, 1.0, size=(3000, c))
        E = np.log(P / P.sum(axis=1, keepdims=True))
        T = random_transitions(rng, c)
        assert_array_equal(viterbi(E, T), reference_viterbi(E, T))

    @pytest.mark.parametrize("c", [1, 2, 3, 4])
    def test_all_tie_emissions(self, rng, c):
        E = np.full((200, c), -np.log(c))
        for T in (random_transitions(rng, c),
                  TransitionMatrix(M=np.full((c, c), 1.0 / c), prior=np.full(c, 1.0 / c))):
            assert_array_equal(viterbi(E, T), reference_viterbi(E, T))

    def test_single_sample(self, rng):
        E = np.log(np.array([[0.2, 0.5, 0.3]]))
        T = random_transitions(rng, 3)
        assert_array_equal(viterbi(E, T), reference_viterbi(E, T))


def reference_train_multiclass(X, y, C, kernel, *, tol=1e-3):
    """Every pair and every one-vs-all scorer solved cold on its own."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y).ravel()
    classes = np.unique(y)
    K = kernel_matrix(X, X, kernel)
    pairwise = {}
    for a in range(len(classes)):
        for b in range(a + 1, len(classes)):
            idx = np.flatnonzero((y == classes[a]) | (y == classes[b]))
            y_pm = np.where(y[idx] == classes[a], 1.0, -1.0)
            pairwise[(a, b)] = solve_svm_dual(K[np.ix_(idx, idx)], y_pm, C,
                                              rows=X[idx], kernel=kernel, tol=tol)
    one_vs_all = [solve_svm_dual(K, np.where(y == cls, 1.0, -1.0), C, rows=X,
                                 kernel=kernel, tol=tol)
                  for cls in classes]
    return MulticlassModel(classes=classes, pairwise=pairwise, one_vs_all=one_vs_all)


def assert_same_model(got: SvmModel, want: SvmModel):
    for name in ("alpha", "sv_idx", "sv_labels", "sv_alpha", "sv_rows"):
        assert_array_equal(getattr(got, name), getattr(want, name))
    assert (got.bias, got.objective, got.converged, got.n_iter, got.C, got.box,
            got.kernel) == (want.bias, want.objective, want.converged, want.n_iter,
                            want.C, want.box, want.kernel)


def class_data(rng, c, n=180):
    """c Gaussian blobs on a circle, overlapping enough to leave free alphas."""
    y = rng.integers(1, c + 1, size=n) * 10
    angle = 2 * np.pi * y / (10 * c)
    X = np.column_stack([np.cos(angle), np.sin(angle)]) + rng.normal(scale=0.7, size=(n, 2))
    return X, y


class TestBanksMatchReference:
    """A binary bank is one SMO solve; a bank of c >= 3 classes is unchanged."""

    def test_binary_one_vs_all_is_the_pair_and_its_negation(self, rng):
        X, y = class_data(rng, 2)
        mc = train_multiclass(X, y, 20.0, KernelParams(0.8))
        ref = reference_train_multiclass(X, y, 20.0, KernelParams(0.8))
        pair = mc.pairwise[(0, 1)]
        # the pair is orientation 0's warm solve from the cold pair's alpha:
        # no SMO step, the same alpha and support set, and a bias from a
        # freshly computed K @ (alpha * y) instead of the running one
        assert pair is mc.one_vs_all[0]
        want = ref.pairwise[(0, 1)]
        for name in ("alpha", "sv_idx", "sv_labels", "sv_alpha", "sv_rows"):
            assert_array_equal(getattr(pair, name), getattr(want, name))
        assert (pair.n_iter, pair.converged) == (0, True)
        assert pair.bias == pytest.approx(want.bias, abs=1e-12)
        assert mc.one_vs_all[1].n_iter == 0

        Xte = rng.normal(size=(600, 2))
        s = decision_scores(pair, Xte)
        assert np.max(np.abs(decision_scores(mc.one_vs_all[0], Xte) - s)) == 0.0
        assert_array_equal(decision_scores(mc.one_vs_all[1], Xte), -s)
        both = bank_scores(mc.one_vs_all, Xte)
        assert_array_equal(both[:, 1], -both[:, 0])
        # the same dual solution as a cold solve of the swapped labels, to
        # the solver tolerance
        flipped = ref.one_vs_all[1]
        assert_array_equal(mc.one_vs_all[1].alpha, pair.alpha)
        assert abs(flipped.objective - pair.objective) <= 1e-3 * pair.objective
        assert np.mean(np.sign(decision_scores(flipped, Xte)) == -np.sign(s)) > 0.99

    @pytest.mark.parametrize("c", [3, 4])
    @pytest.mark.parametrize("method", ["svm", "avg_svm"])
    def test_multiclass_banks_bit_identical(self, rng, c, method):
        X, y = class_data(rng, c)
        pipe = train_pipeline(X, y, method, C=20.0, sigma_k=0.8, f=3, n0=1)
        ref = reference_train_multiclass(pipe.filtered(X), y, 20.0, KernelParams(0.8))
        assert_array_equal(pipe.model.classes, ref.classes)
        assert list(pipe.model.pairwise) == list(ref.pairwise)
        for key, model in pipe.model.pairwise.items():
            assert_same_model(model, ref.pairwise[key])
        assert len(pipe.model.one_vs_all) == c
        for model, want in zip(pipe.model.one_vs_all, ref.one_vs_all):
            assert_same_model(model, want)

    def test_model_json_reproduces_the_negated_scores(self, rng, tmp_path):
        X, y = class_data(rng, 2)
        pipe = train_pipeline(X, y, "svm", C=20.0, sigma_k=0.8)
        save_model(tmp_path / "model.json", pipe)
        loaded = load_model(tmp_path / "model.json", pipe.filter).model
        Xte = rng.normal(size=(300, 2))
        s = decision_scores(pipe.model.pairwise[(0, 1)], Xte)
        for model, want in zip(loaded.one_vs_all, (s, -s)):
            assert_array_equal(decision_scores(model, Xte), want)
        assert_array_equal(decision_scores(loaded.pairwise[(0, 1)], Xte), s)
